import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splicekit import (
    Alphabet,
    ClassicRule,
    InfiniteAxiomLanguageError,
    PixtonRule,
    RuleProduct,
    SplicingSystem,
    UnknownSymbolError,
    Dfa,
    bounded_closure,
    canonical_system,
    custom_bounds,
    decide_splicing,
    determinize,
    minimize,
    parse_regex,
    parse_rule,
    rule_to_text,
    sigma_step,
    syntactic_monoid,
    splice_classic,
    splice_pixton,
    system_from_json,
    system_to_json,
)
from splicekit.splicing import splice_words, system_chunks

from helpers import system_to_json_reference



A = Alphabet.from_string("a")
AB = Alphabet.from_string("ab")
C = Alphabet.from_string("c")

EXAMPLE1 = SplicingSystem(
    "classic",
    AB,
    ("ab",),
    (ClassicRule("a", "b", "", "ab"), ClassicRule("ab", "", "a", "b")),
)


def test_splice_classic_running_example():
    assert ("aab", 1) in splice_classic("ab", "ab", ClassicRule("a", "b", "", "ab"))
    assert ("abb", 2) in splice_classic("ab", "ab", ClassicRule("ab", "", "a", "b"))
    assert splice_classic("b", "b", ClassicRule("aa", "", "", "")) == set()


def test_splice_classic_positions_mark_the_junction():
    for z, pos in splice_classic("aab", "abb", ClassicRule("a", "b", "", "ab")):
        # the prefix up to pos came from the first word (ending in u1)
        assert z[:pos].endswith("a")


def test_splice_pixton_enumerates_all_factorizations():
    got = splice_pixton("aa", "bb", PixtonRule("a", "b", "c"))
    assert got == {"c", "cb", "ac", "acb"}
    assert splice_pixton("aa", "aa", PixtonRule("b", "", "")) == set()


def test_splice_pixton_empty_rule_collapses_to_prefix_suffix():
    got = splice_pixton("ab", "cd".replace("c", "a").replace("d", "b"), PixtonRule("", "", ""))
    want = {x + y for x in ("", "a", "ab") for y in ("ab", "b", "")}
    assert got == want


def test_sigma_step_examples():
    assert sigma_step({"ab"}, EXAMPLE1.rules) == {"aab", "abb"}
    assert sigma_step({"ab"}, ()) == set()
    assert sigma_step(set(), EXAMPLE1.rules) == set()


_word = st.text(alphabet="ab", max_size=5)


@settings(max_examples=200, deadline=None)
@given(_word, _word, _word, _word, _word, _word)
def test_variant_embedding_matches_classic_splicing(u1, v1, u2, v2, w1, w2):
    # a quadruple and its triplet form (u1v1, u2v2; u1v2) splice identically
    rule = ClassicRule(u1, v1, u2, v2)
    classic = {z for z, _ in splice_classic(w1, w2, rule)}
    assert classic == splice_pixton(w1, w2, rule.pixton_equivalent())


def test_bounded_closure_running_example():
    got = bounded_closure(EXAMPLE1, 4, 8)
    assert got == {"ab", "aab", "abb", "aaab", "aabb", "abbb"}


def test_bounded_closure_no_rules_returns_axioms():
    system = SplicingSystem("classic", AB, ("ab", "aabb", "a"), ())
    assert bounded_closure(system, 2, 6) == {"ab", "a"}


def test_bounded_closure_marker_example():
    system = SplicingSystem("classic", AB, ("b", "baa"), (ClassicRule("baa", "", "b", ""),))
    assert bounded_closure(system, 7, 9) == {"b", "baa", "baaaa", "baaaaaa"}


def test_bounded_closure_monotone_in_cap():
    for cap in range(4, 10):
        smaller = bounded_closure(EXAMPLE1, 4, cap)
        larger = bounded_closure(EXAMPLE1, 4, cap + 1)
        assert smaller <= larger


def test_bounded_closure_holds_no_round_of_over_cap_words():
    """Words over the cap are dropped as each first word's splices are made:
    the round's products up to twice the cap long are never all held."""
    system = SplicingSystem(
        "pixton", AB, ("", "aa"),
        (PixtonRule("ba", "ab", "ab"), PixtonRule("", "", "b"), PixtonRule("b", "aa", "aa")),
    )
    known = set(system.axiom_words())
    while True:
        more = {
            z for rule in system.rules for w1 in known for w2 in known
            for z in splice_words(w1, w2, rule) if len(z) <= 5
        }
        if more <= known:
            break
        known |= more
    assert bounded_closure(system, 4, 5) == {w for w in known if len(w) <= 4}
    tracemalloc.start()
    try:
        bounded_closure(system, 4, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 1.33 MB while every product of a round was held, 0.12 MB when not
    assert peak < 500_000, peak


def test_bounded_closure_validates_caps():
    with pytest.raises(ValueError):
        bounded_closure(EXAMPLE1, 4, 3)


def test_default_cap_headroom():
    # report + 2 * (longest axiom + longest rule component)
    from splicekit.splicing import default_cap_len

    assert default_cap_len(EXAMPLE1, 4) == 4 + 2 * (2 + 2)


def test_axioms_as_automaton_must_be_finite():
    infinite = parse_regex("a*", A)
    system = SplicingSystem("pixton", A, infinite, ())
    with pytest.raises(InfiniteAxiomLanguageError):
        system.axiom_words()


def test_axioms_as_automaton_enumerate():
    finite = parse_regex("b(()|aa)", AB)
    system = SplicingSystem("classic", AB, finite, ())
    assert system.axiom_words() == ("b", "baa")


def test_system_validation():
    with pytest.raises(ValueError):
        SplicingSystem("classic", AB, ("ab",), (PixtonRule("a", "b", "c"),))
    with pytest.raises(Exception):
        SplicingSystem("classic", AB, ("xy",), ())
    with pytest.raises(ValueError):
        SplicingSystem("sticky", AB, ("ab",), ())


def test_system_rejects_rules_that_are_neither_a_tuple_nor_a_product():
    rules = [ClassicRule("a", "b", "", "ab"), ClassicRule("ab", "", "a", "b")]
    # validating would use up a generator, and a list leaves the system unhashable
    with pytest.raises(ValueError, match="not a generator"):
        SplicingSystem("classic", AB, ("ab",), (r for r in rules))
    with pytest.raises(ValueError, match="not a list"):
        SplicingSystem("classic", AB, ("ab",), rules)
    system = SplicingSystem("classic", AB, ("ab",), tuple(rules))
    assert system == EXAMPLE1 and hash(system) == hash(EXAMPLE1)


def test_rule_product_validation():
    # over ab, a* has the classes of "" (a is congruent to it) and of b
    monoid = syntactic_monoid(minimize(determinize(parse_regex("a*", AB))))
    product = RuleProduct("pixton", monoid, (2, 2, 1), frozenset({(0, 0, 0)}))
    assert product.pools == ((("", "a", "b"), (0, 0, 1)),) * 2 + ((("",), (0,)),)
    assert list(product) == [
        PixtonRule("", "", ""), PixtonRule("", "a", ""),
        PixtonRule("a", "", ""), PixtonRule("a", "a", ""),
    ]
    assert SplicingSystem("pixton", AB, (), product).rules is product
    with pytest.raises(ValueError, match="pixton rule products need 3 components"):
        RuleProduct("pixton", monoid, (2, 2, 1, 1), product.tuples)
    with pytest.raises(ValueError, match="pixton rule products need 3 components"):
        RuleProduct("pixton", monoid, (2, 2, 1), frozenset({(0, 0)}))
    with pytest.raises(ValueError, match="classic system holds pixton rules"):
        SplicingSystem("classic", AB, (), product)
    for other in ("ba", "abc"):
        with pytest.raises(ValueError, match="the rule product's alphabet is not the system's"):
            SplicingSystem("pixton", Alphabet.from_string(other), (), product)


def test_rule_product_refuses_a_bound_below_1():
    # a bound below 1 leaves its component no word, yet its tuples would
    # still count: len 1 with no rule to iterate, and no pool for closure
    monoid = syntactic_monoid(minimize(determinize(parse_regex("a*", A))))
    for variant, arity, make in (("pixton", 3, PixtonRule), ("classic", 4, ClassicRule)):
        tuples = frozenset({(0,) * arity})
        for low in (0, -1):
            for at in range(arity):
                lts = tuple(low if i == at else 1 for i in range(arity))
                with pytest.raises(ValueError, match="all bounds must be at least 1"):
                    RuleProduct(variant, monoid, lts, tuples)
        product = RuleProduct(variant, monoid, (1,) * arity, tuples)
        assert len(product) == 1 and list(product) == [make(*[""] * arity)]


def test_rule_text_round_trip():
    rule = parse_rule("a,b;,ab", "classic", AB)
    assert rule == ClassicRule("a", "b", "", "ab")
    assert rule_to_text(rule) == "a,b;,ab"
    trip = parse_rule("ab,a;b", "pixton", AB)
    assert trip == PixtonRule("ab", "a", "b")
    assert rule_to_text(trip) == "ab,a;b"
    with pytest.raises(ValueError):
        parse_rule("a;b;c", "classic", AB)
    with pytest.raises(ValueError):
        parse_rule("a,b,c;d", "classic", AB)


def test_unknown_symbol_in_the_last_rule_is_rejected():
    rules = [ClassicRule("a", "b", "", "ab")] * 50 + [ClassicRule("a", "b", "c", "ab")]
    with pytest.raises(UnknownSymbolError, match="symbol 'c' not in alphabet"):
        SplicingSystem("classic", AB, ("ab",), tuple(rules))
    with pytest.raises(UnknownSymbolError, match="symbol 'c' not in alphabet"):
        SplicingSystem("pixton", AB, (), (PixtonRule("a", "b", ""), PixtonRule("a", "b", "ac")))


def test_system_json_round_trip_word_axioms():
    text = system_to_json(EXAMPLE1)
    assert text == (
        '{"variant":"classic","alphabet":["a","b"],"axioms":["ab"],'
        '"rules":[["a","b","","ab"],["ab","","a","b"]]}'
    )
    back = system_from_json(text)
    assert back == EXAMPLE1


def test_system_json_round_trip_symbolic_axioms():
    finite = parse_regex("b(()|aa)", AB)
    system = SplicingSystem("pixton", AB, finite, (PixtonRule("a", "b", "c".replace("c", "a")),))
    back = system_from_json(system_to_json(system))
    assert back.axiom_words() == system.axiom_words()
    assert back.rules == system.rules


def _empty_product():
    system = decide_splicing(minimize(determinize(parse_regex("(aa)*", A))), "classic").system
    assert isinstance(system.rules, RuleProduct) and len(system.rules) == 0
    return system


def _rule_tuple():
    rules = (PixtonRule("a", "b", "a"), PixtonRule("", "ab", "b"), PixtonRule("ab", "", ""))
    return SplicingSystem("pixton", AB, parse_regex("b(()|aa)", AB), rules)


def _quote_and_nul_product():
    """The canonical classic system of ("+)(NUL+): its words spell the
    placeholder character the rule writer leaves in its holes."""
    alphabet = Alphabet(('"', "\0"))
    dfa = Dfa(alphabet, 4, 0, frozenset({2}), ((1, 3), (1, 2), (3, 2), (3, 3)))
    system = canonical_system(dfa, "classic", custom_bounds("classic", 3, 3, 3))
    assert len(system.rules) == 2134 and any("\0" in r.components for r in system.rules)
    return system


def _classes_without_words():
    """A product whose tuples name classes that no word below their
    component's bound has: nodes of its class trie with no rule below."""
    monoid = syntactic_monoid(minimize(determinize(parse_regex("a+b+", AB))))
    e, a, b = monoid.identity, monoid.class_of("a"), monoid.class_of("b")
    tuples = frozenset({(e, a, b, e), (e, a, e, b), (a, e, b, e), (e, b, a, e)})
    product = RuleProduct("classic", monoid, (1, 2, 2, 1), tuples)
    assert len(product) == 2
    return SplicingSystem("classic", AB, ("ab",), product)


@pytest.mark.parametrize(
    "make", [_empty_product, _rule_tuple, _quote_and_nul_product, _classes_without_words]
)
def test_system_chunks_match_the_reference(make):
    system = make()
    assert "".join(system_chunks(system)) == system_to_json_reference(system)


def test_splice_words_dispatch():
    assert splice_words("ab", "ab", ClassicRule("a", "b", "", "ab")) == {"aab"}
    assert splice_words("aa", "bb", PixtonRule("a", "b", "")) == {"", "b", "a", "ab"}
