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
    bounded_closure,
    parse_regex,
    parse_rule,
    rule_to_text,
    sigma_step,
    splice_classic,
    splice_pixton,
    system_from_json,
    system_to_json,
)
from splicekit.splicing import splice_words



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
    pool = (("", "a", "c"), (0, 1, 2))
    product = RuleProduct("pixton", (pool,) * 3, frozenset({(1, 1, 0)}))
    assert list(product) == [PixtonRule("a", "a", "")]
    # "c" is in the pools but in no rule, and only rule components are checked
    assert SplicingSystem("pixton", AB, (), product).rules is product
    with pytest.raises(ValueError, match="classic system holds pixton rules"):
        SplicingSystem("classic", AB, (), product)
    with pytest.raises(ValueError, match="pixton rule products need 3 components"):
        RuleProduct("pixton", (pool,) * 4, product.tuples)
    with pytest.raises(UnknownSymbolError, match="symbol 'c' not in alphabet"):
        SplicingSystem("pixton", AB, (), RuleProduct("pixton", (pool,) * 3, frozenset({(1, 2, 0)})))


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


def test_splice_words_dispatch():
    assert splice_words("ab", "ab", ClassicRule("a", "b", "", "ab")) == {"aab"}
    assert splice_words("aa", "bb", PixtonRule("a", "b", "")) == {"", "b", "a", "ab"}
