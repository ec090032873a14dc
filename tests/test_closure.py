import hashlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splicekit import (
    Alphabet,
    ClassicRule,
    InfiniteAxiomLanguageError,
    PixtonRule,
    SplicingSystem,
    automaton_from_json,
    automaton_to_json,
    bounded_closure,
    build_closure,
    canonical_system,
    closure_language,
    custom_bounds,
    decide_splicing,
    determinize,
    difference_witness,
    enumerate_words,
    equivalent,
    minimize,
    parse_regex,
    syntactic_monoid,
    theorem_bounds,
)
from splicekit import closure as closure_module
from splicekit.automata import _image, _move, _predecessors
from splicekit.closure import closure_dfa
from splicekit.splicing import RuleProduct, sigma_step

from helpers import (
    automaton_to_json_reference,
    build_closure_reference,
    build_gadget_closure_reference,
    coreachable_brute,
    determinize_brute,
    ll_sorted,
    neighbour_split,
    random_classic_rule,
    random_pixton_rule,
    random_word,
    reachable_brute,
)

A = Alphabet.from_string("a")
AB = Alphabet.from_string("ab")
C = Alphabet.from_string("c")
ABC = Alphabet.from_string("abc")
CAB = Alphabet.from_string("cab")


def lang(regex, alphabet=AB):
    return minimize(determinize(parse_regex(regex, alphabet)))


EXAMPLE1 = SplicingSystem(
    "classic",
    AB,
    ("ab",),
    (ClassicRule("a", "b", "", "ab"), ClassicRule("ab", "", "a", "b")),
)


def random_system(rng: random.Random) -> SplicingSystem:
    variant = rng.choice(("classic", "pixton"))
    axioms = tuple(
        sorted({random_word(rng, AB, 3) for _ in range(rng.randint(1, 3))})
    )
    if variant == "classic":
        rules = tuple(
            ClassicRule(*(random_word(rng, AB, 2) for _ in range(4)))
            for _ in range(rng.randint(0, 3))
        )
    else:
        rules = tuple(
            random_pixton_rule(rng, AB, 2) for _ in range(rng.randint(0, 3))
        )
    return SplicingSystem(variant, AB, axioms, rules)


def stabilized_oracle(system: SplicingSystem, report_len: int) -> set[str]:
    """Raise the cap until two consecutive caps agree on the report."""
    cap = max(
        report_len,
        len(max(system.axiom_words(), key=len, default="")),
    )
    previous = bounded_closure(system, report_len, cap)
    for cap in range(cap + 1, cap + 25):
        current = bounded_closure(system, report_len, cap)
        if current == previous:
            return current
        previous = current
    raise AssertionError("oracle did not stabilize within the cap budget")


def test_example1_closure_is_a_plus_b_plus():
    assert equivalent(closure_language(EXAMPLE1), lang("a+b+"))[0]


def test_marker_closure():
    system = SplicingSystem(
        "classic", AB, ("b", "baa"), (ClassicRule("baa", "", "b", ""),)
    )
    assert equivalent(closure_language(system), lang("b(aa)*"))[0]


def test_no_rules_closure_equals_axioms():
    system = SplicingSystem("classic", AB, ("ab", "ba"), ())
    closure = build_closure(system)
    assert closure.rounds == 0
    assert closure.added == ()
    assert enumerate_words(closure_language(system), 4) == ["ab", "ba"]


def test_pixton_growth_example():
    system = SplicingSystem("pixton", C, ("c",), (PixtonRule("c", "c", "cc"),))
    assert equivalent(closure_language(system), lang("c+", C))[0]


def test_no_rule_system_with_epsilon_axiom():
    system = SplicingSystem("classic", AB, ("",), ())
    assert enumerate_words(closure_language(system), 3) == [""]


def test_entirely_empty_system():
    system = SplicingSystem("classic", AB, (), ())
    assert enumerate_words(closure_language(system), 3) == []
    with_rule = SplicingSystem("classic", AB, (), (ClassicRule("a", "", "", "a"),))
    assert enumerate_words(closure_language(with_rule), 3) == []


def test_symbolic_axiom_automaton_accepted():
    finite = parse_regex("b(()|aa)", AB)
    system = SplicingSystem("classic", AB, finite, ())
    assert enumerate_words(closure_language(system), 5) == ["b", "baa"]


def test_infinite_symbolic_axioms_rejected():
    system = SplicingSystem("classic", AB, parse_regex("a*", AB), ())
    with pytest.raises(InfiniteAxiomLanguageError):
        build_closure(system)


def test_every_axiom_is_accepted():
    rng = random.Random(2024)
    for _ in range(20):
        system = random_system(rng)
        closure = build_closure(system).nfa()
        for axiom in system.axiom_words():
            assert closure.accepts(axiom)


def test_closure_is_closed_under_splicing():
    # soundness in the closure direction: splicing accepted words stays accepted
    rng = random.Random(99)
    for _ in range(12):
        system = random_system(rng)
        dfa = closure_language(system)
        pool = enumerate_words(dfa, 10)
        step = max(1, len(pool) // 40)
        words = pool[::step]  # spread sample across lengths up to 10
        results = sigma_step(set(words), system.rules)
        for z in results:
            assert dfa.accepts(z), (system, z)


def test_adding_a_rule_never_shrinks_the_language():
    rng = random.Random(123)
    for _ in range(12):
        system = random_system(rng)
        if system.variant != "pixton":
            continue
        extra = random_pixton_rule(rng, AB, 2)
        bigger = SplicingSystem("pixton", AB, system.axioms, system.rules + (extra,))
        before = closure_language(system)
        after = closure_language(bigger)
        assert difference_witness(before, after) is None


def test_closure_agrees_with_stabilized_oracle():
    rng = random.Random(7)
    for _ in range(25):
        system = random_system(rng)
        dfa = closure_language(system)
        got = set(enumerate_words(dfa, 6))
        want = stabilized_oracle(system, 6)
        assert got == want, (system, ll_sorted(AB, got ^ want))


def test_closure_matches_oracle_on_three_letter_alphabet():
    abc = Alphabet.from_string("abc")
    rng = random.Random(303)
    for _ in range(10):
        axioms = tuple(
            sorted({random_word(rng, abc, 3) for _ in range(rng.randint(1, 2))})
        )
        rules = tuple(
            PixtonRule(*(random_word(rng, abc, 2) for _ in range(3)))
            for _ in range(rng.randint(1, 2))
        )
        system = SplicingSystem("pixton", abc, axioms, rules)
        got = set(enumerate_words(closure_language(system), 5))
        want = stabilized_oracle(system, 5)
        assert got == want, (system, got ^ want)


def test_rounds_and_state_set_are_bounded():
    closure = build_closure(EXAMPLE1)
    n = closure.base.state_count
    assert closure.rounds <= n * n
    assert all(e.src < n and e.dst < n for e in closure.added)


def test_closure_nfa_is_built_once():
    closure = build_closure(EXAMPLE1)
    assert closure.nfa() is closure.nfa()
    # the kept automaton is not a field, so equality still compares fields
    assert closure == build_closure(EXAMPLE1)


def test_added_edges_attach_to_hubs():
    closure = build_closure(EXAMPLE1)
    left = {hub for _site, hub in closure.left_hubs}
    right = {hub for _site, hub in closure.right_hubs}
    for e in closure.added:
        if e.side == "in":
            assert e.dst in left
        else:
            assert e.src in right


def test_example1_added_edges_are_pinned():
    closure = build_closure(EXAMPLE1)
    assert closure.rounds == 2
    assert [tuple(e) for e in closure.added] == [
        (0, 3, "ab", "in", 1),
        (8, 2, "ab", "out", 1),
        (3, 3, "ab", "in", 2),
        (4, 3, "ab", "in", 2),
        (6, 3, "ab", "in", 2),
        (8, 5, "ab", "out", 2),
        (8, 7, "ab", "out", 2),
        (8, 8, "ab", "out", 2),
    ]


def test_canonical_added_edges_are_pinned():
    """The exact ordered provenance of a canonical system's saturation.

    Left sites come first, then right sites, each in hub order, and within
    a site the new points in ascending state order; the 1,430 edges are
    pinned through a digest of their text form.
    """
    system = canonical_system(lang("a+b+"), "classic", custom_bounds("classic", 3, 3, 3))
    closure = build_closure(system)
    assert closure.rounds == 5
    per_round = [sum(1 for e in closure.added if e.round == r) for r in range(1, 6)]
    assert per_round == [12, 108, 674, 588, 48]
    assert [tuple(e) for e in closure.added[:12]] == [
        (0, 3, "", "in", 1),
        (1, 3, "", "in", 1),
        (2, 3, "", "in", 1),
        (0, 4, "a", "in", 1),
        (1, 6, "b", "in", 1),
        (0, 11, "ab", "in", 1),
        (92, 0, "", "out", 1),
        (92, 1, "", "out", 1),
        (92, 2, "", "out", 1),
        (94, 1, "a", "out", 1),
        (96, 2, "b", "out", 1),
        (102, 2, "ab", "out", 1),
    ]
    text = "\n".join(f"{e.src} {e.dst} {e.site} {e.side} {e.round}" for e in closure.added)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e8007ad21956775dc45a4d3906aa8232388a1219246b79140029c56a37fd32ee"
    )


@pytest.mark.parametrize(
    "regex,variant,custom,digest",
    [
        ("a+b+", "classic", (4, 3, 4),
         "544e70d92173753590060d5fbec23a8ebf35082b171d9ce8b156801430dff7b7"),
        ("a*b*", "pixton", (6, 4, 6),
         "beb2b285b064ee684545a6b10e2b32e006d34801827057db49895b8a28d4fff2"),
    ],
)
def test_closure_dfa_json_is_pinned(regex, variant, custom, digest):
    system = canonical_system(lang(regex), variant, custom_bounds(variant, *custom))
    text = automaton_to_json(closure_dfa(build_closure(system)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _heads_and_cuts(rule) -> tuple[str, str, str, int]:
    """(left site, head, right site, cut): a classic rule reads u1 on u1·v1
    and cuts u2·v2 after u2, a triplet reads v on u1 and cuts u2 at its end."""
    if isinstance(rule, ClassicRule):
        return rule.u1 + rule.v1, rule.u1, rule.u2 + rule.v2, len(rule.u2)
    return rule.u1, rule.v, rule.u2, len(rule.u2)


def test_state_count_is_axioms_hubs_and_distinct_insert_prefixes():
    """A tuple of rules and a classic product take the same rule part: per
    left site its hub and one state per distinct non-empty prefix of its
    heads, and per right site its states from its first cut to its end,
    the hub included.  A classic site's heads are its own prefixes, so its
    trie is a chain up to its last cut."""
    rng = random.Random(11)
    product = canonical_system(lang("a+b+"), "classic", custom_bounds("classic", 3, 3, 3))
    systems = [product, EXAMPLE1, replace(product, rules=tuple(product.rules))]
    systems += [random_system(rng) for _ in range(10)]
    for system in systems:
        parts = [_heads_and_cuts(rule) for rule in system.rules]
        prefixes = {(left, h[:i]) for left, h, _right, _cut in parts for i in range(1, len(h) + 1)}
        first_cut: dict[str, int] = {}
        for _left, _h, right, cut in parts:
            first_cut[right] = min(first_cut.get(right, cut), cut)
        expected = (
            system.axiom_nfa().state_count
            + len({left for left, _h, _right, _cut in parts})
            + len(prefixes)
            + sum(len(right) - cut + 1 for right, cut in first_cut.items())
        )
        assert build_closure(system).base.state_count == expected, system


def test_classic_product_tuples_without_words_add_no_chain():
    """A product may name a class that no word shorter than its component's
    bound has: such a tuple has no rule, and the chains build nothing for
    it, as the reference built from the rule objects does not."""
    monoid = syntactic_monoid(lang("a+b+"))
    e, a, b = monoid.identity, monoid.class_of("a"), monoid.class_of("b")
    # u1 and v2 are empty below bound 1, so only e is present there
    tuples = frozenset({(e, a, b, e), (e, a, e, b), (a, e, b, e), (a, a, b, b)})
    product = RuleProduct("classic", monoid, (1, 2, 2, 1), tuples)
    system = SplicingSystem("classic", AB, ("ab", "aab"), product)
    assert len(product) == 1
    closure = build_closure(system)
    assert closure == build_closure_reference(system)
    listed = replace(system, rules=tuple(product))
    assert closure_dfa(closure) == closure_dfa(build_closure(listed))


@pytest.mark.parametrize(
    "variant,rules,extra",
    [
        # same left site and head (the bridge) as the first rule, right site
        # of the second
        ("pixton", (PixtonRule("ab", "b", "a"), PixtonRule("b", "ba", "bb")),
         PixtonRule("ab", "ba", "a")),
        # same left site and head (u1) as the first rule, right site and cut
        # of the second, though its insert word u1·v2 is new
        ("classic", (ClassicRule("a", "b", "", "ab"), ClassicRule("ab", "", "a", "b")),
         ClassicRule("a", "b", "a", "b")),
    ],
    ids=["pixton", "classic"],
)
def test_rule_repeating_left_site_and_head_adds_no_state(variant, rules, extra):
    small = build_closure(SplicingSystem(variant, AB, ("ab", "ba"), rules)).base
    big = build_closure(SplicingSystem(variant, AB, ("ab", "ba"), rules + (extra,))).base
    assert big.state_count == small.state_count
    assert big.labeled_edges == small.labeled_edges
    assert len(big.epsilon_edges) == len(small.epsilon_edges) + 1


def shared_pool_system(rng: random.Random) -> SplicingSystem:
    """6-12 rules over {a,b,c} built from two left sites and two right sites,
    so most rules share a left site and an insert prefix with another rule.
    Triplet rules take their bridge from three insert words, one empty;
    classic rules cut a pooled left and right site, so their insert word
    u1·v2 is a left-site prefix and a right-site suffix, empty when both are.

    The pools stay this small because the brute-force oracle's cost grows
    with the number of closure words up to its cap.
    """
    def word(n):
        return "".join(rng.choice(ABC.symbols) for _ in range(n))

    lefts = sorted({word(2) for _ in range(2)})
    rights = sorted({word(2) for _ in range(2)})
    inserts = ["", word(1), word(2)]
    axioms = tuple(
        sorted(
            {
                rng.choice(lefts) + word(rng.randint(0, 2)) + rng.choice(rights)
                for _ in range(rng.randint(1, 2))
            }
        )
    )
    count = rng.randint(6, 12)
    if rng.random() < 0.5:
        rules = tuple(
            PixtonRule(rng.choice(lefts), rng.choice(rights), rng.choice(inserts))
            for _ in range(count)
        )
        return SplicingSystem("pixton", ABC, axioms, rules)
    rules = []
    for _ in range(count):
        left, right = rng.choice(lefts), rng.choice(rights)
        i, j = rng.randint(0, 2), rng.randint(0, 2)
        rules.append(ClassicRule(left[:i], left[i:], right[:j], right[j:]))
    return SplicingSystem("classic", ABC, axioms, tuple(rules))


def test_closure_with_shared_sites_and_insert_words_matches_oracle():
    rng = random.Random(2)
    for _ in range(12):
        system = shared_pool_system(rng)
        got = set(enumerate_words(closure_language(system), 5))
        want = stabilized_oracle(system, 5)
        assert got == want, (system, ll_sorted(ABC, got ^ want))


def finite_regexes(symbols: str):
    """Star-free regexes over the symbols, empty groups included, so their
    Thompson automata keep epsilon edges after trimming."""
    leaves = st.sampled_from(list(symbols) + ["()"])

    def extend(children):
        pairs = st.tuples(children, children)
        return pairs.map(lambda t: f"({t[0]})({t[1]})") | pairs.map(
            lambda t: f"(({t[0]})|({t[1]}))"
        )

    return st.recursive(leaves, extend, max_leaves=6)


@st.composite
def small_systems(draw):
    """Random systems over 2-3 letters, in both variants, with word-tuple
    axioms or with star-free regex automata as axioms.  One alphabet lists
    its letters out of character order, which the ll-order of the sites
    and the lexicographic order of the head tries follow."""
    alphabet = draw(st.sampled_from([AB, ABC, CAB]))
    word = st.text(alphabet="".join(alphabet.symbols), max_size=2)
    if draw(st.booleans()):
        axioms = tuple(
            draw(st.lists(st.text(alphabet="".join(alphabet.symbols), max_size=4),
                          min_size=1, max_size=3))
        )
    else:
        axioms = parse_regex(draw(finite_regexes("".join(alphabet.symbols))), alphabet)
    variant = draw(st.sampled_from(["classic", "pixton"]))
    make, arity = (ClassicRule, 4) if variant == "classic" else (PixtonRule, 3)
    rules = draw(st.lists(st.tuples(*[word] * arity).map(lambda t: make(*t)), max_size=6))
    return SplicingSystem(variant, alphabet, axioms, tuple(rules))


@pytest.mark.parametrize("symbols,regex", [("a", "a|aa"), ("ab", "a|ab"), ("ba", "a|ab")])
def test_axiom_rows_are_matched_to_the_system_alphabet_by_symbol(symbols, regex):
    """An axiom automaton over a sub-alphabet, or over the system's symbols
    in another order, gives the closure the reference builds from its edge
    set, which is keyed by symbol."""
    axioms = parse_regex(regex, Alphabet.from_string(symbols))
    system = SplicingSystem("pixton", AB, axioms, (PixtonRule("a", "a", "b"),))
    assert build_closure(system) == build_closure_reference(system)


@settings(max_examples=300, deadline=None)
@given(small_systems())
def test_saturation_matches_from_scratch_reference(system):
    assert build_closure(system) == build_closure_reference(system)


@settings(max_examples=200, deadline=None)
@given(small_systems())
def test_mask_views_match_edge_set_routes(system):
    """What the closure derives from its masks against independent routes
    over the edge set: the comparison DFA against a frozenset subset
    construction, the emitted JSON against ``automaton_to_json``, and the
    edge views against the edges the from-scratch reference finds.  The
    views are checked both on the bicliques saturation ends with and on
    those the reference's closure derives from its growth masks."""
    closure = build_closure(system)
    reference = build_closure_reference(system)
    nfa = closure.nfa()
    assert nfa.epsilon_edges == closure.base.epsilon_edges | {
        (e.src, e.dst) for e in reference.added
    }
    dfa = minimize(determinize_brute(nfa))
    text = automaton_to_json(nfa)
    assert text == automaton_to_json_reference(nfa)
    for c in (closure, reference):
        assert closure_dfa(c) == dfa
        assert automaton_to_json(c.nfa()) == text
    assert closure.added == reference.added
    assert closure.added_count == len(closure.added)


def _reference(system):
    """The from-scratch reference for the path ``build_closure`` takes: the
    gadgets for a triplet rule product, the head tries and site chains for
    a tuple of rules or a classic product."""
    if isinstance(system.rules, RuleProduct) and system.variant == "pixton":
        return build_gadget_closure_reference(system)
    return build_closure_reference(system)


def _check_views_of_the_masks(system):
    """The base automaton and the saturated one, of build_closure and of the
    reference, pass Nfa's own checks, and the base automaton equals the
    reference's, which it built from edge sets."""
    closure = build_closure(system)
    reference = _reference(system)
    for c in (closure, reference):
        # both are built without Nfa.__post_init__, which replace runs
        assert replace(c.base) == c.base and replace(c.nfa()) == c.nfa()
    assert closure.base == reference.base


@settings(max_examples=200, deadline=None)
@given(small_systems())
def test_coreach_and_base_views_match_brute_force(system):
    _check_views_of_the_masks(system)


def test_closure_dfa_matches_set_subset_construction_with_dead_states():
    """closure_dfa against a frozenset subset construction of the saturated
    automaton, on random rule tuples whose closures reach states that reach
    no accepting state: the subsets hold those states, and the minimal DFA
    is the same."""
    rng = random.Random(25)
    checked = 0
    while checked < 60:
        alphabet = rng.choice([AB, ABC])
        make = rng.choice([random_classic_rule, random_pixton_rule])
        axioms = tuple(random_word(rng, alphabet, 4) for _ in range(rng.randint(1, 3)))
        rules = tuple(make(rng, alphabet, 2) for _ in range(rng.randint(1, 6)))
        variant = "classic" if make is random_classic_rule else "pixton"
        closure = build_closure(SplicingSystem(variant, alphabet, axioms, rules))
        nfa = closure.nfa()
        if reachable_brute(nfa) <= coreachable_brute(nfa):
            continue
        assert closure_dfa(closure) == minimize(determinize_brute(nfa))
        checked += 1


def _theorem_system(regex, variant):
    language = lang(regex, A)
    bounds = theorem_bounds(syntactic_monoid(language).size, variant)
    return canonical_system(language, variant, bounds)


CANONICAL_SYSTEMS = pytest.mark.parametrize(
    "make",
    [
        lambda: canonical_system(lang("a+b+"), "classic", custom_bounds("classic", 3, 3, 3)),
        lambda: canonical_system(lang("a*b*"), "pixton", custom_bounds("pixton", 6, 4, 6)),
        lambda: canonical_system(lang("(ab)*"), "pixton", custom_bounds("pixton", 6, 3, 4)),
        lambda: _theorem_system("a+", "classic"),
        lambda: _theorem_system("aa+", "pixton"),
    ],
    ids=["a+b+ classic (3,3,3)", "a*b* pixton (6,4,6)", "(ab)* pixton (6,3,4)",
         "a+ classic theorem", "aa+ pixton theorem"],
)


@CANONICAL_SYSTEMS
def test_canonical_saturation_matches_from_scratch_reference(make):
    """Classic rows, which take the head tries and site chains tagged by
    class pairs, against that reference; pixton rows, which take the
    gadgets, against the gadget reference; and the language of each against
    that of its rules as a tuple, tagged by their words."""
    system = make()
    closure = build_closure(system)
    assert closure == _reference(system)
    listed = replace(system, rules=tuple(system.rules))
    assert closure_dfa(closure) == closure_dfa(build_closure_reference(listed))


@CANONICAL_SYSTEMS
def test_canonical_mask_views_match_edge_set_routes(make):
    system = make()
    closure = build_closure(system)
    reference = _reference(system)
    nfa = closure.nfa()
    assert nfa.epsilon_edges == closure.base.epsilon_edges | {
        (e.src, e.dst) for e in reference.added
    }
    dfa = minimize(determinize(nfa))
    text = automaton_to_json(nfa)
    assert text == automaton_to_json_reference(nfa)
    for c in (closure, reference):
        assert closure_dfa(c) == dfa
        assert automaton_to_json(c.nfa()) == text
    assert closure.added_count == len(closure.added)


@CANONICAL_SYSTEMS
def test_written_closure_and_dfa_read_back(make):
    """The declared state count of every written closure and DFA passes the
    reader's bound on the states a file names."""
    closure = build_closure(make())
    for automaton in (closure.nfa(), closure_dfa(closure)):
        text = automaton_to_json(automaton)
        assert automaton_to_json(automaton_from_json(text)) == text


@CANONICAL_SYSTEMS
def test_canonical_coreach_and_base_views_match_brute_force(make):
    _check_views_of_the_masks(make())


@CANONICAL_SYSTEMS
def test_closure_dfa_determinizes_through_the_module_name(make, monkeypatch):
    """closure_dfa makes its subset construction with one call of the
    ``determinize`` its module imports, on the saturated automaton, so a
    wrapper put in its place sees every closure determinized."""
    calls = []

    def counting(nfa):
        calls.append(nfa)
        return determinize(nfa)

    monkeypatch.setattr(closure_module, "determinize", counting)
    closure = build_closure(make())
    first = closure_dfa(closure)
    assert len(calls) == 1 and calls[0] is closure.nfa()
    assert closure_dfa(closure) == first and len(calls) == 2


@CANONICAL_SYSTEMS
def test_letter_moves_split_each_row_exactly(make):
    """The rule loop sorts each letter edge as it writes it; the split it
    ends with is the one a pass over the finished rows gives.  Forwards the
    rows are whole; backwards they hold the predecessors over the edges
    that are not p -> p + 1, and the shift images the rest, so the moves
    image a random mask as the whole predecessor rows do."""
    base, forward, backward, _, _ = closure_module._base_automaton(make())
    n = base.state_count
    back_rows = _predecessors(base.rows, n)
    rng = random.Random(0)
    for sym, rows, back in zip(base.alphabet.symbols, base.rows, back_rows):
        shift, rest = neighbour_split(rows, 1)
        assert forward[sym] == (rows, shift, rest, True)
        others = [row & ~(1 << q - 1 if q else 0) for q, row in enumerate(back)]
        assert backward[sym] == (others, *neighbour_split(back, -1), False)
        for density in (0.05, 0.5, 1):
            mask = sum(1 << q for q in range(n) if rng.random() < density)
            assert _move(mask, backward[sym]) == _image(mask, back)


def test_theorem_growth_is_pinned():
    """The points ``decide`` saturates for aaa+ classic at theorem bounds,
    every round, site and mask, through a digest of their text form."""
    closure = decide_splicing(lang("aaa+", A), "classic").closure
    assert (closure.rounds, closure.base.state_count, len(closure.growth)) == (3, 4016, 332)
    text = "\n".join(f"{g.round} {g.side} {g.site} {g.hub} {g.points:x}" for g in closure.growth)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "60b222ecf26384a3c4249fd405237d1b7e4486c845928eb91db1f01203e06c95"
    )
