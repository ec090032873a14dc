import json
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splicekit import (
    Alphabet,
    AlphabetMismatchError,
    Dfa,
    Nfa,
    UnknownSymbolError,
    automaton_from_json,
    automaton_to_dot,
    automaton_to_json,
    complement,
    determinize,
    difference,
    difference_witness,
    enumerate_words,
    equivalent,
    intersect,
    length_lex_cmp,
    length_lex_key,
    minimize,
    parse_regex,
    union,
    words_shorter_than,
)
from splicekit.automata import (
    UNNAMED_STATES,
    _bits,
    _image,
    _mask,
    _move,
    _predecessors,
    _unsplit,
    count_words_shorter_than,
    has_cycle,
    occurrences,
    trim,
)
from splicekit.decide import _length_bounded_dfa, canonical_axioms, custom_bounds

from helpers import (
    all_words_upto,
    automaton_to_json_reference,
    determinize_brute,
    has_cycle_brute,
    ll_sorted,
    minimize_moore,
    neighbour_split,
    nfa_accepts_brute,
    random_min_dfa,
    random_regex,
    trim_brute,
)

A = Alphabet.from_string("a")
AB = Alphabet.from_string("ab")
# alphabets whose order is not character order, so a numbering or a witness
# that takes symbols in sorted order shows
UNSORTED = [Alphabet.from_string("ba"), Alphabet.from_string("cab")]


def lang(regex, alphabet=AB):
    return minimize(determinize(parse_regex(regex, alphabet)))


def test_alphabet_rejects_duplicates_and_long_symbols():
    with pytest.raises(ValueError):
        Alphabet.from_string("aa")
    with pytest.raises(ValueError):
        Alphabet(("ab",))


def test_length_lex_examples():
    assert length_lex_cmp(AB, "b", "aa") == -1
    assert length_lex_cmp(AB, "ab", "ba") == -1
    assert length_lex_cmp(AB, "ba", "ba") == 0
    assert length_lex_cmp(AB, "aa", "b") == 1


def test_length_lex_respects_alphabet_order():
    # order is the alphabet's, not ASCII
    ba = Alphabet.from_string("ba")
    assert length_lex_cmp(ba, "b", "a") == -1


def _words_over(alphabet):
    return st.text(alphabet=alphabet.symbols, max_size=6)


@pytest.mark.parametrize("alphabet", UNSORTED, ids=lambda a: "".join(a.symbols))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_length_lex_key_sorts_as_the_reference(alphabet, data):
    """The key spells words in ranks; it sorts as the reference key built
    from ``Alphabet.index`` one character at a time."""
    words = data.draw(st.lists(_words_over(alphabet), max_size=30))
    assert sorted(words, key=length_lex_key(alphabet)) == ll_sorted(alphabet, words)


@pytest.mark.parametrize("alphabet", UNSORTED, ids=lambda a: "".join(a.symbols))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_length_lex_cmp_is_the_sign_of_the_key_comparison(alphabet, data):
    u, v = data.draw(_words_over(alphabet)), data.draw(_words_over(alphabet))
    key = length_lex_key(alphabet)
    sign = (key(u) > key(v)) - (key(u) < key(v))
    assert length_lex_cmp(alphabet, u, v) == sign == -length_lex_cmp(alphabet, v, u)
    assert (sign == 0) == (u == v)


def test_length_lex_key_rejects_a_foreign_symbol():
    """Also a character whose code point is a rank: the key's table maps
    symbols to ranks, and nothing else passes through it."""
    key = length_lex_key(Alphabet.from_string("cab"))
    for word in ("d", "cad", "\x00", "a\x01"):
        with pytest.raises(UnknownSymbolError, match=re.escape(f"symbol {word[-1]!r} not")):
            key(word)


def test_words_shorter_than_order_and_count():
    words = list(words_shorter_than(AB, 3))
    assert words == ["", "a", "b", "aa", "ab", "ba", "bb"]
    assert list(words_shorter_than(AB, 0)) == []


@pytest.mark.parametrize("k", range(4))
def test_count_words_shorter_than_matches_enumeration(k):
    # k = 0 included: over the empty alphabet only the empty word exists
    alphabet = Alphabet.from_string("abc"[:k])
    for bound in range(7):
        assert count_words_shorter_than(k, bound) == len(
            list(words_shorter_than(alphabet, bound))
        )


def test_occurrences_overlapping_and_empty():
    assert occurrences("aaa", "aa") == [0, 1]
    assert occurrences("ab", "") == [0, 1, 2]
    assert occurrences("ab", "ba") == []


def test_determinize_parity_by_hand():
    # two-state NFA for (aa)*: subset construction reaches exactly {0} and {1}
    nfa = Nfa.from_edges(
        alphabet=A,
        state_count=2,
        initial=frozenset({0}),
        accepting=frozenset({0}),
        labeled_edges=frozenset({(0, "a", 1), (1, "a", 0)}),
        epsilon_edges=frozenset(),
    )
    dfa = determinize(nfa)
    assert dfa.state_count == 2
    assert dfa.accepts("aa") and not dfa.accepts("a")


def test_determinize_epsilon_language():
    dfa = determinize(parse_regex("()", A))
    assert dfa.state_count == 2  # accepting start plus sink
    assert dfa.accepts("") and not dfa.accepts("a")


def test_determinize_empty_language():
    nfa = Nfa.from_edges(A, 1, frozenset({0}), frozenset(), frozenset(), frozenset())
    dfa = determinize(nfa)
    assert enumerate_words(dfa, 5) == []


def test_minimize_sizes():
    assert lang("(aa)*", A).state_count == 2
    assert lang("a+b+").state_count == 4  # start, a-seen, b-seen, sink
    assert lang("(a|b)*").state_count == 1


def test_minimize_idempotent_and_preserving():
    rng = random.Random(7)
    for _ in range(25):
        d = random_min_dfa(rng, AB, 5)
        m1 = minimize(d)
        m2 = minimize(m1)
        assert m2.state_count == m1.state_count
        assert equivalent(m1, d)[0]


@st.composite
def complete_dfas(draw, max_states=60):
    """Complete DFAs over 1-3 letters in any order (so alphabet order and
    character order can differ) with any initial state (so some states may
    be unreachable), optional self-looping sinks, and accepting sets drawn
    at random, full or empty."""
    letters = draw(st.permutations("abc"))[: draw(st.integers(1, 3))]
    alphabet = Alphabet(tuple(letters))
    n = draw(st.integers(1, max_states))
    state = st.integers(0, n - 1)
    sinks = draw(st.sets(state, max_size=3))
    rows = tuple(
        (s,) * len(alphabet) if s in sinks
        else tuple(draw(state) for _ in alphabet.symbols)
        for s in range(n)
    )
    kind = draw(st.sampled_from(["random", "all", "none"]))
    if kind == "random":
        accepting = frozenset(draw(st.sets(state)))
    else:
        accepting = frozenset(range(n)) if kind == "all" else frozenset()
    return Dfa(alphabet, n, draw(state), accepting, rows)


@settings(max_examples=300, deadline=None)
@given(complete_dfas())
def test_minimize_matches_moore_refinement(dfa):
    assert automaton_to_json(minimize(dfa)) == automaton_to_json(minimize_moore(dfa))


@settings(max_examples=60, deadline=None)
@given(complete_dfas(max_states=8), st.integers(1, 150))
def test_minimize_matches_moore_on_length_bounded_products(dfa, lt):
    # the shape of canonical_axioms: long chains of length-counting states
    product = intersect(dfa, _length_bounded_dfa(dfa.alphabet, lt))
    assert automaton_to_json(minimize(product)) == automaton_to_json(
        minimize_moore(product)
    )


def test_boolean_ops_examples():
    paa = lang("(aa)*", A)
    astar = lang("a*", A)
    assert enumerate_words(intersect(paa, complement(paa)), 6) == []
    assert equivalent(intersect(paa, astar), paa)[0]
    # words of a* \ (aa)* up to length 6, checked against raw parity
    got = enumerate_words(difference(astar, paa), 6)
    want = [w for w in all_words_upto(A, 6) if len(w) % 2 == 1]
    assert got == want


def test_boolean_ops_reject_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        intersect(lang("a*", A), lang("a*", AB))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30), st.integers(0, 2**30))
def test_de_morgan_difference(seed1, seed2):
    rng1, rng2 = random.Random(seed1), random.Random(seed2)
    a = random_min_dfa(rng1, AB, 4)
    b = random_min_dfa(rng2, AB, 4)
    assert equivalent(difference(a, b), intersect(a, complement(b)))[0]


def test_union_matches_membership():
    rng = random.Random(3)
    for _ in range(10):
        a = random_min_dfa(rng, AB, 4)
        b = random_min_dfa(rng, AB, 4)
        u = union(a, b)
        for w in all_words_upto(AB, 4):
            assert u.accepts(w) == (a.accepts(w) or b.accepts(w))


def test_equivalent_examples():
    assert equivalent(lang("a*", A), lang("(aa)*", A)) == (False, "a")
    d = lang("a+b+")
    assert equivalent(d, minimize(determinize(parse_regex("a+b+", AB)))) == (True, None)


def test_witness_is_ll_least():
    rng = random.Random(11)
    for _ in range(30):
        a = random_min_dfa(rng, AB, 4)
        b = random_min_dfa(rng, AB, 4)
        equal, witness = equivalent(a, b)
        if equal:
            continue
        assert a.accepts(witness) != b.accepts(witness)
        for w in all_words_upto(AB, len(witness)):
            if a.accepts(w) != b.accepts(w):
                assert (len(w), w) >= (len(witness), witness) or w == witness
                break


def ll_least_brute(alphabet, max_len, holds):
    """The ll-least word of length <= max_len that holds is true of, or None:
    every such word sorted under length_lex_key, then scanned."""
    words = sorted(all_words_upto(alphabet, max_len), key=length_lex_key(alphabet))
    return next((w for w in words if holds(w)), None)


@pytest.mark.parametrize("alphabet", UNSORTED, ids=lambda ab: "".join(ab))
def test_witnesses_are_ll_least_in_alphabet_order(alphabet):
    rng = random.Random(17)
    for _ in range(100):
        a = random_min_dfa(rng, alphabet, 4)
        b = random_min_dfa(rng, alphabet, 4)
        equal, witness = equivalent(a, b)
        # with no witness, words up to length 4 must not separate a and b
        bound = 4 if witness is None else len(witness)
        assert witness == ll_least_brute(
            alphabet, bound, lambda w: a.accepts(w) != b.accepts(w)
        )
        assert equal == (witness is None)
        only_a = difference_witness(a, b)
        bound = 4 if only_a is None else len(only_a)
        assert only_a == ll_least_brute(
            alphabet, bound, lambda w: a.accepts(w) and not b.accepts(w)
        )


@pytest.mark.parametrize("alphabet", UNSORTED, ids=lambda ab: "".join(ab))
def test_determinize_numbers_subsets_in_alphabet_order(alphabet):
    rng = random.Random(29)
    symbols = "".join(alphabet.symbols)
    for _ in range(30):
        nfa = parse_regex(random_regex(rng, symbols, 4)[0], alphabet)
        assert automaton_to_json(determinize(nfa)) == automaton_to_json(determinize_brute(nfa))


def test_enumerate_words_examples():
    assert enumerate_words(lang("a+b+"), 3) == ["ab", "aab", "abb"]
    assert enumerate_words(lang("(a|b)*"), 0) == [""]
    assert enumerate_words(lang("(aa)*", A), 5) == ["", "aa", "aaaa"]


def test_json_reader_bounds_the_states_a_file_leaves_unnamed():
    # a file with nothing in it names at most 1 state
    doc = {"alphabet": ["a"], "states": 1 + UNNAMED_STATES, "initial": [], "accepting": [],
           "edges": []}
    assert automaton_from_json(doc).state_count == 1 + UNNAMED_STATES
    with pytest.raises(ValueError, match=f"{2 + UNNAMED_STATES} states declared, but the file "
                       f"names at most 1 and may leave at most {UNNAMED_STATES} unnamed"):
        automaton_from_json({**doc, "states": 2 + UNNAMED_STATES})


def test_json_round_trip_and_key_order():
    d = lang("(aa)*", A)
    text = automaton_to_json(d)
    doc = json.loads(text)
    assert list(doc.keys()) == ["alphabet", "states", "initial", "accepting", "edges", "epsilon"]
    back = automaton_from_json(text)
    assert equivalent(minimize(determinize(back)), d)[0]
    assert automaton_to_json(d) == text  # stable bytes


def test_json_golden_bytes():
    nfa = Nfa.from_edges(
        alphabet=A,
        state_count=2,
        initial=frozenset({0}),
        accepting=frozenset({1}),
        labeled_edges=frozenset({(0, "a", 1)}),
        epsilon_edges=frozenset({(1, 0)}),
    )
    assert (
        automaton_to_json(nfa)
        == '{"alphabet":["a"],"states":2,"initial":[0],"accepting":[1],'
        '"edges":[[0,"a",1]],"epsilon":[[1,0]]}'
    )


@st.composite
def small_edge_sets(draw):
    """The arguments of ``Nfa.from_edges``: edge lists, repeats allowed, in
    the order drawn."""
    symbols = draw(st.lists(st.sampled_from('ab"\\é\n'), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 6))
    state = st.integers(0, max(n - 1, 0))
    pairs = st.lists(st.tuples(state, state), max_size=12) if n else st.just([])
    triples = (
        st.lists(st.tuples(state, st.sampled_from(symbols), state), max_size=12)
        if n
        else st.just([])
    )
    return dict(
        alphabet=Alphabet(tuple(symbols)),
        state_count=n,
        initial=frozenset(draw(st.lists(state, max_size=2)) if n else ()),
        accepting=frozenset(draw(st.lists(state, max_size=3)) if n else ()),
        labeled_edges=draw(triples),
        epsilon_edges=draw(pairs),
    )


def small_nfas():
    return small_edge_sets().map(lambda edges: Nfa.from_edges(**edges))


@st.composite
def biclique_nfas(draw):
    """Small Nfas whose epsilon edges are drawn as bicliques: wide ones, and
    sources shared between bicliques, as closures have them."""
    nfa = draw(small_nfas())
    mask = st.integers(1, (1 << nfa.state_count) - 1)
    bicliques = draw(st.lists(st.tuples(mask, mask), max_size=6)) if nfa.state_count else []
    return replace(nfa, epsilon=nfa.epsilon + tuple(bicliques))


@settings(max_examples=300, deadline=None)
@given(biclique_nfas())
def test_json_matches_sorted_document_dump(nfa):
    assert automaton_to_json(nfa) == automaton_to_json_reference(nfa)


def test_json_of_rows_over_several_blocks_matches_the_reference():
    """2,600 states, so the epsilon rows are built over three blocks of
    states.  Below 1,300, ranges of sources across the first block's end
    give rows that repeat; above it, random sources give distinct rows
    with more text than the writer keeps for reuse."""
    rng = random.Random(7)
    n = 2600
    bicliques = []
    for _ in range(12):
        lo = rng.randrange(0, 1200)
        src = (1 << rng.randrange(lo + 1, 1300)) - (1 << lo)
        bicliques.append((src, 1 << rng.randrange(n)))
    for _ in range(800):
        src = sum(1 << p for p in rng.sample(range(1300, n), 260))
        bicliques.append((src, 1 << rng.randrange(n)))
    for _ in range(10):
        src = sum(1 << p for p in rng.sample(range(n), 60))
        bicliques.append((src, sum(1 << q for q in rng.sample(range(n), 100))))
    nfa = Nfa(A, n, frozenset({0}), frozenset({n - 1}), ((0,) * n,), tuple(bicliques))
    text = automaton_to_json(nfa)
    assert len(text) > 2 << 20
    assert text == automaton_to_json_reference(nfa)


@settings(max_examples=200, deadline=None)
@given(small_edge_sets(), st.randoms(use_true_random=False))
def test_from_edges_keeps_exactly_the_given_edges(edges, rng):
    """The edge views give back the given edge sets; the order and repeats
    of the edges change nothing; and the JSON round trip gives back an
    equal automaton."""
    nfa = Nfa.from_edges(**edges)
    assert nfa.labeled_edges == frozenset(edges["labeled_edges"])
    assert nfa.epsilon_edges == frozenset(edges["epsilon_edges"])
    reordered = {
        **edges,
        "labeled_edges": rng.sample(edges["labeled_edges"], len(edges["labeled_edges"])),
        "epsilon_edges": set(edges["epsilon_edges"]),
    }
    assert Nfa.from_edges(**reordered) == nfa
    assert automaton_from_json(automaton_to_json(nfa)) == nfa


def test_from_edges_groups_epsilon_edges_by_target():
    nfa = Nfa.from_edges(A, 3, {0}, {2}, [(0, "a", 1), (1, "a", 1)], [(2, 1), (0, 2), (1, 2)])
    assert nfa.rows == ((0b010, 0b010, 0),)
    assert nfa.epsilon == ((0b100, 0b010), (0b011, 0b100))


@pytest.mark.parametrize(
    "rows,epsilon,message",
    [
        (((0b100, 0),), (), "row mask"),
        (((-1, 0),), (), "row mask"),
        (((0,),), (), "rows must hold"),
        (((0, 0), (0, 0)), (), "rows must hold"),
        ((), (), "rows must hold"),
        (((0, 0),), ((0b100, 0b01),), "epsilon biclique"),
        (((0, 0),), ((0b01, -1),), "epsilon biclique"),
        (((0, 0),), ((0, 0b01),), "epsilon biclique"),
    ],
    ids=[
        "row target 2 of 2 states", "negative row mask", "short row", "a row too many",
        "no row", "epsilon source 2 of 2 states", "negative epsilon mask",
        "empty epsilon source",
    ],
)
def test_nfa_rejects_a_malformed_mask(rows, epsilon, message):
    with pytest.raises(ValueError, match=message):
        Nfa(A, 2, frozenset({0}), frozenset({1}), rows, epsilon)


@pytest.mark.parametrize(
    "count,initial,accepting,transitions,message",
    [
        (0, 0, (), (), "at least one state"),
        (2, 2, (), ((0,), (1,)), "initial state"),
        (2, -1, (), ((0,), (1,)), "initial state"),
        (2, 0, (2,), ((0,), (1,)), "accepting state"),
        (2, 0, (), ((0,),), "one row per state"),
        (2, 0, (), ((0,), ()), "whole alphabet"),
        (2, 0, (), ((0,), (2,)), "target out of range"),
        (2, 0, (), ((0,), (-1,)), "target out of range"),
    ],
    ids=[
        "no state", "initial 2 of 2 states", "negative initial", "accepting 2 of 2 states",
        "a missing row", "a short row", "target 2 of 2 states", "negative target",
    ],
)
def test_dfa_rejects_a_malformed_table(count, initial, accepting, transitions, message):
    with pytest.raises(ValueError, match=message):
        Dfa(A, count, initial, frozenset(accepting), transitions)


def test_dot_output_mentions_all_parts():
    dot = automaton_to_dot(lang("(aa)*", A))
    assert dot.startswith("digraph")
    assert "doublecircle" in dot and 'label="a"' in dot


def test_dot_golden_bytes():
    nfa = Nfa.from_edges(
        alphabet=A,
        state_count=2,
        initial=frozenset({0}),
        accepting=frozenset({1}),
        labeled_edges=frozenset({(0, "a", 1)}),
        epsilon_edges=frozenset({(1, 0)}),
    )
    assert automaton_to_dot(nfa) == (
        "digraph automaton {\n"
        "  rankdir=LR;\n"
        "  node [shape=circle];\n"
        "  1 [shape=doublecircle];\n"
        "  __start0 [shape=point];\n"
        "  __start0 -> 0;\n"
        '  0 -> 1 [label="a"];\n'
        '  1 -> 0 [label="ε", style=dashed];\n'
        "}\n"
    )


@pytest.mark.parametrize("symbol,label", [('"', '\\"'), ("\\", "\\\\")], ids=["quote", "backslash"])
def test_dot_escapes_label_symbols(symbol, label):
    nfa = Nfa.from_edges(
        alphabet=Alphabet((symbol, "b")),
        state_count=2,
        initial=frozenset({0}),
        accepting=frozenset({1}),
        labeled_edges=frozenset({(0, symbol, 1), (1, "b", 1)}),
        epsilon_edges=frozenset(),
    )
    lines = automaton_to_dot(nfa).splitlines()
    assert f'  0 -> 1 [label="{label}"];' in lines
    assert '  1 -> 1 [label="b"];' in lines
    # every label is one DOT string whose unescaped text is the symbol
    labels = re.findall(r'label="((?:[^"\\]|\\.)*)"\]', "\n".join(lines))
    assert sorted(re.sub(r"\\(.)", r"\1", text) for text in labels) == sorted([symbol, "b"])


def test_dfa_run_and_accepts():
    d = lang("a+b+")
    assert d.accepts("aabb") and not d.accepts("ba") and not d.accepts("")
    s = d.run(d.initial, "aa")
    assert d.run(s, "b") in d.accepting


def random_epsilon_cycle_nfa(rng: random.Random) -> Nfa:
    """A random NFA over {a,b} whose epsilon edges always contain a cycle."""
    n = rng.randint(2, 7)
    cycle = rng.sample(range(n), rng.randint(1, n))
    eps = {(p, q) for p, q in zip(cycle, cycle[1:] + cycle[:1])}
    eps |= {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))}
    labeled = {
        (rng.randrange(n), rng.choice("ab"), rng.randrange(n))
        for _ in range(rng.randint(0, 2 * n))
    }
    return Nfa.from_edges(
        alphabet=AB,
        state_count=n,
        initial=frozenset(rng.sample(range(n), rng.randint(0, 2))),
        accepting=frozenset(rng.sample(range(n), rng.randint(0, 2))),
        labeled_edges=frozenset(labeled),
        epsilon_edges=frozenset(eps),
    )


def drawn_nfa(seed: int, from_regex: bool) -> Nfa:
    rng = random.Random(seed)
    if from_regex:
        return parse_regex(random_regex(rng, "ab", 4)[0], AB)
    return random_epsilon_cycle_nfa(rng)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30), st.booleans())
def test_nfa_accepts_matches_set_simulation(seed, from_regex):
    nfa = drawn_nfa(seed, from_regex)
    dfa = determinize(nfa)
    for w in all_words_upto(AB, 6):
        want = nfa_accepts_brute(nfa, w)
        assert nfa.accepts(w) == want, w
        assert dfa.accepts(w) == want, w
    with pytest.raises(UnknownSymbolError):
        nfa.accepts("c")


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**30), st.booleans())
def test_determinize_matches_set_subset_construction(seed, from_regex):
    # pins the subset numbering too, not only the language
    nfa = drawn_nfa(seed, from_regex)
    assert automaton_to_json(determinize(nfa)) == automaton_to_json(determinize_brute(nfa))


def test_trim_keeps_useful_states_in_ascending_order():
    # 0 and 6 are unreachable (6 accepting), 3 and 5 are dead ends; the
    # useful states 1, 2, 4 carry the cycle 2 -b-> 4 -eps-> 2.
    nfa = Nfa.from_edges(
        alphabet=AB,
        state_count=7,
        initial=frozenset({1}),
        accepting=frozenset({4, 6}),
        labeled_edges=frozenset({(0, "a", 2), (1, "a", 3), (2, "b", 4), (3, "b", 5), (6, "a", 4)}),
        epsilon_edges=frozenset({(1, 2), (4, 2), (2, 5)}),
    )
    trimmed = trim(nfa)
    # kept states 1, 2, 4 become 0, 1, 2
    assert trimmed.state_count == 3
    assert trimmed.initial == frozenset({0})
    assert trimmed.accepting == frozenset({2})
    assert trimmed.labeled_edges == frozenset({(1, "b", 2)})
    assert trimmed.epsilon_edges == frozenset({(0, 1), (2, 1)})


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**30), st.booleans())
def test_trim_matches_set_walk(seed, from_regex):
    nfa = drawn_nfa(seed, from_regex)
    assert trim(nfa) == trim_brute(nfa)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**30), st.booleans())
def test_automata_built_without_the_checks_pass_them(seed, from_regex):
    """from_edges, trim, Dfa.to_nfa and every algorithm that returns a DFA
    skip the checks of ``__post_init__``; ``replace`` runs them on what
    they build, here with a second operand from a random regex over ab."""
    nfa = drawn_nfa(seed, from_regex)
    a = determinize(nfa)
    b = determinize(parse_regex(random_regex(random.Random(seed), "ab", 4)[0], AB))
    axioms = canonical_axioms(minimize(b), custom_bounds("classic", 1 + seed % 8, 1, 1))
    dfas = (a, minimize(a), intersect(a, b), union(a, b), difference(a, b), complement(a), axioms)
    for built in (nfa, trim(nfa), a.to_nfa(), *dfas):
        assert replace(built) == built


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**30), st.sampled_from([AB, *UNSORTED]))
def test_enumerate_words_matches_filtered_word_list(seed, alphabet):
    # raw random DFAs, so dead and unreachable states occur
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    d = Dfa(
        alphabet=alphabet,
        state_count=n,
        initial=rng.randrange(n),
        accepting=frozenset(s for s in range(n) if rng.random() < 0.3),
        transitions=tuple(
            tuple(rng.randrange(n) for _ in alphabet.symbols) for _ in range(n)
        ),
    )
    for max_len in (-1, 0, 4):
        want = [w for w in all_words_upto(alphabet, max_len) if d.accepts(w)]
        assert enumerate_words(d, max_len) == want


def _graph(n, labeled=(), eps=()):
    return Nfa.from_edges(AB, n, frozenset({0}), frozenset(), frozenset(labeled), frozenset(eps))


def test_has_cycle_cases():
    assert has_cycle(_graph(2, labeled={(0, "a", 1), (1, "b", 1)}))
    assert has_cycle(_graph(2, labeled={(0, "a", 1)}, eps={(0, 0)}))
    assert has_cycle(_graph(3, labeled={(0, "a", 1)}, eps={(1, 2), (2, 1)}))
    diamond = {(0, "a", 1), (0, "b", 2), (1, "a", 3)}
    assert not has_cycle(_graph(4, labeled=diamond, eps={(2, 3)}))
    chain = {(i, "ab"[i % 2], i + 1) for i in range(0, 2999, 2)}
    assert not has_cycle(_graph(3000, labeled=chain, eps={(i, i + 1) for i in range(1, 2999, 2)}))


def random_graph(rng: random.Random) -> Nfa:
    """A random graph over {a,b}: edges climbing a random order of the states
    (acyclic), plus, each at random, a self-loop, an epsilon back edge and a
    labeled back edge.  The order is random, so a cycle may lie where the
    initial state 0 cannot reach."""
    n = rng.randint(1, 8)
    rank = rng.sample(range(n), n)

    def climb():
        i, j = sorted(rng.sample(range(n), 2))
        return rank[i], rank[j]

    labeled, eps = set(), set()
    if n > 1:
        for _ in range(rng.randint(0, 2 * n)):
            p, q = climb()
            if rng.random() < 0.5:
                labeled.add((p, rng.choice("ab"), q))
            else:
                eps.add((p, q))
        if rng.random() < 0.3:
            p, q = climb()
            eps.add((q, p))
        if rng.random() < 0.3:
            p, q = climb()
            labeled.add((q, rng.choice("ab"), p))
    if rng.random() < 0.3:
        s = rng.randrange(n)
        if rng.random() < 0.5:
            eps.add((s, s))
        else:
            labeled.add((s, rng.choice("ab"), s))
    return _graph(n, labeled, eps)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**30))
def test_has_cycle_matches_brute_self_reachability(seed):
    nfa = random_graph(random.Random(seed))
    assert has_cycle(nfa) == has_cycle_brute(nfa)


def _bits_brute(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@pytest.mark.parametrize(
    "mask",
    [
        0,
        1,
        (1 << 63) - 1,
        1 << 62,
        (1 << 64) - 1,
        1 << 63,
        (1 << 65) - 1,
        1 << 64,
        1 | 1 << 64,
        # all-zero words between the states
        1 << 3 | 1 << 200,
        (1 << 64) - 1 | ((1 << 64) - 1) << 320,
        1 << 127 | 1 << 128 | 1 << 1000,
        0b1011 << 4096,
    ],
)
def test_bits_lists_the_states_of_a_mask_in_order(mask):
    assert list(_bits(mask)) == _bits_brute(mask)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**300), st.integers(0, 640))
def test_bits_matches_a_bit_scan(mask, gap):
    mask |= mask << gap
    assert list(_bits(mask)) == _bits_brute(mask)


@st.composite
def neighbour_rows(draw):
    """Letter rows over n states, each state drawn with or without the edge
    p -> p + 1 (the last state has none) and with or without other edges."""
    n = draw(st.integers(1, 150))
    rng = random.Random(draw(st.integers(0, 2**30)))
    rows = []
    for p in range(n):
        row = 0
        if p + 1 < n and rng.random() < 0.7:
            row |= 1 << p + 1
        while rng.random() < 0.3:
            row |= 1 << rng.randrange(n)
        rows.append(row)
    masks = [_mask(q for q in range(n) if rng.random() < density) for density in (0.05, 0.5, 1)]
    return rows, masks


@settings(max_examples=200, deadline=None)
@given(neighbour_rows())
def test_shifted_images_equal_row_images(drawn):
    """The split image, a shift for the edges to a neighbour and the rows
    for the rest, against the image of the whole rows, forwards and
    backwards (state 0 has no neighbour below, the last none above)."""
    rows, masks = drawn
    n = len(rows)
    back = _predecessors([rows], n)[0]
    shift, rest = neighbour_split(rows, 1)
    back_shift, back_rest = neighbour_split(back, -1)
    assert back_shift == shift << 1
    forward = (rows, shift, rest, True)
    backward = (back, back_shift, back_rest, False)
    for mask in masks:
        want = 0
        for p in _bits_brute(mask):
            want |= rows[p]
        assert _move(mask, forward) == _image(mask, rows) == want
        assert _move(mask, backward) == _image(mask, back)
        assert _move(mask, _unsplit(rows)) == want
