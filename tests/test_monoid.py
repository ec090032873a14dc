import itertools
import random

import pytest

from splicekit import (
    Alphabet,
    PumpingFactorization,
    determinize,
    length_lex_key,
    minimize,
    parse_regex,
    pump_normalize,
    pumping_factorization,
    syntactic_monoid,
)
from splicekit.monoid import (
    class_counts,
    class_pool,
    factor_classes,
    satisfies_pump_conditions,
)

from helpers import all_words_upto, congruence_classes_brute, is_factor_brute, random_min_dfa

A = Alphabet.from_string("a")
AB = Alphabet.from_string("ab")


def lang(regex, alphabet=AB):
    return minimize(determinize(parse_regex(regex, alphabet)))


def test_monoid_sizes():
    assert syntactic_monoid(lang("(aa)*", A)).size == 2
    assert syntactic_monoid(lang("a+b+")).size == 5
    assert syntactic_monoid(lang("(a|b)*")).size == 1


def test_factor_classes_are_the_classes_of_factor_words():
    rng = random.Random(20)
    for _ in range(150):
        d = random_min_dfa(rng, AB, 3)
        monoid = syntactic_monoid(d)
        factors = factor_classes(monoid)
        # every class through its representative, and the short words
        words = [*monoid.representatives, *all_words_upto(AB, 4)]
        for w in words:
            assert (monoid.class_of(w) in factors) == is_factor_brute(d, w), (d, w)


def test_class_counts_count_the_pool_words_of_each_class():
    rng = random.Random(21)
    for _ in range(30):
        monoid = syntactic_monoid(random_min_dfa(rng, AB, 3))
        for lt in range(1, 6):
            _words, classes = class_pool(monoid, lt)
            want = {c: classes.count(c) for c in set(classes)}
            assert class_counts(monoid, lt) == want


def test_sizes_match_brute_force_congruence():
    # class counts recomputed from raw context enumeration
    for regex, alphabet, want in (("(aa)*", A, 2), ("a+b+", AB, 5)):
        d = lang(regex, alphabet)
        words = all_words_upto(alphabet, 4)
        classes = congruence_classes_brute(d, words, d.state_count)
        assert len(set(classes.values())) == want


def test_class_of_examples():
    m = syntactic_monoid(lang("(aa)*", A))
    assert m.class_of("") == m.identity
    assert m.class_of("aa") == m.identity
    m5 = syntactic_monoid(lang("a+b+"))
    assert m5.class_of("aab") == m5.class_of("ab")
    assert m5.class_of("ba") != m5.class_of("ab")


def test_class_of_is_a_morphism():
    rng = random.Random(5)
    m = syntactic_monoid(lang("a+b+"))
    for _ in range(200):
        u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 5)))
        v = "".join(rng.choice("ab") for _ in range(rng.randint(0, 5)))
        assert m.class_of(u + v) == m.mul(m.class_of(u), m.class_of(v))


def test_table_products_induce_the_composed_transformations():
    # independent of how the table is filled: the word of a·b must move every
    # state of the minimal DFA as rep[a] + rep[b] does, and distinct elements
    # must move the states differently
    rng = random.Random(13)
    checked = 0
    for alphabet in (AB, Alphabet.from_string("bca")) * 20:
        d = random_min_dfa(rng, alphabet, 4)
        m = syntactic_monoid(d)
        if m.size > 40:
            continue
        checked += 1

        def moves(word):
            return tuple(d.run(q, word) for q in range(d.state_count))

        reps = m.representatives
        assert len({moves(w) for w in reps}) == m.size
        for a, b in itertools.product(range(m.size), repeat=2):
            assert moves(reps[m.table[a][b]]) == moves(reps[a] + reps[b]), (a, b)
    assert checked >= 30


def test_membership_through_accepting_classes():
    d = lang("a+b+")
    m = syntactic_monoid(d)
    for w in all_words_upto(AB, 5):
        assert (m.class_of(w) in m.accepting) == d.accepts(w)


def test_shortest_representatives():
    m2 = syntactic_monoid(lang("(aa)*", A))
    assert m2.shortest_representative(m2.identity) == ""
    other = next(e for e in range(m2.size) if e != m2.identity)
    assert m2.shortest_representative(other) == "a"
    m5 = syntactic_monoid(lang("a+b+"))
    assert m5.shortest_representative(m5.class_of("ab")) == "ab"


def test_representatives_are_ll_minimal_and_short():
    rng = random.Random(9)
    for _ in range(15):
        d = random_min_dfa(rng, AB, 4)
        m = syntactic_monoid(d)
        assert all(len(r) < m.size for r in m.representatives)
        for word in all_words_upto(AB, min(m.size - 1, 5)):
            e = m.class_of(word)
            rep = m.representatives[e]
            assert (len(rep), rep) <= (len(word), word)


def least_words_by_transformation(d, alphabet) -> dict[tuple, str]:
    """The ll-least word of each syntactic class of the minimal DFA d, by
    brute force: a word's class is the map it induces on d's states, and
    every word is tried in ll-order, level by level, until a whole level
    brings no new map (longer words then bring none either)."""
    least: dict[tuple, str] = {}
    length = 0
    while True:
        level = map("".join, itertools.product(alphabet.symbols, repeat=length))
        fresh = False
        for w in sorted(level, key=length_lex_key(alphabet)):
            t = tuple(d.run(s, w) for s in range(d.state_count))
            if t not in least:
                least[t] = w
                fresh = True
        if not fresh:
            return least
        length += 1


@pytest.mark.parametrize("symbols", ["ba", "cab"])
def test_representatives_are_ll_least_in_alphabet_order(symbols):
    alphabet = Alphabet.from_string(symbols)
    rng = random.Random(23)
    for _ in range(30):
        d = random_min_dfa(rng, alphabet, 4)
        m = syntactic_monoid(d)
        least = least_words_by_transformation(d, alphabet)
        assert m.size == len(least)
        assert sorted(m.representatives) == sorted(least.values())
        for rep in m.representatives:
            assert least[tuple(d.run(s, rep) for s in range(d.state_count))] == rep


def test_monoid_agrees_with_brute_force_on_random_languages():
    # minimal DFAs up to 5 states; contexts of the DFA's size are exact
    # (reaching any state and separating any two takes < n letters)
    rng = random.Random(13)
    for _ in range(8):
        d = random_min_dfa(rng, AB, 5)
        m = syntactic_monoid(d)
        words = all_words_upto(AB, 4)
        brute = congruence_classes_brute(d, words, d.state_count)
        for u in words:
            for v in words:
                assert (m.class_of(u) == m.class_of(v)) == (brute[u] == brute[v])


def test_pumping_factorization_examples():
    m2 = syntactic_monoid(lang("(aa)*", A))
    f = pumping_factorization(m2, "aaaa")
    assert (f.alpha, f.beta, f.gamma) == ("", "aa", "aa")
    m1 = syntactic_monoid(lang("(a|b)*"))
    f1 = pumping_factorization(m1, "ab")
    assert (f1.alpha, f1.beta, f1.gamma) == ("", "a", "b")


def test_pumping_factorization_invariants_random():
    rng = random.Random(31)
    done = 0
    while done < 40:
        d = random_min_dfa(rng, AB, 3)
        m = syntactic_monoid(d)
        if m.size > 4:
            continue
        n = m.size * m.size + rng.randint(0, 4)
        w = "".join(rng.choice("ab") for _ in range(n))
        f = pumping_factorization(m, w)
        assert f.beta != ""
        assert f.alpha + f.beta + f.gamma == w
        assert m.class_of(f.alpha) == m.class_of(f.alpha + f.beta)
        assert m.class_of(f.gamma) == m.class_of(f.beta + f.gamma)
        done += 1


def test_pumping_factorization_requires_long_word():
    m = syntactic_monoid(lang("(aa)*", A))
    with pytest.raises(ValueError):
        pumping_factorization(m, "aaa")


def test_pump_normalize_no_occurrence_is_identity():
    m = syntactic_monoid(lang("(aa)*", A))
    f = PumpingFactorization("", "aa", "aa")
    assert pump_normalize(m, "aa", f, 10) == "aa"


def test_pump_normalize_worked_example():
    m = syntactic_monoid(lang("(aa)*", A))
    f = pumping_factorization(m, "aaaa")
    out = pump_normalize(m, "aaaa", f, 10)
    assert out == "a" * 22
    assert m.class_of(out) == m.class_of("aaaa")
    assert satisfies_pump_conditions(out, f, 10)


def test_pump_normalize_preconditions():
    m = syntactic_monoid(lang("(aa)*", A))
    f = PumpingFactorization("", "aa", "aa")
    with pytest.raises(ValueError):
        pump_normalize(m, "aaaa", f, 9)  # odd
    with pytest.raises(ValueError):
        pump_normalize(m, "aaaa", f, 8)  # not > |z| + |abg|
    with pytest.raises(ValueError):
        pump_normalize(m, "aaaa", PumpingFactorization("", "a", "aa"), 10)


def test_pump_normalize_random_postconditions():
    rng = random.Random(77)
    done = 0
    while done < 30:
        d = random_min_dfa(rng, AB, 3)
        m = syntactic_monoid(d)
        if m.size > 4:
            continue
        w = "".join(rng.choice("ab") for _ in range(m.size * m.size + rng.randint(0, 3)))
        f = pumping_factorization(m, w)
        z = "".join(rng.choice("ab") for _ in range(rng.randint(0, 10)))
        j = len(z) + len(f.word) + 2
        if j % 2:
            j += 1
        out = pump_normalize(m, z, f, j, step_limit=len(z) * len(z) + 1)
        assert satisfies_pump_conditions(out, f, j)
        assert m.class_of(out) == m.class_of(z)
        done += 1
