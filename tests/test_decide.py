import dataclasses
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splicekit import (
    Alphabet,
    CandidateLimitExceededError,
    ClassicRule,
    Dfa,
    PixtonRule,
    RespectContext,
    SplicingSystem,
    build_closure,
    canonical_system,
    closure_language,
    custom_bounds,
    decide_splicing,
    determinize,
    enumerate_words,
    equivalent,
    minimize,
    parse_regex,
    syntactic_monoid,
    system_to_json,
    theorem_bounds,
    words_shorter_than,
)
from splicekit.closure import closure_dfa
from splicekit.decide import (
    BoundsProfile,
    _spelled_chars,
    candidate_count,
    canonical_axioms,
    canonical_rules,
)
from splicekit.monoid import SyntacticMonoid, class_counts, class_levels, factor_classes
from splicekit.splicing import RuleProduct, longest_rule_component, triplet, triplet_form

from helpers import (
    all_words_upto,
    build_closure_reference,
    build_gadget_closure_reference,
    factor_site_system,
    is_factor_brute,
    random_regex,
    rename,
    renamed_dfa,
    reverse,
    reversed_dfa,
    system_to_json_reference,
    word_level_rules,
)

A = Alphabet.from_string("a")
AB = Alphabet.from_string("ab")


def lang(regex, alphabet=AB):
    return minimize(determinize(parse_regex(regex, alphabet)))


def test_theorem_bounds_arithmetic():
    b = theorem_bounds(2, "classic")
    assert b.axiom_len_lt == 16
    assert b.component_lts == (24, 4, 4, 24)
    assert b.source == "theorem"
    p = theorem_bounds(2, "pixton")
    assert p.axiom_len_lt == 16
    assert p.component_lts == (4, 4, 24)
    one = theorem_bounds(1, "classic")
    assert one.axiom_len_lt == 7
    assert one.component_lts == (11, 2, 2, 11)


def test_bounds_validation():
    with pytest.raises(ValueError):
        theorem_bounds(0, "classic")
    with pytest.raises(ValueError):
        custom_bounds("classic", 0, 1, 1)
    with pytest.raises(ValueError):
        theorem_bounds(2, "sticky")
    # an unknown variant is refused when the profile is built, before a
    # decide could spend the monoid, the axioms and the rules on it
    with pytest.raises(ValueError, match="unknown variant 'foo'"):
        BoundsProfile("foo", 5, (1, 2, 3), "custom")


def test_candidate_count_formula():
    # over a unary alphabet, |Sigma^{<b}| = b
    assert candidate_count(A, theorem_bounds(2, "classic")) == 24 * 4 * 4 * 24
    assert candidate_count(A, theorem_bounds(2, "pixton")) == 4 * 4 * 24


def test_canonical_axioms_stay_symbolic():
    axioms = canonical_axioms(lang("(aa)*", A), theorem_bounds(2, "classic"))
    got = enumerate_words(axioms, 20)
    assert got == ["a" * n for n in range(0, 16, 2)]


def test_canonical_system_for_even_words_has_no_rules():
    system = canonical_system(lang("(aa)*", A), "classic", theorem_bounds(2, "classic"))
    assert tuple(system.rules) == ()
    assert system.symbolic_axioms


def test_canonical_system_for_sigma_star_includes_trivial_rule():
    system = canonical_system(lang("a*", A), "pixton", theorem_bounds(1, "pixton"))
    assert PixtonRule("", "", "") in system.rules
    assert enumerate_words(canonical_axioms(lang("a*", A), theorem_bounds(1, "pixton")), 10) == [
        "a" * n for n in range(7)
    ]


def test_decide_even_words_is_no_with_long_witness():
    decision = decide_splicing(lang("(aa)*", A), "classic", theorem_bounds(2, "classic"))
    assert decision.verdict == "no"
    assert decision.witness == "a" * 16
    assert decision.stats["monoid_size"] == 2
    assert decision.exit_code == 1


def test_decide_even_words_pixton_is_no():
    decision = decide_splicing(lang("(aa)*", A), "pixton", theorem_bounds(2, "pixton"))
    assert decision.verdict == "no"
    assert decision.witness == "a" * 16


def test_decide_sigma_star_pixton_is_yes():
    decision = decide_splicing(lang("a*", A), "pixton", theorem_bounds(1, "pixton"))
    assert decision.verdict == "yes"
    assert decision.exit_code == 0
    assert equivalent(closure_language(decision.system), lang("a*", A))[0]


def test_decide_custom_bounds_yes_for_running_example():
    apbp = lang("a+b+")
    decision = decide_splicing(apbp, "classic", custom_bounds("classic", 3, 3, 3))
    assert decision.verdict == "yes"
    assert ClassicRule("a", "b", "", "ab") in decision.system.rules
    assert ClassicRule("ab", "", "a", "b") in decision.system.rules
    assert equivalent(closure_language(decision.system), apbp)[0]


def test_decide_custom_bounds_never_says_no():
    decision = decide_splicing(
        lang("(aa)*", A), "classic", custom_bounds("classic", 3, 2, 2)
    )
    assert decision.verdict == "inconclusive"
    assert decision.reason == "bounds below theorem guarantee"
    assert decision.witness is None
    assert decision.exit_code == 2


def test_growing_custom_bounds_keep_yes():
    astar = lang("a*", A)
    for outer in (2, 3, 4):
        decision = decide_splicing(
            astar, "pixton", custom_bounds("pixton", 2, 2, outer)
        )
        assert decision.verdict == "yes"


@pytest.mark.parametrize("variant", ["classic", "pixton"])
@pytest.mark.parametrize("regex", ["a+b+", "a*b*", "(ab)*"])
def test_a_yes_stays_a_yes_at_every_larger_bound(regex, variant):
    """A yes at bounds b is a yes at every b' >= b componentwise: a larger
    bound only adds axioms and rules, so the closure only grows, and it
    stays inside L, since the axioms lie in L and the rules respect it.
    Checked from (3, 2, 3), a yes here, over a grid of (axiom, inner,
    outer) bounds above it."""
    language = lang(regex)
    assert decide_splicing(language, variant, custom_bounds(variant, 3, 2, 3)).verdict == "yes"
    for bounds in itertools.product((3, 4, 5), (2, 3), (3, 4, 5)):
        decision = decide_splicing(language, variant, custom_bounds(variant, *bounds))
        assert decision.verdict == "yes", bounds


def test_prune_keeps_generated_language():
    apbp = lang("a+b+")
    bounds = custom_bounds("classic", 3, 2, 2)
    plain = canonical_system(apbp, "classic", bounds, prune=False)
    pruned = canonical_system(apbp, "classic", bounds, prune=True)
    assert len(pruned.rules) <= len(plain.rules)
    assert set(pruned.rules) <= set(plain.rules)
    assert equivalent(closure_language(plain), closure_language(pruned))[0]


def test_classic_certificate_embeds_to_equivalent_pixton_system():
    apbp = lang("a+b+")
    decision = decide_splicing(apbp, "classic", custom_bounds("classic", 3, 2, 2))
    assert decision.verdict == "yes"
    embedded = SplicingSystem(
        "pixton",
        AB,
        decision.system.axioms,
        tuple(r.pixton_equivalent() for r in decision.system.rules),
    )
    assert equivalent(closure_language(embedded), closure_language(decision.system))[0]


@pytest.mark.parametrize("variant,other", [("classic", "pixton"), ("pixton", "classic")])
def test_bounds_of_the_other_variant_are_rejected_before_enumeration(
    variant, other, monkeypatch
):
    def enumerate_nothing(*args):
        raise AssertionError("rules enumerated")

    monkeypatch.setattr("splicekit.decide.canonical_rules", enumerate_nothing)
    bounds = custom_bounds(other, 3, 3, 3)
    # (aa)*: no rule respects it, so a late check would never fire
    for build in (decide_splicing, canonical_system):
        with pytest.raises(ValueError, match=f"{other} bounds given for a {variant} system"):
            build(lang("(aa)*", A), variant, bounds)


def test_candidate_guard_trips_cleanly():
    apbp = lang("a+b+")
    with pytest.raises(CandidateLimitExceededError) as err:
        decide_splicing(apbp, "classic", theorem_bounds(5, "classic"))
    assert err.value.limit == 10_000_000
    assert err.value.candidates > 10_000_000
    assert str(err.value.candidates) in str(err.value)


@pytest.mark.parametrize("symbols", ["", "a", "ab", "abc"])
def test_pool_guard_counts_the_characters_of_the_words_it_guards(symbols):
    alphabet = Alphabet.from_string(symbols)
    for lt in range(1, 7):
        spelled = sum(map(len, words_shorter_than(alphabet, lt)))
        assert _spelled_chars(len(alphabet), lt) == spelled


@pytest.mark.parametrize(
    "regex,alphabet,axiom_lt,outer_lt,count,message",
    [
        # 1 state * 65,537: one over the bound
        ("a*", A, 65536, 1, 65537, "axiom product would have 65537 states"),
        ("a+b+", AB, 30000, 3, 120004, "axiom product would have 120004 states"),
        # the rule guard comes first
        ("a+b+", AB, 30000, 100, None, "rule candidate space has"),
    ],
)
def test_every_guard_runs_before_anything_is_built(
    regex, alphabet, axiom_lt, outer_lt, count, message, monkeypatch
):
    def build_nothing(*args):
        raise AssertionError("built before the guards ran")

    monkeypatch.setattr("splicekit.decide.canonical_axioms", build_nothing)
    monkeypatch.setattr("splicekit.decide.canonical_rules", build_nothing)
    target = lang(regex, alphabet)
    bounds = custom_bounds("classic", axiom_lt, 3, outer_lt)
    for build in (decide_splicing, canonical_system):
        with pytest.raises(CandidateLimitExceededError, match=f"^{message}") as err:
            build(target, "classic", bounds)
        if count is not None:
            assert (err.value.candidates, err.value.limit) == (count, 65536)
    # at the bound the guard lets the axioms be built
    with pytest.raises(AssertionError, match="built before"):
        decide_splicing(lang("a*", A), "classic", custom_bounds("classic", 65535, 3, 1))


def test_candidate_limit_env_override(monkeypatch):
    monkeypatch.setenv("SPLICEKIT_CANDIDATE_LIMIT", "10")
    with pytest.raises(CandidateLimitExceededError) as err:
        decide_splicing(lang("a*", A), "pixton", theorem_bounds(1, "pixton"))
    assert err.value.limit == 10


@pytest.mark.parametrize("regex,variant", [("a+", "classic"), ("aa+", "pixton")])
def test_unary_plus_decides_yes_at_theorem_bounds(regex, variant):
    target = lang(regex, A)
    decision = decide_splicing(target, variant, theorem_bounds(syntactic_monoid(target).size, variant))
    assert decision.verdict == "yes"
    # re-verify the certificate from scratch
    equal, witness = equivalent(closure_language(decision.system), target)
    assert equal, witness


def test_decision_stats_shape():
    decision = decide_splicing(lang("a*", A), "pixton", theorem_bounds(1, "pixton"))
    stats = decision.stats
    assert stats["candidate_rules"] == 2 * 2 * 11
    assert stats["respecting_rules"] == stats["rules_emitted"] == 44
    assert stats["closure_rounds"] >= 1
    assert stats["closure_states"] == decision.closure.base.state_count > 0


def test_decision_seconds_time_each_stage_outside_equality():
    first = decide_splicing(lang("a+", A), "classic")
    second = decide_splicing(lang("a+", A), "classic")
    stages = ("monoid", "rules", "saturate", "closure_dfa", "comparison")
    for decision in (first, second):
        assert tuple(decision.seconds) == stages
        assert all(s >= 0 for s in decision.seconds.values())
        assert "seconds" not in decision.stats
    assert first == second
    assert first == dataclasses.replace(first, seconds={})


@pytest.mark.parametrize("regex,variant", [("(aa)*", "classic"), ("a*", "pixton")])
def test_default_bounds_are_the_theorem_bounds(regex, variant):
    target = lang(regex, A)
    default = decide_splicing(target, variant)
    explicit = decide_splicing(target, variant, theorem_bounds(syntactic_monoid(target).size, variant))
    assert default.verdict == explicit.verdict
    assert default.witness == explicit.witness
    assert default.system == explicit.system
    assert default.closure == explicit.closure
    assert default.stats == explicit.stats


def test_equal_decisions_compare_equal():
    # stats holds counts only; the wall-clock time lives in seconds
    first = decide_splicing(lang("a+b+"), "classic", custom_bounds("classic", 4, 3, 4))
    second = decide_splicing(lang("a+b+"), "classic", custom_bounds("classic", 4, 3, 4))
    assert first.verdict == "yes"
    assert "wall_time_s" not in first.stats
    assert first == second


def test_decide_takes_a_non_minimal_language():
    # decide leaves minimization to syntactic_monoid and canonical_axioms
    target = lang("(aa)*", A)
    bloated = determinize(parse_regex("(aa)*|(aa)*", A))
    assert bloated.state_count > target.state_count
    assert decide_splicing(bloated, "classic") == decide_splicing(target, "classic")


# (regex, alphabet, variant, custom (axiom, inner, outer) bounds or None for
# the theorem bounds of the language's monoid)
RULE_SYSTEMS = [
    ("a+b+", "ab", "classic", (3, 3, 3)),
    ("a+b+", "ab", "classic", (4, 3, 4)),
    ("a+b+", "ab", "classic", (5, 4, 4)),
    ("a*b*", "ab", "pixton", (6, 4, 6)),
    ("(ab)*", "ab", "classic", (6, 3, 4)),
    ("(ab)*", "ab", "pixton", (6, 4, 5)),
    ("a*", "a", "classic", None),
    ("a+", "a", "classic", None),
    ("aa+", "a", "classic", None),
    ("(aa)*", "a", "classic", None),
    ("(aaaaa)*", "a", "classic", None),
    ("aa+", "a", "pixton", None),
    ("(aaa)*", "a", "pixton", None),
    ("a(a|b)*", "ab", "classic", (5, 4, 4)),
    ("(a|b)*b(a|b)", "ab", "pixton", (5, 4, 5)),
    ("b*(ab*ab*)*", "ab", "classic", (5, 3, 4)),
]


def rule_setup(regex, symbols, variant, custom):
    alphabet = Alphabet.from_string(symbols)
    monoid = syntactic_monoid(lang(regex, alphabet))
    if custom is None:
        bounds = theorem_bounds(monoid.size, variant)
    else:
        bounds = custom_bounds(variant, *custom)
    return monoid, alphabet, bounds


@pytest.mark.parametrize("regex,symbols,variant,custom", RULE_SYSTEMS)
def test_canonical_rules_match_word_level_enumeration(regex, symbols, variant, custom):
    monoid, alphabet, bounds = rule_setup(regex, symbols, variant, custom)
    ctx = RespectContext(monoid)
    assert tuple(canonical_rules(ctx, alphabet, bounds)) == word_level_rules(
        RespectContext(monoid), alphabet, bounds
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    variant=st.sampled_from(["classic", "pixton"]),
    inner=st.integers(1, 3),
    outer=st.integers(1, 4),
)
def test_canonical_rules_match_word_level_on_random_languages(seed, variant, inner, outer):
    regex, _ = random_regex(random.Random(seed), "ab", 3)
    monoid, alphabet, bounds = rule_setup(regex, "ab", variant, (5, inner, outer))
    assert tuple(canonical_rules(RespectContext(monoid), alphabet, bounds)) == word_level_rules(
        RespectContext(monoid), alphabet, bounds
    )


@pytest.mark.parametrize(
    "regex,variant,custom,count,digest",
    [
        ("a+b+", "classic", (4, 3, 4), 10413,
         "4d34581e1a0d1598a0fcbd77836acd608028dc09d26562fa8f98cd365edb8f5b"),
        ("a*b*", "pixton", (6, 4, 6), 8919,
         "fecca65af3daaa199c8cbbe02937537d3e8ba49e61d0e59de5010bcc70a66286"),
    ],
)
def test_canonical_rules_are_pinned(regex, variant, custom, count, digest):
    monoid, alphabet, bounds = rule_setup(regex, "ab", variant, custom)
    rules = canonical_rules(RespectContext(monoid), alphabet, bounds)
    assert len(rules) == count
    assert hashlib.sha256(repr(tuple(rules)).encode()).hexdigest() == digest


@pytest.mark.parametrize("variant", ["classic", "pixton"])
@pytest.mark.parametrize("k", range(2, 10))
def test_cyclic_unary_languages_decide_no_at_theorem_bounds(k, variant):
    # (a^k)* has monoid Z_k and no respecting rule, so the closure is the
    # axioms and the least missing word is the shortest member past them.
    decision = decide_splicing(lang(f"({'a' * k})*", A), variant)
    assert decision.stats["monoid_size"] == k
    assert tuple(decision.system.rules) == ()
    assert decision.verdict == "no"
    assert decision.witness == "a" * (k * (k + 6))


def test_rule_enumeration_evaluates_each_class_tuple_once(monkeypatch):
    monoid, alphabet, bounds = rule_setup("(aaaaa)*", "a", "classic", None)
    calls = {"class_of": 0, "respects": 0, "verdict": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(SyntacticMonoid, "class_of")
    counting(RespectContext, "respects")
    counting(RespectContext, "verdict")
    assert tuple(canonical_rules(RespectContext(monoid), alphabet, bounds)) == ()
    pool_words = sum(bounds.component_lts)  # |a^{<b}| = b
    assert sum(calls.values()) <= pool_words + monoid.size**4


def test_respect_rows_are_built_once_per_left_site(monkeypatch):
    # (a^5)* classic theorem: every one of the m^4 class tuples is present in
    # the pools, and every class is some tuple's left site, but the pass
    # reads the context's rows and masks and builds each of the m rows once
    monoid, alphabet, bounds = rule_setup("(aaaaa)*", "a", "classic", None)
    built, asked = [], []

    def counting(name, log):
        original = getattr(RespectContext, name)

        def wrapper(ctx, h_left):
            log.append(h_left)
            return original(ctx, h_left)

        monkeypatch.setattr(RespectContext, name, wrapper)

    counting("_build_row", built)
    counting("row", asked)
    ctx = RespectContext(monoid)
    assert tuple(canonical_rules(ctx, alphabet, bounds)) == ()
    assert monoid.size == 5
    assert sorted(built) == list(range(5))
    assert len(asked) == 25  # one per (u1, v1) class pair
    assert all(row is not None for row in ctx._rows)


@pytest.mark.parametrize("regex,symbols,variant,custom", RULE_SYSTEMS)
def test_the_pass_asks_for_the_flank_triple_that_triplet_gives(regex, symbols, variant, custom):
    """For each flank triple T, a context that respects exactly T: the
    product then holds exactly the present class tuples that
    ``splicing.triplet`` maps to T, so the pass reads every tuple's triple
    as ``triplet`` makes it."""
    monoid, alphabet, bounds = rule_setup(regex, symbols, variant, custom)
    m, full = monoid.size, (1 << monoid.size) - 1
    present = [class_counts(monoid, lt) for lt in bounds.component_lts]
    by_triple: dict = {}
    for classes in itertools.product(*present):
        by_triple.setdefault(triplet(classes, monoid.mul), set()).add(classes)
    for want in itertools.product(range(m), repeat=3):
        left, right, mid = want
        ctx = RespectContext(monoid)
        ctx.right_sets = [1 << h for h in range(m)]
        rows = [
            tuple(full & ~(1 << right) if (hl, hm) == (left, mid) else full for hm in range(m))
            for hl in range(m)
        ]
        ctx.row = rows.__getitem__
        product = canonical_rules(ctx, alphabet, bounds)
        assert product.tuples == by_triple.get(want, set()), want


@pytest.mark.parametrize("variant,lts", [("classic", (4, 3, 4)), ("pixton", (5, 3, 5))])
@pytest.mark.parametrize(
    "regex", ["a+b+", "(ab)*", "a*b*", "a(a|b)*", "a*ba*", "(a|b)*ab", "(aa)*"]
)
def test_reversal_maps_the_canonical_system_of_l_onto_that_of_its_mirror(regex, variant, lts):
    # the mirror of a rule respects the mirror language iff the rule respects
    # L, and these bounds are symmetric under the mirror, so the two
    # canonical systems are mirror images and every verdict count agrees
    forward = lang(regex)
    backward = reversed_dfa(forward)
    assert all(
        backward.accepts(w) == forward.accepts(w[::-1]) for w in all_words_upto(AB, 6)
    )
    bounds = custom_bounds(variant, *lts)
    there = decide_splicing(forward, variant, bounds)
    back = decide_splicing(backward, variant, bounds)
    assert there.verdict == back.verdict
    for key in ("candidate_rules", "respecting_rules"):
        assert there.stats[key] == back.stats[key]
    assert {reverse(rule) for rule in there.system.rules} == set(back.system.rules)
    if regex == "(aa)*":
        assert there.verdict == "inconclusive"


SWAP = {"a": "b", "b": "a"}


@pytest.mark.parametrize(
    "variant,lts",
    [("classic", (4, 3, 4)), ("classic", (2, 2, 2)), ("pixton", (5, 3, 5)), ("pixton", (3, 2, 2))],
)
@pytest.mark.parametrize("regex", ["a*b*", "a+b+", "(ab)*"])
def test_renaming_maps_the_decision_of_l_onto_that_of_its_image(regex, variant, lts):
    # swapping a and b in L and in the alphabet order maps ll-order onto
    # ll-order and respecting rules onto respecting rules, so the canonical
    # system, the verdict and the ll-least word of L the closure misses map
    # letter for letter; the lower bounds leave some cases inconclusive
    forward = lang(regex)
    image = renamed_dfa(forward, SWAP)
    table = str.maketrans(SWAP)
    assert image.alphabet.symbols == ("b", "a")
    assert all(
        image.accepts(w.translate(table)) == forward.accepts(w) for w in all_words_upto(AB, 6)
    )
    bounds = custom_bounds(variant, *lts)
    there = decide_splicing(forward, variant, bounds)
    back = decide_splicing(image, variant, bounds)
    assert there.verdict == back.verdict
    for key in ("candidate_rules", "respecting_rules"):
        assert there.stats[key] == back.stats[key]
    assert [rename(rule, SWAP) for rule in there.system.rules] == list(back.system.rules)
    assert (there.witness, back.witness) == (None, None)
    missed = equivalent(closure_dfa(there.closure), forward)[1]
    assert equivalent(closure_dfa(back.closure), image)[1] == (
        None if missed is None else missed.translate(table)
    )


@pytest.mark.parametrize("regex", ["a+", "aa+", "aaa+"])
def test_classic_yes_implies_pixton_yes_at_theorem_bounds(regex):
    # every classic rule has an exact triplet counterpart, and at theorem
    # bounds both canonical systems are complete
    target = lang(regex, A)
    assert decide_splicing(target, "classic").verdict == "yes"
    assert decide_splicing(target, "pixton").verdict == "yes"


@st.composite
def small_dfas(draw):
    """Complete DFAs over ab with at most 3 states, accepting sets at random."""
    n = draw(st.integers(1, 3))
    state = st.integers(0, n - 1)
    rows = tuple(tuple(draw(state) for _ in AB.symbols) for _ in range(n))
    return Dfa(
        alphabet=AB,
        state_count=n,
        initial=0,
        accepting=frozenset(draw(st.sets(state))),
        transitions=rows,
    )


def product_and_tuple_systems(dfa, variant, inner, outer):
    """The canonical system of the DFA at small custom bounds, once with its
    rule product and once with the rule objects that product iterates."""
    system = canonical_system(dfa, variant, custom_bounds(variant, 4, inner, outer))
    assert isinstance(system.rules, RuleProduct)
    return system, dataclasses.replace(system, rules=tuple(system.rules))


@settings(max_examples=40, deadline=None)
@given(
    dfa=small_dfas(),
    variant=st.sampled_from(["classic", "pixton"]),
    inner=st.integers(1, 3),
    outer=st.integers(1, 4),
)
def test_rule_product_counts_and_iterates_the_word_level_rules(dfa, variant, inner, outer):
    bounds = custom_bounds(variant, 4, inner, outer)
    monoid = syntactic_monoid(dfa)
    product = canonical_rules(RespectContext(monoid), AB, bounds)
    expected = word_level_rules(RespectContext(monoid), AB, bounds)
    assert len(product) == len(expected)
    assert tuple(product) == expected
    assert longest_rule_component(product) == longest_rule_component(expected)
    again = canonical_rules(RespectContext(monoid), AB, bounds)
    assert again == product and hash(again) == hash(product)


@settings(max_examples=60, deadline=None)
@given(
    dfa=small_dfas(),
    variant=st.sampled_from(["classic", "pixton"]),
    inner=st.integers(1, 3),
    outer=st.integers(1, 4),
)
# a*b* has a zero class, which is no factor, yet respects as a left site
@example(dfa=lang("a*b*"), variant="classic", inner=2, outer=3)
@example(dfa=lang("a*b*"), variant="pixton", inner=3, outer=4)
def test_the_pass_gives_the_word_level_tuples_count_and_factor_sites(dfa, variant, inner, outer):
    """The product's tuples, ``len`` and ``factor_sites`` from the one pass
    against the word-level rules, filtered by the factor classes of their
    sites, and against a product built from the same tuples alone, whose
    count and factor sites come from ``class_counts`` and ``triplet``."""
    bounds = custom_bounds(variant, 4, inner, outer)
    monoid = syntactic_monoid(dfa)
    product = canonical_rules(RespectContext(monoid), AB, bounds)
    expected = word_level_rules(RespectContext(monoid), AB, bounds)
    factors = factor_classes(monoid)
    firing = tuple(
        r for r in expected if factors.issuperset(map(monoid.class_of, triplet_form(r)[:2]))
    )

    def class_tuples(rules):
        return {tuple(map(monoid.class_of, r.components)) for r in rules}

    assert product.tuples == class_tuples(expected)
    assert len(product) == len(expected)
    sites = product.factor_sites
    assert sites.tuples == class_tuples(firing)
    assert tuple(sites) == firing
    bare = RuleProduct(variant, monoid, bounds.component_lts, product.tuples)
    assert len(bare) == len(product)
    assert bare.factor_sites == sites


@settings(max_examples=60, deadline=None)
@given(
    dfa=small_dfas(),
    variant=st.sampled_from(["classic", "pixton"]),
    inner=st.integers(1, 3),
    outer=st.integers(1, 5),
)
def test_pools_and_class_levels_match_the_class_of_each_word(dfa, variant, inner, outer):
    """The ll class layout against an independent route: every word shorter
    than the bound, spelled by ``words_shorter_than`` and classed one by one
    by ``class_of``.  A level holds the classes of one length in the
    ll-order of their least words."""
    monoid = syntactic_monoid(dfa)
    bounds = custom_bounds(variant, 4, inner, outer)
    product = canonical_rules(RespectContext(monoid), AB, bounds)
    for (words, classes), lt in zip(product.pools, bounds.component_lts):
        assert words == tuple(words_shorter_than(AB, lt))
        assert classes == tuple(map(monoid.class_of, words))
    for lt in (inner, outer):
        words = list(words_shorter_than(AB, lt))
        assert class_levels(monoid, lt) == tuple(
            tuple(dict.fromkeys(monoid.class_of(w) for w in words if len(w) == n))
            for n in range(lt)
        )


@settings(max_examples=100, deadline=None)
@given(
    dfa=small_dfas(),
    variant=st.sampled_from(["classic", "pixton"]),
    inner=st.integers(1, 3),
    outer=st.integers(1, 4),
)
def test_closure_of_a_rule_product_equals_that_of_its_rule_tuple(dfa, variant, inner, outer):
    """The rule objects take the head tries and site chains, tagged by
    their words, equal to the reference built from them.  A classic product
    takes the same rule part tagged by class pairs, equal to the reference
    tagged so, and builds the tuple's automaton edge for edge: the same
    states, hubs, letter edges, epsilon edges and saturation, with only its
    joins grouped into bicliques by class pair.  A triplet product takes
    the gadgets, equal to their own reference, and accepts the language of
    the tuple's closure."""
    symbolic, listed = product_and_tuple_systems(dfa, variant, inner, outer)
    got, want = build_closure(symbolic), build_closure_reference(listed)
    assert build_closure(listed) == want
    if variant == "pixton":
        assert got == build_gadget_closure_reference(symbolic)
    else:
        assert got == build_closure_reference(symbolic)
        assert (got.left_hubs, got.right_hubs, got.growth, got.rounds) == (
            want.left_hubs, want.right_hubs, want.growth, want.rounds
        )
        assert (got.base.state_count, got.base.rows) == (want.base.state_count, want.base.rows)
        assert got.base.epsilon_edges == want.base.epsilon_edges
    assert closure_dfa(got) == closure_dfa(want)


@settings(max_examples=60, deadline=None)
@given(dfa=small_dfas(), inner=st.integers(1, 3), outer=st.integers(1, 5))
def test_gadget_and_tuple_closures_give_one_verdict_and_witness(dfa, inner, outer):
    """The canonical triplet product, which takes the gadgets, and its rules
    as a tuple, which take the head tries: one closure language, so one
    verdict and one ll-least witness against the language."""
    symbolic, listed = product_and_tuple_systems(dfa, "pixton", inner, outer)
    gadget, tuple_closure = build_closure(symbolic), build_closure(listed)
    generated = closure_dfa(gadget)
    assert generated == closure_dfa(tuple_closure)
    assert equivalent(generated, dfa) == equivalent(closure_dfa(tuple_closure), dfa)
    decision = decide_splicing(dfa, "pixton", custom_bounds("pixton", 4, inner, outer))
    # decide's closure reads the product's factor-site tuples through the
    # gadgets: a triplet's sites are its first two components
    monoid = syntactic_monoid(dfa)
    factors = {c for c, w in enumerate(monoid.representatives) if is_factor_brute(dfa, w)}
    firing = dataclasses.replace(
        symbolic.rules,
        tuples=frozenset(t for t in symbolic.rules.tuples if {t[0], t[1]} <= factors),
    )
    assert decision.closure == build_closure(dataclasses.replace(symbolic, rules=firing))
    assert closure_dfa(decision.closure) == generated
    assert decision.verdict == (
        "yes" if equivalent(closure_dfa(tuple_closure), dfa)[0] else "inconclusive"
    )


@settings(max_examples=100, deadline=None)
@given(dfa=small_dfas(), inner=st.integers(1, 3), outer=st.integers(1, 4))
def test_chain_and_tuple_closures_give_one_verdict_and_witness(dfa, inner, outer):
    """The canonical classic product, whose reads are tagged by class
    pairs, and its rules as a tuple, tagged by their words: one closure
    language, so one verdict and one ll-least witness against the language,
    and decide's verdict is the one the tuple's closure gives."""
    symbolic, listed = product_and_tuple_systems(dfa, "classic", inner, outer)
    chain, tuple_closure = build_closure(symbolic), build_closure(listed)
    generated = closure_dfa(tuple_closure)
    assert closure_dfa(chain) == generated
    assert equivalent(closure_dfa(chain), dfa) == equivalent(generated, dfa)
    decision = decide_splicing(dfa, "classic", custom_bounds("classic", 4, inner, outer))
    assert closure_dfa(decision.closure) == generated
    assert decision.verdict == ("yes" if equivalent(generated, dfa)[0] else "inconclusive")
    assert decision.witness is None


EMPTY = Dfa(alphabet=AB, state_count=1, initial=0, accepting=frozenset(), transitions=((0, 0),))


@settings(max_examples=40, deadline=None)
@given(
    dfa=small_dfas(),
    variant=st.sampled_from(["classic", "pixton"]),
    inner=st.integers(1, 3),
    outer=st.integers(1, 4),
    prune=st.booleans(),
)
@example(dfa=EMPTY, variant="classic", inner=2, outer=3, prune=False)
@example(dfa=EMPTY, variant="pixton", inner=2, outer=3, prune=True)
def test_factor_site_closure_is_the_canonical_closure(dfa, variant, inner, outer, prune):
    """decide saturates only the rules whose two sites are factors of L,
    yet its closure is the whole canonical system's, which it keeps as the
    certificate, pruned or not; a pruned decide saturates the same rules
    as an unpruned one and reaches the same decision."""
    bounds = custom_bounds(variant, 4, inner, outer)
    decision = decide_splicing(dfa, variant, bounds, prune)
    assert decision.system == canonical_system(dfa, variant, bounds, prune)
    generated = closure_dfa(decision.closure)
    assert generated == closure_dfa(build_closure(decision.system))
    firing = factor_site_system(decision.system, dfa)
    assert generated == closure_dfa(build_closure(firing))
    if prune:
        whole = decide_splicing(dfa, variant, bounds, prune=False)
        assert decision.closure == whole.closure
        assert (decision.verdict, decision.witness) == (whole.verdict, whole.witness)
    elif variant == "classic":
        monoid = syntactic_monoid(dfa)
        assert decision.closure == build_closure_reference(firing, monoid)
    if not dfa.accepting:
        assert decision.verdict == "yes"


def test_no_hub_reads_a_site_that_is_not_a_factor():
    decision = decide_splicing(lang("a+b+"), "classic", custom_bounds("classic", 4, 3, 4))
    hubs = decision.closure.left_hubs + decision.closure.right_hubs
    assert hubs and not any("ba" in site for site, _hub in hubs)
    assert any("ba" in site for site, _hub in build_closure(decision.system).left_hubs)


@settings(max_examples=50, deadline=None)
@given(
    dfa=small_dfas(),
    variant=st.sampled_from(["classic", "pixton"]),
    inner=st.integers(1, 3),
    outer=st.integers(1, 5),
)
def test_system_json_of_a_rule_product_equals_that_of_its_rule_tuple(dfa, variant, inner, outer):
    symbolic, listed = product_and_tuple_systems(dfa, variant, inner, outer)
    text = system_to_json(symbolic)
    assert text == system_to_json(listed) == system_to_json_reference(symbolic)


def test_default_decide_builds_no_rule_object(monkeypatch):
    def refuse(self):
        raise AssertionError("rule product iterated")

    monkeypatch.setattr(RuleProduct, "__iter__", refuse)
    decision = decide_splicing(lang("a+b+"), "classic", custom_bounds("classic", 4, 3, 4))
    assert decision.verdict == "yes"
    assert decision.stats["rules_emitted"] == len(decision.system.rules) == 10413
    assert len(json.loads(system_to_json(decision.system))["rules"]) == 10413
    assert hash(decision.system) == hash(dataclasses.replace(decision.system))
