import itertools
import random

import pytest

from splicekit import (
    Alphabet,
    ClassicRule,
    IllegalExtensionError,
    PixtonRule,
    RespectContext,
    brute_respect,
    custom_bounds,
    determinize,
    extend_rule,
    is_extension_of,
    minimize,
    parse_regex,
    prune_minimal,
    respect_counterexample,
    respects_classic,
    respects_pixton,
    syntactic_monoid,
)
from splicekit.decide import canonical_rules
from splicekit.splicing import triplet, triplet_form

from helpers import (
    random_classic_rule,
    random_min_dfa,
    random_pixton_rule,
    random_word,
    respect_verdict_reference,
)

A = Alphabet.from_string("a")
AB = Alphabet.from_string("ab")


def lang(regex, alphabet=AB):
    return minimize(determinize(parse_regex(regex, alphabet)))


def ctx_for(regex, alphabet=AB):
    return RespectContext(syntactic_monoid(lang(regex, alphabet)))


def test_pixton_respect_examples():
    ctx = ctx_for("a+b+")
    assert respects_pixton(ctx, PixtonRule("a", "b", "ab"))
    assert not respects_pixton(ctx, PixtonRule("", "", ""))


def test_everything_respects_sigma_star():
    ctx = ctx_for("(a|b)*")
    rng = random.Random(1)
    for _ in range(50):
        assert respects_pixton(ctx, random_pixton_rule(rng, AB, 3))
        assert respects_classic(ctx, random_classic_rule(rng, AB, 3))


def test_classic_respect_examples():
    ctx = ctx_for("a+b+")
    assert respects_classic(ctx, ClassicRule("a", "b", "", "ab"))
    assert respects_classic(ctx, ClassicRule("ab", "", "a", "b"))
    paa = ctx_for("(aa)*", A)
    assert not respects_classic(paa, ClassicRule("aa", "", "aa", ""))


def test_no_classic_rule_respects_even_length_words():
    # parity argument checked exhaustively for components up to length 4
    ctx = ctx_for("(aa)*", A)
    words = ["", "a", "aa", "aaa", "aaaa"]
    for comps in itertools.product(words, repeat=4):
        assert not respects_classic(ctx, ClassicRule(*comps))


def test_brute_respect_examples():
    paa = lang("(aa)*", A)
    assert not brute_respect(paa, ClassicRule("aa", "", "aa", ""), 4)
    w1, w2, z = respect_counterexample(paa, ClassicRule("aa", "", "aa", ""), 4)
    assert paa.accepts(w1) and paa.accepts(w2) and not paa.accepts(z)
    apbp = lang("a+b+")
    assert not brute_respect(apbp, ClassicRule("", "", "", ""), 2)


def test_negative_word_bound_is_rejected():
    paa = lang("(aa)*", A)
    rule = ClassicRule("aa", "", "aa", "")
    with pytest.raises(ValueError, match="word_bound"):
        respect_counterexample(paa, rule, -3)
    with pytest.raises(ValueError, match="word_bound"):
        brute_respect(paa, rule, -1)


def test_brute_respect_sound_for_respecting_rules():
    ctx = ctx_for("a+b+")
    apbp = lang("a+b+")
    rule = ClassicRule("a", "b", "", "ab")
    assert respects_classic(ctx, rule)
    for bound in (2, 4, 6, 8):
        assert brute_respect(apbp, rule, bound)


def test_brute_refutation_implies_monoid_refutation():
    rng = random.Random(4242)
    langs = [random_min_dfa(rng, AB, 4) for _ in range(12)]
    contexts = {id(d): RespectContext(syntactic_monoid(d)) for d in langs}
    for d in langs:
        ctx = contexts[id(d)]
        for _ in range(5):
            classic = random_classic_rule(rng, AB, 3)
            trip = random_pixton_rule(rng, AB, 3)
            if not brute_respect(d, classic, 8):
                assert not respects_classic(ctx, classic)
            if not brute_respect(d, trip, 8):
                assert not respects_pixton(ctx, trip)


def test_monoid_verdict_exact_on_finite_languages():
    # For a finite language every splicing counterexample uses words no
    # longer than the longest member, so the brute oracle at that bound is
    # exact and the monoid verdict must match it in both directions.
    rng = random.Random(2718)
    ab = AB
    for _ in range(25):
        words = {random_word(rng, ab, 4) for _ in range(rng.randint(1, 4))}
        regex = "|".join(f"({w})" if w else "()" for w in sorted(words))
        d = lang(regex)
        bound = max(len(w) for w in words)
        ctx = RespectContext(syntactic_monoid(d))
        for _ in range(8):
            classic = random_classic_rule(rng, ab, 2)
            trip = random_pixton_rule(rng, ab, 2)
            assert respects_classic(ctx, classic) == brute_respect(d, classic, bound)
            assert respects_pixton(ctx, trip) == brute_respect(d, trip, bound)


def test_congruence_invariance():
    # replacing each component by its shortest class representative does not
    # change the verdict
    rng = random.Random(77)
    for _ in range(10):
        d = random_min_dfa(rng, AB, 4)
        m = syntactic_monoid(d)
        ctx = RespectContext(m)
        for _ in range(6):
            rule = random_pixton_rule(rng, AB, 3)
            rep = PixtonRule(
                *(m.shortest_representative(m.class_of(c)) for c in rule.components)
            )
            assert respects_pixton(ctx, rule) == respects_pixton(ctx, rep)


def test_extension_preserves_respect():
    rng = random.Random(55)
    checked = 0
    while checked < 40:
        d = random_min_dfa(rng, AB, 4)
        ctx = RespectContext(syntactic_monoid(d))
        rule = random_pixton_rule(rng, AB, 2)
        if not respects_pixton(ctx, rule):
            continue
        where = rng.choice(("left-bridge", "u1", "u2", "right-bridge"))
        extended = extend_rule(rule, where, random_word(rng, AB, 2))
        assert respects_pixton(ctx, extended)
        checked += 1


def test_extension_preserves_respect_classic():
    rng = random.Random(56)
    checked = 0
    while checked < 40:
        d = random_min_dfa(rng, AB, 4)
        ctx = RespectContext(syntactic_monoid(d))
        rule = random_classic_rule(rng, AB, 2)
        if not respects_classic(ctx, rule):
            continue
        where = rng.choice(("u1", "v1", "u2", "v2"))
        extended = extend_rule(rule, where, random_word(rng, AB, 2))
        assert respects_classic(ctx, extended)
        checked += 1


def test_cache_coherence():
    ctx = ctx_for("a+b+")
    rng = random.Random(8)
    rules = [random_classic_rule(rng, AB, 2) for _ in range(40)]
    first = [ctx.respects(r) for r in rules]
    again = [ctx.respects(r) for r in rules]
    fresh = ctx_for("a+b+")
    assert first == again == [fresh.respects(r) for r in rules]
    assert len(ctx.cache) <= ctx.monoid.size**3
    for flanks, verdict in ctx.cache.items():
        assert fresh._flank_verdict(*flanks) == verdict


@pytest.mark.parametrize("name", ["cache", "_left_viable", "_right_viable"])
def test_respect_context_takes_only_the_monoid(name):
    """The memo and the viability tables are derived from the monoid; none
    can be handed in."""
    monoid = ctx_for("a+b+").monoid
    with pytest.raises(TypeError):
        RespectContext(monoid, **{name: {} if name == "cache" else []})


def test_extend_rule_patterns():
    classic = ClassicRule("a", "b", "", "ab")
    assert extend_rule(classic, "u1", "a") == ClassicRule("aa", "b", "", "ab")
    assert extend_rule(classic, "v1", "b") == ClassicRule("a", "bb", "", "ab")
    assert extend_rule(classic, "u2", "a") == ClassicRule("a", "b", "a", "ab")
    assert extend_rule(classic, "v2", "b") == ClassicRule("a", "b", "", "abb")
    trip = PixtonRule("a", "b", "c".replace("c", "b"))
    assert extend_rule(trip, "left-bridge", "a") == PixtonRule("aa", "b", "ab")
    assert extend_rule(trip, "u1", "b") == PixtonRule("ab", "b", "b")
    assert extend_rule(trip, "u2", "a") == PixtonRule("a", "ab", "b")
    assert extend_rule(trip, "right-bridge", "a") == PixtonRule("a", "ba", "ba")
    with pytest.raises(IllegalExtensionError):
        extend_rule(classic, "left-bridge", "a")
    with pytest.raises(IllegalExtensionError):
        extend_rule(trip, "v1", "a")


def test_is_extension_of_examples():
    base = ClassicRule("a", "b", "", "ab")
    assert is_extension_of(ClassicRule("aa", "b", "", "ab"), base)
    assert is_extension_of(base, base)
    assert not is_extension_of(base, ClassicRule("aa", "b", "", "ab"))
    with pytest.raises(ValueError):
        is_extension_of(base, PixtonRule("a", "b", ""))


def test_is_extension_of_tracks_extension_chains():
    rng = random.Random(31)
    for _ in range(60):
        if rng.random() < 0.5:
            rule = random_classic_rule(rng, AB, 2)
            wheres = ("u1", "v1", "u2", "v2")
        else:
            rule = random_pixton_rule(rng, AB, 2)
            wheres = ("left-bridge", "u1", "u2", "right-bridge")
        extended = rule
        for _ in range(rng.randint(1, 3)):
            extended = extend_rule(extended, rng.choice(wheres), random_word(rng, AB, 2))
        assert is_extension_of(extended, rule)


def test_pixton_extension_requires_coupled_bridge():
    # same sites, unrelated bridge: not an extension
    assert not is_extension_of(PixtonRule("a", "b", "b"), PixtonRule("a", "b", "a"))


def test_prune_minimal_drops_extensions():
    base = ClassicRule("a", "b", "", "ab")
    extended = extend_rule(base, "u1", "a")
    assert prune_minimal([base, extended]) == [base]
    assert prune_minimal([extended, base]) == [base]
    antichain = [ClassicRule("a", "", "", ""), ClassicRule("b", "", "", "")]
    assert prune_minimal(antichain) == antichain
    assert prune_minimal([base, base]) == [base]


def pairwise_prune(rules):
    """Reference: dedupe in order, then drop each rule that extends another."""
    seen = []
    for rule in rules:
        if rule not in seen:
            seen.append(rule)
    return [
        rule
        for rule in seen
        if not any(other != rule and is_extension_of(rule, other) for other in seen)
    ]


@pytest.mark.parametrize("classic", [True, False])
def test_prune_minimal_matches_pairwise_definition(classic):
    rng = random.Random(91 if classic else 92)
    make = random_classic_rule if classic else random_pixton_rule
    wheres = ("u1", "v1", "u2", "v2") if classic else ("left-bridge", "u1", "u2", "right-bridge")
    for _ in range(150):
        rules = [make(rng, AB, 2) for _ in range(rng.randint(1, 6))]
        for _ in range(rng.randint(0, 12)):
            rule = rng.choice(rules)
            for _ in range(rng.randint(1, 3)):
                rule = extend_rule(rule, rng.choice(wheres), random_word(rng, AB, 2))
            rules.append(rule)
        rules += rng.choices(rules, k=rng.randint(0, 4))  # duplicates
        rng.shuffle(rules)
        assert prune_minimal(rules) == pairwise_prune(rules)


def test_prune_minimal_matches_pairwise_on_canonical_rules():
    for regex, variant in (("a+b+", "classic"), ("(ab)*", "pixton")):
        monoid = syntactic_monoid(lang(regex))
        rules = canonical_rules(RespectContext(monoid), AB, custom_bounds(variant, 3, 3, 3))
        assert prune_minimal(rules) == pairwise_prune(rules)


def test_memoized_verdicts_match_reference_on_every_class_tuple():
    rng = random.Random(2024)
    checked = 0
    while checked < 12:
        monoid = syntactic_monoid(random_min_dfa(rng, AB, 4))
        if not 2 <= monoid.size <= 8:
            continue
        checked += 1
        ctx = RespectContext(monoid)
        elements = range(monoid.size)
        keys = [("c",) + t for t in itertools.product(elements, repeat=4)]
        keys += [("p",) + t for t in itertools.product(elements, repeat=3)]
        rng.shuffle(keys)
        for key in keys:
            make = ClassicRule if key[0] == "c" else PixtonRule
            rule = make(*(monoid.representatives[c] for c in key[1:]))
            assert ctx.respects(rule) == respect_verdict_reference(monoid, key), key


def test_triplet_of_component_classes_is_the_class_triple_of_the_triplet_form():
    # class_of is a morphism, so multiplying component classes by the table
    # gives the classes of the concatenated sites and insert word
    rng = random.Random(14)
    for _ in range(8):
        monoid = syntactic_monoid(random_min_dfa(rng, AB, 4))
        for _ in range(30):
            for rule in (random_classic_rule(rng, AB, 4), random_pixton_rule(rng, AB, 4)):
                classes = tuple(map(monoid.class_of, rule.components))
                want = tuple(map(monoid.class_of, triplet_form(rule)))
                assert triplet(classes, monoid.mul) == want, rule
