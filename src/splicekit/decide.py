"""Canonical splicing systems and the splicing-language decision procedure.

For a regular language L with syntactic monoid of size m, the canonical
system takes every word of L shorter than m^2 + 6m as an axiom and every
rule within the canonical length bounds that respects L.  L is a splicing
language of the given variant iff this system generates exactly L, so the
decision reduces to building the canonical system, constructing its closure
automaton, and checking language equality.  Below the canonical bounds a
positive outcome is still a certificate, but a negative one is only
"inconclusive".

The closure is built from the factor-site rules only: those whose left and
right sites are both factors of L.  The axioms lie in L and every rule
respects L, so the closure lies in L, and a splicing reads its sites in two
closure words: a rule with a site that is not a factor of L never fires,
and dropping it keeps the closure.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields, replace

from .automata import (
    Alphabet,
    Dfa,
    count_words_shorter_than,
    difference_witness,
    equivalent,
    intersect,
    minimize,
)
from .closure import ClosureAutomaton, build_closure, closure_dfa
from .errors import CandidateLimitExceededError, PoolLimitExceededError
from .monoid import SyntacticMonoid, class_counts, factor_classes, syntactic_monoid
from .respect import RespectContext, prune_minimal
from .splicing import CLASSIC, RuleProduct, SplicingSystem, _rule_type, triplet_form

DEFAULT_CANDIDATE_LIMIT = 10_000_000
CANDIDATE_LIMIT_ENV = "SPLICEKIT_CANDIDATE_LIMIT"

THEOREM = "theorem"
CUSTOM = "custom"

# the stages of decide_splicing, in pipeline order; Decision.seconds keys
_STAGES = ("monoid", "rules", "saturate", "closure_dfa", "comparison")


@dataclass(frozen=True)
class BoundsProfile:
    """Strict length bounds for canonical axioms and rule components.

    ``component_lts`` follows the rule component order: (u1, v1, u2, v2) for
    classic rules, (u1, u2, v) for triplets.
    """

    variant: str
    axiom_len_lt: int
    component_lts: tuple[int, ...]
    source: str

    def __post_init__(self):
        expected = len(fields(_rule_type(self.variant)))
        if len(self.component_lts) != expected:
            raise ValueError(f"{self.variant} bounds need {expected} component bounds")
        if self.axiom_len_lt < 1 or any(b < 1 for b in self.component_lts):
            raise ValueError("all bounds must be at least 1")


def _bounds(
    variant: str, axiom_lt: int, inner_lt: int, outer_lt: int, source: str
) -> BoundsProfile:
    """Lay the inner and outer bounds out in the variant's component order."""
    if variant == CLASSIC:
        lts = (outer_lt, inner_lt, inner_lt, outer_lt)
    else:
        lts = (inner_lt, inner_lt, outer_lt)
    return BoundsProfile(variant, axiom_lt, lts, source)


def theorem_bounds(m: int, variant: str) -> BoundsProfile:
    """The bounds at which the canonical-system theorems are complete.

    Axioms shorter than m^2 + 6m; inner components (v1, u2 for classic, both
    sites for triplets) shorter than 2m; outer components (u1, v2 for
    classic, the bridge for triplets) shorter than m^2 + 10m.
    """
    if m < 1:
        raise ValueError("monoid size must be positive")
    return _bounds(variant, m * m + 6 * m, 2 * m, m * m + 10 * m, THEOREM)


def custom_bounds(
    variant: str, axiom_len_lt: int, inner_lt: int, outer_lt: int
) -> BoundsProfile:
    return _bounds(variant, axiom_len_lt, inner_lt, outer_lt, CUSTOM)


def candidate_count(alphabet: Alphabet, bounds: BoundsProfile) -> int:
    total = 1
    for lt in bounds.component_lts:
        total *= count_words_shorter_than(len(alphabet), lt)
    return total


def _candidate_limit() -> int:
    env = os.environ.get(CANDIDATE_LIMIT_ENV)
    if not env:
        return DEFAULT_CANDIDATE_LIMIT
    try:
        limit = int(env)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(f"{CANDIDATE_LIMIT_ENV} must be a positive integer, got {env!r}")
    return limit


def _length_bounded_dfa(alphabet: Alphabet, lt: int) -> Dfa:
    """Complete DFA accepting exactly the words of length < lt."""
    # States 0..lt-1 count the length; state lt is the too-long sink.
    rows = tuple(
        tuple(min(s + 1, lt) for _ in alphabet.symbols) for s in range(lt + 1)
    )
    return Dfa(
        alphabet=alphabet,
        state_count=lt + 1,
        initial=0,
        accepting=frozenset(range(lt)),
        transitions=rows,
    )


def canonical_axioms(lang: Dfa, bounds: BoundsProfile) -> Dfa:
    """Automaton for the axiom set, kept symbolic (never a word list)."""
    return minimize(intersect(lang, _length_bounded_dfa(lang.alphabet, bounds.axiom_len_lt)))


def canonical_rules(
    lang_monoid_ctx: RespectContext,
    alphabet: Alphabet,
    bounds: BoundsProfile,
) -> RuleProduct:
    """Every rule within the bounds that respects the language, kept
    symbolic as a ``RuleProduct``: no rule object and no word is built.

    The exact word-tuple count is checked against the guard first, then the
    characters the product's distinct pools would spell, so that nothing
    spelled later runs out of memory.  Respect depends only on the class
    tuple of a rule, so the rule set is a product over syntactic classes:
    each component takes the classes of the words shorter than its bound
    (``monoid.class_counts``), and one pass over their class tuples
    (``_respecting``) finds the respecting ones, the product's word count
    and the sub-product of its factor-site tuples (``factor_sites``).  The
    rules are the word tuples whose class tuple respects, in the word-tuple
    nested-loop order (first component slowest, each pool in ll-order),
    which the product's iteration and runs follow.
    """
    limit = _candidate_limit()
    total = candidate_count(alphabet, bounds)
    if total > limit:
        raise CandidateLimitExceededError(total, limit)
    ctx = lang_monoid_ctx
    lts = bounds.component_lts
    chars = sum(_spelled_chars(len(ctx.monoid.alphabet), lt) for lt in set(lts))
    if chars > limit:
        raise PoolLimitExceededError(chars, limit)
    respecting, count, firing = _respecting(ctx, [class_counts(ctx.monoid, lt) for lt in lts])
    rules = RuleProduct(bounds.variant, ctx.monoid, lts, frozenset(respecting))
    rules.__dict__["_count"] = count
    rules.__dict__["factor_sites"] = rules.restricted(frozenset(firing))
    return rules


def _respecting(
    ctx: RespectContext, counts: list[dict[int, int]]
) -> tuple[list[tuple[int, ...]], int, list[tuple[int, ...]]]:
    """(respecting class tuples, their word count, the respecting tuples
    whose two sites are factor classes), from one loop over the tuples of
    the classes each component takes (``counts[i]``: class -> its words
    shorter than the component's bound).

    A tuple is an outer part, which gives the left site and the row of
    insert classes, and an inner part, which gives the right site and the
    key into that row: classic (a, b | c, d) has left site a·b, right site
    c·d and insert a·d, triplet (l | r, v) is its own flank triple, the
    maps of ``splicing.triplet``.  A tuple respects when ``ctx.right_sets``
    of its right site and ``ctx.row`` of its left site at its insert share
    no bit.
    """
    t, right_sets, factors = ctx.monoid.table, ctx.right_sets, factor_classes(ctx.monoid)
    if len(counts) == 4:
        n0, n1, n2, n3 = counts
        outers = [((a, b), t[a][b], t[a], n0[a] * n1[b]) for a in n0 for b in n1]
        inners = [((c, d), t[c][d], d, n2[c] * n3[d]) for c in n2 for d in n3]
    else:
        n0, n1, n2 = counts
        outers = [((h,), h, t[ctx.monoid.identity], n0[h]) for h in n0]
        inners = [((r, v), r, v, n1[r] * n2[v]) for r in n1 for v in n2]
    inners = [(part, right_sets[right], right in factors, key, n) for part, right, key, n in inners]
    respecting: list[tuple[int, ...]] = []
    firing: list[tuple[int, ...]] = []
    total = 0
    for head, left, inserts, n_head in outers:
        row, left_fires = ctx.row(left), left in factors
        for tail, follow, right_fires, key, n_tail in inners:
            if not follow & row[inserts[key]]:
                classes = head + tail
                respecting.append(classes)
                total += n_head * n_tail
                if left_fires and right_fires:
                    firing.append(classes)
    return respecting, total, firing


def _spelled_chars(k: int, lt: int) -> int:
    """The characters of every word shorter than lt over k symbols:
    the sum of n·k^n over n < lt."""
    if k == 1:
        return lt * (lt - 1) // 2
    return sum(n * k**n for n in range(lt))


def _canonical(
    lang: Dfa,
    monoid: SyntacticMonoid,
    variant: str,
    bounds: BoundsProfile,
    prune: bool,
) -> tuple[SplicingSystem, int]:
    """Canonical system for L with its syntactic monoid, and the number of
    respecting rules before pruning."""
    if bounds.variant != variant:
        raise ValueError(f"{bounds.variant} bounds given for a {variant} system")
    ctx = RespectContext(monoid)
    axioms = canonical_axioms(lang, bounds)
    rules = canonical_rules(ctx, lang.alphabet, bounds)
    n_respecting = len(rules)
    if prune:
        rules = tuple(prune_minimal(rules))
    return SplicingSystem(variant, lang.alphabet, axioms, rules), n_respecting


def _factor_site_rules(rules, monoid: SyntacticMonoid):
    """The rules whose left and right sites are both factors of the
    language: of a product, its ``factor_sites``, which ``canonical_rules``
    made in its pass; of a tuple, the rules whose sites' words are."""
    if isinstance(rules, RuleProduct):
        return rules.factor_sites
    factors = factor_classes(monoid)
    return tuple(
        r for r in rules if factors.issuperset(map(monoid.class_of, triplet_form(r)[:2]))
    )


def canonical_system(
    lang: Dfa,
    variant: str,
    bounds: BoundsProfile,
    prune: bool = False,
) -> SplicingSystem:
    """The canonical system for L at the given bounds."""
    return _canonical(lang, syntactic_monoid(lang), variant, bounds, prune)[0]


@dataclass(frozen=True)
class Decision:
    """Outcome of the splicing-language decision.

    ``system`` is the canonical system that was tested (the certificate for
    a yes) and ``closure`` the closure automaton the comparison with L ran
    on, built from the system's factor-site rules only, whose closure is
    the whole system's (see the module docstring); ``witness`` is a word of
    L the system cannot generate (only emitted at theorem bounds);
    ``reason`` explains an inconclusive verdict.
    ``stats`` holds counts only, so equal decisions compare equal;
    ``seconds`` holds the wall-clock seconds of each stage (monoid, rules,
    saturate, closure_dfa, comparison, in that order) and takes no part in
    equality.
    """

    verdict: str  # "yes" | "no" | "inconclusive"
    system: SplicingSystem
    closure: ClosureAutomaton
    witness: str | None
    reason: str | None
    stats: dict
    seconds: dict = field(compare=False)

    @property
    def exit_code(self) -> int:
        return {"yes": 0, "no": 1, "inconclusive": 2}[self.verdict]


def decide_splicing(
    lang: Dfa,
    variant: str,
    bounds: BoundsProfile | None = None,
    prune: bool = False,
) -> Decision:
    """Build the canonical system and the closure of its factor-site rules,
    and compare that closure with L.

    ``bounds`` defaults to the theorem bounds for the syntactic monoid of L.
    """
    marks = [time.perf_counter()]
    monoid = syntactic_monoid(lang)
    marks.append(time.perf_counter())
    if bounds is None:
        bounds = theorem_bounds(monoid.size, variant)
    system, n_respecting = _canonical(lang, monoid, variant, bounds, prune)
    firing = replace(system, rules=_factor_site_rules(system.rules, monoid))
    marks.append(time.perf_counter())
    closure = build_closure(firing)
    marks.append(time.perf_counter())
    generated = closure_dfa(closure)
    marks.append(time.perf_counter())
    escape = difference_witness(generated, lang)
    if escape is not None:
        raise AssertionError(
            f"closure generated {escape!r} outside the language; this is a bug"
        )
    equal, witness = equivalent(generated, lang)
    marks.append(time.perf_counter())
    seconds = {stage: b - a for stage, a, b in zip(_STAGES, marks, marks[1:])}
    stats = {
        "monoid_size": monoid.size,
        "candidate_rules": candidate_count(lang.alphabet, bounds),
        "respecting_rules": n_respecting,
        "rules_emitted": len(system.rules),
        "closure_states": closure.base.state_count,
        "closure_rounds": closure.rounds,
        "closure_epsilon_edges": closure.added_count,
    }
    if equal:
        return Decision("yes", system, closure, None, None, stats, seconds)
    if bounds.source == THEOREM:
        # closure subset of L was just asserted, so the witness lies in L.
        return Decision("no", system, closure, witness, None, stats, seconds)
    return Decision(
        "inconclusive", system, closure, None, "bounds below theorem guarantee",
        stats, seconds,
    )
