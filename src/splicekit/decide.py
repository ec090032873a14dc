"""Canonical splicing systems and the splicing-language decision procedure.

For a regular language L with syntactic monoid of size m, the canonical
system takes every word of L shorter than m^2 + 6m as an axiom and every
rule within the canonical length bounds that respects L.  L is a splicing
language of the given variant iff this system generates exactly L, so the
decision reduces to building the canonical system, constructing its closure
automaton, and checking language equality.  Below the canonical bounds a
positive outcome is still a certificate, but a negative one is only
"inconclusive".
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from .automata import (
    Alphabet,
    Dfa,
    count_words_shorter_than,
    difference_witness,
    equivalent,
    intersect,
    minimize,
    words_shorter_than,
)
from .closure import ClosureAutomaton, build_closure, closure_dfa
from .errors import CandidateLimitExceededError
from .monoid import SyntacticMonoid, syntactic_monoid
from .respect import RespectContext, prune_minimal
from .splicing import CLASSIC, PIXTON, ClassicRule, PixtonRule, Rule, SplicingSystem

DEFAULT_CANDIDATE_LIMIT = 10_000_000
CANDIDATE_LIMIT_ENV = "SPLICEKIT_CANDIDATE_LIMIT"

THEOREM = "theorem"
CUSTOM = "custom"


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
        expected = 4 if self.variant == CLASSIC else 3
        if len(self.component_lts) != expected:
            raise ValueError(f"{self.variant} bounds need {expected} component bounds")
        if self.axiom_len_lt < 1 or any(b < 1 for b in self.component_lts):
            raise ValueError("all bounds must be at least 1")


def theorem_bounds(m: int, variant: str) -> BoundsProfile:
    """The bounds at which the canonical-system theorems are complete.

    Axioms shorter than m^2 + 6m; inner components (v1, u2 for classic, both
    sites for triplets) shorter than 2m; outer components (u1, v2 for
    classic, the bridge for triplets) shorter than m^2 + 10m.
    """
    if m < 1:
        raise ValueError("monoid size must be positive")
    inner = 2 * m
    outer = m * m + 10 * m
    axiom = m * m + 6 * m
    if variant == CLASSIC:
        return BoundsProfile(CLASSIC, axiom, (outer, inner, inner, outer), THEOREM)
    if variant == PIXTON:
        return BoundsProfile(PIXTON, axiom, (inner, inner, outer), THEOREM)
    raise ValueError(f"unknown variant {variant!r}")


def custom_bounds(
    variant: str, axiom_len_lt: int, inner_lt: int, outer_lt: int
) -> BoundsProfile:
    if variant == CLASSIC:
        lts = (outer_lt, inner_lt, inner_lt, outer_lt)
    elif variant == PIXTON:
        lts = (inner_lt, inner_lt, outer_lt)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return BoundsProfile(variant, axiom_len_lt, lts, CUSTOM)


def candidate_count(alphabet: Alphabet, bounds: BoundsProfile) -> int:
    total = 1
    for lt in bounds.component_lts:
        total *= count_words_shorter_than(len(alphabet), lt)
    return total


def resolve_candidate_limit(limit: int | None) -> int:
    if limit is not None:
        return limit
    env = os.environ.get(CANDIDATE_LIMIT_ENV)
    return int(env) if env else DEFAULT_CANDIDATE_LIMIT


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
    candidate_limit: int | None = None,
) -> tuple[Rule, ...]:
    """Every rule within the bounds that respects the language.

    Candidates stream in component order (first component slowest, each in
    length-lexicographic order); the respect test runs once per class tuple
    through the context cache.  The exact candidate count is checked against
    the guard before anything is enumerated.
    """
    limit = resolve_candidate_limit(candidate_limit)
    total = candidate_count(alphabet, bounds)
    if total > limit:
        raise CandidateLimitExceededError(total, limit)
    pools = [list(words_shorter_than(alphabet, lt)) for lt in bounds.component_lts]
    make: type[Rule] = ClassicRule if bounds.variant == CLASSIC else PixtonRule
    ctx = lang_monoid_ctx

    def candidates():
        if bounds.variant == CLASSIC:
            for u1 in pools[0]:
                for v1 in pools[1]:
                    for u2 in pools[2]:
                        for v2 in pools[3]:
                            yield make(u1, v1, u2, v2)
        else:
            for u1 in pools[0]:
                for u2 in pools[1]:
                    for v in pools[2]:
                        yield make(u1, u2, v)

    return tuple(rule for rule in candidates() if ctx.respects(rule))


def _canonical(
    lang: Dfa,
    monoid: SyntacticMonoid,
    variant: str,
    bounds: BoundsProfile,
    prune: bool,
    candidate_limit: int | None,
) -> tuple[SplicingSystem, int]:
    """Canonical system for a minimal L with its syntactic monoid, and the
    number of respecting rules before pruning."""
    ctx = RespectContext(monoid)
    axioms = canonical_axioms(lang, bounds)
    rules = canonical_rules(ctx, lang.alphabet, bounds, candidate_limit)
    n_respecting = len(rules)
    if prune:
        rules = tuple(prune_minimal(rules, ctx))
    return SplicingSystem(variant, lang.alphabet, axioms, tuple(rules)), n_respecting


def canonical_system(
    lang: Dfa,
    variant: str,
    bounds: BoundsProfile,
    prune: bool = False,
    candidate_limit: int | None = None,
) -> SplicingSystem:
    """The canonical system for L at the given bounds."""
    lang = minimize(lang)
    return _canonical(lang, syntactic_monoid(lang), variant, bounds, prune, candidate_limit)[0]


@dataclass(frozen=True)
class Decision:
    """Outcome of the splicing-language decision.

    ``system`` is the canonical system that was tested (the certificate for
    a yes) and ``closure`` the closure automaton the comparison with L ran
    on; ``witness`` is a word of L the system cannot generate (only emitted
    at theorem bounds); ``reason`` explains an inconclusive verdict.
    """

    verdict: str  # "yes" | "no" | "inconclusive"
    system: SplicingSystem
    closure: ClosureAutomaton
    witness: str | None
    reason: str | None
    stats: dict

    @property
    def exit_code(self) -> int:
        return {"yes": 0, "no": 1, "inconclusive": 2}[self.verdict]


def decide_splicing(
    lang: Dfa,
    variant: str,
    bounds: BoundsProfile | None = None,
    prune: bool = False,
    candidate_limit: int | None = None,
) -> Decision:
    """Build the canonical system, its closure, and compare with L.

    ``bounds`` defaults to the theorem bounds for the syntactic monoid of L.
    """
    start = time.monotonic()
    lang = minimize(lang)
    monoid = syntactic_monoid(lang)
    if bounds is None:
        bounds = theorem_bounds(monoid.size, variant)
    system, n_respecting = _canonical(lang, monoid, variant, bounds, prune, candidate_limit)
    closure = build_closure(system)
    generated = closure_dfa(closure)
    escape = difference_witness(generated, lang)
    if escape is not None:
        raise AssertionError(
            f"closure generated {escape!r} outside the language; this is a bug"
        )
    equal, witness = equivalent(generated, lang)
    stats = {
        "monoid_size": monoid.size,
        "candidate_rules": candidate_count(lang.alphabet, bounds),
        "respecting_rules": n_respecting,
        "rules_emitted": len(system.rules),
        "closure_states": closure.base.state_count,
        "closure_rounds": closure.rounds,
        "closure_epsilon_edges": len(closure.added),
        "wall_time_s": round(time.monotonic() - start, 3),
    }
    if equal:
        return Decision("yes", system, closure, None, None, stats)
    if bounds.source == THEOREM:
        # closure subset of L was just asserted, so the witness lies in L.
        return Decision("no", system, closure, witness, None, stats)
    return Decision(
        "inconclusive", system, closure, None, "bounds below theorem guarantee", stats
    )
