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

import itertools
import os
import time
from dataclasses import dataclass, field, fields

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
from .splicing import CLASSIC, RuleProduct, SplicingSystem, _rule_type, triplet

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


def _class_pool(
    monoid: SyntacticMonoid, alphabet: Alphabet, lt: int
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Every word shorter than lt in ll-order, and the syntactic class of each.

    In ll-order over k symbols the word at index i > 0 is the word at index
    (i - 1) // k extended by symbol (i - 1) % k, so each class is one
    multiplication of its one-shorter prefix's class by a generator.
    """
    words = tuple(words_shorter_than(alphabet, lt))
    gens = [monoid.generators[monoid.alphabet.index(s)] for s in alphabet.symbols]
    k, table = len(gens), monoid.table
    classes = [monoid.identity]
    for i in range(1, len(words)):
        parent, symbol = divmod(i - 1, k)
        classes.append(table[classes[parent]][gens[symbol]])
    return words, tuple(classes)


def canonical_rules(
    lang_monoid_ctx: RespectContext,
    alphabet: Alphabet,
    bounds: BoundsProfile,
) -> RuleProduct:
    """Every rule within the bounds that respects the language, kept
    symbolic as a ``RuleProduct``: no rule object is built.

    The exact word-tuple count is checked against the guard first.  Respect
    depends only on the class tuple of a rule, so the rule set is a product
    over syntactic classes:

    - each distinct component bound gets one pool of its words in ll-order,
      each word's class computed once from its prefix's class;
    - the respect verdict is asked once per class tuple present in the pools
      (at most m^4 classic, m^3 triplet), for the flank triple
      ``splicing.triplet`` maps the tuple to, through the context's cache;
    - the rules are the word tuples whose class tuple respects, in the
      word-tuple nested-loop order (first component slowest, each pool in
      ll-order), which the product's iteration and runs follow.
    """
    limit = _candidate_limit()
    total = candidate_count(alphabet, bounds)
    if total > limit:
        raise CandidateLimitExceededError(total, limit)
    ctx = lang_monoid_ctx
    lts = bounds.component_lts
    pools = {lt: _class_pool(ctx.monoid, alphabet, lt) for lt in set(lts)}
    present = [sorted(set(pools[lt][1])) for lt in lts]
    verdict, product = ctx.verdict, ctx.product
    respecting = frozenset(
        classes
        for classes in itertools.product(*present)
        if verdict(*triplet(classes, product))
    )
    return RuleProduct(bounds.variant, tuple(pools[lt] for lt in lts), respecting)


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
    on; ``witness`` is a word of L the system cannot generate (only emitted
    at theorem bounds); ``reason`` explains an inconclusive verdict.
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
    """Build the canonical system, its closure, and compare with L.

    ``bounds`` defaults to the theorem bounds for the syntactic monoid of L.
    """
    marks = [time.perf_counter()]
    monoid = syntactic_monoid(lang)
    marks.append(time.perf_counter())
    if bounds is None:
        bounds = theorem_bounds(monoid.size, variant)
    system, n_respecting = _canonical(lang, monoid, variant, bounds, prune)
    marks.append(time.perf_counter())
    closure = build_closure(system)
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
