"""Deciding whether a rule respects a regular language.

The exact test runs in the syntactic monoid: collect the classes that can
precede the left site inside the language and the classes that can follow
the right site, then demand that every such pair flanking the inserted
word lands in an accepting class.  Respect only depends on the classes of
the rule's triplet form, the flank triple: the left site's class, the right
site's class and the insert word's class.  ``splicing.triplet`` computes
that triple from the classes of the rule components, under the monoid's
table, in either variant.  ``RespectContext`` holds the test as bitmask
rows over the classes y that may follow: one mask per right-site class of
the y that may follow it, and per left-site class one row over the insert
classes of the y that would take some flanked insert out of the language.
A flank triple respects when its two masks are disjoint, so the canonical
rule enumeration (one triple per class tuple) costs two list reads and an
AND per tuple, and at most m rows of m masks are ever built.

``brute_respect`` is the word-level falsification oracle: it searches for an
actual splicing of two language words (up to a length bound) that escapes
the language.  It can refute respect but never certify it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Callable

from .automata import Dfa, enumerate_words, occurrences
from .errors import IllegalExtensionError
from .monoid import SyntacticMonoid
from .splicing import ClassicRule, PixtonRule, Rule, triplet, triplet_form


@dataclass
class RespectContext:
    """Monoid plus the respect test as bitmask rows over the classes y.

    ``product`` is the monoid's multiplication as a plain table lookup, the
    product ``splicing.triplet`` takes on class ids.  ``respects`` maps a
    rule's component classes to its flank triple and asks ``verdict``.
    ``right_sets[h]`` is the mask of the y with h·y right-viable (some x
    makes x·h·y accepting); ``row(h)`` is, per insert class, the mask of
    the y that some flanked insert x·insert, with x·h left-viable, sends
    out of the language.  Each row is built on first use, at most m of them.
    """

    monoid: SyntacticMonoid
    right_sets: list[int] = field(init=False)
    _left_viable: list[bool] = field(init=False, repr=False)
    _escapes: list[int] = field(init=False, repr=False)
    _rows: list[tuple[int, ...] | None] = field(init=False, repr=False)
    product: Callable[[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m, t, acc = self.monoid.size, self.monoid.table, self.monoid.accepting
        # element e is left-viable when some Y makes e·Y accepting, and
        # right-viable when some X makes X·e accepting.
        self._left_viable = [any(t[e][y] in acc for y in range(m)) for e in range(m)]
        right_viable = [any(t[x][e] in acc for x in range(m)) for e in range(m)]
        self.right_sets = [_mask(right_viable[hy] for hy in row) for row in t]
        # _escapes[h]: the y with h·y outside the language
        self._escapes = [_mask(hy not in acc for hy in row) for row in t]
        self._rows = [None] * m
        self.product = lambda a, b: t[a][b]

    def respects(self, rule: Rule) -> bool:
        classes = tuple(map(self.monoid.class_of, rule.components))
        return self.verdict(*triplet(classes, self.product))

    def verdict(self, h_left: int, h_right: int, h_mid: int) -> bool:
        """Whether the rules with this flank triple respect the language:
        no y that may follow the right site escapes after some flanked
        insert."""
        return not self.right_sets[h_right] & self.row(h_left)[h_mid]

    def row(self, h_left: int) -> tuple[int, ...]:
        """Per insert class, the mask of the y with x·insert·y outside the
        language for some x that may precede the left site h_left; built
        on the first ask and then kept."""
        got = self._rows[h_left]
        if got is None:
            got = self._rows[h_left] = self._build_row(h_left)
        return got

    def _build_row(self, h_left: int) -> tuple[int, ...]:
        t, viable, escapes = self.monoid.table, self._left_viable, self._escapes
        lefts = [row for row in t if viable[row[h_left]]]
        return tuple(
            reduce(or_, {escapes[row[h_mid]] for row in lefts}, 0)
            for h_mid in range(self.monoid.size)
        )


def _mask(bits) -> int:
    """The int with bit i set for each true i-th item."""
    return sum(1 << i for i, bit in enumerate(bits) if bit)


def respects_pixton(ctx: RespectContext, rule: PixtonRule) -> bool:
    return ctx.respects(rule)


def respects_classic(ctx: RespectContext, rule: ClassicRule) -> bool:
    return ctx.respects(rule)


def respect_counterexample(
    lang: Dfa, rule: Rule, word_bound: int
) -> tuple[str, str, str] | None:
    """A splicing (w1, w2) -> z with w1, w2 in L, z not in L, or None.

    Only words up to word_bound are considered, so None certifies nothing.
    Prefixes are deduplicated through the residual DFA state they reach and
    suffixes as strings, which keeps the pair search at desk scale.
    """
    if word_bound < 0:
        raise ValueError("word_bound must be non-negative")
    words = enumerate_words(lang, word_bound)
    left_site, right_site, glue = triplet_form(rule)
    # state after x1·glue -> an example (w1, x1) realizing it
    mid_states: dict[int, tuple[str, str]] = {}
    for w1 in words:
        for k in occurrences(w1, left_site):
            state = lang.run(lang.initial, w1[:k] + glue)
            mid_states.setdefault(state, (w1, w1[:k]))
    suffixes: dict[str, str] = {}
    for w2 in words:
        for k in occurrences(w2, right_site):
            suffixes.setdefault(w2[k + len(right_site):], w2)
    for state, (w1, x1) in sorted(mid_states.items()):
        for y2 in sorted(suffixes):
            if lang.run(state, y2) not in lang.accepting:
                return (w1, suffixes[y2], x1 + glue + y2)
    return None


def brute_respect(lang: Dfa, rule: Rule, word_bound: int) -> bool:
    """False iff two language words of length <= word_bound splice outside L."""
    return respect_counterexample(lang, rule, word_bound) is None


_CLASSIC_EXTENSIONS = ("u1", "v1", "u2", "v2")
_PIXTON_EXTENSIONS = ("left-bridge", "u1", "u2", "right-bridge")


def extend_rule(rule: Rule, where: str, x: str) -> Rule:
    """One extension step; the result respects every language the input does.

    Classic: prepend to u1, append to v1, prepend to u2, append to v2.
    Triplet: "left-bridge" (xu1, u2; xv), "u1" (u1x, u2; v),
    "u2" (u1, xu2; v), "right-bridge" (u1, u2x; vx).
    """
    if isinstance(rule, ClassicRule):
        if where == "u1":
            return ClassicRule(x + rule.u1, rule.v1, rule.u2, rule.v2)
        if where == "v1":
            return ClassicRule(rule.u1, rule.v1 + x, rule.u2, rule.v2)
        if where == "u2":
            return ClassicRule(rule.u1, rule.v1, x + rule.u2, rule.v2)
        if where == "v2":
            return ClassicRule(rule.u1, rule.v1, rule.u2, rule.v2 + x)
        raise IllegalExtensionError(
            f"classic extensions are {_CLASSIC_EXTENSIONS}, not {where!r}"
        )
    if where == "left-bridge":
        return PixtonRule(x + rule.u1, rule.u2, x + rule.v)
    if where == "u1":
        return PixtonRule(rule.u1 + x, rule.u2, rule.v)
    if where == "u2":
        return PixtonRule(rule.u1, x + rule.u2, rule.v)
    if where == "right-bridge":
        return PixtonRule(rule.u1, rule.u2 + x, rule.v + x)
    raise IllegalExtensionError(
        f"triplet extensions are {_PIXTON_EXTENSIONS}, not {where!r}"
    )


def is_extension_of(s: Rule, r: Rule) -> bool:
    """True iff s arises from r by a sequence of extension steps."""
    if type(s) is not type(r):
        raise ValueError("rules must share a variant")
    if isinstance(r, ClassicRule):
        assert isinstance(s, ClassicRule)
        return (
            s.u1.endswith(r.u1)
            and s.v1.startswith(r.v1)
            and s.u2.endswith(r.u2)
            and s.v2.startswith(r.v2)
        )
    assert isinstance(s, PixtonRule)
    # Accumulated steps give s = (X u1 Y, W u2 Z; X v Z) for some X, Y, W, Z.
    max_x = len(s.v) - len(r.v)
    if max_x < 0:
        return False
    for xlen in range(max_x + 1):
        x = s.v[:xlen]
        z = s.v[xlen + len(r.v):]
        if s.v[xlen : xlen + len(r.v)] != r.v:
            continue
        if not s.u1.startswith(x) or not s.u1[xlen:].startswith(r.u1):
            continue
        if not s.u2.endswith(z):
            continue
        w_u2 = s.u2[: len(s.u2) - len(z)]
        if w_u2.endswith(r.u2):
            return True
    return False


def _prefixes(word: str) -> list[str]:
    return [word[:i] for i in range(len(word) + 1)]


def _suffixes(word: str) -> list[str]:
    return [word[i:] for i in range(len(word) + 1)]


def _restrictions(rule: Rule):
    """Components of every rule r with ``is_extension_of(rule, r)``, rule
    itself included."""
    if isinstance(rule, ClassicRule):
        u1, v1, u2, v2 = rule.components
        return itertools.product(_suffixes(u1), _prefixes(v1), _suffixes(u2), _prefixes(v2))
    # rule = (X u1' Y, W u2' Z; X v' Z): X is a prefix shared by u1 and v,
    # Z a suffix shared by u2 and the rest of v.
    u1, u2, v = rule.components
    return (
        (left, right, v[x : len(v) - z])
        for x in range(min(len(u1), len(v)) + 1)
        if u1.startswith(v[:x])
        for z in range(min(len(u2), len(v) - x) + 1)
        if u2.endswith(v[len(v) - z :])
        for left in _prefixes(u1[x:])
        for right in _suffixes(u2[: len(u2) - z])
    )


def prune_minimal(rules):
    """Drop every rule that properly extends another rule in the list.

    All inputs are assumed to respect the language, so any splicing by a
    dropped extension is already a splicing by the kept restriction and the
    generated language is unchanged.  Exact duplicates collapse to their
    first (ll-least under the canonical enumeration order) occurrence.
    A rule is dropped when one of its proper restrictions is in the list,
    which costs one set lookup per restriction instead of a scan of every
    other rule.
    """
    unique = list(dict.fromkeys(rules))
    present = {rule.components for rule in unique}
    return [
        rule
        for rule in unique
        if not any(
            other in present and other != rule.components
            for other in _restrictions(rule)
        )
    ]
