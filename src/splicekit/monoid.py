"""Syntactic monoids of regular languages and the pumping machinery on them.

The monoid is computed as the transition monoid of the minimal complete DFA:
two words are syntactically congruent exactly when they induce the same
transformation of the minimal DFA's states.  Elements are numbered by
``automata._explore`` from the identity, extending by generators in
alphabet order, and each element's representative is read by
``automata._access_words``, which makes it the length-lexicographically
least word of its class.

``class_pool`` and ``class_levels`` are the one owner of the ll class
layout: every word shorter than a bound with its class, and the classes
of each length without the words.  ``class_counts`` counts the words of
each class without spelling them; the levels and the counts of a bound come
from one walk over its lengths.  Each is made on the first ask for its
bound and kept on the monoid.  ``factor_classes``
names the classes of the factors of the language's words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .automata import Alphabet, Dfa, _access_words, _explore, minimize, words_shorter_than
from .errors import CandidateLimitExceededError, candidate_limit


@dataclass(frozen=True)
class SyntacticMonoid:
    """Multiplication table, generator images, accepting classes, representatives.

    ``accepting`` holds the element ids whose syntactic class is contained in
    the language; a word belongs to the language iff its class does.  Every
    representative is shorter than the monoid size.
    """

    alphabet: Alphabet
    size: int
    identity: int
    table: tuple[tuple[int, ...], ...]
    generators: tuple[int, ...]
    representatives: tuple[str, ...]
    accepting: frozenset[int]

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def class_of(self, word: str) -> int:
        """Image of a word under the syntactic morphism."""
        e = self.identity
        for ch in word:
            e = self.table[e][self.generators[self.alphabet.index(ch)]]
        return e

    def shortest_representative(self, element: int) -> str:
        """The ll-least word mapping to this element."""
        return self.representatives[element]

    @cached_property
    def _walks(self) -> dict[int, tuple[tuple[tuple[int, ...], ...], dict[int, int]]]:
        """bound -> (class levels, class counts), filled by ``_class_walk``."""
        return {}

    @cached_property
    def _pools(self) -> dict[int, tuple[tuple[str, ...], tuple[int, ...]]]:
        """bound -> (words, the class of each), filled by ``class_pool``."""
        return {}


def syntactic_monoid(d: Dfa) -> SyntacticMonoid:
    """Transition monoid of the minimal DFA for L(d)."""
    d = minimize(d)
    symbol_maps = list(zip(*d.transitions))  # per symbol: state -> successor
    elements, rows = zip(
        *_explore(
            tuple(range(d.state_count)),
            lambda cur: [tuple(map(gmap.__getitem__, cur)) for gmap in symbol_maps],
        )
    )
    # Column b lists a·b for every a.  b, discovered in row p under symbol s,
    # is p·s, so a·b = (a·p)·s reads p's column through the rows.
    columns = [range(len(elements))]
    for p, row in enumerate(rows):
        for s, b in enumerate(row):
            if b == len(columns):
                columns.append([rows[ap][s] for ap in columns[p]])
    table = tuple(zip(*columns))
    monoid = SyntacticMonoid(
        alphabet=d.alphabet,
        size=len(elements),
        identity=0,
        table=table,
        generators=rows[0],
        representatives=tuple(_access_words(rows, d.alphabet.symbols)),
        accepting=frozenset(
            e for e, t in enumerate(elements) if t[d.initial] in d.accepting
        ),
    )
    _check_monoid_laws(monoid)
    return monoid


def class_pool(monoid: SyntacticMonoid, lt: int) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Every word shorter than lt (at least 1) in ll-order, and the class of
    each, spelled on the first ask for the bound and then kept on the
    monoid: every rule product over it shares the pool.

    In ll-order over k symbols the word at index i > 0 is the word at index
    (i - 1) // k extended by symbol (i - 1) % k, so each class is one
    multiplication of its one-shorter prefix's class by a generator.
    """
    got = monoid._pools.get(lt)
    if got is None:
        words = tuple(words_shorter_than(monoid.alphabet, lt))
        gens, table = monoid.generators, monoid.table
        classes = [monoid.identity]
        for i in range(1, len(words)):
            parent, symbol = divmod(i - 1, len(gens))
            classes.append(table[classes[parent]][gens[symbol]])
        got = monoid._pools[lt] = (words, tuple(classes))
    return got


def class_levels(monoid: SyntacticMonoid, lt: int) -> tuple[tuple[int, ...], ...]:
    """The classes of the words of each length n < lt, each level in the
    ll-order of the classes' least words of that length.

    A class's least word of length n + 1 extends the least word of length n
    of some class, so walking a level in order, each class by every
    generator in alphabet order, meets the next level in order.
    """
    return _class_walk(monoid, lt)[0]


def class_counts(monoid: SyntacticMonoid, lt: int) -> dict[int, int]:
    """The number of words shorter than lt (at least 1) in each class that
    has one, counted length by length: the words of length n + 1 of a class
    are those of length n extended by a letter into it.  The dict is shared
    by every caller with this monoid and bound."""
    return _class_walk(monoid, lt)[1]


def _class_walk(
    monoid: SyntacticMonoid, lt: int
) -> tuple[tuple[tuple[int, ...], ...], dict[int, int]]:
    """The class levels and the class counts of bound lt, from one walk over
    the lengths below it, made on the first ask for the bound and then kept
    on the monoid: canonical rules, a product's count and the closure's
    gadgets all read the same bound."""
    got = monoid._walks.get(lt)
    if got is None:
        table, gens = monoid.table, monoid.generators
        level = {monoid.identity: 1}  # class -> its words of this length
        levels = [tuple(level)]
        total = dict(level)
        for _ in range(1, lt):
            step: dict[int, int] = {}
            for x, n in level.items():
                for g in gens:
                    y = table[x][g]
                    step[y] = step.get(y, 0) + n
            for y, n in step.items():
                total[y] = total.get(y, 0) + n
            levels.append(tuple(step))
            level = step
        got = monoid._walks[lt] = (tuple(levels), total)
    return got


def factor_classes(monoid: SyntacticMonoid) -> frozenset[int]:
    """The classes c with a·c·b accepting for some classes a and b: the
    classes of the factors of the language's words, since every class holds
    a word.  First the classes with an accepting right extension, then
    their left divisors, in O(m^2) table reads."""
    table = monoid.table
    prefixes = {c for c, row in enumerate(table) if not monoid.accepting.isdisjoint(row)}
    return frozenset(c for c in range(monoid.size) if any(row[c] in prefixes for row in table))


def _check_monoid_laws(monoid: SyntacticMonoid) -> None:
    """Cheap safety net: unit laws always, associativity exhaustive for m <= 64."""
    m, t, e = monoid.size, monoid.table, monoid.identity
    for a in range(m):
        if t[e][a] != a or t[a][e] != a:
            raise AssertionError("identity element is not a two-sided unit")
    sample = range(m) if m <= 64 else range(0, m, max(1, m // 32))
    for a in sample:
        for b in sample:
            ab = t[a][b]
            for c in sample:
                if t[ab][c] != t[a][t[b][c]]:
                    raise AssertionError("multiplication table is not associative")


@dataclass(frozen=True)
class PumpingFactorization:
    """A split w = alpha beta gamma with alpha ~ alpha*beta and gamma ~ beta*gamma."""

    alpha: str
    beta: str
    gamma: str

    def __post_init__(self):
        if self.beta == "":
            raise ValueError("beta must be nonempty")

    @property
    def word(self) -> str:
        return self.alpha + self.beta + self.gamma


def pumping_factorization(monoid: SyntacticMonoid, w: str) -> PumpingFactorization:
    """Deterministic pigeonhole factorization of a word of length >= m*m.

    Scans index pairs (i, j) with i < j in lexicographic order and returns
    the first pair at which both the prefix classes and the suffix classes
    coincide; the split there satisfies the pumping congruences.
    """
    m = monoid.size
    n = len(w)
    if n < m * m:
        raise ValueError(f"word of length {n} is shorter than monoid size squared {m * m}")
    prefix = [monoid.identity]
    for ch in w:
        prefix.append(
            monoid.mul(prefix[-1], monoid.generators[monoid.alphabet.index(ch)])
        )
    suffix = [monoid.identity] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = monoid.mul(
            monoid.generators[monoid.alphabet.index(w[i])], suffix[i + 1]
        )
    for i in range(n):
        for j in range(i + 1, n + 1):
            if prefix[i] == prefix[j] and suffix[i] == suffix[j]:
                return PumpingFactorization(alpha=w[:i], beta=w[i:j], gamma=w[j:])
    raise AssertionError("pigeonhole pair must exist once |w| >= m*m")


def pump_normalize(
    monoid: SyntacticMonoid,
    z: str,
    f: PumpingFactorization,
    j: int,
    step_limit: int | None = None,
) -> str:
    """Pump every stray occurrence of alpha beta gamma up to alpha beta^j gamma.

    Repeatedly scans left to right for an occurrence of ``alpha beta gamma``
    that neither starts an ``alpha beta^{j/2}`` factor nor ends a
    ``beta^{j/2} gamma`` factor, and replaces the first such occurrence by
    ``alpha beta^j gamma``.  On return every remaining occurrence satisfies
    one of the two conditions, and the result is syntactically congruent to
    the input.  A pumped factor longer than the candidate limit is refused
    before any word is pumped.
    """
    if j % 2 != 0:
        raise ValueError("pump count j must be even")
    if j <= len(z) + len(f.word):
        raise ValueError("pump count j must exceed |z| + |alpha beta gamma|")
    length, limit = len(f.alpha) + j * len(f.beta) + len(f.gamma), candidate_limit()
    if length > limit:
        raise CandidateLimitExceededError(
            length, limit, "pumped factor alpha beta^j gamma would have {} characters"
        )
    if monoid.class_of(f.alpha) != monoid.class_of(f.alpha + f.beta):
        raise ValueError("factorization violates alpha ~ alpha*beta")
    if monoid.class_of(f.gamma) != monoid.class_of(f.beta + f.gamma):
        raise ValueError("factorization violates gamma ~ beta*gamma")
    pattern = f.word
    half = f.beta * (j // 2)
    head = f.alpha + half
    tail = half + f.gamma
    pumped = f.alpha + f.beta * j + f.gamma
    out = z
    steps = 0
    while True:
        k = _first_violation(out, pattern, head, tail)
        if k is None:
            return out
        out = out[:k] + pumped + out[k + len(pattern):]
        steps += 1
        if step_limit is not None and steps > step_limit:
            raise RuntimeError(f"pump normalization exceeded {step_limit} steps")


def _first_violation(word: str, pattern: str, head: str, tail: str) -> int | None:
    end_len = len(tail)
    start = word.find(pattern)
    while start != -1:
        ok_head = word.startswith(head, start)
        end = start + len(pattern)
        ok_tail = end - end_len >= 0 and word.startswith(tail, end - end_len)
        if not ok_head and not ok_tail:
            return start
        start = word.find(pattern, start + 1)
    return None


def satisfies_pump_conditions(word: str, f: PumpingFactorization, j: int) -> bool:
    """Direct scan re-verifying the pump_normalize postcondition."""
    half = f.beta * (j // 2)
    return _first_violation(word, f.word, f.alpha + half, half + f.gamma) is None
