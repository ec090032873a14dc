"""Regular-language core: alphabets, NFAs, DFAs, and the standard algorithms.

``Alphabet``, ``Nfa`` and ``Dfa`` are frozen, and the algorithms return
fresh values without changing their arguments; ``NfaBuilder`` is the one
mutable type, scratch for assembling an Nfa.  DFAs are always complete (an
explicit sink is materialized where needed) and carry a canonical state
numbering: BFS from the initial state, symbols taken in alphabet order.
``_explore`` is the one place that numbering is written.  Subset
construction, ``minimize``, the products, the witness search and the
syntactic monoid take their numbers from it, and ``_access_words`` reads the
ll-least word of each state off its rows.  Serialized output is therefore
stable byte for byte.  Likewise ``_close`` is the one epsilon closure, over
epsilon edges kept as bicliques.  Every Nfa stores its edges in one form,
masks (see the mask plumbing below): a successor-mask row per symbol and
the bicliques, which every algorithm here reads directly; the edge sets
are views built only on request.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .errors import AlphabetMismatchError, UnknownSymbolError, json_field


@dataclass(frozen=True)
class Alphabet:
    """An ordered, finite sequence of distinct single characters.

    The order is total and fixed; it supplies the lexicographic component of
    the length-lexicographic order on words.
    """

    symbols: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if not all(isinstance(s, str) and len(s) == 1 for s in self.symbols):
            raise ValueError("alphabet symbols must be single characters")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    @classmethod
    def from_string(cls, text: str) -> "Alphabet":
        return cls(tuple(text))

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise UnknownSymbolError(f"symbol {symbol!r} not in alphabet") from None

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def check_word(self, word: str) -> str:
        for ch in word:
            if ch not in self._index:
                raise UnknownSymbolError(f"symbol {ch!r} not in alphabet")
        return word


def length_lex_key(alphabet: Alphabet) -> Callable[[str], tuple]:
    """Sort key realizing the length-lexicographic order for this alphabet."""

    def key(word: str) -> tuple:
        return (len(word), tuple(alphabet.index(ch) for ch in word))

    return key


def length_lex_cmp(alphabet: Alphabet, u: str, v: str) -> int:
    """Compare two words length-lexicographically: -1, 0, or +1.

    Shorter words come first; words of equal length are ordered by the
    alphabet order of their first differing character.
    """
    ku, kv = length_lex_key(alphabet)(u), length_lex_key(alphabet)(v)
    if ku < kv:
        return -1
    if ku > kv:
        return 1
    return 0


def words_shorter_than(alphabet: Alphabet, bound: int) -> Iterator[str]:
    """All words of length < bound, in length-lexicographic order."""
    if bound <= 0:
        return
    level = [""]
    for length in range(bound):
        yield from level
        if length + 1 < bound:
            level = [w + s for w in level for s in alphabet.symbols]


def count_words_shorter_than(alphabet_size: int, bound: int) -> int:
    """|Sigma^{<bound}| computed exactly."""
    if bound <= 0:
        return 0
    if alphabet_size == 0:
        return 1  # the empty word alone
    if alphabet_size == 1:
        return bound
    return (alphabet_size**bound - 1) // (alphabet_size - 1)


def occurrences(word: str, factor: str) -> list[int]:
    """Start positions of every (possibly overlapping) occurrence of factor.

    The empty factor occurs at every position, including both ends.
    """
    if factor == "":
        return list(range(len(word) + 1))
    out = []
    start = word.find(factor)
    while start != -1:
        out.append(start)
        start = word.find(factor, start + 1)
    return out


def _check_states(n: int, initial: frozenset[int], accepting: frozenset[int]) -> None:
    if n < 0:
        raise ValueError("state_count must be non-negative")
    for group in (initial, accepting):
        if group and (min(group) < 0 or max(group) >= n):
            raise ValueError("state id out of range")


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic finite automaton with epsilon edges.

    The universal carrier for regular languages in this package.  States are
    0 .. state_count-1, and the edges are kept in masks (see the mask
    plumbing below): ``rows`` holds one successor-mask tuple per symbol, in
    alphabet order, and ``epsilon`` the epsilon edges as bicliques,
    (source mask, target mask) pairs.  ``from_edges`` builds an Nfa from
    (source, symbol, target) triples and (source, target) pairs, and
    ``labeled_edges`` and ``epsilon_edges`` give the edges back as such
    sets, built on first use.
    """

    alphabet: Alphabet
    state_count: int
    initial: frozenset[int]
    accepting: frozenset[int]
    rows: tuple[tuple[int, ...], ...]
    epsilon: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.state_count
        _check_states(n, self.initial, self.accepting)
        if len(self.rows) != len(self.alphabet) or any(len(row) != n for row in self.rows):
            raise ValueError("rows must hold one mask per state for each symbol")
        limit = 1 << n
        if any(row and (min(row) < 0 or max(row) >= limit) for row in self.rows):
            raise ValueError("row mask state id out of range")
        if any(not (0 < src < limit and 0 < dst < limit) for src, dst in self.epsilon):
            raise ValueError("epsilon biclique mask empty or out of range")

    @classmethod
    def from_edges(
        cls,
        alphabet: Alphabet,
        state_count: int,
        initial: Iterable[int],
        accepting: Iterable[int],
        labeled_edges: Iterable[tuple[int, str, int]] = (),
        epsilon_edges: Iterable[tuple[int, int]] = (),
    ) -> "Nfa":
        """The Nfa with these edges.  The epsilon edges are grouped by
        target, one (sources, target) biclique per target in ascending
        order, so Nfas built from the same edges compare equal."""
        n = state_count
        initial, accepting = frozenset(initial), frozenset(accepting)
        _check_states(n, initial, accepting)
        rows = [[0] * n for _ in alphabet.symbols]
        for p, sym, q in labeled_edges:
            if not (0 <= p < n and 0 <= q < n):
                raise ValueError("edge state id out of range")
            rows[alphabet.index(sym)][p] |= 1 << q
        into: dict[int, int] = {}  # target -> its sources
        for p, q in epsilon_edges:
            if not (0 <= p < n and 0 <= q < n):
                raise ValueError("epsilon edge state id out of range")
            into[q] = into.get(q, 0) | 1 << p
        epsilon = tuple((src, 1 << t) for t, src in sorted(into.items()))
        return cls._unchecked(alphabet, n, initial, accepting, tuple(map(tuple, rows)), epsilon)

    @classmethod
    def _unchecked(cls, *fields) -> "Nfa":
        """An Nfa of fields valid by construction, such as those derived from
        checked automata, made without ``__post_init__``, whose checks cost
        more than the rest of building a small automaton."""
        nfa = object.__new__(cls)
        nfa.__dict__.update(zip(cls.__dataclass_fields__, fields))
        return nfa

    @cached_property
    def labeled_edges(self) -> frozenset[tuple[int, str, int]]:
        """The letter edges as (source, symbol, target) triples."""
        return frozenset(
            (p, sym, q)
            for sym, row in zip(self.alphabet.symbols, self.rows)
            for p, succ in enumerate(row)
            for q in _bits(succ)
        )

    @cached_property
    def epsilon_edges(self) -> frozenset[tuple[int, int]]:
        """The epsilon edges as (source, target) pairs."""
        return frozenset(
            (p, q) for src, dst in self.epsilon for p in _bits(src) for q in _bits(dst)
        )

    def accepts(self, word: str) -> bool:
        eps = self.epsilon
        current = _close(0, _mask(self.initial), eps)
        for ch in word:
            current = _close(0, _image(current, self.rows[self.alphabet.index(ch)]), eps)
        return bool(current & _mask(self.accepting))


@dataclass(frozen=True)
class Dfa:
    """Complete deterministic automaton.

    ``transitions[state][symbol_index]`` is total; complement is then just a
    flip of the accepting set.
    """

    alphabet: Alphabet
    state_count: int
    initial: int
    accepting: frozenset[int]
    transitions: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.state_count
        if n <= 0:
            raise ValueError("a complete DFA needs at least one state")
        if not (0 <= self.initial < n):
            raise ValueError("initial state out of range")
        if any(not (0 <= s < n) for s in self.accepting):
            raise ValueError("accepting state out of range")
        if len(self.transitions) != n:
            raise ValueError("transition table must have one row per state")
        for row in self.transitions:
            if len(row) != len(self.alphabet):
                raise ValueError("transition row must cover the whole alphabet")
            if any(not (0 <= t < n) for t in row):
                raise ValueError("transition target out of range")

    def run(self, state: int, word: str) -> int:
        for ch in word:
            state = self.transitions[state][self.alphabet.index(ch)]
        return state

    def accepts(self, word: str) -> bool:
        return self.run(self.initial, word) in self.accepting

    def to_nfa(self) -> Nfa:
        rows = tuple(tuple(1 << t for t in column) for column in zip(*self.transitions))
        return Nfa._unchecked(
            self.alphabet, self.state_count, frozenset({self.initial}), self.accepting, rows, ()
        )


class NfaBuilder:
    """Mutable scratch structure for assembling an Nfa."""

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self.count = 0
        self.labeled: set[tuple[int, str, int]] = set()
        self.eps: set[tuple[int, int]] = set()

    def state(self) -> int:
        s = self.count
        self.count += 1
        return s

    def edge(self, p: int, sym: str, q: int) -> None:
        self.labeled.add((p, sym, q))

    def eps_edge(self, p: int, q: int) -> None:
        self.eps.add((p, q))

    def build(self, initial: Iterable[int], accepting: Iterable[int]) -> Nfa:
        return Nfa.from_edges(
            self.alphabet, self.count, initial, accepting, self.labeled, self.eps
        )


# -- internal mask plumbing ---------------------------------------------------
#
# A state set is an int whose bit s is set when state s is in the set, and a
# letter relation is a row with one such mask of successors per state: the
# form every Nfa stores its letter edges in, one row per symbol, and the
# only one the algorithms below read.  Epsilon edges are kept as bicliques,
# pairs (source mask, target mask) that join each source to each target,
# and every epsilon closure is of a set, taken by ``_close``.  A closure
# step costs one AND per biclique however dense the masks are, so the
# saturated closure automaton, whose added edges join a site's points to
# its hub, is closed without expanding them; ``Nfa.from_edges`` gives one
# biclique per state with incoming epsilon edges.  ``_predecessors`` turns
# the rows around for the walks that run backwards.


def _bits(mask: int) -> Iterator[int]:
    """The states of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(states: Iterable[int]) -> int:
    out = 0
    for s in states:
        out |= 1 << s
    return out


def _predecessors(rows: Iterable[Sequence[int]], n: int) -> list[list[int]]:
    """The letter rows of the reversed automaton: for each row over the n
    states, one mask of predecessors per state."""
    out = []
    for row in rows:
        back = [0] * n
        for p, succ in enumerate(row):
            if succ:
                for q in _bits(succ):
                    back[q] |= 1 << p
        out.append(back)
    return out


def _image(mask: int, rows: list[int]) -> int:
    """Union of ``rows[s]`` over the states s in mask."""
    out = 0
    for s in _bits(mask):
        out |= rows[s]
    return out


def _eps_step(mask: int, bicliques: list[tuple[int, int]]) -> int:
    """Union of the target masks of the bicliques whose source mask meets mask."""
    out = 0
    for src, dst in bicliques:
        if src & mask:
            out |= dst
    return out


def _close(
    seen: int,
    frontier: int,
    bicliques: list[tuple[int, int]],
    moves: Iterable[list[int]] = (),
) -> int:
    """Close seen | frontier under the bicliques and the letter rows in moves.

    ``seen`` must already be closed except through the frontier: every
    successor of a state in seen lies in seen or is reached from the
    frontier.  Each step costs one AND per biclique plus the letter image of
    the states new in that step.
    """
    frontier &= ~seen
    while frontier:
        seen |= frontier
        step = _eps_step(frontier, bicliques)
        for rows in moves:
            step |= _image(frontier, rows)
        frontier = step & ~seen
    return seen


def _explore(start, successors: Callable) -> Iterator[tuple[object, tuple[int, ...]]]:
    """The canonical numbering: every state reachable from start, yielded
    with its row of successor numbers, in the order a BFS discovers them.

    ``successors(state)`` gives a state's k successors in alphabet order,
    so the states come numbered 0, 1, ... as yielded, each discovered by the
    least (state, symbol) pair that reaches it.  Every DFA this module
    builds, and the syntactic monoid, is numbered here.
    """
    ids = {start: 0}
    order = [start]
    for state in order:
        row = []
        for t in successors(state):
            number = ids.setdefault(t, len(order))
            if number == len(order):
                order.append(t)
            row.append(number)
        yield state, tuple(row)


def _access_words(rows: Iterable[tuple[int, ...]], symbols: Iterable[str]) -> list[str]:
    """The ll-least word of each state that the rows of ``_explore``
    discover, state 0 first.

    A state's word extends the word of the state that discovered it by the
    discovering symbol; the first occurrence of a number in the rows is its
    discovery, and numbers are discovered in increasing order.
    """
    words = [""]
    for i, row in enumerate(rows):
        for sym, t in zip(symbols, row):
            if t == len(words):
                words.append(words[i] + sym)
    return words


def _to_dfa(alphabet: Alphabet, explored: Iterable, accepts: Callable) -> Dfa:
    """The complete DFA of the states ``_explore`` yields, numbered as yielded."""
    rows: list[tuple[int, ...]] = []
    accepting = []
    for state, row in explored:
        if accepts(state):
            accepting.append(len(rows))
        rows.append(row)
    return Dfa(alphabet, len(rows), 0, frozenset(accepting), tuple(rows))


def _subset_dfa(nfa: Nfa, keep: int = -1) -> Dfa:
    """Subset construction from nfa's initial states, closing every subset
    through its epsilon bicliques and accepting where it meets its accepting
    states.  The result is complete and canonically numbered.

    A target subset is the closure of a subset's move mask, computed the
    first time that move mask occurs.  Every move mask and closed subset is
    cut down to the states in ``keep`` (by default all of them).
    """
    letters, bicliques = nfa.rows, nfa.epsilon
    closed: dict[int, int] = {}  # move mask -> its epsilon closure

    def successors(subset: int) -> list[int]:
        out = []
        for rows in letters:
            move = _image(subset, rows) & keep
            target = closed.get(move)
            if target is None:
                target = closed[move] = _close(0, move, bicliques) & keep
            out.append(target)
        return out

    accepting = _mask(nfa.accepting)
    return _to_dfa(
        nfa.alphabet,
        _explore(_close(0, _mask(nfa.initial), bicliques) & keep, successors),
        lambda s: s & accepting,
    )


def determinize(nfa: Nfa) -> Dfa:
    """Subset construction, complete and canonically numbered."""
    return _subset_dfa(nfa)


def minimize(dfa: Dfa) -> Dfa:
    """Minimal complete DFA, canonically numbered (BFS, alphabet order).

    Hopcroft's partition refinement over the reachable states: start from
    accepting versus rejecting, and split every block by the predecessors
    of a splitter (block, symbol) taken from a worklist, found through the
    inverse transitions.  A split block keeps its id for the larger part,
    so splitters already queued for it stand for that part, and the smaller
    part gets a fresh id queued with every symbol; splitting by a block and
    by one of its parts also splits by the other part, so the larger part
    need not be queued.  A state thus enters a splitter O(log n) times, and
    the refinement costs O(k·n log n) for k symbols and n states, where
    Moore's signature passes, one per distinguishing length, cost Θ(n²)
    on chains such as length-bounded products.  The coarsest stable
    partition is the Myhill–Nerode one whatever the splitter order, and the
    BFS renumbering depends only on that partition, so the output is the
    unique minimal DFA with the same numbering and bytes as Moore's.
    """
    k = len(dfa.alphabet)
    delta = dfa.transitions
    reach = [dfa.initial]
    seen = {dfa.initial}
    for s in reach:
        for t in delta[s]:
            if t not in seen:
                seen.add(t)
                reach.append(t)
    # preds[i][t]: the reachable states whose symbol-i successor is t
    preds: list[dict[int, list[int]]] = [{} for _ in range(k)]
    for s in reach:
        for i, t in enumerate(delta[s]):
            preds[i].setdefault(t, []).append(s)
    final = {s for s in reach if s in dfa.accepting}
    blocks = [b for b in (final, seen - final) if b]
    cls = [0] * dfa.state_count
    for b, members in enumerate(blocks):
        for s in members:
            cls[s] = b
    waiting: list[tuple[int, int]] = []
    if len(blocks) == 2:
        smaller = 0 if len(blocks[0]) <= len(blocks[1]) else 1
        waiting = [(smaller, i) for i in range(k)]
    while waiting:
        splitter, i = waiting.pop()
        into = preds[i]
        # hits[b]: the states of block b whose symbol-i edge enters the splitter
        hits: dict[int, list[int]] = {}
        for t in blocks[splitter]:
            for s in into.get(t, ()):
                hits.setdefault(cls[s], []).append(s)
        for b, hit in hits.items():
            members = blocks[b]
            if len(hit) == len(members):
                continue
            hit_set = set(hit)
            if 2 * len(hit) <= len(members):
                small = hit_set
                members -= hit_set
            else:
                small = members - hit_set
                blocks[b] = hit_set
            new = len(blocks)
            blocks.append(small)
            for s in small:
                cls[s] = new
            waiting.extend((new, j) for j in range(k))
    rep_of_class: dict[int, int] = {}
    for s in reach:
        rep_of_class.setdefault(cls[s], s)
    return _to_dfa(
        dfa.alphabet,
        _explore(cls[dfa.initial], lambda c: [cls[t] for t in delta[rep_of_class[c]]]),
        lambda c: rep_of_class[c] in dfa.accepting,
    )


def _require_same_alphabet(a: Dfa, b: Dfa) -> None:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("operands use different alphabets")


def complement(d: Dfa) -> Dfa:
    return Dfa(
        alphabet=d.alphabet,
        state_count=d.state_count,
        initial=d.initial,
        accepting=frozenset(range(d.state_count)) - d.accepting,
        transitions=d.transitions,
    )


def _pairs(a: Dfa, b: Dfa) -> Iterator:
    """``_explore`` over the product of a and b: state pairs (p, q)."""
    _require_same_alphabet(a, b)
    ta, tb = a.transitions, b.transitions
    return _explore((a.initial, b.initial), lambda pq: zip(ta[pq[0]], tb[pq[1]]))


def _product(a: Dfa, b: Dfa, keep: Callable[[bool, bool], bool]) -> Dfa:
    return _to_dfa(
        a.alphabet,
        _pairs(a, b),
        lambda pq: keep(pq[0] in a.accepting, pq[1] in b.accepting),
    )


def intersect(a: Dfa, b: Dfa) -> Dfa:
    return _product(a, b, lambda x, y: x and y)


def union(a: Dfa, b: Dfa) -> Dfa:
    return _product(a, b, lambda x, y: x or y)


def difference(a: Dfa, b: Dfa) -> Dfa:
    return _product(a, b, lambda x, y: x and not y)


def _least_product_witness(
    a: Dfa, b: Dfa, pred: Callable[[bool, bool], bool]
) -> str | None:
    """Length-lexicographically least word whose pair of verdicts satisfies pred.

    ``_explore`` yields each product pair in the ll-order of its least word,
    so the first pair satisfying pred gives the least witness overall; its
    word is read from the rows of the pairs before it.
    """
    rows: list[tuple[int, ...]] = []
    for (p, q), row in _pairs(a, b):
        if pred(p in a.accepting, q in b.accepting):
            return _access_words(rows, a.alphabet.symbols)[len(rows)]
        rows.append(row)
    return None


def equivalent(a: Dfa, b: Dfa) -> tuple[bool, str | None]:
    """Language equality with the least distinguishing word as witness."""
    witness = _least_product_witness(a, b, lambda x, y: x != y)
    return (witness is None, witness)


def difference_witness(a: Dfa, b: Dfa) -> str | None:
    """Least word in L(a) \\ L(b), or None if L(a) is a subset of L(b)."""
    return _least_product_witness(a, b, lambda x, y: x and not y)


def enumerate_words(d: Dfa, max_len: int) -> list[str]:
    """Exactly the accepted words of length <= max_len, in ll-order."""
    if max_len < 0:
        return []
    # Prune states that cannot reach acceptance; keeps the frontier equal to
    # the set of viable prefixes.
    back = [0] * d.state_count
    for s, row in enumerate(d.transitions):
        for t in row:
            back[t] |= 1 << s
    alive = set(_bits(_close(0, _mask(d.accepting), [], [back])))
    out: list[str] = []
    level: list[tuple[str, int]] = []
    if d.initial in alive:
        level = [("", d.initial)]
    for length in range(max_len + 1):
        for word, s in level:
            if s in d.accepting:
                out.append(word)
        if length == max_len:
            break
        level = [
            (word + sym, t)
            for word, s in level
            for i, sym in enumerate(d.alphabet.symbols)
            if (t := d.transitions[s][i]) in alive
        ]
    return out


def trim(nfa: Nfa) -> Nfa:
    """Restrict to states both reachable and co-reachable, renumbered densely
    in ascending order.  Each biclique keeps its shape, cut down to the kept
    states, so epsilon edges grouped by target stay so."""
    eps = nfa.epsilon
    reach = _close(0, _mask(nfa.initial), eps, nfa.rows)
    coreach = _close(
        0,
        _mask(nfa.accepting),
        [(dst, src) for src, dst in eps],
        _predecessors(nfa.rows, nfa.state_count),
    )
    keep = reach & coreach
    renum = {s: i for i, s in enumerate(_bits(keep))}

    def squeeze(mask: int) -> int:
        out = 0
        for s in _bits(mask & keep):
            out |= 1 << renum[s]
        return out

    epsilon = [(squeeze(src), squeeze(dst)) for src, dst in eps]
    return Nfa._unchecked(
        nfa.alphabet,
        len(renum),
        frozenset(renum[s] for s in nfa.initial if s in renum),
        frozenset(renum[s] for s in nfa.accepting if s in renum),
        tuple(tuple(squeeze(row[s]) for s in renum) for row in nfa.rows),
        tuple((src, dst) for src, dst in epsilon if src and dst),
    )


def has_cycle(nfa: Nfa) -> bool:
    """True when the edge relation (labels and epsilons together) has a cycle.

    Kahn's peel: repeatedly remove a state no remaining state points at.  A
    state on a cycle, a self-loop included, always keeps an edge into it, so
    the relation is acyclic exactly when every state gets peeled.
    """
    succ = [0] * nfa.state_count
    for row in nfa.rows:
        for p, targets in enumerate(row):
            succ[p] |= targets
    for src, dst in nfa.epsilon:
        for p in _bits(src):
            succ[p] |= dst
    indegree = [0] * nfa.state_count
    for m in succ:
        for t in _bits(m):
            indegree[t] += 1
    peeled = [s for s, d in enumerate(indegree) if d == 0]
    for s in peeled:
        for t in _bits(succ[s]):
            indegree[t] -= 1
            if indegree[t] == 0:
                peeled.append(t)
    return len(peeled) < nfa.state_count


# -- serialization -----------------------------------------------------------


def automaton_to_json(a: Nfa | Dfa) -> str:
    """Automaton JSON, bit-exact: fixed key order, edges sorted as triples.

    Walking the states in order, each state's symbols in string order and
    each row's targets ascending lists the edges already sorted as triples,
    so no edge set is built and nothing is sorted here.  The epsilon rows
    come from the bicliques: those with one target are grouped by target
    and appended to their sources' rows in ascending target order, so those
    rows come out sorted and free of repeats; a state that is the source of
    a wider biclique gets its row from one mask instead.
    """
    nfa = a.to_nfa() if isinstance(a, Dfa) else a
    into: dict[int, int] = {}  # target -> sources, for one-target bicliques
    wide: dict[int, int] = {}  # source -> targets, for the others
    for src, dst in nfa.epsilon:
        if dst & (dst - 1):
            for p in _bits(src):
                wide[p] = wide.get(p, 0) | dst
        else:
            t = dst.bit_length() - 1
            into[t] = into.get(t, 0) | src
    state_count = nfa.state_count
    eps: list[list[int]] = [[] for _ in range(state_count)]
    for t in sorted(into):
        for p in _bits(into[t]):
            eps[p].append(t)
    for p, targets in wide.items():
        eps[p] = list(_bits(targets | _mask(eps[p])))
    head = json.dumps(
        {
            "alphabet": list(nfa.alphabet.symbols),
            "states": state_count,
            "initial": sorted(nfa.initial),
            "accepting": sorted(nfa.accepting),
        },
        separators=(",", ":"),
    )
    syms = [(json.dumps(sym), row) for sym, row in sorted(zip(nfa.alphabet.symbols, nfa.rows))]
    edges = [
        f"[{p},{sym},{q}]"
        for p in range(state_count)
        for sym, row in syms
        for q in _bits(row[p])
    ]
    pairs = []
    for p, row in enumerate(eps):
        if row:
            pre = f"[{p},"
            pairs.append(pre + ("]," + pre).join(map(str, row)) + "]")
    return f'{head[:-1]},"edges":[{",".join(edges)}],"epsilon":[{",".join(pairs)}]}}'


# the most states an automaton file may declare beyond those it names
UNNAMED_STATES = 1 << 16


def automaton_from_json(text: str | dict) -> Nfa:
    """The automaton a JSON document describes.

    A document names at most 1 + |initial| + |accepting| + 2·(|edges| +
    |epsilon|) distinct states.  It may declare more, isolated states that
    nothing names (the writer writes them for any automaton that has them),
    but every declared state costs a row entry per symbol, so at most
    ``UNNAMED_STATES`` of them are read: a larger ``states`` is rejected
    before any row is allocated.
    """
    doc = json.loads(text) if isinstance(text, str) else text
    alphabet = json_field(doc, "alphabet", lambda v: Alphabet(tuple(v)))
    state_count = json_field(doc, "states", int)
    initial = json_field(doc, "initial", lambda v: frozenset(map(int, v)))
    accepting = json_field(doc, "accepting", lambda v: frozenset(map(int, v)))
    labeled = json_field(
        doc, "edges", lambda v: frozenset((int(p), sym, int(q)) for p, sym, q in v)
    )
    epsilon = json_field(
        doc, "epsilon", lambda v: frozenset((int(p), int(q)) for p, q in v), []
    )
    named = 1 + len(initial) + len(accepting) + 2 * (len(labeled) + len(epsilon))
    if state_count > named + UNNAMED_STATES:
        raise ValueError(
            f"field 'states': {state_count} states declared, but the file names at most "
            f"{named} and may leave at most {UNNAMED_STATES} unnamed"
        )
    return Nfa.from_edges(
        alphabet=alphabet,
        state_count=state_count,
        initial=initial,
        accepting=accepting,
        labeled_edges=labeled,
        epsilon_edges=epsilon,
    )


def automaton_to_dot(
    a: Nfa | Dfa,
    epsilon_colors: dict[tuple[int, int], str] | None = None,
) -> str:
    """GraphViz rendering; epsilon edges may carry per-edge colors."""
    nfa = a.to_nfa() if isinstance(a, Dfa) else a
    lines = ["digraph automaton {", "  rankdir=LR;", '  node [shape=circle];']
    for s in sorted(nfa.accepting):
        lines.append(f"  {s} [shape=doublecircle];")
    for i, s in enumerate(sorted(nfa.initial)):
        lines.append(f"  __start{i} [shape=point];")
        lines.append(f"  __start{i} -> {s};")
    for p, sym, q in sorted(nfa.labeled_edges):
        label = sym.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {p} -> {q} [label="{label}"];')
    for p, q in sorted(nfa.epsilon_edges):
        color = (epsilon_colors or {}).get((p, q))
        attr = f', color="{color}"' if color else ""
        lines.append(f'  {p} -> {q} [label="ε", style=dashed{attr}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
