"""Regular-language core: alphabets, NFAs, DFAs, and the standard algorithms.

``Alphabet``, ``Nfa`` and ``Dfa`` are frozen, and the algorithms return
fresh values without changing their arguments; ``NfaBuilder`` is the one
mutable type, scratch for assembling an Nfa.  DFAs are always complete (an
explicit sink is materialized where needed) and carry a canonical state
numbering: BFS from the initial state, symbols taken in alphabet order.
``_explore`` is the one place that numbering is written.  ``determinize``
is the one subset construction, for regex automata and closures alike; it,
``minimize``, the products, the witness search and the syntactic monoid
take their numbers from ``_explore``, and ``_access_words`` reads the
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

from .errors import AlphabetMismatchError, UnknownSymbolError, json_field, json_parse, json_typed


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
#
# A mask of w bits costs O(w) per big-int operation, so ``_bits`` reads it a
# 64-bit word at a time: one shift of the mask per word it lists, and one
# jump over each run of zero words, so listing k states costs
# O(w · min(k, w / 64)) where clearing one bit at a time cost O(w · k); the
# states of a word come from a byte table, with no big-int operation.
# ``_close`` images its letters as ``_Moves``: the edges p -> p + 1 (or
# p -> p - 1 read backwards) of a row are imaged for every state at once
# by one shift of the mask, and only the states with another edge through
# ``_image``.


_WORD = (1 << 64) - 1
# the set bits of each byte value, ascending
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def _bits(mask: int) -> Iterator[int]:
    """The states of a mask in ascending order.

    The mask is read a 64-bit word at a time: the low word is taken off by
    one AND and the mask shifted past it, and the word's states are listed
    a byte at a time from a table.  A zero word, or a zero byte of a word,
    is skipped along with every zero below the lowest state.
    """
    offset = 0  # the state of the mask's bit 0
    while mask:
        word = mask & _WORD
        if not word:
            skip = (mask & -mask).bit_length() - 1
            mask >>= skip
            offset += skip
            continue
        mask >>= 64
        base = offset
        while word:
            byte = word & 255
            if byte:
                for i in _BYTE_BITS[byte]:
                    yield base + i
                word >>= 8
                base += 8
            else:
                skip = (word & -word).bit_length() - 1
                word >>= skip
                base += skip
        offset += 64


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


def _image(mask: int, rows: Sequence[int]) -> int:
    """Union of ``rows[s]`` over the states s in mask."""
    out = 0
    for s in _bits(mask):
        out |= rows[s]
    return out


# One symbol's letter rows, read forwards or backwards, with the edges to
# each state's neighbour split off: (rows, shift, rest, forward).  ``shift``
# holds the states p whose row holds p + 1 (p - 1 when not ``forward``), and
# ``rest`` every state whose row holds any other state.  ``_move`` images
# the first by one bit shift and only the second through the rows.
_Moves = tuple[Sequence[int], int, int, bool]


def _unsplit(rows: Sequence[int]) -> _Moves:
    """Moves with nothing split off, which image every state through the
    rows."""
    return rows, 0, -1, True


def _move(mask: int, moves: _Moves) -> int:
    """Union of the moves' ``rows[s]`` over the states s in mask."""
    rows, shift, rest, forward = moves
    near = mask & shift
    return (near << 1 if forward else near >> 1) | _image(mask & rest, rows)


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
    moves: Sequence[_Moves] = (),
) -> int:
    """Close seen | frontier under the bicliques and the letters in moves.

    ``seen`` must already be closed except through the frontier: every
    successor of a state in seen lies in seen or is reached from the
    frontier.  Each step costs one AND per biclique plus the letter image of
    the states new in that step.
    """
    frontier &= ~seen
    while frontier:
        seen |= frontier
        step = _eps_step(frontier, bicliques)
        for letter in moves:
            step |= _move(frontier, letter)
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


def determinize(nfa: Nfa) -> Dfa:
    """Subset construction from nfa's initial states, closing every subset
    through its epsilon bicliques and accepting where it meets its accepting
    states.  The result is complete and canonically numbered.

    A target subset is the closure of a subset's move mask, computed the
    first time that move mask occurs.
    """
    letters, bicliques = nfa.rows, nfa.epsilon
    closed: dict[int, int] = {}  # move mask -> its epsilon closure

    def successors(subset: int) -> list[int]:
        out = []
        for rows in letters:
            move = _image(subset, rows)
            target = closed.get(move)
            if target is None:
                target = closed[move] = _close(0, move, bicliques)
            out.append(target)
        return out

    accepting = _mask(nfa.accepting)
    return _to_dfa(
        nfa.alphabet,
        _explore(_close(0, _mask(nfa.initial), bicliques), successors),
        lambda s: s & accepting,
    )


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
    alive = set(_bits(_close(0, _mask(d.accepting), [], [_unsplit(back)])))
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
    back = [(dst, src) for src, dst in eps]
    reach = _close(0, _mask(nfa.initial), eps, [_unsplit(r) for r in nfa.rows])
    rows = _predecessors(nfa.rows, nfa.state_count)
    keep = reach & _close(0, _mask(nfa.accepting), back, [_unsplit(r) for r in rows])
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
    """Automaton JSON, bit-exact: ``automaton_chunks`` joined."""
    return "".join(automaton_chunks(a))


def automaton_chunks(a: Nfa | Dfa) -> Iterator[str]:
    """The automaton's JSON in chunks, made as they are asked for: fixed key
    order, edges sorted as triples and pairs.

    Walking the states in order, each state's symbols in string order and
    each row's targets ascending lists the letter edges already sorted, so
    no edge set is built and nothing is sorted here; they come in the first
    chunk.  Then one chunk per state with epsilon edges.  The bicliques with
    one target are grouped by target and appended to their sources' rows in
    ascending target order, one append per edge and 1,024 states at a time,
    so those rows come out sorted and only a block of them is held; the
    targets of the wider bicliques a state is a source of are merged in
    from one mask.  A row's text has a placeholder for the source,
    which each state's chunk fills in with one ``str.replace``; rows repeat
    over many states (``aaaa+`` classic theorem: 7 distinct rows over 7,105
    states), so texts are kept for reuse, up to a fixed number of characters.
    """
    nfa = a.to_nfa() if isinstance(a, Dfa) else a
    n = nfa.state_count
    head = json.dumps(
        {
            "alphabet": list(nfa.alphabet.symbols),
            "states": n,
            "initial": sorted(nfa.initial),
            "accepting": sorted(nfa.accepting),
        },
        separators=(",", ":"),
    )
    syms = [(json.dumps(sym), row) for sym, row in sorted(zip(nfa.alphabet.symbols, nfa.rows))]
    edges = ",".join(
        f"[{p},{sym},{q}]" for p in range(n) for sym, row in syms if row[p] for q in _bits(row[p])
    )
    yield f'{head[:-1]},"edges":[{edges}],"epsilon":['
    into: dict[int, int] = {}  # target -> sources, for one-target bicliques
    wide: dict[int, int] = {}  # source -> targets, for the others
    for src, dst in nfa.epsilon:
        if dst & (dst - 1):
            for p in _bits(src):
                wide[p] = wide.get(p, 0) | dst
        else:
            t = dst.bit_length() - 1
            into[t] = into.get(t, 0) | src
    targets = sorted(into.items())
    # (one-target targets, wider targets) -> the row's pairs, each led by a
    # comma and with "\0" for the source
    texts: dict[tuple[tuple[int, ...], int], str] = {}
    room = 1 << 20  # characters of row text that may still be kept
    first = True
    size = 1024  # states whose rows are built at a time
    for base in range(0, n, size):
        rows: list[list[int]] = [[] for _ in range(min(size, n - base))]
        for t, sources in targets:
            for i in _bits(sources >> base & (1 << size) - 1):
                rows[i].append(t)
        for p, row in enumerate(rows, base):
            more = wide.get(p, 0)
            if row or more:
                key = (tuple(row), more)
                text = texts.get(key)
                if text is None:
                    if more:
                        row = sorted(set(row).union(_bits(more)))
                    text = ",[\0," + "],[\0,".join(map(str, row)) + "]"
                    if len(text) <= room:
                        texts[key] = text
                        room -= len(text)
                text = text.replace("\0", str(p))
                yield text[1:] if first else text
                first = False
    yield "]}"


def _id(value) -> int:
    """A state id or count read from JSON: an integer, never coerced."""
    return json_typed(value, int)


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
    doc = json_parse(text)
    alphabet = json_field(doc, "alphabet", lambda v: Alphabet(tuple(json_typed(v, list))))
    state_count = json_field(doc, "states", _id)
    initial = json_field(doc, "initial", lambda v: frozenset(map(_id, json_typed(v, list))))
    accepting = json_field(doc, "accepting", lambda v: frozenset(map(_id, json_typed(v, list))))
    labeled = json_field(
        doc, "edges", lambda v: frozenset((_id(p), sym, _id(q)) for p, sym, q in v)
    )
    epsilon = json_field(
        doc, "epsilon", lambda v: frozenset((_id(p), _id(q)) for p, q in v), []
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
