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
stable byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

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


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic finite automaton with epsilon edges.

    The universal carrier for regular languages in this package.  States are
    0 .. state_count-1; edges are (source, symbol, target) triples and
    epsilon edges are (source, target) pairs.
    """

    alphabet: Alphabet
    state_count: int
    initial: frozenset[int]
    accepting: frozenset[int]
    labeled_edges: frozenset[tuple[int, str, int]]
    epsilon_edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        n = self.state_count
        if n < 0:
            raise ValueError("state_count must be non-negative")
        for group in (self.initial, self.accepting):
            if any(not (0 <= s < n) for s in group):
                raise ValueError("state id out of range")
        for p, sym, q in self.labeled_edges:
            if not (0 <= p < n and 0 <= q < n):
                raise ValueError("edge state id out of range")
            self.alphabet.index(sym)
        for p, q in self.epsilon_edges:
            if not (0 <= p < n and 0 <= q < n):
                raise ValueError("epsilon edge state id out of range")

    def accepts(self, word: str) -> bool:
        fwd, eps = _mask_tables(self)
        current = _reach(_mask(self.initial), eps)
        for ch in word:
            self.alphabet.index(ch)
            current = _reach(_image(current, fwd[ch]), eps)
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
        edges = frozenset(
            (p, sym, self.transitions[p][i])
            for p in range(self.state_count)
            for i, sym in enumerate(self.alphabet.symbols)
        )
        return Nfa(
            alphabet=self.alphabet,
            state_count=self.state_count,
            initial=frozenset({self.initial}),
            accepting=self.accepting,
            labeled_edges=edges,
            epsilon_edges=frozenset(),
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
        return Nfa(
            alphabet=self.alphabet,
            state_count=self.count,
            initial=frozenset(initial),
            accepting=frozenset(accepting),
            labeled_edges=frozenset(self.labeled),
            epsilon_edges=frozenset(self.eps),
        )


# -- internal mask plumbing ---------------------------------------------------
#
# A state set is an int whose bit s is set when state s is in the set, and a
# relation is a list with one such mask of successors per state.  An epsilon
# closure is always of a set, computed on demand by ``_reach`` over the
# epsilon masks; no per-state closure table is built.


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


def _mask_tables(
    nfa: Nfa, backward: bool = False
) -> tuple[dict[str, list[int]], list[int]]:
    """Per-symbol and epsilon successor masks, one int per state.

    ``backward`` gives predecessor masks instead: the tables of the reversed
    automaton.
    """
    n = nfa.state_count
    fwd = {sym: [0] * n for sym in nfa.alphabet.symbols}
    eps = [0] * n
    for p, sym, q in nfa.labeled_edges:
        if backward:
            p, q = q, p
        fwd[sym][p] |= 1 << q
    for p, q in nfa.epsilon_edges:
        if backward:
            p, q = q, p
        eps[p] |= 1 << q
    return fwd, eps


def _all_moves(fwd: dict[str, list[int]], eps: list[int]) -> list[int]:
    """One successor mask per state over every edge, labeled or epsilon."""
    out = list(eps)
    for row in fwd.values():
        out = [a | m for a, m in zip(out, row)]
    return out


def _image(mask: int, rows: list[int]) -> int:
    """Union of ``rows[s]`` over the states s in mask."""
    out = 0
    for s in _bits(mask):
        out |= rows[s]
    return out


def _reach(start: int, succ: list[int]) -> int:
    """States reachable from the mask start along the successor masks."""
    seen = frontier = start
    while frontier:
        frontier = _image(frontier, succ) & ~seen
        seen |= frontier
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


def _subset_dfa(
    alphabet: Alphabet,
    fwd: dict[str, list[int]],
    initial: int,
    accepting: int,
    close: Callable[[int], int],
) -> Dfa:
    """Subset construction over the letter rows fwd, with close giving the
    epsilon closure of a mask.  The result is complete and canonically
    numbered.

    A target subset is the closure of a subset's move mask, computed the
    first time that move mask occurs.
    """
    letters = [fwd[sym] for sym in alphabet.symbols]
    closed: dict[int, int] = {}  # move mask -> its epsilon closure

    def successors(subset: int) -> list[int]:
        out = []
        for rows in letters:
            move = _image(subset, rows)
            target = closed.get(move)
            if target is None:
                target = closed[move] = close(move)
            out.append(target)
        return out

    return _to_dfa(
        alphabet, _explore(close(initial), successors), lambda s: s & accepting
    )


def determinize(nfa: Nfa) -> Dfa:
    """Subset construction, closing move masks by ``_reach`` along the
    per-state epsilon rows; no per-state closure table is built."""
    fwd, eps = _mask_tables(nfa)
    return _subset_dfa(
        nfa.alphabet,
        fwd,
        _mask(nfa.initial),
        _mask(nfa.accepting),
        lambda mask: _reach(mask, eps),
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
    alive = set(_bits(_reach(_mask(d.accepting), back)))
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
    in ascending order."""
    forward = _all_moves(*_mask_tables(nfa))
    backward = _all_moves(*_mask_tables(nfa, backward=True))
    keep = _reach(_mask(nfa.initial), forward) & _reach(_mask(nfa.accepting), backward)
    renum = {s: i for i, s in enumerate(_bits(keep))}
    return Nfa(
        alphabet=nfa.alphabet,
        state_count=len(renum),
        initial=frozenset(renum[s] for s in nfa.initial if s in renum),
        accepting=frozenset(renum[s] for s in nfa.accepting if s in renum),
        labeled_edges=frozenset(
            (renum[p], sym, renum[q])
            for p, sym, q in nfa.labeled_edges
            if p in renum and q in renum
        ),
        epsilon_edges=frozenset(
            (renum[p], renum[q])
            for p, q in nfa.epsilon_edges
            if p in renum and q in renum
        ),
    )


def has_cycle(nfa: Nfa) -> bool:
    """True when the edge relation (labels and epsilons together) has a cycle.

    Kahn's peel: repeatedly remove a state no remaining state points at.  A
    state on a cycle, a self-loop included, always keeps an edge into it, so
    the relation is acyclic exactly when every state gets peeled.
    """
    succ = _all_moves(*_mask_tables(nfa))
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
    """Automaton JSON, bit-exact: fixed key order, edges sorted as triples."""
    nfa = a.to_nfa() if isinstance(a, Dfa) else a
    eps: list[list[int]] = [[] for _ in range(nfa.state_count)]
    for p, q in sorted(nfa.epsilon_edges):
        eps[p].append(q)
    fwd, _ = _mask_tables(nfa)
    return _rows_to_json(
        nfa.alphabet, nfa.state_count, nfa.initial, nfa.accepting, fwd, eps
    )


def _rows_to_json(
    alphabet: Alphabet,
    state_count: int,
    initial: Iterable[int],
    accepting: Iterable[int],
    fwd: dict[str, list[int]],
    eps: list[list[int]],
) -> str:
    """The automaton JSON writer, from per-state rows: letter successor
    masks, and epsilon successor lists in ascending order.

    Walking the states in order, each state's symbols in string order and
    each row's targets ascending lists the edges already sorted as triples,
    so no edge set is built and nothing is sorted here.
    """
    head = json.dumps(
        {
            "alphabet": list(alphabet.symbols),
            "states": state_count,
            "initial": sorted(initial),
            "accepting": sorted(accepting),
        },
        separators=(",", ":"),
    )
    syms = [(json.dumps(sym), fwd[sym]) for sym in sorted(alphabet.symbols)]
    edges = [
        f"[{p},{sym},{q}]"
        for p in range(state_count)
        for sym, rows in syms
        for q in _bits(rows[p])
    ]
    pairs = []
    for p, row in enumerate(eps):
        if row:
            pre = f"[{p},"
            pairs.append(pre + ("]," + pre).join(map(str, row)) + "]")
    return f'{head[:-1]},"edges":[{",".join(edges)}],"epsilon":[{",".join(pairs)}]}}'


def automaton_from_json(text: str | dict) -> Nfa:
    doc = json.loads(text) if isinstance(text, str) else text
    return Nfa(
        alphabet=json_field(doc, "alphabet", lambda v: Alphabet(tuple(v))),
        state_count=json_field(doc, "states", int),
        initial=json_field(doc, "initial", lambda v: frozenset(map(int, v))),
        accepting=json_field(doc, "accepting", lambda v: frozenset(map(int, v))),
        labeled_edges=json_field(
            doc, "edges", lambda v: frozenset((int(p), sym, int(q)) for p, sym, q in v)
        ),
        epsilon_edges=json_field(
            doc, "epsilon", lambda v: frozenset((int(p), int(q)) for p, q in v), []
        ),
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
