"""Finite automaton for the language a splicing system generates.

The construction saturates a fixed state set with epsilon edges.  The base
automaton accepts exactly the axioms.  Every distinct site word gets a hub
state, one for its use as a left site and one for its use as a right site.
Each left hub is the root of a trie of insert words: the word a rule writes
between the retained prefix and the adopted suffix (the bridge v for a
triplet rule, u1·v2 for a classic rule, which is the exact triplet form of
the quadruple).  A rule walks its left hub's trie along its insert word,
extending it where no node exists yet, and adds one static epsilon edge from
the node where the word ends to the hub of its right site.  A saturation
round recomputes, inside the current automaton,

  LeftPoints(s)  = reachable states from which the left-site word s can be
                   read on a path that stays co-reachable, and
  RightPoints(t) = co-reachable states at the end of a right-site read that
                   starts in a reachable state,

then adds epsilon edges LeftPoint -> left hub of s and right hub of t ->
RightPoint.  Sharing hubs per site word keeps saturation at
O(states x sites) edges rather than O(states x rules); sharing insert
prefixes keeps the rule part of the state set at one node per distinct
(left site, insert prefix) pair, where a path per rule would cost one state
per rule plus its insert length, over tens of thousands of canonical rules.

Why the tries keep the language.  Statically, trie nodes are entered only
from their left hub, so the labeled paths from the left hub of s to the
right hub of t spell exactly {w : some rule has left site s, insert word w
and right site t}, as the per-rule paths would.  The trie is the quotient of
those per-rule paths that merges the states sharing (left site, insert
prefix).  Such states are entered alike: statically only through the same
word from the same hub, and by saturation only at the end of a right-site
read, which depends on what lies to their left.  So they have the same left
language wherever they are co-reachable (a state that is not co-reachable
carries no accepted path).  Merging NFA states with identical left languages
keeps the accepted language, and since saturation picks its edges from
reachability, site reads and co-reachability, which the merge preserves,
the saturation fixpoint's language is unchanged as well.

Provenance.  An added edge names its site word and side: an "in" edge
feeds the left hub of its site, the root of the trie shared by the rules
with that left site; an "out" edge leaves the right hub of its site, which
the trie endpoints of the rules with that right site feed.  A rule's own
part of the automaton is the trie path from its left hub along its insert
word plus the static epsilon edge from that path's end to its right hub.

Representation.  Saturation keeps state sets as int bitmasks and walks them
with the helpers ``automata`` walks every automaton with.  Edges found in a
round are added at its end, so every read in a round sees one automaton.
Site reads share prefixes: right sites are read forwards from the reachable
set, left sites reversed, backwards from the co-reachable set, and the set
of each distinct prefix is computed once per round, from the set of the
prefix one letter shorter, by the letter's move and then the epsilon closure
of that one set.  No per-state closure table is built in any round; the sets
are the ones such a table would give, because the epsilon closure of a
set's move is the union of its states' closed moves.  A site's new points
come out in ascending state order, left sites before right sites and each
side in hub order, so ``added`` is deterministic.

States are never added after construction, so the rounds hit a fixpoint; at
the fixpoint a word is accepted iff it lies in the closure of the axioms
under every rule: each new edge corresponds to genuine splicings of
already-accepted words, and every splicing of accepted words is realized by
edges the fixpoint must contain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .automata import (
    Dfa,
    Nfa,
    _all_moves,
    _bits,
    _image,
    _mask,
    _mask_tables,
    _reach,
    determinize,
    minimize,
)
from .splicing import SplicingSystem, triplet_form


class AddedEdge(NamedTuple):
    """Provenance-tagged epsilon edge inserted by saturation.

    ``side`` is "in" for a point feeding the left hub of ``site`` and "out"
    for the right hub of ``site`` feeding a point.
    """

    src: int
    dst: int
    site: str
    side: str
    round: int


@dataclass(frozen=True)
class ClosureAutomaton:
    """Saturated automaton with bridge provenance.

    ``base`` holds the axiom part, the per-site hubs, the insert-word tries
    rooted at the left hubs, and the static epsilon edges from each rule's
    trie endpoint to its right hub; ``left_hubs`` and ``right_hubs`` map
    site words to their hub states.  The epsilon edges discovered by
    saturation live in ``added``, so traces and DOT output can attribute
    every discovered edge to its site word, and through the hub to the rules
    with that site: the rules whose trie an "in" edge feeds, or whose trie
    endpoints feed the hub an "out" edge leaves.
    """

    base: Nfa
    left_hubs: tuple[tuple[str, int], ...]
    right_hubs: tuple[tuple[str, int], ...]
    added: tuple[AddedEdge, ...]
    rounds: int

    @property
    def added_epsilon(self) -> frozenset[tuple[int, int]]:
        return frozenset((e.src, e.dst) for e in self.added)

    def nfa(self) -> Nfa:
        return Nfa(
            alphabet=self.base.alphabet,
            state_count=self.base.state_count,
            initial=self.base.initial,
            accepting=self.base.accepting,
            labeled_edges=self.base.labeled_edges,
            epsilon_edges=self.base.epsilon_edges | self.added_epsilon,
        )


def _read_prefixes(
    start: int, words: Iterable[str], moves: dict[str, list[int]], eps: list[int]
) -> dict[str, int]:
    """The epsilon-closed set reached from start by every prefix of the words.

    ``start`` must be epsilon-closed.  The set of a prefix is the epsilon
    closure of the letter's move from the set of the prefix one letter
    shorter, which is the union of the closed moves of that set's states, so
    each distinct prefix costs one move and one closure, and no per-state
    closure table is needed.
    """
    reached = {"": start}
    for word in words:
        for i in range(1, len(word) + 1):
            prefix = word[:i]
            if prefix not in reached:
                step = _image(reached[word[: i - 1]], moves[word[i - 1]])
                reached[prefix] = _reach(step, eps)
    return reached


def build_closure(system: SplicingSystem) -> ClosureAutomaton:
    """Saturation fixpoint; the accepted language is the generated closure."""
    base_axioms = system.axiom_nfa()
    count = base_axioms.state_count
    labeled = set(base_axioms.labeled_edges)
    static_eps = set(base_axioms.epsilon_edges)

    left_hub: dict[str, int] = {}
    right_hub: dict[str, int] = {}
    trie: dict[tuple[int, str], int] = {}
    for rule in system.rules:
        left_site, right_site, insert = triplet_form(rule)
        if left_site not in left_hub:
            left_hub[left_site] = count
            count += 1
        state = left_hub[left_site]
        for ch in insert:
            nxt = trie.get((state, ch))
            if nxt is None:
                nxt = trie[state, ch] = count
                count += 1
                labeled.add((state, ch, nxt))
            state = nxt
        if right_site not in right_hub:
            right_hub[right_site] = count
            count += 1
        static_eps.add((state, right_hub[right_site]))

    base = Nfa(
        alphabet=system.alphabet,
        state_count=count,
        initial=base_axioms.initial,
        accepting=base_axioms.accepting,
        labeled_edges=frozenset(labeled),
        epsilon_edges=frozenset(static_eps),
    )

    fwd, eps_fwd = _mask_tables(base)
    bwd, eps_bwd = _mask_tables(base, backward=True)
    initial = _mask(base.initial)
    accepting = _mask(base.accepting)
    left_seen = dict.fromkeys(left_hub, 0)
    right_seen = dict.fromkeys(right_hub, 0)
    added: list[AddedEdge] = []
    rounds = 0
    while True:
        # A round's edges are added at its end, so its reads see one automaton.
        reach = _reach(initial, _all_moves(fwd, eps_fwd))
        coreach = _reach(accepting, _all_moves(bwd, eps_bwd))
        post = _read_prefixes(reach, right_hub, fwd, eps_fwd)
        pre = _read_prefixes(coreach, [site[::-1] for site in left_hub], bwd, eps_bwd)
        new_edges: list[AddedEdge] = []
        for site, hub in left_hub.items():
            points = reach & pre[site[::-1]]
            for p in _bits(points & ~left_seen[site]):
                new_edges.append(AddedEdge(p, hub, site, "in", rounds + 1))
            left_seen[site] |= points
        for site, hub in right_hub.items():
            points = coreach & post[site]
            for q in _bits(points & ~right_seen[site]):
                new_edges.append(AddedEdge(hub, q, site, "out", rounds + 1))
            right_seen[site] |= points
        if not new_edges:
            break
        rounds += 1
        if rounds > count * count:
            raise AssertionError("saturation failed to converge within |states|^2 rounds")
        for edge in new_edges:
            eps_fwd[edge.src] |= 1 << edge.dst
            eps_bwd[edge.dst] |= 1 << edge.src
        added.extend(new_edges)
    return ClosureAutomaton(
        base=base,
        left_hubs=tuple(sorted(left_hub.items())),
        right_hubs=tuple(sorted(right_hub.items())),
        added=tuple(added),
        rounds=rounds,
    )


def closure_dfa(closure: ClosureAutomaton) -> Dfa:
    """Minimal complete DFA for the language an already-built closure accepts."""
    return minimize(determinize(closure.nfa()))


def closure_language(system: SplicingSystem) -> Dfa:
    """Minimal complete DFA for the language the system generates."""
    return closure_dfa(build_closure(system))
