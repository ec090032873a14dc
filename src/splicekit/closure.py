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

Representation.  Saturation keeps state sets as int bitmasks, as
``determinize`` does.  Edges found in a round are added at its end, so each
round computes the forward and backward epsilon closure of every state once,
and a letter step is the closed image of a set.  Site reads share prefixes:
right sites are read forwards from the reachable set, left sites reversed,
backwards from the co-reachable set, and each distinct prefix is read once.
A site's new points come out in ascending state order, left sites before
right sites and each side in hub order, so ``added`` is deterministic.

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
    _all_epsilon_closures,
    _bits,
    _closed_moves,
    _image,
    _mask_tables,
    determinize,
    minimize,
    tarjan_scc,
)
from .splicing import ClassicRule, Rule, SplicingSystem


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


def insert_word(rule: Rule) -> str:
    """The word a rule writes between retained prefix and adopted suffix."""
    if isinstance(rule, ClassicRule):
        return rule.u1 + rule.v2
    return rule.v


def rule_sites(rule: Rule) -> tuple[str, str]:
    if isinstance(rule, ClassicRule):
        return rule.left_site, rule.right_site
    return rule.u1, rule.u2


def _reach(start: int, succ: list[int]) -> int:
    """States reachable from the mask start along the successor masks."""
    seen = frontier = start
    while frontier:
        frontier = _image(frontier, succ) & ~seen
        seen |= frontier
    return seen


def _read_prefixes(
    start: int, words: Iterable[str], steps: dict[str, list[int]]
) -> dict[str, int]:
    """The set reached from start by every prefix of the words.

    ``steps`` are closed one-letter moves; each distinct prefix is read once,
    from the set of the prefix one letter shorter.
    """
    reached = {"": start}
    for word in words:
        for i in range(1, len(word) + 1):
            prefix = word[:i]
            if prefix not in reached:
                reached[prefix] = _image(reached[word[: i - 1]], steps[word[i - 1]])
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
        left_site, right_site = rule_sites(rule)
        if left_site not in left_hub:
            left_hub[left_site] = count
            count += 1
        state = left_hub[left_site]
        for ch in insert_word(rule):
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
    any_fwd = [0] * count
    any_bwd = [0] * count
    for sym in system.alphabet.symbols:
        any_fwd = [a | m for a, m in zip(any_fwd, fwd[sym])]
        any_bwd = [a | m for a, m in zip(any_bwd, bwd[sym])]
    initial = sum(1 << s for s in base.initial)
    accepting = sum(1 << s for s in base.accepting)
    left_seen = dict.fromkeys(left_hub, 0)
    right_seen = dict.fromkeys(right_hub, 0)
    added: list[AddedEdge] = []
    rounds = 0
    while True:
        # A round's edges are added at its end, so its closures are fixed.
        reach = _reach(initial, [a | e for a, e in zip(any_fwd, eps_fwd)])
        coreach = _reach(accepting, [a | e for a, e in zip(any_bwd, eps_bwd)])
        post = _read_prefixes(
            reach, right_hub, _closed_moves(fwd, _all_epsilon_closures(count, eps_fwd))
        )
        pre = _read_prefixes(
            coreach,
            [site[::-1] for site in left_hub],
            _closed_moves(bwd, _all_epsilon_closures(count, eps_bwd)),
        )
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


def _epsilon_scc_quotient(nfa: Nfa) -> Nfa:
    """Merge states that are mutually epsilon-reachable (language-preserving).

    Saturated automata are epsilon-dense; collapsing the epsilon SCCs keeps
    determinization tractable.
    """
    adj: dict[int, list[int]] = {}
    for p, q in nfa.epsilon_edges:
        adj.setdefault(p, []).append(q)
    ncomp, comp = tarjan_scc(nfa.state_count, adj)
    return Nfa(
        alphabet=nfa.alphabet,
        state_count=ncomp,
        initial=frozenset(comp[s] for s in nfa.initial),
        accepting=frozenset(comp[s] for s in nfa.accepting),
        labeled_edges=frozenset((comp[p], sym, comp[q]) for p, sym, q in nfa.labeled_edges),
        epsilon_edges=frozenset(
            (comp[p], comp[q]) for p, q in nfa.epsilon_edges if comp[p] != comp[q]
        ),
    )


def closure_dfa(closure: ClosureAutomaton) -> Dfa:
    """Minimal complete DFA for the language an already-built closure accepts."""
    return minimize(determinize(_epsilon_scc_quotient(closure.nfa())))


def closure_language(system: SplicingSystem) -> Dfa:
    """Minimal complete DFA for the language the system generates."""
    return closure_dfa(build_closure(system))
