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

Provenance.  Saturation records, per round, the mask of the points each
site gained; an added edge is one point of such a mask joined to its site's
hub, and the edge list is derived from the masks only when asked for.  An
edge names its site word and side: an "in" edge feeds the left hub of its
site, the root of the trie shared by the rules with that left site; an
"out" edge leaves the right hub of its site, which the trie endpoints of
the rules with that right site feed.  A rule's own part of the automaton is
the trie path from its left hub along its insert word plus the static
epsilon edge from that path's end to its right hub.

Representation.  Trie nodes are keyed by (left site, insert prefix), so a
rule whose whole insert path exists already costs one lookup.  The epsilon
edges are bicliques, the form ``automata`` keeps and closes every
automaton's epsilon edges in: the static edges grouped by target (the trie
ends that feed a right hub, and any epsilon edges of the axiom automaton),
one per left site (its points so far to its hub) and one per right site
(its hub to its points so far).  Saturation closes sets through them with
``automata._close``, backwards through their mirror, and the comparison's
subset construction, the closure JSON and ``nfa()`` read the same list.

Rounds are semi-naive: the reachable and co-reachable sets and the set of
each site prefix carry over from the round before, and only their new
states are imaged.  This keeps the fixpoint for three reasons.  Edges are
only ever added, so every such set only grows.  A letter image distributes
over union, so a set's image is last round's image plus the image of its
new states.  And closing twice is closing once, so closing last round's set
together with the image of the new states gives the set a round computed
from scratch would.  Last round's set is already closed under the bicliques
that did not grow, so its closure starts from the ones that did.

Edges found in a round are added at its end, so every read in a round sees
one automaton.  Right sites are read forwards from the reachable set, left
sites reversed, backwards from the co-reachable set, and the set of each
distinct prefix comes from the set of the prefix one letter shorter.  A
round records its sites' new point masks left sites before right sites and
each side in hub order, and a mask lists its points in ascending state
order, so ``added`` is deterministic.

States are never added after construction, so the rounds hit a fixpoint; at
the fixpoint a word is accepted iff it lies in the closure of the axioms
under every rule: each new edge corresponds to genuine splicings of
already-accepted words, and every splicing of accepted words is realized by
edges the fixpoint must contain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .automata import (
    Dfa,
    Nfa,
    _bits,
    _close,
    _eps_bicliques,
    _eps_step,
    _image,
    _mask,
    _mask_tables,
    _rows_to_json,
    _subset_dfa,
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


class Growth(NamedTuple):
    """The points one site gained in one saturation round.

    ``points`` is the mask of the states that became points of ``site`` on
    ``side`` in ``round``: each gets an edge into ``hub`` ("in") or from it
    ("out").
    """

    round: int
    side: str
    site: str
    hub: int
    points: int


def _site_bicliques(
    static: list[tuple[int, int]], left: dict[int, int], right: dict[int, int]
) -> list[tuple[int, int]]:
    """Every epsilon edge as (source mask, target mask) pairs: the static
    bicliques, each left hub's points into the hub, and each right hub out
    to its points; ``left`` and ``right`` map hubs to their points so far."""
    return (
        static
        + [(points, 1 << hub) for hub, points in left.items() if points]
        + [(1 << hub, points) for hub, points in right.items() if points]
    )


@dataclass(frozen=True)
class ClosureAutomaton:
    """Saturated automaton with bridge provenance.

    ``base`` holds the axiom part, the per-site hubs, the insert-word tries
    rooted at the left hubs, and the static epsilon edges from each rule's
    trie endpoint to its right hub; ``left_hubs`` and ``right_hubs`` map
    site words to their hub states.  Saturation is recorded in ``growth``:
    one point mask per site and round in which the site gained points, in
    the order ``build_closure`` found them.  The rest is derived from those
    masks when asked for: ``added``, one provenance-tagged edge per point,
    so traces and DOT output can attribute every discovered edge to its
    site word, and through the hub to the rules with that site (the rules
    whose trie an "in" edge feeds, or whose trie endpoints feed the hub an
    "out" edge leaves); the bicliques, which hold every epsilon edge of the
    saturated automaton and which ``closure_dfa``, ``to_json`` and
    ``nfa()`` (the saturated automaton as an edge set) read.  ``added``, the
    bicliques and ``nfa()`` are kept once built; ``build_closure`` hands
    over the bicliques and letter rows it ends with.
    """

    base: Nfa
    left_hubs: tuple[tuple[str, int], ...]
    right_hubs: tuple[tuple[str, int], ...]
    growth: tuple[Growth, ...]
    rounds: int

    @cached_property
    def added(self) -> tuple[AddedEdge, ...]:
        """Every added edge: rounds ascending, left sites before right sites,
        each side in hub order, and a site's points ascending."""
        out = []
        for rnd, side, site, hub, points in self.growth:
            if side == "in":
                out.extend(AddedEdge(p, hub, site, side, rnd) for p in _bits(points))
            else:
                out.extend(AddedEdge(hub, q, site, side, rnd) for q in _bits(points))
        return tuple(out)

    @property
    def added_count(self) -> int:
        """The number of added edges, counted without building them."""
        return sum(g.points.bit_count() for g in self.growth)

    @cached_property
    def _bicliques(self) -> list[tuple[int, int]]:
        """Every epsilon edge of the saturated automaton, as (source mask,
        target mask) pairs, with each site's points gathered from growth."""
        left: dict[int, int] = {}
        right: dict[int, int] = {}
        for g in self.growth:
            seen = left if g.side == "in" else right
            seen[g.hub] = seen.get(g.hub, 0) | g.points
        return _site_bicliques(_eps_bicliques(self.base), left, right)

    @cached_property
    def _fwd(self) -> dict[str, list[int]]:
        """Per-symbol successor masks, one int per state; saturation adds
        no letter edges, so these are the base automaton's."""
        return _mask_tables(self.base)

    def to_json(self) -> str:
        """``automaton_to_json(self.nfa())``, written from the bicliques."""
        return _rows_to_json(self.base, self._fwd, self._bicliques)

    @cached_property
    def _nfa(self) -> Nfa:
        return Nfa(
            alphabet=self.base.alphabet,
            state_count=self.base.state_count,
            initial=self.base.initial,
            accepting=self.base.accepting,
            labeled_edges=self.base.labeled_edges,
            epsilon_edges=frozenset(
                (p, q)
                for src, dst in self._bicliques
                for p in _bits(src)
                for q in _bits(dst)
            ),
        )

    def nfa(self) -> Nfa:
        """The saturated automaton, built on first use and then kept."""
        return self._nfa


def _extend_prefixes(
    last: dict[str, int],
    start: int,
    words: Iterable[str],
    moves: dict[str, list[int]],
    bicliques: list[tuple[int, int]],
    fresh: list[tuple[int, int]],
) -> dict[str, int]:
    """This round's epsilon-closed set reached from start by every prefix of
    the words, from ``last``, the sets of the round before (empty at first).

    A prefix's set is last round's set, closed under the bicliques that grew
    since (``fresh``) and then under all of them, together with the letter
    image of only the states new in its one-shorter prefix's set.
    """
    reached = {"": start}
    for word in words:
        for i in range(1, len(word) + 1):
            prefix = word[:i]
            if prefix not in reached:
                parent = word[: i - 1]
                old = last.get(prefix, 0)
                delta = reached[parent] & ~last.get(parent, 0)
                step = _image(delta, moves[word[i - 1]]) | _eps_step(old, fresh)
                reached[prefix] = _close(old, step, bicliques)
    return reached


def build_closure(system: SplicingSystem) -> ClosureAutomaton:
    """Saturation fixpoint; the accepted language is the generated closure."""
    base_axioms = system.axiom_nfa()
    count = base_axioms.state_count
    labeled = set(base_axioms.labeled_edges)
    static_eps = set(base_axioms.epsilon_edges)

    left_hub: dict[str, int] = {}
    right_hub: dict[str, int] = {}
    trie: dict[tuple[str, str], int] = {}  # (left site, insert prefix) -> node
    for rule in system.rules:
        left_site, right_site, insert = triplet_form(rule)
        end = trie.get((left_site, insert))
        if end is None:
            if left_site not in left_hub:
                left_hub[left_site] = count
                count += 1
            end = left_hub[left_site]
            for i in range(1, len(insert) + 1):
                nxt = trie.get((left_site, insert[:i]))
                if nxt is None:
                    nxt = trie[left_site, insert[:i]] = count
                    count += 1
                    labeled.add((end, insert[i - 1], nxt))
                end = nxt
        if right_site not in right_hub:
            right_hub[right_site] = count
            count += 1
        static_eps.add((end, right_hub[right_site]))

    base = Nfa(
        alphabet=system.alphabet,
        state_count=count,
        initial=base_axioms.initial,
        accepting=base_axioms.accepting,
        labeled_edges=frozenset(labeled),
        epsilon_edges=frozenset(static_eps),
    )

    fwd = _mask_tables(base)
    bwd = _mask_tables(base, backward=True)
    static = _eps_bicliques(base)
    bicliques = static
    fresh: list[tuple[int, int]] = []  # the bicliques that grew last round
    initial = _mask(base.initial)
    accepting = _mask(base.accepting)
    right_words = list(right_hub)
    left_words = [site[::-1] for site in left_hub]
    left_seen = dict.fromkeys(left_hub.values(), 0)  # hub -> its points so far
    right_seen = dict.fromkeys(right_hub.values(), 0)
    reach = coreach = 0
    post: dict[str, int] = {}
    pre: dict[str, int] = {}
    growth: list[Growth] = []
    rounds = 0
    while True:
        # A round's edges are added at its end, so its reads see one automaton.
        backward = [(dst, src) for src, dst in bicliques]
        fresh_back = [(dst, src) for src, dst in fresh]
        reach = _close(reach, initial | _eps_step(reach, fresh), bicliques, fwd.values())
        coreach = _close(
            coreach, accepting | _eps_step(coreach, fresh_back), backward, bwd.values()
        )
        post = _extend_prefixes(post, reach, right_words, fwd, bicliques, fresh)
        pre = _extend_prefixes(pre, coreach, left_words, bwd, backward, fresh_back)
        new: list[Growth] = []
        fresh = []
        for site, hub in left_hub.items():
            grown = reach & pre[site[::-1]] & ~left_seen[hub]
            if grown:
                new.append(Growth(rounds + 1, "in", site, hub, grown))
                left_seen[hub] |= grown
                fresh.append((left_seen[hub], 1 << hub))
        for site, hub in right_hub.items():
            grown = coreach & post[site] & ~right_seen[hub]
            if grown:
                new.append(Growth(rounds + 1, "out", site, hub, grown))
                right_seen[hub] |= grown
                fresh.append((1 << hub, right_seen[hub]))
        if not new:
            break
        rounds += 1
        if rounds > count * count:
            raise AssertionError("saturation failed to converge within |states|^2 rounds")
        bicliques = _site_bicliques(static, left_seen, right_seen)
        growth.extend(new)
    closure = ClosureAutomaton(
        base=base,
        left_hubs=tuple(sorted(left_hub.items())),
        right_hubs=tuple(sorted(right_hub.items())),
        growth=tuple(growth),
        rounds=rounds,
    )
    # Saturation ends holding the letter rows and the final bicliques, the
    # values the closure derives from base and growth; keep them.
    closure.__dict__.update(_fwd=fwd, _bicliques=bicliques)
    return closure


def closure_dfa(closure: ClosureAutomaton) -> Dfa:
    """Minimal complete DFA for the language an already-built closure accepts.

    The subset construction closes each move mask through the closure's
    bicliques, as saturation does; no epsilon edge set is built.
    """
    return minimize(_subset_dfa(closure.base, closure._fwd, closure._bicliques))


def closure_language(system: SplicingSystem) -> Dfa:
    """Minimal complete DFA for the language the system generates."""
    return closure_dfa(build_closure(system))
