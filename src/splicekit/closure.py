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

Rules are read as ``splicing.site_groups`` gives them, one run at a time:
a left site, the insert words of the run's rules and their right sites, in
the rules' order.  A tuple of rules gives one run per rule.  A canonical
rule product is never turned into rule objects: it gives one run per
classic (u1, v1, u2) or triplet (u1, u2), whose rules differ only in the
last component.  States are numbered as a walk over the rules one by one
would number them: each rule's left hub and new insert nodes, then its
right hub.  The trie
ends of a run's insert words are kept per (left site, insert words), and
the hubs per tuple of right sites.  A later u2 of the same class as an
earlier one, after the same (u1, v1), has the same insert words, so its run
reaches only trie ends that exist and adds only right hubs and static
epsilon edges; a run whose insert words and right sites were both seen
adds only its static epsilon edges.

Representation.  Trie nodes are keyed by (left site, insert prefix), so an
insert word whose whole path exists already costs one lookup.  The rule
loop writes the automaton straight into masks: each new state gets its
forward and backward letter rows, and each static epsilon edge adds its
trie end to the sources of its right hub's biclique.  The epsilon edges
are bicliques, the form ``automata`` keeps and closes every automaton's
epsilon edges in: the static edges grouped by target (the trie ends that
feed a right hub, and any epsilon edges of the axiom automaton), one per
left site (its points so far to its hub) and one per right site (its hub
to its points so far).  Saturation closes sets through them with
``automata._close``, backwards through their mirror, and the comparison's
subset construction, the closure JSON and ``nfa()`` read the same list.
No edge set is built unless ``base`` or ``nfa()`` is asked for.

Rounds read only useful states.  A state is useful if it is reachable and
co-reachable, and only useful states carry points: a path from a reachable
state to a co-reachable one passes only through states that are both.  So
a right-site read, forwards from the reachable set, images only the
co-reachable states of each prefix's set, and a left-site read, backwards
from the co-reachable set, only the reachable ones; the sets are still
closed through every biclique.  The points coreach & post(t) and
reach & pre(s) are then those of unrestricted reads.  On canonical
systems most states are useless, mostly in the tries of left sites that
are not factors of the language (248 of 1,485 states are useful on a+b+
classic at bounds (4,3,4)), and those are never imaged.

Rounds are semi-naive: the reachable and co-reachable sets and the set of
each site prefix carry over from the round before, and only the states not
imaged then are imaged now.  A read images the states of its sets in
``keep``, this round's co-reachable (or reachable) set, and last round's
read imaged those in ``kept``, last round's such set.  So the states of a
prefix's set to image now are ``reached & keep & ~(last & kept)``: a state
newly admitted to ``keep`` is imaged now even if it lay in last round's
set.  This keeps the fixpoint for three reasons.  Edges are only ever
added, so every such set, and ``keep``, only grow.  A letter image
distributes over union, so the image of a set's kept states is last
round's image, which last round's set of the longer prefix holds, plus the
image of the kept states not imaged then.  And closing twice is closing
once, so closing last round's set together with that image gives the set
a round computed from scratch would.  Last round's set is already closed
under the bicliques that did not grow, so its closure starts from the ones
that did.

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

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, NamedTuple

from .automata import (
    Alphabet,
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
from .splicing import SplicingSystem, site_groups


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
    static: Iterable[tuple[int, int]], left: dict[int, int], right: dict[int, int]
) -> list[tuple[int, int]]:
    """Every epsilon edge as (source mask, target mask) pairs: the static
    bicliques, each left hub's points into the hub, and each right hub out
    to its points; ``left`` and ``right`` map hubs to their points so far."""
    return (
        [*static]
        + [(points, 1 << hub) for hub, points in left.items() if points]
        + [(1 << hub, points) for hub, points in right.items() if points]
    )


@dataclass(frozen=True)
class ClosureAutomaton:
    """Saturated automaton with bridge provenance.

    The automaton before saturation is kept in masks: ``rows`` holds one
    successor mask per state for each symbol, in alphabet order, and
    ``static`` its epsilon edges as bicliques, (sources, target) masks in
    ascending target order.  It is the axiom part, the per-site hubs, the
    insert-word tries rooted at the left hubs, and the static epsilon edges
    from each rule's trie endpoint to its right hub; ``left_hubs`` and
    ``right_hubs`` map site words to their hub states.  ``base`` is that
    automaton as an ``Nfa``, a view built on first use.  Saturation is
    recorded in ``growth``: one point mask per site and round in which the
    site gained points, in the order ``build_closure`` found them.  The
    rest is derived from those masks when asked for: ``added``, one
    provenance-tagged edge per point, so traces and DOT output can
    attribute every discovered edge to its site word, and through the hub
    to the rules with that site (the rules whose trie an "in" edge feeds,
    or whose trie endpoints feed the hub an "out" edge leaves); the
    bicliques, which hold every epsilon edge of the saturated automaton and
    which ``closure_dfa``, ``to_json`` and ``nfa()`` (the saturated
    automaton as an edge set) read; and the co-reachable states, which
    ``closure_dfa`` keeps its subsets to.  The views are kept once built;
    ``build_closure`` hands over the bicliques and co-reachable states it
    ends with.
    """

    alphabet: Alphabet
    state_count: int
    initial: frozenset[int]
    accepting: frozenset[int]
    rows: tuple[tuple[int, ...], ...]
    static: tuple[tuple[int, int], ...]
    left_hubs: tuple[tuple[str, int], ...]
    right_hubs: tuple[tuple[str, int], ...]
    growth: tuple[Growth, ...]
    rounds: int

    @cached_property
    def base(self) -> Nfa:
        """The automaton before saturation as an edge set."""
        return Nfa(
            alphabet=self.alphabet,
            state_count=self.state_count,
            initial=self.initial,
            accepting=self.accepting,
            labeled_edges=frozenset(
                (p, sym, q)
                for sym, rows in self._fwd.items()
                for p, row in enumerate(rows)
                for q in _bits(row)
            ),
            epsilon_edges=_edge_set(self.static),
        )

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
        return _site_bicliques(self.static, left, right)

    @cached_property
    def _fwd(self) -> dict[str, tuple[int, ...]]:
        """Per-symbol successor masks, one int per state; saturation adds
        no letter edges, so these are the base automaton's."""
        return dict(zip(self.alphabet.symbols, self.rows))

    @cached_property
    def _coreach(self) -> int:
        """The states of the saturated automaton from which an accepting
        state can be reached."""
        return _close(
            0,
            _mask(self.accepting),
            [(dst, src) for src, dst in self._bicliques],
            _mask_tables(self.base, backward=True).values(),
        )

    def to_json(self) -> str:
        """``automaton_to_json(self.nfa())``, written from the bicliques."""
        return _rows_to_json(self, self._fwd, self._bicliques)

    @cached_property
    def _nfa(self) -> Nfa:
        return replace(self.base, epsilon_edges=_edge_set(self._bicliques))

    def nfa(self) -> Nfa:
        """The saturated automaton, built on first use and then kept."""
        return self._nfa


def _edge_set(bicliques: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """The epsilon edges of the bicliques as (source, target) pairs."""
    return frozenset(
        (p, q) for src, dst in bicliques for p in _bits(src) for q in _bits(dst)
    )


def _extend_prefixes(
    last: dict[str, int],
    start: int,
    words: Iterable[str],
    moves: dict[str, list[int]],
    bicliques: list[tuple[int, int]],
    fresh: list[tuple[int, int]],
    keep: int,
    kept: int,
) -> dict[str, int]:
    """This round's epsilon-closed set reached from start by every prefix of
    the words, imaging only the states in ``keep``, from ``last``, the sets
    of the round before (empty at first), which imaged only those in
    ``kept``.

    A prefix's set is last round's set, closed under the bicliques that grew
    since (``fresh``) and then under all of them, together with the letter
    image of only the states its one-shorter prefix's set keeps now and did
    not image last round.
    """
    reached = {"": start}
    for word in words:
        for i in range(1, len(word) + 1):
            prefix = word[:i]
            if prefix not in reached:
                parent = word[: i - 1]
                old = last.get(prefix, 0)
                delta = reached[parent] & keep & ~(last.get(parent, 0) & kept)
                step = _image(delta, moves[word[i - 1]]) | _eps_step(old, fresh)
                reached[prefix] = _close(old, step, bicliques)
    return reached


def _base_automaton(
    system: SplicingSystem,
) -> tuple[
    Nfa,
    int,
    dict[str, list[int]],
    dict[str, list[int]],
    list[tuple[int, int]],
    dict[str, int],
    dict[str, int],
]:
    """The axiom automaton with every left hub's insert trie and the right
    hubs, joined by the static epsilon edges, kept in masks: the axiom
    automaton, the state count, the forward and backward letter rows, the
    static bicliques; and the left and right hubs."""
    axioms = system.axiom_nfa()
    count = axioms.state_count
    fwd = _mask_tables(axioms)
    bwd = _mask_tables(axioms, backward=True)
    columns = [*fwd.values(), *bwd.values()]
    into: dict[int, int] = {}  # right hub -> the trie ends that feed it

    left_hub: dict[str, int] = {}
    right_hub: dict[str, int] = {}
    trie: dict[tuple[str, str], int] = {}  # (left site, insert prefix) -> node
    ends_of: dict[tuple[str, tuple[str, ...]], list[int]] = {}  # trie ends of insert words
    hubs_of: dict[tuple[str, ...], list[int]] = {}  # hubs of right sites

    def new_state() -> int:
        nonlocal count
        for rows in columns:
            rows.append(0)
        count += 1
        return count - 1

    def trie_end(left_site: str, insert: str) -> int:
        """The node of the insert word in the left site's trie, with the
        hub and the nodes along the word numbered first if new."""
        end = trie.get((left_site, insert))
        if end is None:
            if left_site not in left_hub:
                left_hub[left_site] = new_state()
            end = left_hub[left_site]
            for i in range(1, len(insert) + 1):
                nxt = trie.get((left_site, insert[:i]))
                if nxt is None:
                    nxt = trie[left_site, insert[:i]] = new_state()
                    fwd[insert[i - 1]][end] |= 1 << nxt
                    bwd[insert[i - 1]][nxt] |= 1 << end
                end = nxt
        return end

    def hub(right_site: str) -> int:
        got = right_hub.get(right_site)
        if got is None:
            got = right_hub[right_site] = new_state()
        return got

    for left_site, inserts, rights in site_groups(system.rules):
        ends = ends_of.get((left_site, inserts))
        hubs = hubs_of.get(rights)
        if ends is None:
            # a rule's left hub and insert path are numbered before its right hub
            ends, hubs = [], []
            for insert, right_site in zip(inserts, rights):
                ends.append(trie_end(left_site, insert))
                hubs.append(hub(right_site))
            ends_of[left_site, inserts] = ends
            hubs_of[rights] = hubs
        elif hubs is None:
            hubs = hubs_of[rights] = [hub(right_site) for right_site in rights]
        # each edge makes its bit anew: a bit kept per trie node would hold
        # O(states^2) bits at once
        for end, target in zip(ends, hubs):
            into[target] = into.get(target, 0) | 1 << end

    # the axiom states come first, so its bicliques' targets precede the hubs
    static = _eps_bicliques(axioms) + [(src, 1 << t) for t, src in sorted(into.items())]
    return axioms, count, fwd, bwd, static, left_hub, right_hub


def build_closure(system: SplicingSystem) -> ClosureAutomaton:
    """Saturation fixpoint; the accepted language is the generated closure."""
    axioms, count, fwd, bwd, static, left_hub, right_hub = _base_automaton(system)
    bicliques = static
    fresh: list[tuple[int, int]] = []  # the bicliques that grew last round
    initial = _mask(axioms.initial)
    accepting = _mask(axioms.accepting)
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
        kept_reach, kept_coreach = reach, coreach  # what last round's reads imaged
        reach = _close(reach, initial | _eps_step(reach, fresh), bicliques, fwd.values())
        coreach = _close(
            coreach, accepting | _eps_step(coreach, fresh_back), backward, bwd.values()
        )
        post = _extend_prefixes(
            post, reach, right_words, fwd, bicliques, fresh, coreach, kept_coreach
        )
        pre = _extend_prefixes(
            pre, coreach, left_words, bwd, backward, fresh_back, reach, kept_reach
        )
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
        if rounds > count**2:
            raise AssertionError("saturation failed to converge within |states|^2 rounds")
        bicliques = _site_bicliques(static, left_seen, right_seen)
        growth.extend(new)
    closure = ClosureAutomaton(
        alphabet=system.alphabet,
        state_count=count,
        initial=axioms.initial,
        accepting=axioms.accepting,
        rows=tuple(tuple(fwd[sym]) for sym in system.alphabet.symbols),
        static=tuple(static),
        left_hubs=tuple(sorted(left_hub.items())),
        right_hubs=tuple(sorted(right_hub.items())),
        growth=tuple(growth),
        rounds=rounds,
    )
    # Saturation ends holding the final bicliques and co-reachable states,
    # values the closure derives from its fields; keep them.
    closure.__dict__.update(_bicliques=bicliques, _coreach=coreach)
    return closure


def closure_dfa(closure: ClosureAutomaton) -> Dfa:
    """Minimal complete DFA for the language an already-built closure accepts.

    The subset construction closes each move mask through the closure's
    bicliques, as saturation does, and keeps only the co-reachable states
    of every subset: a state that reaches no accepting state never decides
    acceptance, and the states it leads to reach none either, so dropping
    it maps the subset automaton onto one with the same language, whose
    minimal DFA is the same.  No epsilon edge set is built.
    """
    return minimize(
        _subset_dfa(closure, closure._fwd, closure._bicliques, keep=closure._coreach)
    )


def closure_language(system: SplicingSystem) -> Dfa:
    """Minimal complete DFA for the language the system generates."""
    return closure_dfa(build_closure(system))
