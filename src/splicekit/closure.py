"""Finite automaton for the language a splicing system generates.

The construction saturates a fixed state set with epsilon edges.  The base
automaton accepts exactly the axioms.  Every distinct site word gets a hub
state, one for its use as a left site and one for its use as a right site.
A rule writes its insert word between the retained prefix and the adopted
suffix (the bridge v for a triplet rule, u1·v2 for a classic rule, which is
the exact triplet form of the quadruple), and the rule part of the base
joins each left hub to the right hubs along those words: through head
tries and site chains for a tuple of rules or a classic rule product, and
through class x length gadgets for a triplet product (both below).  A
saturation round recomputes, inside the current automaton,

  LeftPoints(s)  = reachable states from which the left-site word s can be
                   read on a path that stays co-reachable, and
  RightPoints(t) = co-reachable states at the end of a right-site read that
                   starts in a reachable state,

then adds epsilon edges LeftPoint -> left hub of s and right hub of t ->
RightPoint.  Sharing hubs per site word keeps saturation at
O(states x sites) edges rather than O(states x rules).

Head tries and site chains.  A rule is read as a head, a cut and a join:
a classic rule (u1, v1, u2, v2) reads its head u1 from the left hub of
u1·v1 and cuts u2·v2 after u2; a triplet (u1, u2; v) reads its head v from
the left hub of u1 and cuts u2 at its end.  Each left site gets its hub and
a trie of its heads (a chain along the site for a classic rule, whose
heads are the site's prefixes), and each right site one chain from its
first cut into its hub.  Each read carries a tag: a tuple tags it with its
own words, (u1, v1) and (u2, v2) or (u1, v) and (u2, ""), and a classic
product with their class pair, since a rule is in a canonical product iff
its class tuple is.  One static biclique per right tag joins the head ends
of the left tags it is joined with to its cut nodes: at most m² for a
product over a monoid of size m.  The labeled paths from the left hub of s
to the right hub of t then spell exactly {h·t[c:] : some rule reads head h
on s and cuts t at c}, the insert words of the rules with those sites.
Split each per-rule path by an epsilon edge after its head: the tries and
chains are the quotient of those paths that merges the nodes of equal
(left site, head prefix) and those of equal (right site, cut).  The first
have equal left languages: statically they are entered only through the
same word from the same hub, and by saturation only at the end of a
right-site read, which depends on what lies to their left.  The second
have equal right languages: statically what a node can still read is the
rest of its site into the hub, and saturation adds the same edges out of
them, since the edges out of a state go to the left hubs of the sites it
is a point of, which its right language decides.  Merging NFA states with
equal left languages, or with equal right languages, keeps the accepted
language and the saturation points (left points depend on right
languages, right points on the union of left languages), so the
fixpoint's language is the per-rule paths'.

The rule part numbers its states: the axiom states; each left site in
ll-order, its hub, then its trie's nodes in the lexicographic order of
their words; each right site in ll-order, its chain, then its hub.  So a
tuple of rules and the classic product of the same rules build the same
automaton, up to how their joins are grouped into bicliques.

Class x length gadgets.  Whether a triplet rule (u1, u2; v) is in a
canonical product depends only on its class tuple, so its bridge matters
only through its class and its length.  A product's bridges are every
word shorter than its bound, so the bridge classes of each length are the
monoid's class levels (``monoid.class_levels``) and a letter acts on them
through its generator: the gadgets read the bridges only through the
monoid, and never spell them.  Each left-site class c1 that opens some
tuple gets one gadget in place of its sites' tries.  Its states are
(x, n): x is the class of a bridge prefix and n < the bound its length.
A letter edge takes (x, n) to (x·a, n + 1); each left hub of a u1
of class c1 has a static epsilon edge to (e, 0), the empty bridge's state;
and (x, n) has one to the right hub of each u2 whose class c2 has (c1, c2,
x) among the tuples, (e, 0) included.  A gadget keeps only the states from
which such an edge can be reached.  The labeled paths from the left hub of
u1 to the right hub of u2 then spell exactly the bridges of the rules with
those sites, as the head tries' do.  The gadget is the quotient of the
head tries of c1's sites that merges the nodes of equal (class, length).
Such nodes have the same right language in every round: statically, what
a node can still read on to a right hub depends only on its prefix's class
and length, and saturation adds the same edges out of them, as for the
chains above.

The gadget path numbers its states in blocks: the axiom states; the left
hubs of the classes with a gadget, in the pool order of their sites; each
gadget, in the order its class first appears among those sites, with its
states in the ll-order of their least bridge words; then the right hubs
that some gadget feeds, in the pool order of their sites.  Nothing is
numbered in the iteration order of a set.

Provenance.  Saturation records, per round, the mask of the points each
site gained; an added edge is one point of such a mask joined to its site's
hub, and the edge list is derived from the masks only when asked for.  An
edge names its site word and side: an "in" edge feeds the left hub of its
site, an "out" edge leaves the right hub of its site.

Representation.  The rule part writes the automaton straight into masks,
the one form every ``Nfa`` keeps its edges in: each new state gets its
forward and backward letter rows, and the static epsilon edges are
bicliques (a right tag's join, a gadget's entry or feeds), sorted after the
axiom automaton's by their lowest target.  The forward rows and the static
bicliques are the ``base`` automaton.
Saturation adds one biclique per left site (its points so far to its hub)
and one per right site (its hub to its points so far), and closes sets
through them with ``automata._close``; ``nfa()``, the base with every
biclique, is what the comparison's subset construction and the closure
JSON read.  No edge set is built unless one is asked for.

Trie nodes are numbered along each head, a gadget's states along the
lengths of a unary bridge, and a chain's states along its site, so most
letter edges go from a state p to p + 1: all 136 on a* classic at
theorem bounds, all 6,936 on aaaa+, and 109 of 111 on a+b+ classic at
bounds (4,3,4), whose other two are the axioms'.  Each letter edge is
sorted as it is written, and saturation reads each symbol's rows split
(``automata._Moves``): the states with an edge p -> p + 1 are imaged at
once by a shift of the mask, and only the others through their rows.

Rounds are semi-naive: the reachable and co-reachable sets and the set of
each site prefix carry over from the round before, and only the states not
imaged then are imaged now: of a prefix's set, ``reached & ~last``, the
states not in last round's set of the same prefix.  This keeps the
fixpoint for three reasons.  Edges are only ever added, so every such set
only grows.  A letter image distributes over union, so the image of a set
is last round's image, which last round's set of the longer prefix holds,
plus the image of the states not imaged then.  And closing twice is
closing once, so closing last round's set together with that image gives
the set a round computed from scratch would.  Last round's set is already
closed under the bicliques that did not grow, so its closure starts from
the ones that did.

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

from collections import defaultdict
from dataclasses import dataclass
import itertools
from functools import cached_property, lru_cache, reduce
from operator import methodcaller, or_
from typing import Callable, Hashable, Iterable, NamedTuple

from .automata import (
    Alphabet,
    Dfa,
    Nfa,
    _bits,
    _close,
    _eps_step,
    _mask,
    _move,
    _Moves,
    determinize,
    minimize,
)
from .monoid import class_counts, class_levels
from .splicing import PIXTON, ClassicRule, RuleProduct, SplicingSystem


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

    ``base`` is the automaton before saturation: the axiom part, the
    per-site hubs, and the rule part that joins the left hubs to the right
    hubs (see the module docstring): the head tries and site chains of a
    tuple of rules or a classic rule product, or the class x length gadgets
    of a triplet product, with their static epsilon edges.
    ``left_hubs`` and ``right_hubs`` map site words to their hub states.
    Saturation is recorded in ``growth``: one point mask per site and round
    in which the site gained points, in the order ``build_closure`` found
    them.  The rest is derived from those masks when asked for: ``added``,
    one provenance-tagged edge per point, so traces and DOT output can
    attribute every discovered edge to its site word, and through the hub to
    the rules with that site; the bicliques, which hold every epsilon edge
    of the saturated automaton; and ``nfa()``, which is ``base`` with those
    bicliques and which ``closure_dfa`` and the closure JSON read.  The
    views are kept once built; ``build_closure`` hands over the bicliques
    it ends with.
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
        return _site_bicliques(self.base.epsilon, left, right)

    @cached_property
    def _nfa(self) -> Nfa:
        b = self.base
        return Nfa._unchecked(
            b.alphabet, b.state_count, b.initial, b.accepting, b.rows, tuple(self._bicliques)
        )

    def nfa(self) -> Nfa:
        """The saturated automaton, built on first use and then kept."""
        return self._nfa


def _extend_prefixes(
    last: dict[str, int],
    start: int,
    words: Iterable[str],
    moves: dict[str, _Moves],
    bicliques: list[tuple[int, int]],
    fresh: list[tuple[int, int]],
) -> dict[str, int]:
    """This round's epsilon-closed set reached from start by every prefix of
    the words, from ``last``, the sets of the round before (empty at first).

    A prefix's set is last round's set, closed under the bicliques that grew
    since (``fresh``) and then under all of them, together with the letter
    image of only the states its one-shorter prefix's set gained since last
    round.
    """
    reached = {"": start}
    for word in words:
        for i in range(1, len(word) + 1):
            prefix = word[:i]
            if prefix not in reached:
                parent = word[: i - 1]
                old = last.get(prefix, 0)
                delta = reached[parent] & ~last.get(parent, 0)
                step = _move(delta, moves[word[i - 1]]) | _eps_step(old, fresh)
                reached[prefix] = _close(old, step, bicliques)
    return reached


def _base_automaton(
    system: SplicingSystem,
) -> tuple[Nfa, dict[str, _Moves], dict[str, _Moves], dict[str, int], dict[str, int]]:
    """The axiom automaton with the rule part, the head tries and site
    chains of a tuple of rules or a classic rule product, or the class x
    length gadgets of a triplet one, and the hubs, joined by the static
    epsilon edges: that automaton, its letter moves by symbol forwards and
    backwards, and the left and right hubs.

    Each letter edge is sorted as it is written: an edge p -> p + 1 puts p
    in the symbol's shift, any other edge its source in the forward rest
    and its target in the backward rest (see ``automata._Moves``).
    """
    axioms = system.axiom_nfa()
    count = axioms.state_count
    symbols = system.alphabet.symbols
    fwd = {sym: [0] * count for sym in symbols}
    bwd = {sym: [0] * count for sym in symbols}
    columns = [*fwd.values(), *bwd.values()]
    shift = dict.fromkeys(symbols, 0)
    ahead = dict.fromkeys(symbols, 0)  # the sources of the other edges
    behind = dict.fromkeys(symbols, 0)  # their targets

    def new_state() -> int:
        nonlocal count
        for rows in columns:
            rows.append(0)
        count += 1
        return count - 1

    def edge(sym: str, p: int, q: int) -> None:
        fwd[sym][p] |= 1 << q
        bwd[sym][q] |= 1 << p
        if q == p + 1:
            shift[sym] |= 1 << p
        else:
            ahead[sym] |= 1 << p
            behind[sym] |= 1 << q

    # the axiom automaton may list the alphabet in another order, or lack
    # some of the system's symbols
    for sym, row in zip(axioms.alphabet.symbols, axioms.rows):
        for p, succ in enumerate(row):
            if succ:
                for q in _bits(succ):
                    edge(sym, p, q)
    rules = system.rules
    if isinstance(rules, RuleProduct) and rules.variant == PIXTON:
        left_hub, right_hub, joins = _gadgets(rules, new_state, edge)
    else:
        reads = _product_reads(rules) if isinstance(rules, RuleProduct) else _tuple_reads(rules)
        left_hub, right_hub, joins = _rule_part(reads, system.alphabet, new_state, edge)

    # the axiom states come first, so its bicliques' targets precede the
    # rule part's, whose targets are disjoint: ascending by the lowest one
    joins.sort(key=lambda biclique: biclique[1] & -biclique[1])
    static = axioms.epsilon + tuple(joins)
    rows = tuple(map(tuple, fwd.values()))
    base = Nfa._unchecked(system.alphabet, count, axioms.initial, axioms.accepting, rows, static)
    forward = {sym: (row, shift[sym], ahead[sym], True) for sym, row in zip(symbols, rows)}
    backward = {sym: (bwd[sym], shift[sym] << 1, behind[sym], False) for sym in symbols}
    return base, forward, backward, left_hub, right_hub


# A builder of the rule part writes its states and letter edges through
# ``new_state`` and ``edge`` and returns the hubs and its static epsilon
# edges, bicliques with disjoint target masks.  ``_rule_part`` reads left
# site -> head -> tag, right site -> prefix to a cut -> tag, right tag -> left tags.
_Built = tuple[dict[str, int], dict[str, int], list[tuple[int, int]]]
_Reads = tuple[dict[str, dict[str, Hashable]], dict[str, dict[str, Hashable]], dict]


def _tuple_reads(rules: tuple) -> _Reads:
    """The reads of a tuple of rules, tagged by their own words: each
    distinct (site, word) gets an int tag, so a rule adds one list entry."""
    if rules and isinstance(rules[0], ClassicRule):
        parts = ((r.u1 + r.v1, r.u1, r.u2 + r.v2, r.u2) for r in rules)
    else:
        parts = ((r.u1, r.v, r.u2, r.u2) for r in rules)
    lefts, rights, joins = defaultdict(dict), defaultdict(dict), defaultdict(list)
    tags = itertools.count()
    for left, head, right, u2 in parts:
        heads, cuts = lefts[left], rights[right]
        if head not in heads:
            heads[head] = next(tags)
        if u2 not in cuts:
            cuts[u2] = next(tags)
        joins[cuts[u2]].append(heads[head])
    return lefts, rights, joins


def _product_reads(rules: RuleProduct) -> _Reads:
    """The reads of a classic rule product, tagged by class pairs: a right
    pair joins every left pair it shares a tuple with, and the sites u·v
    come from pairing the pool words class by class, so an empty or sparse
    product costs only what it builds."""
    present = [class_counts(rules.monoid, lt) for lt in rules.component_lts]
    joins: dict[tuple[int, ...], set[tuple[int, ...]]] = {}  # right pair -> its left pairs
    for classes in rules.tuples:
        if all(c in words for c, words in zip(classes, present)):
            joins.setdefault(classes[2:], set()).add(classes[:2])
    reads = []
    for depth, pairs in ((0, set().union(*joins.values())), (2, joins)):
        cuts: dict[str, dict[str, tuple[int, ...]]] = {}  # site -> u -> pair
        if pairs:
            firsts, seconds = {}, {}  # class -> its words, in pool order
            for words, d in ((firsts, depth), (seconds, depth + 1)):
                for word, c in zip(*rules.pool(d)):
                    words.setdefault(c, []).append(word)
            for x, y in pairs:
                for u in firsts[x]:
                    for v in seconds[y]:
                        cuts.setdefault(u + v, {})[u] = (x, y)
        reads.append(cuts)
    return reads[0], reads[1], joins


@lru_cache
def _lex_key(symbols: tuple[str, ...]) -> Callable[[str], str]:
    """A sort key in lexicographic order: the word, each symbol its rank."""
    return methodcaller("translate", str.maketrans(dict(zip(symbols, range(len(symbols))))))


def _rule_part(
    reads: _Reads, alphabet: Alphabet, new_state: Callable[[], int], edge: Callable
) -> _Built:
    """Each left site's hub and the trie of its heads, then each right
    site's chain from its first cut into its hub, both in ll-order of the
    sites, and one biclique per right tag from the head ends of the left
    tags it joins to its cut nodes (see the module docstring)."""
    lefts, rights, joins = reads
    lex = _lex_key(alphabet.symbols)
    left_nodes: dict[Hashable, int] = {}  # tag -> the mask of its nodes
    right_nodes: dict[Hashable, int] = {}
    left_hub: dict[str, int] = {}
    right_hub: dict[str, int] = {}
    for site in sorted(sorted(lefts, key=lex), key=len):
        heads = lefts[site]
        path, last = [new_state()], ""  # the nodes of the last head's prefixes
        left_hub[site] = path[0]
        # in lexicographic order a head shares with the one before exactly
        # the nodes of their common prefix, all of it on a classic site
        for head in sorted(heads, key=lex):
            k = len(last)
            while not head.startswith(last[:k]):
                k -= 1
            del path[k + 1 :]
            for sym in head[k:]:
                node = new_state()
                edge(sym, path[-1], node)
                path.append(node)
            tag = heads[head]
            left_nodes[tag] = left_nodes.get(tag, 0) | 1 << path[-1]
            last = head
    for site in sorted(sorted(rights, key=lex), key=len):
        cuts = rights[site]
        start = min(map(len, cuts))
        first = new_state()
        for i in range(start, len(site)):
            edge(site[i], first + i - start, new_state())
        for u, tag in cuts.items():
            right_nodes[tag] = right_nodes.get(tag, 0) | 1 << first + len(u) - start
        right_hub[site] = first + len(site) - start
    return left_hub, right_hub, [
        (reduce(or_, map(left_nodes.__getitem__, tags)), right_nodes[tag])
        for tag, tags in joins.items()
    ]


def _gadgets(
    rules: RuleProduct, new_state: Callable[[], int], edge: Callable[[str, int, int], None]
) -> _Built:
    """One class x length gadget per left-site class and the hubs, numbered
    in blocks (see the module docstring), with one biclique into each
    gadget start from its left hubs and one into each right hub from the
    gadget states that feed it.  The bridges are read only through the
    monoid: their class levels and the generators' action on them."""
    monoid = rules.monoid
    table, gens = monoid.table, monoid.generators
    letters = tuple(zip(monoid.alphabet.symbols, gens))
    (lefts, left_classes), (rights, right_classes) = rules.pool(0), rules.pool(1)
    present = set(right_classes)
    feeds: dict[int, dict[int, set[int]]] = {}  # c1 -> bridge class -> right-site classes
    for c1, c2, x in rules.tuples:
        if c2 in present:
            feeds.setdefault(c1, {}).setdefault(x, set()).add(c2)
    bound = rules.component_lts[2]
    levels = class_levels(monoid, bound)

    gadgets: dict[int, list[list[int]]] = {}  # c1 -> its states' classes, per length
    for c1 in dict.fromkeys(left_classes):
        wants = feeds.get(c1)
        if not wants:
            continue
        alive: list[list[int]] = [[] for _ in range(bound)]
        # keep only the states that reach a right hub; ``later`` is empty at
        # the last length, whose classes the action does not extend
        later: set[int] = set()
        for n in range(bound - 1, -1, -1):
            alive[n] = [
                x for x in levels[n]
                if x in wants or later and any(table[x][g] in later for g in gens)
            ]
            later = set(alive[n])
        if alive[0]:
            gadgets[c1] = alive

    joins: list[tuple[int, int]] = []
    left_hub: dict[str, int] = {}
    entering: dict[int, int] = {}  # c1 -> the left hubs that enter its gadget
    for u1, c1 in zip(lefts, left_classes):
        if c1 in gadgets:
            left_hub[u1] = new_state()
            entering[c1] = entering.get(c1, 0) | 1 << left_hub[u1]
    feeders: dict[int, int] = {}  # right-site class -> the gadget states that feed it
    for c1, alive in gadgets.items():
        ids = [{x: new_state() for x in level} for level in alive]
        joins.append((entering[c1], 1 << ids[0][monoid.identity]))
        for n, level in enumerate(ids):
            for x, state in level.items():
                for c2 in feeds[c1].get(x, ()):
                    feeders[c2] = feeders.get(c2, 0) | 1 << state
                if n + 1 < bound:
                    for sym, g in letters:
                        nxt = ids[n + 1].get(table[x][g])
                        if nxt is not None:
                            edge(sym, state, nxt)
    right_hub: dict[str, int] = {}
    for u2, c2 in zip(rights, right_classes):
        if c2 in feeders:
            right_hub[u2] = new_state()
            joins.append((feeders[c2], 1 << right_hub[u2]))
    return left_hub, right_hub, joins


def build_closure(system: SplicingSystem) -> ClosureAutomaton:
    """Saturation fixpoint; the accepted language is the generated closure."""
    base, fwd, bwd, left_hub, right_hub = _base_automaton(system)
    bicliques = base.epsilon
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
        reach = _close(reach, initial | _eps_step(reach, fresh), bicliques, [*fwd.values()])
        coreach = _close(
            coreach, accepting | _eps_step(coreach, fresh_back), backward, [*bwd.values()]
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
        if rounds > base.state_count**2:
            raise AssertionError("saturation failed to converge within |states|^2 rounds")
        bicliques = _site_bicliques(base.epsilon, left_seen, right_seen)
        growth.extend(new)
    closure = ClosureAutomaton(
        base=base,
        left_hubs=tuple(sorted(left_hub.items())),
        right_hubs=tuple(sorted(right_hub.items())),
        growth=tuple(growth),
        rounds=rounds,
    )
    # Saturation ends holding the final bicliques, which the closure derives
    # from its growth; keep them.
    closure.__dict__["_bicliques"] = bicliques
    return closure


def closure_dfa(closure: ClosureAutomaton) -> Dfa:
    """Minimal complete DFA for the language an already-built closure accepts.

    ``determinize`` closes each move mask through the closure's bicliques,
    as saturation does, so no epsilon edge set is built.
    """
    return minimize(determinize(closure.nfa()))


def closure_language(system: SplicingSystem) -> Dfa:
    """Minimal complete DFA for the language the system generates."""
    return closure_dfa(build_closure(system))
