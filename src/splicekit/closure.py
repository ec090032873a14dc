"""Finite automaton for the language a splicing system generates.

The construction saturates a fixed state set with epsilon edges.  The base
automaton accepts exactly the axioms.  Every distinct site word gets a hub
state, one for its use as a left site and one for its use as a right site.
Each left hub is the root of a trie of insert words: the word a rule writes
between the retained prefix and the adopted suffix (the bridge v for a
triplet rule, u1·v2 for a classic rule, which is the exact triplet form of
the quadruple).  A rule walks its left hub's trie along its insert word,
extending it where no node exists yet, and adds one static epsilon edge from
the node where the word ends to the hub of its right site.  A triplet rule
product whose bridges are every word shorter than a bound replaces the
tries with class x length gadgets (below).  A saturation
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

Class x length gadgets.  Whether a triplet rule (u1, u2; v) is in a
canonical product depends only on its class tuple, so its bridge matters
only through its class and its length.  When the product's bridge pool is
every word shorter than its bound, in ll-order, and each word's class is
fixed by its parent's class and its last letter (``_bridge_action`` checks
both and reads that letter action off the pool), each left-site class c1
that opens some tuple gets one gadget in place of its sites' tries.  Its
states are (x, n): x is the class of a bridge prefix and n < the bound its
length.  A letter edge takes (x, n) to (x·a, n + 1); each left hub of a u1
of class c1 has a static epsilon edge to (e, 0), the empty bridge's state;
and (x, n) has one to the right hub of each u2 whose class c2 has (c1, c2,
x) among the tuples, (e, 0) included.  A gadget keeps only the states from
which such an edge can be reached.  The labeled paths from the left hub of
u1 to the right hub of u2 then spell exactly the bridges of the rules with
those sites, as the trie's do.  The gadget is the quotient of the tries of
c1's sites that merges the nodes of equal (class, length).  Such nodes have
the same right language in every round: statically, what a node can still
read on to a right hub depends only on its prefix's class and length, and
saturation adds the same edges out of them, since the edges out of a state
go to the left hubs of the sites it is a point of, which its right language
decides.  Merging NFA states with equal right languages keeps the accepted
language, and it keeps the saturation points: left points depend on right
languages, and right points on the union of left languages.  Classic
rules spell u1 and v2 both in a site and in the insert, so a class cannot
stand for them, and a tuple of rules has no classes: both keep the tries,
and so does any other pool.

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
site, the root of the trie shared by the rules with that left site; an
"out" edge leaves the right hub of its site, which the trie endpoints of
the rules with that right site feed.  A rule's own part of the automaton is
the trie path from its left hub along its insert word plus the static
epsilon edge from that path's end to its right hub.

On the trie path, rules are read as ``splicing.site_groups`` gives them,
one run at a time: a left site, the insert words of the run's rules and
their right sites, in the rules' order.  A tuple of rules gives one run per
rule.  A canonical rule product is never turned into rule objects: it gives
one run per classic (u1, v1, u2) or triplet (u1, u2), whose rules differ
only in the last component.  States are numbered as a walk over the rules
one by one would number them: each rule's left hub and new insert nodes,
then its right hub.  The trie ends of a run's insert words are kept per
(left site, insert words), and the hubs per tuple of right sites.  A later
u2 of the same class as an earlier one, after the same (u1, v1), has the
same insert words, so its run reaches only trie ends that exist and adds
only right hubs and static epsilon edges; a run whose insert words and
right sites were both seen adds only its static epsilon edges.

Representation.  Trie nodes are keyed by (left site, insert prefix), so an
insert word whose whole path exists already costs one lookup.  The rule
loop writes the automaton straight into masks, the one form every ``Nfa``
keeps its edges in: each new state gets its forward and backward letter
rows, and each static epsilon edge adds its trie end to the sources of its
right hub's biclique.  The forward rows and the static bicliques are the
``base`` automaton, an ``Nfa``.  The epsilon edges are bicliques: the
static edges grouped by target (the trie ends or gadget states that feed a
right hub, the left hubs that enter a gadget, and any epsilon edges of the
axiom automaton), one per left site (its points
so far to its hub) and one per right site (its hub to its points so far).
Saturation closes sets through them with ``automata._close``, backwards
through their mirror, and ``nfa()``, the base with every biclique, is what
the comparison's subset construction and the closure JSON read.  No edge
set is built unless an automaton's ``labeled_edges`` or
``epsilon_edges`` is asked for.

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

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple

from .automata import (
    Dfa,
    Nfa,
    _bits,
    _close,
    _eps_step,
    _image,
    _mask,
    _predecessors,
    _subset_dfa,
    automaton_to_json,
    count_words_shorter_than,
    minimize,
)
from .splicing import PIXTON, RuleProduct, SplicingSystem, site_groups


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
    per-site hubs, the insert-word tries rooted at the left hubs, and the
    static epsilon edges from each rule's trie endpoint to its right hub,
    grouped by target in ascending order.  For a triplet rule product with a
    full bridge pool the tries are class x length gadgets instead, one per
    left-site class, entered from the left hubs by static epsilon edges and
    feeding the right hubs by others (see the module docstring).
    ``left_hubs`` and ``right_hubs`` map site words to their hub states.
    Saturation is recorded in ``growth``: one point mask per site and round
    in which the site gained points, in the order ``build_closure`` found
    them.  The rest is derived from those masks when asked for: ``added``,
    one provenance-tagged edge per point, so traces and DOT output can
    attribute every discovered edge to its site word, and through the hub to
    the rules with that site (the rules whose trie or gadget an "in" edge
    feeds, or whose trie endpoints or gadget states feed the hub an "out"
    edge leaves); the bicliques, which hold every epsilon edge
    of the saturated automaton, ``nfa()``, which is ``base`` with those
    bicliques and which ``closure_dfa`` and ``to_json`` read; and the
    co-reachable states, which ``closure_dfa`` keeps its subsets to.  The
    views are kept once built; ``build_closure`` hands over the bicliques
    and co-reachable states it ends with.
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
    def _coreach(self) -> int:
        """The states of the saturated automaton from which an accepting
        state can be reached; saturation adds no letter edges, so the
        letter rows are the base automaton's."""
        base = self.base
        return _close(
            0,
            _mask(base.accepting),
            [(dst, src) for src, dst in self._bicliques],
            _predecessors(base.rows, base.state_count),
        )

    def to_json(self) -> str:
        return automaton_to_json(self.nfa())

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
) -> tuple[Nfa, dict[str, list[int]], dict[str, int], dict[str, int]]:
    """The axiom automaton with the rule part, the left hubs' insert tries
    or, for a triplet product whose bridges allow it, the class x length
    gadgets, and the right hubs, joined by the static epsilon edges: that
    automaton, its backward letter rows by symbol, and the left and right
    hubs."""
    axioms = system.axiom_nfa()
    count = axioms.state_count
    symbols = system.alphabet.symbols
    # the axiom rows by symbol: the axiom automaton may list the alphabet in
    # another order, or lack some of the system's symbols
    own = dict(zip(axioms.alphabet.symbols, axioms.rows))
    fwd = {sym: list(own[sym]) if sym in own else [0] * count for sym in symbols}
    bwd = dict(zip(symbols, _predecessors(fwd.values(), count)))
    columns = [*fwd.values(), *bwd.values()]
    into: dict[int, int] = {}  # static epsilon target -> its sources

    def new_state() -> int:
        nonlocal count
        for rows in columns:
            rows.append(0)
        count += 1
        return count - 1

    action = _bridge_action(system.rules, symbols)
    if action is None:
        left_hub, right_hub = _tries(system.rules, new_state, fwd, bwd, into)
    else:
        left_hub, right_hub = _gadgets(
            system.rules, symbols, *action, new_state, fwd, bwd, into
        )

    # the axiom states come first, so its bicliques' targets precede the hubs
    static = axioms.epsilon + tuple((src, 1 << t) for t, src in sorted(into.items()))
    rows = tuple(map(tuple, fwd.values()))
    base = Nfa._unchecked(system.alphabet, count, axioms.initial, axioms.accepting, rows, static)
    return base, bwd, left_hub, right_hub


def _tries(
    rules,
    new_state: Callable[[], int],
    fwd: dict[str, list[int]],
    bwd: dict[str, list[int]],
    into: dict[int, int],
) -> tuple[dict[str, int], dict[str, int]]:
    """Each left hub's insert trie and the right hubs, run by run, written
    into the letter rows: the left and right hubs, with the trie ends that
    feed each right hub in ``into``."""
    left_hub: dict[str, int] = {}
    right_hub: dict[str, int] = {}
    trie: dict[tuple[str, str], int] = {}  # (left site, insert prefix) -> node
    ends_of: dict[tuple[str, tuple[str, ...]], list[int]] = {}  # trie ends of insert words
    hubs_of: dict[tuple[str, ...], list[int]] = {}  # hubs of right sites

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

    for left_site, inserts, rights in site_groups(rules):
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
    return left_hub, right_hub


def _bridge_action(
    rules, symbols: tuple[str, ...]
) -> tuple[int, dict[tuple[int, int], int]] | None:
    """(bridge bound, letter action) of a triplet product whose bridge pool
    is every word shorter than the bound, in ll-order, with each word's class
    fixed by its parent's class and its last letter; the action maps (class,
    symbol index) to the class of the extension.  None for any other rules,
    which take the tries, and for a product with no rules, which builds
    nothing either way.

    In ll-order over k symbols the word at index i > 0 is the word at index
    (i - 1) // k extended by symbol (i - 1) % k, so one pass checks the
    words and reads the action off the classes.
    """
    if not isinstance(rules, RuleProduct) or rules.variant != PIXTON or not rules.tuples:
        return None
    words, classes = rules.pools[-1]
    k = len(symbols)
    if not words or words[0] or len(words) != count_words_shorter_than(k, len(words[-1]) + 1):
        return None
    action: dict[tuple[int, int], int] = {}
    for i in range(1, len(words)):
        parent, s = divmod(i - 1, k)
        if words[i] != words[parent] + symbols[s]:
            return None
        if action.setdefault((classes[parent], s), classes[i]) != classes[i]:
            return None
    return len(words[-1]) + 1, action


def _gadgets(
    rules: RuleProduct,
    symbols: tuple[str, ...],
    bound: int,
    action: dict[tuple[int, int], int],
    new_state: Callable[[], int],
    fwd: dict[str, list[int]],
    bwd: dict[str, list[int]],
    into: dict[int, int],
) -> tuple[dict[str, int], dict[str, int]]:
    """One class x length gadget per left-site class and the hubs, numbered
    in blocks (see the module docstring) and written into the letter rows:
    the left and right hubs, with the sources that feed each gadget start
    and right hub in ``into``."""
    (lefts, left_classes), (rights, right_classes), (_bridges, bridge_classes) = rules.pools
    steps = range(len(symbols))
    present = set(right_classes)
    feeds: dict[int, dict[int, set[int]]] = {}  # c1 -> bridge class -> right-site classes
    for c1, c2, x in rules.tuples:
        if c2 in present:
            feeds.setdefault(c1, {}).setdefault(x, set()).add(c2)
    # the bridge classes of each length, in the ll-order of their least words
    levels = [[bridge_classes[0]]]
    for _ in range(1, bound):
        levels.append(list(dict.fromkeys(action[x, s] for x in levels[-1] for s in steps)))

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
                if x in wants or later and any(action[x, s] in later for s in steps)
            ]
            later = set(alive[n])
        if alive[0]:
            gadgets[c1] = alive

    left_hub: dict[str, int] = {}
    entering: dict[int, int] = {}  # c1 -> the left hubs that enter its gadget
    for u1, c1 in zip(lefts, left_classes):
        if c1 in gadgets:
            left_hub[u1] = new_state()
            entering[c1] = entering.get(c1, 0) | 1 << left_hub[u1]
    feeders: dict[int, int] = {}  # right-site class -> the gadget states that feed it
    for c1, alive in gadgets.items():
        ids = [{x: new_state() for x in level} for level in alive]
        into[ids[0][bridge_classes[0]]] = entering[c1]
        for n, level in enumerate(ids):
            for x, state in level.items():
                for c2 in feeds[c1].get(x, ()):
                    feeders[c2] = feeders.get(c2, 0) | 1 << state
                if n + 1 < bound:
                    for s, sym in enumerate(symbols):
                        nxt = ids[n + 1].get(action[x, s])
                        if nxt is not None:
                            fwd[sym][state] |= 1 << nxt
                            bwd[sym][nxt] |= 1 << state
    right_hub: dict[str, int] = {}
    for u2, c2 in zip(rights, right_classes):
        if c2 in feeders:
            right_hub[u2] = new_state()
            into[right_hub[u2]] = feeders[c2]
    return left_hub, right_hub


def build_closure(system: SplicingSystem) -> ClosureAutomaton:
    """Saturation fixpoint; the accepted language is the generated closure."""
    base, bwd, left_hub, right_hub = _base_automaton(system)
    fwd = dict(zip(system.alphabet.symbols, base.rows))
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
    return minimize(_subset_dfa(closure.nfa(), keep=closure._coreach))


def closure_language(system: SplicingSystem) -> Dfa:
    """Minimal complete DFA for the language the system generates."""
    return closure_dfa(build_closure(system))
