"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms wherever
they are used as a second route: regex membership goes through Python's re
module, NFA membership, subset construction and cycle detection through
plain set walks, automaton JSON through one ``json.dumps`` of sorted edges,
system JSON through one ``json.dumps`` of the rules as iterated, syntactic
congruence through raw context enumeration over DFA word membership, and
closure words through literal splicing iteration.
The saturation reference ``build_closure_reference`` recomputes every round
from scratch along per-state epsilon rows, closed by its own ``_reach``: it
shares the library's bit iteration and letter images, but none of its
epsilon-closure, biclique or semi-naive code.  It builds its own ``base``
from edge sets through ``Nfa.from_edges``, so comparing closures compares
the base automata too, and it checks the closure's derived ``added`` view
against the edges it found itself.  It is the reference for a tuple of
rules and for a classic rule product, which ``build_closure`` reads through
one head trie per left site and one chain per right site, joined per tag:
it cuts the sites of each rule object by hand and tags each cut with its
two words, or with their classes under ``class_of``, with none of the
library's rule-part code.  ``build_gadget_closure_reference`` is its
counterpart for triplet rule products, which ``build_closure`` reads
through class x length gadgets: it reads each gadget state's letter row and
right-site feeds off the bridge pool word by word, with none of the
library's gadget code, and saturates the same way.
``reverse`` and ``reversed_dfa`` mirror a rule and a language for the
reversal relation, and ``rename`` and ``renamed_dfa`` swap two letters for
the renaming relation; each compares two decides without any oracle.
``is_factor_brute`` decides whether a word is a factor of a DFA's language
by trying every short context around it, and ``factor_site_system`` keeps a
system's rules whose two sites pass it, with no monoid.
``neighbour_split`` splits letter rows state by state into the neighbour
edges that ``automata._move`` images by a shift and the rest.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import replace

from splicekit import (
    Alphabet,
    ClassicRule,
    Dfa,
    Nfa,
    PixtonRule,
    SplicingSystem,
    minimize,
    words_shorter_than,
)
from splicekit.automata import _bits, _image, _mask
from splicekit.closure import AddedEdge, ClosureAutomaton, Growth
from splicekit.splicing import RuleProduct, triplet, triplet_form


def ll_sorted(alphabet: Alphabet, words) -> list[str]:
    return sorted(words, key=lambda w: (len(w), tuple(alphabet.index(c) for c in w)))


def all_words_upto(alphabet: Alphabet, max_len: int) -> list[str]:
    out = []
    for length in range(max_len + 1):
        for tup in itertools.product(alphabet.symbols, repeat=length):
            out.append("".join(tup))
    return out


def random_regex(
    rng: random.Random, symbols: str, depth: int, no_epsilon: bool = False
) -> tuple[str, str]:
    """(our dialect, python re dialect) for the same random language.

    Quantified subexpressions are kept non-nullable so the re-module oracle
    cannot hit catastrophic backtracking; the DFA side has no such limits.
    """
    if depth == 0 or rng.random() < 0.3:
        if not no_epsilon and rng.random() < 0.15:
            return "()", "()"
        ch = rng.choice(symbols)
        return ch, re.escape(ch)
    ops = ("cat", "alt", "plus") if no_epsilon else ("cat", "alt", "star", "plus")
    op = rng.choice(ops)
    if op in ("star", "plus"):
        left, pleft = random_regex(rng, symbols, depth - 1, no_epsilon=True)
        mark = "*" if op == "star" else "+"
        return f"({left}){mark}", f"({pleft}){mark}"
    left, pleft = random_regex(rng, symbols, depth - 1, no_epsilon)
    right, pright = random_regex(rng, symbols, depth - 1, no_epsilon)
    if op == "cat":
        return f"({left})({right})", f"({pleft})({pright})"
    return f"(({left})|({right}))", f"(({pleft})|({pright}))"


def _epsilon_closure_brute(nfa: Nfa, states) -> frozenset[int]:
    """The states reachable from states along epsilon edges, by a plain
    stack walk over the edge set."""
    closed = set(states)
    stack = list(closed)
    while stack:
        s = stack.pop()
        for p, q in nfa.epsilon_edges:
            if p == s and q not in closed:
                closed.add(q)
                stack.append(q)
    return frozenset(closed)


def _step_brute(nfa: Nfa, states, ch: str) -> frozenset[int]:
    return _epsilon_closure_brute(
        nfa, {q for p, sym, q in nfa.labeled_edges if p in states and sym == ch}
    )


def nfa_accepts_brute(nfa: Nfa, word: str) -> bool:
    """NFA membership by a plain set simulation with an explicit epsilon
    closure, independent of the library's bitset walks."""
    current = _epsilon_closure_brute(nfa, nfa.initial)
    for ch in word:
        current = _step_brute(nfa, current, ch)
    return bool(current & nfa.accepting)


def determinize_brute(nfa: Nfa) -> Dfa:
    """Subset construction over frozensets with an explicit epsilon closure,
    independent of the library's bitset walks.  Subsets are numbered in BFS
    discovery order, symbols taken in alphabet order."""
    start = _epsilon_closure_brute(nfa, nfa.initial)
    ids = {start: 0}
    order = [start]
    rows = []
    for subset in order:
        row = []
        for ch in nfa.alphabet.symbols:
            target = _step_brute(nfa, subset, ch)
            if target not in ids:
                ids[target] = len(order)
                order.append(target)
            row.append(ids[target])
        rows.append(tuple(row))
    return Dfa(
        alphabet=nfa.alphabet,
        state_count=len(order),
        initial=0,
        accepting=frozenset(i for i, subset in enumerate(order) if subset & nfa.accepting),
        transitions=tuple(rows),
    )


def automaton_to_json_reference(nfa: Nfa) -> str:
    """The automaton JSON as one ``json.dumps`` of a document whose edge
    lists are sorted as tuples, independent of the library's row writer."""
    doc = {
        "alphabet": list(nfa.alphabet.symbols),
        "states": nfa.state_count,
        "initial": sorted(nfa.initial),
        "accepting": sorted(nfa.accepting),
        "edges": sorted(nfa.labeled_edges),
        "epsilon": sorted(nfa.epsilon_edges),
    }
    return json.dumps(doc, separators=(",", ":"))


def system_to_json_reference(system: SplicingSystem) -> str:
    """The system JSON as one ``json.dumps`` of a document whose rule list is
    built by iterating the system's rules, and whose axiom automaton is
    written by ``automaton_to_json_reference``; no writer of the library is
    used."""
    axioms = system.axioms
    if isinstance(axioms, tuple):
        axioms = ll_sorted(system.alphabet, set(axioms))
    else:
        nfa = axioms.to_nfa() if isinstance(axioms, Dfa) else axioms
        axioms = json.loads(automaton_to_json_reference(nfa))
    doc = {
        "variant": system.variant,
        "alphabet": list(system.alphabet.symbols),
        "axioms": axioms,
        "rules": [list(rule.components) for rule in system.rules],
    }
    return json.dumps(doc, separators=(",", ":"))


def has_cycle_brute(nfa: Nfa) -> bool:
    """Whether some state reaches itself in one or more steps, labeled and
    epsilon edges alike, by a walk from every state's successors."""
    succ: dict[int, set[int]] = {}
    for p, _sym, q in nfa.labeled_edges:
        succ.setdefault(p, set()).add(q)
    for p, q in nfa.epsilon_edges:
        succ.setdefault(p, set()).add(q)
    for s in range(nfa.state_count):
        seen: set[int] = set()
        stack = list(succ.get(s, ()))
        while stack:
            t = stack.pop()
            if t == s:
                return True
            if t not in seen:
                seen.add(t)
                stack.extend(succ.get(t, ()))
    return False


def _walk(start, steps) -> set[int]:
    """The states reached from start along the (source, target) pairs, by a
    plain stack walk."""
    succ: dict[int, list[int]] = {}
    for p, q in steps:
        succ.setdefault(p, []).append(q)
    seen, stack = set(start), list(start)
    while stack:
        for q in succ.get(stack.pop(), ()):
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


def _edge_pairs(nfa: Nfa) -> set[tuple[int, int]]:
    return {(p, q) for p, _sym, q in nfa.labeled_edges} | nfa.epsilon_edges


def coreachable_brute(nfa: Nfa) -> set[int]:
    """The states from which an accepting state can be reached, by a stack
    walk backwards over the edge sets."""
    return _walk(nfa.accepting, {(q, p) for p, q in _edge_pairs(nfa)})


def reachable_brute(nfa: Nfa) -> set[int]:
    """The states an initial state reaches, by a stack walk over the edge
    sets."""
    return _walk(nfa.initial, _edge_pairs(nfa))


def useful_brute(nfa: Nfa) -> set[int]:
    """The states both reachable and co-reachable, by stack walks over the
    edge sets."""
    return reachable_brute(nfa) & coreachable_brute(nfa)


def trim_brute(nfa: Nfa) -> Nfa:
    """The useful states, renumbered in ascending order."""
    keep = useful_brute(nfa)
    renum = {s: i for i, s in enumerate(sorted(keep))}
    return Nfa.from_edges(
        alphabet=nfa.alphabet,
        state_count=len(renum),
        initial=frozenset(renum[s] for s in nfa.initial if s in keep),
        accepting=frozenset(renum[s] for s in nfa.accepting if s in keep),
        labeled_edges=frozenset(
            (renum[p], sym, renum[q])
            for p, sym, q in nfa.labeled_edges
            if p in keep and q in keep
        ),
        epsilon_edges=frozenset(
            (renum[p], renum[q]) for p, q in nfa.epsilon_edges if p in keep and q in keep
        ),
    )


def neighbour_split(rows, step: int) -> tuple[int, int]:
    """The mask of the states p whose row holds p + step, and the mask of
    those whose row holds any other state, one state at a time."""
    shift = rest = 0
    for p, row in enumerate(rows):
        near = 1 << p + step if p + step >= 0 else 0
        if row & near:
            shift |= 1 << p
        if row & ~near:
            rest |= 1 << p
    return shift, rest


def random_min_dfa(rng: random.Random, alphabet: Alphabet, max_states: int) -> Dfa:
    """A random minimal complete DFA with at most max_states states."""
    n = rng.randint(1, max_states)
    transitions = tuple(
        tuple(rng.randrange(n) for _ in alphabet.symbols) for _ in range(n)
    )
    accepting = frozenset(s for s in range(n) if rng.random() < 0.5)
    return minimize(
        Dfa(
            alphabet=alphabet,
            state_count=n,
            initial=0,
            accepting=accepting,
            transitions=transitions,
        )
    )


def is_factor_brute(dfa: Dfa, word: str) -> bool:
    """Whether x·word·y is accepted for some words x and y: contexts shorter
    than the state count suffice, since a shortest path into a state, or
    from one to an accepting state, repeats no state."""
    context = list(words_shorter_than(dfa.alphabet, dfa.state_count))
    return any(dfa.accepts(x + word + y) for x in context for y in context)


def factor_site_system(system: SplicingSystem, dfa: Dfa) -> SplicingSystem:
    """The system with only the rules whose left and right sites are both
    factors of the DFA's language, in their order; each site word is
    checked once."""
    seen: dict[str, bool] = {}

    def factor(site: str) -> bool:
        if site not in seen:
            seen[site] = is_factor_brute(dfa, site)
        return seen[site]

    kept = tuple(
        rule for rule in system.rules if all(map(factor, triplet_form(rule)[:2]))
    )
    return SplicingSystem(system.variant, system.alphabet, system.axioms, kept)


def random_word(rng: random.Random, alphabet: Alphabet, max_len: int) -> str:
    return "".join(rng.choice(alphabet.symbols) for _ in range(rng.randint(0, max_len)))


def random_classic_rule(rng, alphabet, max_len) -> ClassicRule:
    return ClassicRule(*(random_word(rng, alphabet, max_len) for _ in range(4)))


def random_pixton_rule(rng, alphabet, max_len) -> PixtonRule:
    return PixtonRule(*(random_word(rng, alphabet, max_len) for _ in range(3)))


def reverse(rule):
    """The mirror image of a rule: classic (u1,v1;u2,v2) becomes
    (v2ᴿ,u2ᴿ;v1ᴿ,u1ᴿ) and triplet (u1,u2;v) becomes (u2ᴿ,u1ᴿ;vᴿ), so that
    the rule splices (w1, w2) to z iff its mirror splices (w2ᴿ, w1ᴿ) to zᴿ.
    Component lengths keep their bounds under the mirror."""
    if isinstance(rule, ClassicRule):
        return ClassicRule(rule.v2[::-1], rule.u2[::-1], rule.v1[::-1], rule.u1[::-1])
    return PixtonRule(rule.u2[::-1], rule.u1[::-1], rule.v[::-1])


def rename(rule, swap: dict[str, str]):
    """The rule with every letter of its components renamed by ``swap``, so
    that it splices (w1, w2) to z iff its image splices the renamed words to
    the renamed z.  Lengths, and so bounds, are kept."""
    table = str.maketrans(swap)
    return type(rule)(*(c.translate(table) for c in rule.components))


def renamed_dfa(dfa: Dfa, swap: dict[str, str]) -> Dfa:
    """The automaton of the renamed language: the same table over the renamed
    symbols, kept in their places, so the alphabet order is renamed too and
    ll-order maps onto ll-order."""
    symbols = tuple(swap.get(s, s) for s in dfa.alphabet.symbols)
    return Dfa(Alphabet(symbols), dfa.state_count, dfa.initial, dfa.accepting, dfa.transitions)


def reversed_dfa(dfa: Dfa) -> Dfa:
    """Minimal DFA of the mirror language: every edge turned around, initial
    and accepting states swapped, then the brute subset construction."""
    edges = frozenset(
        (dfa.transitions[p][i], sym, p)
        for p in range(dfa.state_count)
        for i, sym in enumerate(dfa.alphabet.symbols)
    )
    mirror = Nfa.from_edges(
        dfa.alphabet, dfa.state_count, dfa.accepting, frozenset({dfa.initial}),
        edges, frozenset(),
    )
    return minimize(determinize_brute(mirror))


def congruence_classes_brute(
    lang: Dfa, words: list[str], context_len: int
) -> dict[str, int]:
    """Word -> class id under brute-force syntactic congruence.

    Two words are congruent when every context (x, y) with |x|, |y| up to
    context_len treats them alike.  For a minimal complete DFA with n states
    contexts of length n are exact: every state is reached by a word shorter
    than n and distinct states are separated by a word shorter than n.
    """
    contexts = all_words_upto(lang.alphabet, context_len)
    signatures: dict[tuple, int] = {}
    out: dict[str, int] = {}
    for w in words:
        sig = tuple(
            lang.accepts(x + w + y) for x in contexts for y in contexts
        )
        if sig not in signatures:
            signatures[sig] = len(signatures)
        out[w] = signatures[sig]
    return out


def word_level_rules(ctx, alphabet: Alphabet, bounds) -> tuple:
    """Respecting rules by brute enumeration: every word tuple within the
    bounds, in component order (first component slowest, each pool in
    ll-order), kept when ``ctx.verdict`` passes the flank triple of its
    words' classes, each pool word classed once with ``class_of``; a rule
    object is built only for the tuples kept."""
    pools = [
        [(word, ctx.monoid.class_of(word)) for word in words_shorter_than(alphabet, lt)]
        for lt in bounds.component_lts
    ]
    make = ClassicRule if bounds.variant == "classic" else PixtonRule
    rules = []
    for combo in itertools.product(*pools):
        words, classes = zip(*combo)
        if ctx.verdict(*triplet(classes, ctx.product)):
            rules.append(make(*words))
    return tuple(rules)


def minimize_moore(dfa: Dfa) -> Dfa:
    """Moore's refinement, the reference for ``minimize``: one signature pass
    per distinguishing length, then the same canonical BFS renumbering."""
    n = dfa.state_count
    # Restrict to reachable states first.
    reach = [dfa.initial]
    seen = {dfa.initial}
    for s in reach:
        for t in dfa.transitions[s]:
            if t not in seen:
                seen.add(t)
                reach.append(t)
    states = reach
    cls = {s: (1 if s in dfa.accepting else 0) for s in states}
    while True:
        sigs: dict[tuple, int] = {}
        new_cls = {}
        for s in states:
            sig = (cls[s],) + tuple(
                cls[dfa.transitions[s][i]] for i in range(len(dfa.alphabet))
            )
            if sig not in sigs:
                sigs[sig] = len(sigs)
            new_cls[s] = sigs[sig]
        if len(sigs) == len(set(cls.values())):
            cls = new_cls
            break
        cls = new_cls
    # Canonical renumbering by BFS from the initial class.
    rep_of_class: dict[int, int] = {}
    for s in states:
        rep_of_class.setdefault(cls[s], s)
    numbering = {cls[dfa.initial]: 0}
    order = [cls[dfa.initial]]
    for c in order:
        rep = rep_of_class[c]
        for i in range(len(dfa.alphabet)):
            tc = cls[dfa.transitions[rep][i]]
            if tc not in numbering:
                numbering[tc] = len(order)
                order.append(tc)
    rows = []
    for c in order:
        rep = rep_of_class[c]
        rows.append(
            tuple(numbering[cls[dfa.transitions[rep][i]]] for i in range(len(dfa.alphabet)))
        )
    accepting = frozenset(
        numbering[c] for c in order if rep_of_class[c] in dfa.accepting
    )
    return Dfa(
        alphabet=dfa.alphabet,
        state_count=len(order),
        initial=0,
        accepting=accepting,
        transitions=tuple(rows),
    )


def flank_verdict_reference(monoid, h_left: int, h_right: int, h_mid: int) -> bool:
    """The respect verdict of a flank triple by its formula, with no mask,
    row or memo: the classes x that can precede the left site inside L
    and the classes y that can follow the right site, then every
    x·mid·y must be accepting."""
    m, mul, acc = monoid.size, monoid.mul, monoid.accepting
    left_viable = [any(mul(e, y) in acc for y in range(m)) for e in range(m)]
    right_viable = [any(mul(x, e) in acc for x in range(m)) for e in range(m)]
    s1 = [x for x in range(m) if left_viable[mul(x, h_left)]]
    s2 = [y for y in range(m) if right_viable[mul(h_right, y)]]
    mids = {mul(x, h_mid) for x in s1}
    return all(mul(mid, y) in acc for mid in mids for y in s2)


def respect_verdict_reference(monoid, key: tuple) -> bool:
    """The class-tuple respect verdict: the flank triple worked out by hand,
    then ``flank_verdict_reference``.  Keys are ("c", u1, v1, u2, v2) or
    ("p", u1, u2, v) in class ids."""
    mul = monoid.mul
    if key[0] == "p":
        _, h_left, h_right, h_mid = key
    else:
        _, hu1, hv1, hu2, hv2 = key
        h_left, h_right, h_mid = mul(hu1, hv1), mul(hu2, hv2), mul(hu1, hv2)
    return flank_verdict_reference(monoid, h_left, h_right, h_mid)


def _edge_rows(
    nfa: Nfa, backward: bool = False
) -> tuple[dict[str, list[int]], list[int]]:
    """Per-symbol and epsilon successor masks, one int per state; with
    ``backward``, predecessor masks."""
    fwd = {sym: [0] * nfa.state_count for sym in nfa.alphabet.symbols}
    eps = [0] * nfa.state_count
    for p, sym, q in nfa.labeled_edges:
        p, q = (q, p) if backward else (p, q)
        fwd[sym][p] |= 1 << q
    for p, q in nfa.epsilon_edges:
        p, q = (q, p) if backward else (p, q)
        eps[p] |= 1 << q
    return fwd, eps


def _reach(start: int, rows: list[list[int]]) -> int:
    """States reachable from the mask start along the per-state successor
    masks of every relation in rows."""
    seen = frontier = start
    while frontier:
        step = 0
        for s in _bits(frontier):
            for row in rows:
                step |= row[s]
        frontier = step & ~seen
        seen |= frontier
    return seen


def _read_prefixes(
    start: int, words, moves: dict[str, list[int]], eps: list[int]
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
                reached[prefix] = _reach(step, [eps])
    return reached


def build_closure_reference(system: SplicingSystem, monoid=None) -> ClosureAutomaton:
    """Saturation that recomputes every round from scratch, the reference
    for ``build_closure`` on a tuple of rules or a classic rule product:
    reachability over every state's edge row, and each site prefix's set
    from the whole set of the prefix one letter shorter, closed along
    per-state epsilon rows that the round's new edges extend.

    The base is built by hand from the system's rule objects.  A classic
    rule (u1, v1, u2, v2) reads its head u1 from the left hub of u1·v1 and
    cuts u2·v2 after u2; a triplet (u1, u2; v) reads its head v from the
    left hub of u1 and cuts u2 at its end.  Each read is tagged with its
    two words, (u1, v1) and (u2, v2) or (u1, v) and (u2, ""), or, given a
    monoid or for a rule product, with their classes under it (the
    product's own monoid unless one is given), and the rule joins the two
    tags.  States are numbered: the axiom states; each left site in
    ll-order, its hub and then one state per distinct non-empty prefix of
    its heads, in lexicographic order, entered from the state of the
    prefix one letter shorter; each right site in ll-order, one state per
    position from its first cut to its end, the last being its hub.  Every
    head state has an epsilon edge to every cut state whose tag some rule
    joins to its own; the edges into the states of one right tag come from
    the same states, and form one biclique, the bicliques in the order of
    their lowest target.
    """
    rules = tuple(system.rules)
    if monoid is None and isinstance(system.rules, RuleProduct):
        monoid = system.rules.monoid

    def tag(u: str, v: str):
        return (u, v) if monoid is None else (monoid.class_of(u), monoid.class_of(v))

    left_heads: dict[str, dict[str, object]] = {}  # left site -> head -> tag
    right_cuts: dict[str, dict[int, object]] = {}  # right site -> cut -> tag
    joined: set[tuple[object, object]] = set()
    for rule in rules:
        if isinstance(rule, ClassicRule):
            left, head, left_tag = rule.u1 + rule.v1, rule.u1, tag(rule.u1, rule.v1)
            right, cut, right_tag = rule.u2 + rule.v2, len(rule.u2), tag(rule.u2, rule.v2)
        else:
            left, head, left_tag = rule.u1, rule.v, tag(rule.u1, rule.v)
            right, cut, right_tag = rule.u2, len(rule.u2), tag(rule.u2, "")
        left_heads.setdefault(left, {})[head] = left_tag
        right_cuts.setdefault(right, {})[cut] = right_tag
        joined.add((left_tag, right_tag))

    axioms = system.axiom_nfa()
    count = axioms.state_count
    labeled = set(axioms.labeled_edges)
    left_hub: dict[str, int] = {}
    right_hub: dict[str, int] = {}
    left_tag_of: dict[int, object] = {}
    right_tag_of: dict[int, object] = {}
    for site in ll_sorted(system.alphabet, left_heads):
        heads = left_heads[site]
        prefixes = {h[:i] for h in heads for i in range(1, len(h) + 1)}
        lex = sorted(prefixes, key=lambda w: [system.alphabet.index(c) for c in w])
        node = {"": count}  # prefix -> its state
        node.update((w, count + 1 + i) for i, w in enumerate(lex))
        for w in lex:
            labeled.add((node[w[:-1]], w[-1], node[w]))
        for head, head_tag in heads.items():
            left_tag_of[node[head]] = head_tag
        left_hub[site] = count
        count += 1 + len(lex)
    for site in ll_sorted(system.alphabet, right_cuts):
        cuts = right_cuts[site]
        first = min(cuts)
        for j in range(first, len(site) + 1):
            state = count + j - first
            if j in cuts:
                right_tag_of[state] = cuts[j]
            if j > first:
                labeled.add((state - 1, site[j - 1], state))
        count += len(site) - first + 1
        right_hub[site] = count - 1

    groups: dict[object, set[tuple[int, int]]] = {}  # right tag -> its edges
    for p, left in left_tag_of.items():
        for q, right in right_tag_of.items():
            if (left, right) in joined:
                groups.setdefault(right, set()).add((p, q))
    joins = []
    for edges in groups.values():
        sources = {p for p, _q in edges}
        targets = {q for _p, q in edges}
        assert len(edges) == len(sources) * len(targets), "a right tag's edges are no biclique"
        joins.append((_mask(sources), _mask(targets)))
    joins.sort(key=lambda biclique: min(_bits(biclique[1])))
    letters = Nfa.from_edges(
        system.alphabet, count, axioms.initial, axioms.accepting,
        frozenset(labeled), axioms.epsilon_edges,
    )
    base = replace(letters, epsilon=letters.epsilon + tuple(joins))
    return _saturate_reference(base, left_hub, right_hub)


def build_gadget_closure_reference(system: SplicingSystem) -> ClosureAutomaton:
    """The reference for ``build_closure`` on a triplet rule product whose
    bridge pool is every word shorter than its bound: one class x length
    gadget per left-site class, built from scratch and saturated as
    ``build_closure_reference`` saturates.

    A gadget state is the (class, length) pair of a bridge word, and its
    letter edges and right-site feeds are read off the pool word by word,
    into per-state rows.  A gadget keeps the states from which a state that
    feeds a right hub can be reached.  States are numbered in blocks: the
    axiom states; the left hubs in the pool order of their sites; the
    gadgets in the order their classes first appear among the left sites,
    each state in the pool order of its first bridge word; the right hubs
    in the pool order of their sites.
    """
    rules = system.rules
    (lefts, left_classes), (rights, right_classes), (bridges, bridge_classes) = rules.pools
    symbols = system.alphabet.symbols
    position = {w: i for i, w in enumerate(bridges)}
    label = [(c, len(w)) for w, c in zip(bridges, bridge_classes)]  # per pool word
    succ: dict[tuple[int, int], dict[str, tuple[int, int]]] = {}
    for i, w in enumerate(bridges):
        row = succ.setdefault(label[i], {})
        for sym in symbols:
            j = position.get(w + sym)
            if j is not None:
                assert row.setdefault(sym, label[j]) == label[j], "classes follow no action"
    right_of = {}  # right-site class -> its words
    for u2, c2 in zip(rights, right_classes):
        right_of.setdefault(c2, []).append(u2)

    def feeds(c1, state):
        return [u2 for c2 in right_of if (c1, c2, state[0]) in rules.tuples for u2 in right_of[c2]]

    backward = {(q, p) for p, row in succ.items() for q in row.values()}
    gadgets: dict[int, list[tuple[int, int]]] = {}
    for c1 in dict.fromkeys(left_classes):
        alive = _walk({state for state in succ if feeds(c1, state)}, backward)
        states = list(dict.fromkeys(s for s in label if s in alive))
        if label[0] in alive:
            gadgets[c1] = states

    axioms = system.axiom_nfa()
    count = axioms.state_count
    left_hub: dict[str, int] = {}
    for u1, c1 in zip(lefts, left_classes):
        if c1 in gadgets:
            left_hub[u1] = count
            count += 1
    number: dict[tuple[int, tuple[int, int]], int] = {}
    for c1, states in gadgets.items():
        for state in states:
            number[c1, state] = count
            count += 1
    right_hub: dict[str, int] = {}
    for u2 in rights:
        if any(u2 in feeds(c1, state) for c1, state in number):
            right_hub[u2] = count
            count += 1

    labeled = set(axioms.labeled_edges)
    static_eps = set(axioms.epsilon_edges)
    for u1, c1 in zip(lefts, left_classes):
        if c1 in gadgets:
            static_eps.add((left_hub[u1], number[c1, label[0]]))
    for (c1, state), p in number.items():
        for sym, nxt in succ[state].items():
            if (c1, nxt) in number:
                labeled.add((p, sym, number[c1, nxt]))
        for u2 in feeds(c1, state):
            static_eps.add((p, right_hub[u2]))
    base = Nfa.from_edges(
        system.alphabet, count, axioms.initial, axioms.accepting,
        frozenset(labeled), frozenset(static_eps),
    )
    return _saturate_reference(base, left_hub, right_hub)


def _saturate_reference(
    base: Nfa, left_hub: dict[str, int], right_hub: dict[str, int]
) -> ClosureAutomaton:
    """Saturate the base automaton from scratch every round, the hubs read
    in the order the dicts give them."""
    count = base.state_count
    fwd, eps_fwd = _edge_rows(base)
    bwd, eps_bwd = _edge_rows(base, backward=True)
    initial = _mask(base.initial)
    accepting = _mask(base.accepting)
    left_seen = dict.fromkeys(left_hub, 0)
    right_seen = dict.fromkeys(right_hub, 0)
    added: list[AddedEdge] = []
    growth: list[Growth] = []
    rounds = 0
    while True:
        # A round's edges are added at its end, so its reads see one automaton.
        reach = _reach(initial, [eps_fwd, *fwd.values()])
        coreach = _reach(accepting, [eps_bwd, *bwd.values()])
        post = _read_prefixes(reach, right_hub, fwd, eps_fwd)
        pre = _read_prefixes(coreach, [site[::-1] for site in left_hub], bwd, eps_bwd)
        new_edges: list[AddedEdge] = []
        for site, hub in left_hub.items():
            new = reach & pre[site[::-1]] & ~left_seen[site]
            for p in _bits(new):
                new_edges.append(AddedEdge(p, hub, site, "in", rounds + 1))
            if new:
                growth.append(Growth(rounds + 1, "in", site, hub, new))
            left_seen[site] |= new
        for site, hub in right_hub.items():
            new = coreach & post[site] & ~right_seen[site]
            for q in _bits(new):
                new_edges.append(AddedEdge(hub, q, site, "out", rounds + 1))
            if new:
                growth.append(Growth(rounds + 1, "out", site, hub, new))
            right_seen[site] |= new
        if not new_edges:
            break
        rounds += 1
        if rounds > count * count:
            raise AssertionError("saturation failed to converge within |states|^2 rounds")
        for edge in new_edges:
            eps_fwd[edge.src] |= 1 << edge.dst
            eps_bwd[edge.dst] |= 1 << edge.src
        added.extend(new_edges)
    closure = ClosureAutomaton(
        base=base,
        left_hubs=tuple(sorted(left_hub.items())),
        right_hubs=tuple(sorted(right_hub.items())),
        growth=tuple(growth),
        rounds=rounds,
    )
    # The growth masks are the whole record of saturation: the derived view
    # must give back exactly the edges found here, in the same order.
    assert closure.added == tuple(added)
    return closure
