"""Splicing rules, systems, single splicing steps, and the bounded oracle.

Two rule flavors are supported: the classic quadruple (u1,v1;u2,v2), which
cuts between u1/v1 and u2/v2 and recombines to x1 u1 v2 y2, and the triplet
form (u1,u2;v), which replaces everything from the left site onward in the
first word and up to the right site in the second word by the bridge v.
``triplet`` is the one map from a rule's components to (left site, right
site, insert), classic (u1,v1,u2,v2) to (u1v1, u2v2, u1v2), under a product:
concatenation gives ``triplet_form``, the exact triplet counterpart, and the
syntactic monoid's table the flank triple that respect reads.
``_rule_type`` maps a variant name to its rule class.

A system's rules are a tuple of rule objects or a ``RuleProduct``, the
canonical rule set kept symbolic.  Either is read as a stream of runs: rules
that share every component but the last, with the last components in order.
``site_groups`` maps each run through ``triplet`` for the closure
construction, and the system JSON is written from the runs.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Iterator

from .automata import (
    Alphabet,
    Dfa,
    Nfa,
    NfaBuilder,
    automaton_from_json,
    determinize,
    enumerate_words,
    has_cycle,
    length_lex_key,
    minimize,
    occurrences,
    trim,
)
from .automata import automaton_to_json as _automaton_json
from .errors import InfiniteAxiomLanguageError, json_field

CLASSIC = "classic"
PIXTON = "pixton"


@dataclass(frozen=True)
class ClassicRule:
    """Quadruple rule; left site u1v1, right site u2v2."""

    u1: str
    v1: str
    u2: str
    v2: str

    @property
    def components(self) -> tuple[str, str, str, str]:
        return (self.u1, self.v1, self.u2, self.v2)

    def pixton_equivalent(self) -> "PixtonRule":
        """The triplet performing exactly the same splicings."""
        return PixtonRule(*triplet_form(self))


@dataclass(frozen=True)
class PixtonRule:
    """Triplet rule; sites u1/u2 and bridge v."""

    u1: str
    u2: str
    v: str

    @property
    def components(self) -> tuple[str, str, str]:
        return (self.u1, self.u2, self.v)


Rule = ClassicRule | PixtonRule


def triplet(components: tuple, product: Callable) -> tuple:
    """(left site, right site, insert) of the rule with these components:
    (u1·v1, u2·v2, u1·v2) for a classic quadruple, a triplet unchanged.

    ``product`` multiplies two components: concatenation on words, the
    syntactic monoid's table on class ids.
    """
    if len(components) == 3:
        return components
    u1, v1, u2, v2 = components
    return product(u1, v1), product(u2, v2), product(u1, v2)


def triplet_form(rule: Rule) -> tuple[str, str, str]:
    """(left site, right site, insert word): the components of the triplet
    performing exactly the rule's splicings.

    The insert word is what a splicing writes between the retained prefix
    and the adopted suffix: u1·v2 for a classic rule, the bridge v for a
    triplet.
    """
    return triplet(rule.components, operator.add)


def _rule_type(variant: str) -> type[Rule]:
    """The rule class of a variant; its fields are the rule's components."""
    for name, rule_type in ((CLASSIC, ClassicRule), (PIXTON, PixtonRule)):
        if variant == name:
            return rule_type
    raise ValueError(f"unknown variant {variant!r}")


def splice_classic(w1: str, w2: str, r: ClassicRule) -> set[tuple[str, int]]:
    """All results of splicing w1 with w2, each with its splicing position.

    The position is the boundary between the retained prefix x1·u1 and the
    adopted suffix v2·y2 in the result.
    """
    out = set()
    left, right, insert = triplet_form(r)
    for k1 in occurrences(w1, left):
        x1 = w1[:k1]
        for k2 in occurrences(w2, right):
            out.add((x1 + insert + w2[k2 + len(right):], k1 + len(r.u1)))
    return out


def splice_pixton(w1: str, w2: str, r: PixtonRule) -> set[str]:
    """All words x1·v·y2 over factorizations w1 = x1 u1 y1, w2 = x2 u2 y2."""
    return splice_words(w1, w2, r)


def splice_words(w1: str, w2: str, rule: Rule) -> set[str]:
    """All words x1·insert·y2 over factorizations w1 = x1·left·y1 and
    w2 = x2·right·y2, where (left, right, insert) is the rule's triplet form."""
    left, right, insert = triplet_form(rule)
    out = set()
    for k1 in occurrences(w1, left):
        head = w1[:k1] + insert
        for k2 in occurrences(w2, right):
            out.add(head + w2[k2 + len(right):])
    return out


@dataclass(frozen=True, repr=False)
class RuleProduct:
    """A rule set kept symbolic: every word tuple, one word from each pool,
    whose class tuple is in ``tuples``.

    ``pools`` holds one (words in ll-order, the class of each word) pair per
    rule component, in the variant's component order; ``tuples`` holds the
    allowed class tuples, the respecting ones for a canonical system.  The
    rules come in nested-loop order: first component slowest, each pool in
    ll-order.  Nothing per rule is stored: ``len`` is a count over the
    tuples, and iteration builds the rule objects as it goes.
    """

    variant: str
    pools: tuple[tuple[tuple[str, ...], tuple[int, ...]], ...]
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self):
        arity = len(fields(_rule_type(self.variant)))
        if len(self.pools) != arity or any(len(t) != arity for t in self.tuples):
            raise ValueError(f"{self.variant} rule products need {arity} components")

    @cached_property
    def _trie(self) -> dict:
        """The tuples as a trie: class -> child node, one level per component."""
        trie: dict = {}
        for classes in self.tuples:
            node = trie
            for c in classes:
                node = node.setdefault(c, {})
        return trie

    @cached_property
    def _count(self) -> int:
        counts = [Counter(classes) for _words, classes in self.pools]
        return sum(math.prod(n[c] for n, c in zip(counts, t)) for t in self.tuples)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Rule]:
        make = _rule_type(self.variant)
        for prefix, lasts in self.runs():
            for word in lasts:
                yield make(*prefix, word)

    def __repr__(self) -> str:
        return f"RuleProduct({self.variant!r}, {len(self)} rules)"

    def runs(self) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
        """(prefix, last words) for each choice of every component but the
        last that some rule extends, in nested order; its rules are the
        prefix followed by each last word.

        The walk extends a prefix only by the pool words whose class the
        prefix's trie node allows, each node's pool filtered once, on its
        first visit; prefixes that end in one node share its tuple of last
        words.
        """
        last = len(self.pools) - 1
        # id of a trie node -> (pool word, child node) for each word it
        # allows, or the words alone at the last component; the trie keeps
        # every node alive, so ids stay unique
        kept: dict[int, list | tuple] = {}

        def allowed(depth: int, node: dict):
            got = kept.get(id(node))
            if got is None:
                words, classes = self.pools[depth]
                got = [(w, node[c]) for w, c in zip(words, classes) if c in node]
                if depth == last:
                    got = tuple(w for w, _child in got)
                kept[id(node)] = got
            return got

        def walk(depth: int, node: dict, prefix: tuple[str, ...]):
            if depth == last:
                lasts = allowed(depth, node)
                if lasts:
                    yield prefix, lasts
                return
            for word, child in allowed(depth, node):
                yield from walk(depth + 1, child, prefix + (word,))

        return walk(0, self._trie, ())

    def words(self) -> dict[str, None]:
        """Every component word of some rule, once, pool by pool in
        ll-order: the pool words whose class some tuple allows there."""
        used = [{t[depth] for t in self.tuples} for depth in range(len(self.pools))]
        return dict.fromkeys(
            w
            for (words, classes), allowed in zip(self.pools, used)
            for w, c in zip(words, classes)
            if c in allowed
        )


def _runs(rules) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
    """The rules as runs (prefix, last words); a tuple gives one run per rule."""
    if isinstance(rules, RuleProduct):
        return rules.runs()
    return ((r.components[:-1], r.components[-1:]) for r in rules)


def _component_words(rules) -> dict[str, None]:
    """Every component word of the rules, once, in first-seen order."""
    if isinstance(rules, RuleProduct):
        return rules.words()
    return dict.fromkeys(c for r in rules for c in r.components)


def site_groups(rules) -> Iterator[tuple[str, tuple[str, ...], tuple[str, ...]]]:
    """(left site, insert words, right sites) for each run of the rules, in
    order: the run's i-th rule writes insert word i between its left site
    and right site i.

    ``triplet`` maps a run as it maps one rule, with the run's last words in
    place of the last component: a word times them is one word per last
    word.  Each such tuple is built once per (word, last words) and shared
    by every later run that asks for it again.
    """
    spread: dict[tuple[str, tuple[str, ...]], tuple[str, ...]] = {}

    def product(a: str, b: str | tuple[str, ...]) -> str | tuple[str, ...]:
        if isinstance(b, str):
            return a + b
        got = spread.get((a, b))
        if got is None:
            got = spread[a, b] = tuple(a + w for w in b)
        return got

    for prefix, lasts in _runs(rules):
        left, right, insert = triplet((*prefix, lasts), product)
        # a triplet run shares its right site; a classic one spreads it
        rights = right if isinstance(right, tuple) else (right,) * len(lasts)
        yield left, insert, rights


def sigma_step(words: set[str], rules) -> set[str]:
    """One application of the splicing operator: the union over all rules."""
    out: set[str] = set()
    pool = sorted(words)
    for rule in rules:
        for w1 in pool:
            for w2 in pool:
                out |= splice_words(w1, w2, rule)
    return out


@dataclass(frozen=True)
class SplicingSystem:
    """Axioms plus rules of one variant.

    Axioms are either an explicit word tuple or an automaton whose language
    must be finite, and rules either a tuple of rule objects or a
    ``RuleProduct``: canonical systems keep both their large-but-regular
    axiom sets and their rule sets symbolic.  Each distinct component word
    is checked against the alphabet once, and so is an axiom automaton's
    alphabet, which may lack symbols of the system's or list them in
    another order.
    """

    variant: str
    alphabet: Alphabet
    axioms: tuple[str, ...] | Nfa | Dfa
    rules: tuple[Rule, ...] | RuleProduct

    def __post_init__(self):
        want = _rule_type(self.variant)
        if isinstance(self.rules, RuleProduct):
            if self.rules.variant != self.variant:
                raise ValueError(f"{self.variant} system holds {self.rules.variant} rules")
        elif isinstance(self.rules, tuple):
            for rule in self.rules:
                if not isinstance(rule, want):
                    raise ValueError(f"{self.variant} system holds a {type(rule).__name__}")
        else:
            raise ValueError(
                f"rules must be a tuple or a RuleProduct, not a {type(self.rules).__name__}"
            )
        for word in _component_words(self.rules):
            self.alphabet.check_word(word)
        if isinstance(self.axioms, tuple):
            for w in self.axioms:
                self.alphabet.check_word(w)
        elif isinstance(self.axioms, (Nfa, Dfa)):
            self.alphabet.check_word("".join(self.axioms.alphabet.symbols))

    @property
    def symbolic_axioms(self) -> bool:
        return not isinstance(self.axioms, tuple)

    def axiom_nfa(self) -> Nfa:
        """Trimmed automaton for the axiom set; rejects infinite languages."""
        if isinstance(self.axioms, tuple):
            return _chains_nfa(self.alphabet, self.axioms)
        nfa = self.axioms.to_nfa() if isinstance(self.axioms, Dfa) else self.axioms
        trimmed = trim(nfa)
        if has_cycle(trimmed):
            raise InfiniteAxiomLanguageError("axiom automaton accepts an infinite language")
        return trimmed

    def axiom_words(self) -> tuple[str, ...]:
        """The axiom set as an ll-ordered word tuple (enumerated if symbolic)."""
        if isinstance(self.axioms, tuple):
            return tuple(sorted(set(self.axioms), key=length_lex_key(self.alphabet)))
        trimmed = self.axiom_nfa()
        dfa = minimize(determinize(trimmed))
        # A trimmed acyclic automaton accepts no word longer than its path count.
        return tuple(enumerate_words(dfa, max(trimmed.state_count, 1)))


def _chains_nfa(alphabet: Alphabet, words: tuple[str, ...]) -> Nfa:
    """One disjoint chain per axiom word; deduplicated, ll-ordered."""
    builder = NfaBuilder(alphabet)
    initial, accepting = [], []
    for word in sorted(set(words), key=length_lex_key(alphabet)):
        state = builder.state()
        initial.append(state)
        for ch in word:
            nxt = builder.state()
            builder.edge(state, ch, nxt)
            state = nxt
        accepting.append(state)
    return builder.build(initial, accepting)


def longest_rule_component(rules) -> int:
    return max(map(len, _component_words(rules)), default=0)


def default_cap_len(system: SplicingSystem, report_len: int) -> int:
    """Heuristic headroom for intermediate words in the bounded oracle."""
    longest_axiom = max((len(w) for w in system.axiom_words()), default=0)
    return report_len + 2 * (longest_axiom + longest_rule_component(system.rules))


def bounded_closure(
    system: SplicingSystem, report_len: int, cap_len: int | None = None
) -> set[str]:
    """Truncated fixpoint of the splicing operator, reported up to report_len.

    Words longer than cap_len are discarded each round, so the result is a
    sound under-approximation of the closure restricted to length
    <= report_len: every returned word is derivable, but derivations passing
    through words longer than cap_len are lost.  Test oracle, not a decision
    procedure.
    """
    if report_len < 0:
        raise ValueError("report_len must be non-negative")
    if cap_len is None:
        cap_len = default_cap_len(system, report_len)
    if cap_len < report_len:
        raise ValueError("cap_len must be at least report_len")
    current = {w for w in system.axiom_words() if len(w) <= cap_len}
    frontier = set(current)
    while frontier:
        # Pairs of older words were spliced in the round both became known,
        # so only pairs touching the frontier can contribute anything new.
        produced: set[str] = set()
        older = sorted(current - frontier)
        fresh_pool = sorted(frontier)
        for rule in system.rules:
            for w1 in fresh_pool:
                for w2 in fresh_pool:
                    produced |= splice_words(w1, w2, rule)
            for w1 in older:
                for w2 in fresh_pool:
                    produced |= splice_words(w1, w2, rule)
                    produced |= splice_words(w2, w1, rule)
        frontier = {z for z in produced if len(z) <= cap_len} - current
        current |= frontier
    return {w for w in current if len(w) <= report_len}


# -- rule/system text and JSON forms ------------------------------------------


def parse_rule(text: str, variant: str, alphabet: Alphabet) -> Rule:
    """CLI rule syntax: classic "u1,v1;u2,v2", triplet "u1,u2;v"."""
    halves = text.split(";")
    if len(halves) != 2:
        raise ValueError(f"rule {text!r} must contain exactly one ';'")
    make = _rule_type(variant)
    names = [f.name for f in fields(make)]
    left, right = (half.split(",") for half in halves)
    if len(left) != 2 or len(left) + len(right) != len(names):
        # the syntax, spelled with the component names
        raise ValueError(f"{variant} rule {text!r} must be {rule_to_text(make(*names))!r}")
    rule = make(*left, *right)
    for comp in rule.components:
        alphabet.check_word(comp)
    return rule


def rule_to_text(rule: Rule) -> str:
    """The first two components, then ';' and the rest, comma-separated."""
    return ",".join(rule.components[:2]) + ";" + ",".join(rule.components[2:])


def system_to_json(system: SplicingSystem) -> str:
    """The system as compact JSON; the rules are written run by run."""
    if isinstance(system.axioms, tuple):
        axioms = list(system.axiom_words())
    else:
        axioms = json.loads(_automaton_json(system.axioms))
    doc = {
        "variant": system.variant,
        "alphabet": list(system.alphabet.symbols),
        "axioms": axioms,
    }
    head = json.dumps(doc, separators=(",", ":"))
    return "".join((head[:-1], ',"rules":[', _rules_json(system.rules), "]}"))


def _rules_json(rules) -> str:
    """The rules' component arrays, comma-separated: the bytes ``json.dumps``
    writes inside the rule list, with each distinct word encoded once."""
    encoded: dict[str, str] = {}
    # a run's last words, each encoded and closing its rule's array
    closers: dict[tuple[str, ...], tuple[str, ...]] = {}

    def encode(word: str) -> str:
        got = encoded.get(word)
        if got is None:
            got = encoded[word] = json.dumps(word)
        return got

    parts: list[str] = []
    for prefix, lasts in _runs(rules):
        ends = closers.get(lasts)
        if ends is None:
            ends = closers[lasts] = tuple(encode(w) + "]" for w in lasts)
        head = "[" + "".join(encode(w) + "," for w in prefix)
        parts.append(",".join([head + end for end in ends]))
    return ",".join(parts)


def system_from_json(text: str | dict) -> SplicingSystem:
    doc = json.loads(text) if isinstance(text, str) else text
    make = json_field(doc, "variant", _rule_type)
    variant, arity = doc["variant"], len(fields(make))

    def axioms(raw) -> tuple[str, ...] | Nfa:
        if isinstance(raw, dict):
            return automaton_from_json(raw)
        return _strings(raw, "axioms must be a list of words or an automaton")

    def rules(raw) -> tuple[Rule, ...]:
        shape = f"{variant} rules serialize as {arity}-element arrays of words"
        return tuple(make(*_strings(comps, shape, arity)) for comps in raw)

    return SplicingSystem(
        variant,
        json_field(doc, "alphabet", lambda v: Alphabet(tuple(v))),
        json_field(doc, "axioms", axioms),
        json_field(doc, "rules", rules),
    )


def _strings(raw, shape: str, arity: int | None = None) -> tuple[str, ...]:
    """raw as a tuple of strings, of the given length if one is given."""
    if not isinstance(raw, list) or not all(isinstance(w, str) for w in raw):
        raise ValueError(shape)
    if arity is not None and len(raw) != arity:
        raise ValueError(shape)
    return tuple(raw)
