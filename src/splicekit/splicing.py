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
canonical rule set kept symbolic.  The system JSON is written in chunks,
a product's per class-trie node (``_rule_chunks``).  The closure
construction reads a tuple rule by rule and a product through its pools and
class tuples; everything else reads a product's words by iterating it.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Callable, Iterator

from .automata import (
    Alphabet,
    Dfa,
    Nfa,
    automaton_chunks,
    automaton_from_json,
    determinize,
    enumerate_words,
    has_cycle,
    length_lex_key,
    minimize,
    occurrences,
    trim,
)
from .errors import InfiniteAxiomLanguageError, json_field, json_parse, json_typed
from .monoid import SyntacticMonoid, class_counts, class_pool, factor_classes

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
    """A rule set kept symbolic: every word tuple within ``component_lts``
    whose class tuple under ``monoid`` is in ``tuples``.

    ``component_lts`` holds one strict length bound per rule component, in
    the variant's component order, and ``tuples`` the allowed class tuples,
    the respecting ones for a canonical system.  ``pool`` gives one
    component's words, every word shorter than its bound in ll-order with
    the class of each (``monoid.class_pool``, which spells each bound once
    and keeps it on the monoid, so the products over one monoid, a
    ``factor_sites`` among them, share it).  The rules come
    in nested-loop order: first component slowest, each pool in ll-order.
    Nothing per rule is stored and ``len`` spells no word: it multiplies
    the word counts of each class (``monoid.class_counts``) over the
    tuples.  Iteration, the one reader of the words, builds the rule
    objects as it goes.  Every bound must be at least 1, as in
    ``BoundsProfile``.
    """

    variant: str
    monoid: SyntacticMonoid
    component_lts: tuple[int, ...]
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self):
        arity = len(fields(_rule_type(self.variant)))
        if len(self.component_lts) != arity or any(len(t) != arity for t in self.tuples):
            raise ValueError(f"{self.variant} rule products need {arity} components")
        if min(self.component_lts) < 1:
            raise ValueError("all bounds must be at least 1")

    def pool(self, depth: int) -> tuple[tuple[str, ...], tuple[int, ...]]:
        """The words of component ``depth`` in ll-order and the class of
        each."""
        return class_pool(self.monoid, self.component_lts[depth])

    @property
    def pools(self) -> tuple[tuple[tuple[str, ...], tuple[int, ...]], ...]:
        """Every component's ``pool``."""
        return tuple(map(self.pool, range(len(self.component_lts))))

    @cached_property
    def factor_sites(self) -> "RuleProduct":
        """The sub-product of the tuples whose left and right sites are both
        factor classes (``monoid.factor_classes``): the rules that can fire
        on words of the language.  ``decide.canonical_rules`` fills it in
        the pass that finds the tuples; otherwise each tuple's sites come
        from ``triplet``."""
        factors, mul = factor_classes(self.monoid), self.monoid.mul
        firing = frozenset(t for t in self.tuples if factors.issuperset(triplet(t, mul)[:2]))
        return replace(self, tuples=firing)

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
        counted = {lt: class_counts(self.monoid, lt) for lt in set(self.component_lts)}
        counts = [counted[lt] for lt in self.component_lts]
        return sum(math.prod(n.get(c, 0) for n, c in zip(counts, t)) for t in self.tuples)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Rule]:
        """The rules in nested order, read run by run: a run is a choice of
        every component but the last that some rule extends, and the last
        words its trie node allows.

        The walk extends a prefix only by the pool words whose class the
        prefix's trie node allows, each node's pool filtered once, on its
        first visit; prefixes that end in one node share its tuple of last
        words.
        """
        make, last = _rule_type(self.variant), len(self.component_lts) - 1
        # id of a trie node -> (pool word, child node) for each word it
        # allows, or the words alone at the last component; the trie keeps
        # every node alive, so ids stay unique
        kept: dict[int, list | tuple] = {}

        def runs(depth: int, node: dict, prefix: tuple[str, ...]):
            got = kept.get(id(node))
            if got is None:
                words, classes = self.pool(depth)
                got = [(w, node[c]) for w, c in zip(words, classes) if c in node]
                if depth == last:
                    got = tuple(w for w, _child in got)
                kept[id(node)] = got
            if depth == last:
                yield prefix, got
                return
            for word, child in got:
                yield from runs(depth + 1, child, prefix + (word,))

        for prefix, lasts in runs(0, self._trie, ()):
            for word in lasts:
                yield make(*prefix, word)

    def __repr__(self) -> str:
        return f"RuleProduct({self.variant!r}, {len(self)} rules)"


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
    of a rule tuple is checked against the alphabet once; a product spells
    its words over its monoid's alphabet, which must be the system's.  An
    axiom automaton's alphabet is checked too; it may lack symbols of the
    system's or list them in another order.
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
            if self.rules.monoid.alphabet != self.alphabet:
                raise ValueError("the rule product's alphabet is not the system's")
        elif isinstance(self.rules, tuple):
            for rule in self.rules:
                if not isinstance(rule, want):
                    raise ValueError(f"{self.variant} system holds a {type(rule).__name__}")
            for word in dict.fromkeys(c for r in self.rules for c in r.components):
                self.alphabet.check_word(word)
        else:
            raise ValueError(
                f"rules must be a tuple or a RuleProduct, not a {type(self.rules).__name__}"
            )
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
    """One disjoint chain per axiom word, written into masks; deduplicated, ll-ordered."""
    words = sorted(set(words), key=length_lex_key(alphabet))
    count = sum(map(len, words)) + len(words)
    rows = [[0] * count for _ in alphabet.symbols]
    initial, accepting, state = [], [], 0
    for word in words:
        initial.append(state)
        for ch in word:
            rows[alphabet.index(ch)][state] = 1 << state + 1
            state += 1
        accepting.append(state)
        state += 1
    rows = tuple(map(tuple, rows))
    return Nfa._unchecked(alphabet, count, frozenset(initial), frozenset(accepting), rows, ())


def longest_rule_component(rules) -> int:
    return max((len(c) for r in rules for c in r.components), default=0)


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
        # Words over the cap are dropped once per first word, so that the
        # round never holds them all at once.
        produced: set[str] = set()
        older = sorted(current - frontier)
        fresh_pool = sorted(frontier)
        for rule in system.rules:
            for w1 in fresh_pool:
                row: set[str] = set()
                for w2 in fresh_pool:
                    row |= splice_words(w1, w2, rule)
                produced.update([z for z in row if len(z) <= cap_len])
            for w1 in older:
                row = set()
                for w2 in fresh_pool:
                    row |= splice_words(w1, w2, rule)
                    row |= splice_words(w2, w1, rule)
                produced.update([z for z in row if len(z) <= cap_len])
        frontier = produced - current
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
    """The system as compact JSON: ``system_chunks`` joined."""
    return "".join(system_chunks(system))


def system_chunks(system: SplicingSystem) -> Iterator[str]:
    """The system's compact JSON in chunks, made as they are asked for; an
    axiom automaton's chunks are spliced in as they come."""
    head = {"variant": system.variant, "alphabet": list(system.alphabet.symbols)}
    yield json.dumps(head, separators=(",", ":"))[:-1] + ',"axioms":'
    if isinstance(system.axioms, tuple):
        yield json.dumps(list(system.axiom_words()), separators=(",", ":"))
    else:
        yield from automaton_chunks(system.axioms)
    yield ',"rules":['
    yield from _rule_chunks(system.rules)
    yield "]}"


# Stands for the part of a rule's array not yet written; json.dumps never
# writes it raw, it escapes it as \u0000.
_HOLE = "\0"


def _rule_chunks(rules) -> Iterator[str]:
    """The rules' component arrays, comma-separated: the bytes ``json.dumps``
    writes inside the rule list.

    A tuple is one chunk.  A product is written per class-trie node: a
    node's text holds every rule tail below it, each led by ``_HOLE``, and
    its parent writes it once for each pool word of the node's class by
    putting the word's encoding in every hole with one ``str.replace``; the
    root yields one chunk per first-component word.  No per-rule string is
    made.
    """
    if not isinstance(rules, RuleProduct):
        yield json.dumps([list(r.components) for r in rules], separators=(",", ":"))[1:-1]
        return
    last = len(rules.component_lts) - 1
    pools = [(tuple(map(json.dumps, words)), classes) for words, classes in rules.pools]

    def text(depth: int, node: dict) -> str:
        """Every rule tail below ``node``, each led by ``_HOLE``."""
        if depth < last:
            return ",".join(tails(depth, node, _HOLE))
        return ",".join([_HOLE + code + "]" for code, c in zip(*pools[depth]) if c in node])

    def tails(depth: int, node: dict, lead: str) -> Iterator[str]:
        """For each pool word ``node`` allows that some rule extends, the
        rule tails below it with ``lead`` and the word's encoding in each
        hole; each child's text is made once."""
        made: dict[int, str] = {}
        for code, c in zip(*pools[depth]):
            child = node.get(c)
            if child is not None:
                tail = made.get(c)
                if tail is None:
                    tail = made[c] = text(depth + 1, child)
                if tail:
                    yield tail.replace(_HOLE, lead + code + ",")

    for i, chunk in enumerate(tails(0, rules._trie, "[")):
        if i:
            yield ","
        yield chunk


def system_from_json(text: str | dict) -> SplicingSystem:
    doc = json_parse(text)
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
        json_field(doc, "alphabet", lambda v: Alphabet(tuple(json_typed(v, list)))),
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
