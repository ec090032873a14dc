"""Independent reference results; nothing here imports splicekit.

* ``check_closure_json`` walks an emitted automaton JSON with a plain
  set-based NFA simulation and compares it with ``re.fullmatch`` on every
  word up to a length.
* ``stabilized_closure_words`` computes the closure words of a splicing
  system up to length 6 by its own bounded fixpoint: per rule, it indexes the
  prefixes kept before a left site and the suffixes adopted after a right
  site, and joins new ones with all known ones each round.  It is stabilized
  as acceptance criterion 7 stabilizes the library's oracle.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import re


def _all_words(alphabet: str, max_len: int):
    for n in range(max_len + 1):
        for letters in itertools.product(alphabet, repeat=n):
            yield "".join(letters)


def nfa_words(doc: dict, max_len: int) -> set[str]:
    """Accepted words of length <= max_len of an automaton JSON document."""
    n = doc["states"]
    eps: list[list[int]] = [[] for _ in range(n)]
    for p, q in doc["epsilon"]:
        eps[p].append(q)
    moves = {sym: [[] for _ in range(n)] for sym in doc["alphabet"]}
    for p, sym, q in doc["edges"]:
        moves[sym][p].append(q)
    accepting = set(doc["accepting"])

    def close(states) -> frozenset[int]:
        seen = set(states)
        stack = list(seen)
        while stack:
            for q in eps[stack.pop()]:
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        return frozenset(seen)

    out = set()
    level = [("", close(doc["initial"]))]
    for length in range(max_len + 1):
        following = []
        for word, states in level:
            if not accepting.isdisjoint(states):
                out.add(word)
            if length < max_len:
                for sym in doc["alphabet"]:
                    step = close(q for p in states for q in moves[sym][p])
                    if step:
                        following.append((word + sym, step))
        level = following
    return out


_checked: dict[tuple[str, str, int], str | None] = {}


def check_closure_json(path: str, python_re: str, max_len: int) -> str | None:
    """None if the automaton in ``path`` accepts exactly the words up to
    ``max_len`` that ``python_re`` fully matches; else what differs.

    Output is deterministic, so each distinct file content is checked once.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        return f"no closure automaton written: {exc}"
    key = (hashlib.sha256(raw).hexdigest(), python_re, max_len)
    if key not in _checked:
        doc = json.loads(raw)
        alphabet = "".join(doc["alphabet"])
        got = nfa_words(doc, max_len)
        want = {w for w in _all_words(alphabet, max_len) if re.fullmatch(python_re, w)}
        diff = sorted(got ^ want, key=lambda w: (len(w), w))[:5]
        _checked[key] = f"closure automaton differs from {python_re!r} on {diff}" if diff else None
    return _checked[key]


def _occurrences(word: str, factor: str) -> range | list[int]:
    if not factor:
        return range(len(word) + 1)
    return [k for k in range(len(word) - len(factor) + 1) if word.startswith(factor, k)]


def _as_triplet(variant: str, rule: tuple) -> tuple[str, str, str]:
    """(left site, right site, inserted word); a classic (u1,v1;u2,v2) is
    the triplet (u1v1, u2v2; u1v2)."""
    if variant == "classic":
        u1, v1, u2, v2 = rule
        return u1 + v1, u2 + v2, u1 + v2
    return rule


def bounded_words(variant: str, axioms, rules, cap: int) -> set[str]:
    """Least set holding the axioms up to ``cap`` and closed under splicing,
    with every result longer than ``cap`` dropped."""
    words = {w for w in axioms if len(w) <= cap}
    triplets = [_as_triplet(variant, r) for r in rules]
    prefixes = [set() for _ in triplets]
    suffixes = [dict() for _ in triplets]  # length -> suffixes of that length
    fresh = set(words)
    while fresh:
        produced = set()
        for (left, right, insert), known_x, known_y in zip(triplets, prefixes, suffixes):
            new_x = {w[:k] for w in fresh for k in _occurrences(w, left)} - known_x
            new_y = {w[k + len(right):] for w in fresh for k in _occurrences(w, right)}
            new_y -= {y for y in new_y if y in known_y.get(len(y), ())}
            for y in new_y:
                known_y.setdefault(len(y), set()).add(y)
            room = cap - len(insert)
            # new prefixes with every suffix, then old prefixes with new ones
            for x in new_x:
                for n in range(room - len(x) + 1):
                    for y in known_y.get(n, ()):
                        produced.add(x + insert + y)
            for x in known_x:
                for y in new_y:
                    if len(x) + len(y) <= room:
                        produced.add(x + insert + y)
            known_x |= new_x
        fresh = produced - words
        words |= fresh
    return words


@functools.lru_cache(maxsize=None)
def stabilized_closure_words(spec: tuple, report_len: int = 6) -> frozenset[str]:
    """Closure words up to ``report_len`` of (variant, axioms, rules).

    Raise the cap from max(report_len, longest axiom) until two consecutive
    caps agree, as criterion 7 does; raise if 29 raises do not settle it.
    """
    variant, axioms, rules = spec
    cap = max(report_len, max((len(w) for w in axioms), default=0))
    previous = bounded_words(variant, axioms, rules, cap)
    previous = frozenset(w for w in previous if len(w) <= report_len)
    for cap in range(cap + 1, cap + 30):
        current = frozenset(
            w for w in bounded_words(variant, axioms, rules, cap) if len(w) <= report_len
        )
        if current == previous:
            return current
        previous = current
    raise ValueError(f"reference oracle did not stabilize for {spec!r}")
