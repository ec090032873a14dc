"""A deliberately minimal regex dialect compiled to NFAs.

Supported: literals from the working alphabet, concatenation, alternation
``|``, repetition ``*`` and ``+``, grouping ``(...)``, and the empty group
``()`` denoting the empty word.  No character classes, escapes, or anchors;
inputs in this domain are tiny and the dialect stays trivially auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Alphabet, Nfa
from .errors import RegexSyntaxError


@dataclass
class _Fragment:
    start: int
    end: int


class _Parser:
    """Thompson's construction: each subexpression is a fragment of two
    fresh states, and the states are numbered as they are made."""

    def __init__(self, text: str, alphabet: Alphabet):
        self.text = text
        self.alphabet = alphabet
        self.pos = 0
        self.count = 0  # states made so far
        self.labeled: list[tuple[int, str, int]] = []
        self.eps: list[tuple[int, int]] = []

    def fragment(self) -> _Fragment:
        """Two fresh states, start and end."""
        self.count += 2
        return _Fragment(self.count - 2, self.count - 1)

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def parse(self) -> _Fragment:
        frag = self.alternation()
        if self.pos != len(self.text):
            raise RegexSyntaxError(f"unexpected {self.peek()!r}", self.pos)
        return frag

    def alternation(self) -> _Fragment:
        frags = [self.concatenation()]
        while self.peek() == "|":
            self.pos += 1
            frags.append(self.concatenation())
        if len(frags) == 1:
            return frags[0]
        frag = self.fragment()
        for f in frags:
            self.eps += [(frag.start, f.start), (f.end, frag.end)]
        return frag

    def concatenation(self) -> _Fragment:
        frags = []
        while self.peek() not in (None, "|", ")"):
            frags.append(self.postfix())
        if not frags:
            return self.epsilon()
        self.eps += [(left.end, right.start) for left, right in zip(frags, frags[1:])]
        return _Fragment(frags[0].start, frags[-1].end)

    def postfix(self) -> _Fragment:
        frag = self.atom()
        while self.peek() in ("*", "+"):
            op = self.text[self.pos]
            self.pos += 1
            loop = self.fragment()
            self.eps += [(loop.start, frag.start), (frag.end, frag.start), (frag.end, loop.end)]
            if op == "*":
                self.eps.append((loop.start, loop.end))
            frag = loop
        return frag

    def atom(self) -> _Fragment:
        ch = self.peek()
        if ch is None:
            raise RegexSyntaxError("unexpected end of pattern", self.pos)
        if ch == "(":
            open_pos = self.pos
            self.pos += 1
            frag = self.alternation()
            if self.peek() != ")":
                raise RegexSyntaxError("unbalanced '('", open_pos)
            self.pos += 1
            return frag
        if ch in ("*", "+"):
            raise RegexSyntaxError(f"{ch!r} needs a preceding expression", self.pos)
        if ch in (")", "|"):
            raise RegexSyntaxError(f"unexpected {ch!r}", self.pos)
        if ch not in self.alphabet:
            raise RegexSyntaxError(f"symbol {ch!r} not in alphabet", self.pos)
        self.pos += 1
        frag = self.fragment()
        self.labeled.append((frag.start, ch, frag.end))
        return frag

    def epsilon(self) -> _Fragment:
        frag = self.fragment()
        self.eps.append((frag.start, frag.end))
        return frag


def parse_regex(text: str, alphabet: Alphabet) -> Nfa:
    """Compile a pattern to an NFA accepting exactly the denoted language."""
    parser = _Parser(text, alphabet)
    try:
        frag = parser.parse()
    except RecursionError:
        # the parser descends once per nesting level
        raise RegexSyntaxError("pattern nested too deeply", parser.pos) from None
    return Nfa.from_edges(
        alphabet, parser.count, {frag.start}, {frag.end}, parser.labeled, parser.eps
    )
