"""A deliberately minimal regex dialect compiled to NFAs.

Supported: literals from the working alphabet, concatenation, alternation
``|``, repetition ``*`` and ``+``, grouping ``(...)``, and the empty group
``()`` denoting the empty word.  No character classes, escapes, or anchors;
inputs in this domain are tiny and the dialect stays trivially auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Alphabet, Nfa, NfaBuilder
from .errors import RegexSyntaxError


@dataclass
class _Fragment:
    start: int
    end: int


class _Parser:
    def __init__(self, text: str, alphabet: Alphabet, builder: NfaBuilder):
        self.text = text
        self.alphabet = alphabet
        self.b = builder
        self.pos = 0

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
        start, end = self.b.state(), self.b.state()
        for f in frags:
            self.b.eps_edge(start, f.start)
            self.b.eps_edge(f.end, end)
        return _Fragment(start, end)

    def concatenation(self) -> _Fragment:
        frags = []
        while self.peek() not in (None, "|", ")"):
            frags.append(self.postfix())
        if not frags:
            return self.epsilon()
        for left, right in zip(frags, frags[1:]):
            self.b.eps_edge(left.end, right.start)
        return _Fragment(frags[0].start, frags[-1].end)

    def postfix(self) -> _Fragment:
        frag = self.atom()
        while self.peek() in ("*", "+"):
            op = self.text[self.pos]
            self.pos += 1
            start, end = self.b.state(), self.b.state()
            self.b.eps_edge(start, frag.start)
            self.b.eps_edge(frag.end, frag.start)
            self.b.eps_edge(frag.end, end)
            if op == "*":
                self.b.eps_edge(start, end)
            frag = _Fragment(start, end)
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
        start, end = self.b.state(), self.b.state()
        self.b.edge(start, ch, end)
        return _Fragment(start, end)

    def epsilon(self) -> _Fragment:
        start, end = self.b.state(), self.b.state()
        self.b.eps_edge(start, end)
        return _Fragment(start, end)


def parse_regex(text: str, alphabet: Alphabet) -> Nfa:
    """Compile a pattern to an NFA accepting exactly the denoted language."""
    builder = NfaBuilder(alphabet)
    parser = _Parser(text, alphabet, builder)
    try:
        frag = parser.parse()
    except RecursionError:
        # the parser descends once per nesting level
        raise RegexSyntaxError("pattern nested too deeply", parser.pos) from None
    return builder.build(initial={frag.start}, accepting={frag.end})
