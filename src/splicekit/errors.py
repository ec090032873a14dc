"""Exception hierarchy for splicekit, and the JSON field readers that report
malformed input files as ValueError."""

import json
from typing import Callable


class SpliceKitError(Exception):
    """Base class for all errors raised deliberately by this package."""


class RegexSyntaxError(SpliceKitError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class UnknownSymbolError(SpliceKitError):
    """A word contains a character outside the working alphabet."""


class AlphabetMismatchError(SpliceKitError):
    """Two automata were combined whose alphabets differ."""


class InfiniteAxiomLanguageError(SpliceKitError):
    """An axiom automaton accepts infinitely many words."""


class CandidateLimitExceededError(SpliceKitError):
    """The rule candidate space is too large to enumerate.

    Carries the exact count and the limit that was in force so callers can
    report both.
    """

    counted = "rule candidate space has {} elements"

    def __init__(self, candidates: int, limit: int):
        super().__init__(f"{self.counted.format(candidates)}, exceeding the limit of {limit}")
        self.candidates = candidates
        self.limit = limit


class PoolLimitExceededError(CandidateLimitExceededError):
    """The rule pools would spell more characters than the candidate limit;
    ``candidates`` holds that character count."""

    counted = "rule pools would spell {} characters"


class IllegalExtensionError(SpliceKitError):
    """An extension pattern does not exist for the rule variant."""


def json_parse(text):
    """The document a JSON text holds, or ``text`` if already decoded; a text
    nested past the decoder's recursion limit raises ValueError."""
    try:
        return json.loads(text) if isinstance(text, str) else text
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None


def json_field(doc, key: str, convert: Callable, default=None):
    """``convert(doc[key])``, or ``convert(default)`` when the key is absent
    and a default is given.  A document that is not an object, a missing
    key, or a value ``convert`` rejects raises ValueError naming the field."""
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, not {type(doc).__name__}")
    if key not in doc and default is None:
        raise ValueError(f"missing field {key!r}")
    try:
        return convert(doc.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {key!r}: {exc}") from None


def json_typed(value, kind: type):
    """value if its JSON type is kind (int or list), else ValueError: a
    JSON number with a fraction, a string or a bool is not an integer, and a
    string is not an array."""
    if type(value) is not kind:
        name = "an integer" if kind is int else "an array"
        raise ValueError(f"expected {name}, got {json.dumps(value)}")
    return value
