"""Exception hierarchy for splicekit, and the JSON field reader that reports
malformed input files as ValueError."""

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

    Carries the exact candidate count and the limit that was in force so
    callers can report both.
    """

    def __init__(self, candidates: int, limit: int):
        super().__init__(
            f"rule candidate space has {candidates} elements, "
            f"exceeding the limit of {limit}"
        )
        self.candidates = candidates
        self.limit = limit


class IllegalExtensionError(SpliceKitError):
    """An extension pattern does not exist for the rule variant."""


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
