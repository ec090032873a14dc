"""splicekit: splicing systems over regular languages.

Represents classic and triplet (Pixton-style) splicing systems, builds a
finite automaton for the language a system generates, decides whether a
rule respects a regular language, and decides, at desk scale, whether a
regular language is a splicing language.
"""

__version__ = "0.1.0"

from .automata import (
    Alphabet,
    Dfa,
    Nfa,
    automaton_from_json,
    automaton_to_dot,
    automaton_to_json,
    complement,
    determinize,
    difference,
    difference_witness,
    enumerate_words,
    equivalent,
    intersect,
    length_lex_cmp,
    length_lex_key,
    minimize,
    union,
    words_shorter_than,
)
from .closure import ClosureAutomaton, build_closure, closure_language
from .decide import (
    BoundsProfile,
    Decision,
    canonical_system,
    custom_bounds,
    decide_splicing,
    theorem_bounds,
)
from .errors import (
    AlphabetMismatchError,
    CandidateLimitExceededError,
    IllegalExtensionError,
    InfiniteAxiomLanguageError,
    RegexSyntaxError,
    SpliceKitError,
    UnknownSymbolError,
)
from .monoid import (
    PumpingFactorization,
    SyntacticMonoid,
    pump_normalize,
    pumping_factorization,
    syntactic_monoid,
)
from .regex import parse_regex
from .respect import (
    RespectContext,
    brute_respect,
    extend_rule,
    is_extension_of,
    prune_minimal,
    respect_counterexample,
    respects_classic,
    respects_pixton,
)
from .splicing import (
    ClassicRule,
    PixtonRule,
    RuleProduct,
    SplicingSystem,
    bounded_closure,
    parse_rule,
    rule_to_text,
    sigma_step,
    splice_classic,
    splice_pixton,
    system_from_json,
    system_to_json,
)
