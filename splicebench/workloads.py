"""The three benchmark workloads: inputs made from a seed, ops, expected results.

Every op is a call into the public interface of splicekit; every expected
result comes from this file or from ``reference.py``, never from splicekit.

Each workload stresses a different layer, so that a change to one layer shows
on one workload and leaves the others as a control:

* ``unary-theorem-no``: ``decide`` on (a^k)*, k = 2..5, classic, theorem
  bounds, through ``splicekit.cli.main``.  About 99% of an op is canonical
  rule enumeration (562,500 candidates at k = 5); no rule respects the
  language, so closure and comparison are trivial.
* ``closure-yes``: ``decide --stats --emit-system --emit-closure`` on four
  positive cases.  An op is closure saturation plus subset construction
  (5k-58k closure states, about 660 MB peak RSS); rules take under 1%.
* ``oracle-diff``: closure words of length <= 6 against the stabilized
  ``bounded_closure`` oracle on small random systems: thousands of tiny
  closure calls, where fixed per-call cost shows, and the only workload
  that stresses the splicing layer.

The seed never changes how much work a pass does, only how the inputs are
written, and the cases run in a fixed order (what an op leaves behind on
the heap moves the next op, and the 660 MB case moves the others most):

* ``unary-theorem-no`` and ``closure-yes`` run fixed ladders of cases; the
  seed picks, for each case, one of several regex spellings of the same
  language.
* ``oracle-diff`` runs the 100 random systems of acceptance criterion 7
  (same generator, same generator seed).  The seed maps each system through
  one of four cost-preserving symmetries (identity, swapping the letters a
  and b, the mirror image, or both).  Fresh systems per seed are not used:
  about 13% of random systems take about 98% of the time
  (3 seeds x 300 systems took 70 s, 81 s and 93 s), so the throughput of a
  fresh 100 moves between seeds by more than any usable bound.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass, field
from typing import Callable

from reference import check_closure_json, stabilized_closure_words

WORKLOADS = ("unary-theorem-no", "closure-yes", "oracle-diff")

# In each pass an op runs back to back until it has taken this many seconds
# (at least once): the cheap cases would otherwise have two or three samples
# in a run, too few for a steady mean.
MIN_CASE_S = {"unary-theorem-no": 1.0, "closure-yes": 2.0, "oracle-diff": 0.03}

# Inputs that are deliberately not run, with the reason for each.
EXCLUDED = (
    {
        "input": "decide --lang 'a+' --alphabet a --variant classic --bounds theorem",
        "reason": "runs out of memory in determinize on the seed; every op would fail "
        "and its time-to-MemoryError would make a fix look like a slowdown",
    },
    {
        "input": "decide --lang 'aa+' --alphabet a --variant classic --bounds theorem",
        "reason": "runs out of memory on the seed, as for 'a+'",
    },
    {
        "input": "decide --lang 'aa+' --alphabet a --variant pixton --bounds theorem "
        "--stats --emit-system F --emit-closure F",
        "reason": "left out of closure-yes to fit the run length: at about 5 s an op it "
        "took the pass to 25-30 s, one sample per case in a run; a+b+ custom(4,3,4) "
        "keeps the largest closure (58,472 states) and the peak RSS",
    },
    {
        "input": "decide --lang 'a+b+' --alphabet ab --variant classic --bounds theorem",
        "reason": "an instant candidate-guard trip (exit 65), the subject of "
        "acceptance criterion 10; it measures nothing",
    },
)

# Which end-to-end metric each per-layer metric should move, on which workload.
PREDICTIONS = (
    {
        "layer_metrics": [
            "decide.rules_s", "decide.candidates", "decide.rule_yield", "decide.self_s",
            "respect.queries", "respect.class_tuples", "respect.cache_hit_ratio",
        ],
        "moves": ["ops_per_s", "op_s_geomean"],
        "on": ["unary-theorem-no"],
        "unchanged_on": ["closure-yes"],
    },
    {
        "layer_metrics": [
            "closure.build_s", "closure.calls", "closure.states", "closure.rounds",
            "closure.eps_added", "closure.dfa_s", "closure.self_s", "closure.rss_rise_mb",
            "automata.determinize_s", "automata.subsets", "automata.minimize_s",
            "automata.compare_s", "automata.self_s", "automata.rss_rise_mb",
        ],
        "moves": ["ops_per_s", "op_s_geomean", "peak_rss_mb"],
        "on": ["closure-yes"],
        "also": "closure.build_s moves op_s_p50 on oracle-diff",
    },
    {
        "layer_metrics": ["monoid.s", "monoid.calls", "cli.self_s", "cli.emit_s", "cli.emit_bytes"],
        "moves": ["op_s_p50"],
        "on": ["closure-yes", "unary-theorem-no"],
    },
    {
        "layer_metrics": [
            "splicing.oracle_s", "splicing.oracle_calls", "splicing.splice_calls",
            "splicing.self_s", "automata.enumerate_s",
        ],
        "moves": ["ops_per_s", "op_s_tail"],
        "on": ["oracle-diff"],
        "unchanged_on": ["unary-theorem-no", "closure-yes"],
    },
    {"layer_metrics": ["setup.import_s"], "moves": ["setup_s"], "on": list(WORKLOADS)},
    {
        "note": "trace.overhead_s is the cost of the wrappers themselves; it moves "
        "no end-to-end metric, which are measured untraced",
    },
    {
        "note": "one client, one process, no threads: nothing queues or contends, "
        "so no layer waits and no wait metrics are reported",
    },
)


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` runs afterwards, untimed.

    ``check`` gets what ``run`` returned and returns None when the output is
    right, or a one-line description of what is wrong.
    """

    case: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    emitted: tuple[str, ...] = field(default_factory=tuple)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """splicekit.cli.main in-process, with stdout and stderr captured."""
    import splicekit.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = splicekit.cli.main(argv)
    return code, out.getvalue() + err.getvalue()


# -- unary-theorem-no ----------------------------------------------------------


def _unary_spellings(k: int) -> list[str]:
    block = "a" * k
    return [f"({block})*", f"()|({block})+", f"(({block})*)*", f"({block})*({block})*"]


def unary_expected(k: int) -> tuple[int, str]:
    """Exit 1 and the least missing word a^(k(k+6)).

    (a^k)* has a syntactic monoid of size k, so the theorem bounds take the
    words of L shorter than k^2+6k as axioms.  No rule within the bounds
    respects (a^k)*, so the closure is exactly the axioms, and the least word
    of L missing from it is the first multiple of k that is not shorter than
    k^2+6k, namely a^(k(k+6)).
    """
    return 1, f"no\nwitness: {'a' * (k * (k + 6))}\n"


def _unary_ops(rng: random.Random, ks, expected) -> list[Op]:
    ops = []
    for k in ks:
        lang = rng.choice(_unary_spellings(k))
        argv = ["decide", "--lang", lang, "--alphabet", "a", "--variant", "classic",
                "--bounds", "theorem"]
        want = expected(k)

        def check(got, want=want):
            return None if got == want else f"expected {want!r}, got {got!r}"

        ops.append(Op(f"(a^{k})* classic theorem", lambda argv=argv: _run_cli(argv), check))
    return ops


# -- closure-yes ---------------------------------------------------------------


@dataclass(frozen=True)
class YesCase:
    name: str
    spellings: tuple[str, ...]
    python_re: str
    alphabet: str
    variant: str
    bounds: tuple[str, ...]


YES_CASES = (
    YesCase("a+b+ classic custom(3,3,3)", ("a+b+", "aa*bb*", "a*ab*b"), "a+b+", "ab",
            "classic", ("--axiom-lt", "3", "--inner-lt", "3", "--outer-lt", "3")),
    YesCase("a+b+ classic custom(4,3,4)", ("a+b+", "aa*bb*", "a*ab*b"), "a+b+", "ab",
            "classic", ("--axiom-lt", "4", "--inner-lt", "3", "--outer-lt", "4")),
    YesCase("a*b* pixton custom(6,4,6)", ("a*b*", "(a*)(b*)", "()|a+|a*b+"), "a*b*", "ab",
            "pixton", ("--axiom-lt", "6", "--inner-lt", "4", "--outer-lt", "6")),
    YesCase("a* classic theorem", ("a*", "(a*)*", "()|a+"), "a*", "a",
            "classic", ("--bounds", "theorem")),
)

# Words up to this length are compared between the emitted closure automaton
# and Python's re module.
CLOSURE_CHECK_LEN = {1: 16, 2: 8}


def _closure_ops(rng: random.Random, cases, outdir: str) -> list[Op]:
    """Expected: verdict yes, exit 0, a JSON stats line, and an emitted closure
    automaton that accepts exactly the language, on all words up to
    ``CLOSURE_CHECK_LEN``.  The stats line is not compared: its counts are
    what later versions are meant to change, and ``wall_time_s`` varies."""
    ops = []
    for i, case in enumerate(cases):
        system_path = os.path.join(outdir, f"yes{i}.system.json")
        closure_path = os.path.join(outdir, f"yes{i}.closure.json")
        argv = ["decide", "--lang", rng.choice(case.spellings), "--alphabet", case.alphabet,
                "--variant", case.variant, *case.bounds, "--stats",
                "--emit-system", system_path, "--emit-closure", closure_path]

        def check(got, case=case, closure_path=closure_path, system_path=system_path):
            code, text = got
            lines = text.splitlines()
            if code != 0 or len(lines) != 2 or lines[0] != "yes":
                return f"expected exit 0 and 'yes' plus a stats line, got {got!r}"
            if not lines[1].startswith("{"):
                return f"stats line is not a JSON object: {lines[1]!r}"
            if not os.path.isfile(system_path):
                return "--emit-system wrote no file"
            return check_closure_json(closure_path, case.python_re,
                                      CLOSURE_CHECK_LEN[len(case.alphabet)])

        ops.append(Op(case.name, lambda argv=argv: _run_cli(argv), check,
                      (system_path, closure_path)))
    return ops


# -- oracle-diff ---------------------------------------------------------------

CORPUS_SEED = 0xC7  # the generator seed of acceptance criterion 7
CORPUS_SIZE = 100
REPORT_LEN = 6


def _random_word(rng: random.Random, max_len: int) -> str:
    return "".join(rng.choice("ab") for _ in range(rng.randint(0, max_len)))


def criterion7_corpus(size: int = CORPUS_SIZE) -> list[tuple[str, tuple, tuple]]:
    """(variant, axioms, rule component tuples), drawn as criterion 7 draws them."""
    rng = random.Random(CORPUS_SEED)
    out = []
    for _ in range(size):
        variant = rng.choice(("classic", "pixton"))
        axioms = tuple(sorted({_random_word(rng, 3) for _ in range(rng.randint(1, 3))}))
        width = 4 if variant == "classic" else 3
        rules = tuple(
            tuple(_random_word(rng, 2) for _ in range(width))
            for _ in range(rng.randint(0, 3))
        )
        out.append((variant, axioms, rules))
    return out


def _swap(word: str) -> str:
    return word.translate(str.maketrans("ab", "ba"))


def _mirror_rule(variant: str, rule: tuple) -> tuple:
    """The rule whose splicings are the mirror images of this rule's.

    Classic (u1,v1;u2,v2) joins x1 u1 | v2 y2; reversed, that is the join
    ~y2 ~v2 | ~u1 ~x1 of ~w2 and ~w1 under (~v2,~u2;~v1,~u1).  Triplet
    (u1,u2;v) gives x1 v y2; reversed, ~y2 ~v ~x1 under (~u2,~u1;~v).
    """
    rev = [c[::-1] for c in rule]
    if variant == "classic":
        return (rev[3], rev[2], rev[1], rev[0])
    return (rev[1], rev[0], rev[2])


def present(system: tuple[str, tuple, tuple], symmetry: int) -> tuple[str, tuple, tuple]:
    """Apply symmetry bit 1 (swap a and b) and bit 2 (mirror image)."""
    variant, axioms, rules = system
    if symmetry & 1:
        axioms = tuple(_swap(w) for w in axioms)
        rules = tuple(tuple(_swap(c) for c in r) for r in rules)
    if symmetry & 2:
        axioms = tuple(w[::-1] for w in axioms)
        rules = tuple(_mirror_rule(variant, r) for r in rules)
    return variant, tuple(sorted(set(axioms))), rules


def oracle_op(system) -> tuple[list[str], set[str] | None]:
    """Closure words of length <= 6 and the stabilized bounded oracle.

    The oracle is stabilized as criterion 7 does it: raise the length cap
    one at a time until two consecutive caps report the same words; None if
    29 raises do not stabilize it.
    """
    import splicekit

    words = splicekit.enumerate_words(splicekit.closure_language(system), REPORT_LEN)
    cap = max(REPORT_LEN, max((len(w) for w in system.axiom_words()), default=0))
    previous = splicekit.bounded_closure(system, REPORT_LEN, cap)
    for cap in range(cap + 1, cap + 30):
        current = splicekit.bounded_closure(system, REPORT_LEN, cap)
        if current == previous:
            return words, current
        previous = current
    return words, None


def _oracle_ops(rng: random.Random, corpus, reference_words) -> list[Op]:
    import splicekit

    ab = splicekit.Alphabet.from_string("ab")
    ops = []
    for index, raw in enumerate(corpus):
        variant, axioms, rules = present(raw, rng.randrange(4))
        make = splicekit.ClassicRule if variant == "classic" else splicekit.PixtonRule
        system = splicekit.SplicingSystem(variant, ab, axioms, tuple(make(*r) for r in rules))
        spec = (variant, axioms, rules)

        def check(got, spec=spec):
            automaton_words, oracle_words = got
            if oracle_words is None:
                return "bounded_closure did not stabilize within 29 cap raises"
            want = reference_words(spec)
            if set(automaton_words) != want:
                return f"closure words differ from the reference by {sorted(set(automaton_words) ^ want)}"
            if len(automaton_words) != len(want):
                return "enumerate_words repeated a word"
            if oracle_words != want:
                return f"bounded_closure differs from the reference by {sorted(oracle_words ^ want)}"
            return None

        ops.append(Op(f"system {index:03d}", lambda system=system: oracle_op(system), check))
    return ops


# -- entry point ---------------------------------------------------------------


def build(workload: str, seed: int, outdir: str, tiny: bool = False,
          wrong_expected: bool = False) -> list[Op]:
    """The ops of one pass, in order.  Needs splicekit importable.

    ``tiny`` keeps the smallest cases only and ``wrong_expected`` corrupts the
    expected results; both exist for the benchmark's smoke test.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "unary-theorem-no":
        expected = unary_expected
        if wrong_expected:
            def expected(k):
                code, text = unary_expected(k)
                return code, text.replace("witness: ", "witness: a")
        ops = _unary_ops(rng, (2, 3) if tiny else (2, 3, 4, 5), expected)
    elif workload == "closure-yes":
        cases = (YES_CASES[0], YES_CASES[3]) if tiny else YES_CASES
        if wrong_expected:
            cases = tuple(
                YesCase(c.name, c.spellings, f"(?!(?:{c.python_re})$).*", c.alphabet,
                        c.variant, c.bounds)
                for c in cases
            )
        ops = _closure_ops(rng, cases, outdir)
    elif workload == "oracle-diff":
        corpus = criterion7_corpus(6 if tiny else CORPUS_SIZE)
        reference = stabilized_closure_words
        if wrong_expected:
            def reference(spec):
                return stabilized_closure_words(spec) | {"b" * 7}
        ops = _oracle_ops(rng, corpus, reference)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
