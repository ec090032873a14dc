"""Per-stage ladder of unary theorem-bound decisions, written as JSON.

    python3 bench/ladder.py --out OUT.json [--repeats 5]

Cases: ``(a^k)*`` for k = 2..9 in both variants, and ``a+``, ``aa+``,
``aaa+`` and ``aaaa+`` classic, all at theorem bounds.  Each case runs in
its own subprocess (a fresh interpreter, so ``ru_maxrss`` is that case's
own peak), which times the stages of ``decide_splicing`` by calling the
same library functions in the same order:

- resolve: regex -> NFA -> DFA -> minimal DFA;
- monoid: the syntactic monoid;
- rules: canonical axioms and canonical rules;
- saturate: the closure automaton;
- closure_dfa: its minimal DFA;
- comparison: the subset check and the equivalence with its witness.

Every repeat rebuilds everything from the regex; a record holds the median
seconds of each stage over the repeats, the median total, the verdict, the
monoid size, the rule and closure-state counts and the peak RSS.  The
verdict and witness are checked against ``decide_splicing`` once per case.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from splicekit import (  # noqa: E402
    Alphabet,
    RespectContext,
    SplicingSystem,
    build_closure,
    decide_splicing,
    determinize,
    difference_witness,
    equivalent,
    minimize,
    parse_regex,
    syntactic_monoid,
    theorem_bounds,
)
from splicekit.closure import closure_dfa  # noqa: E402
from splicekit.decide import canonical_axioms, canonical_rules  # noqa: E402

CASES = [(f"({'a' * k})*", variant) for k in range(2, 10) for variant in ("classic", "pixton")]
CASES += [("a+", "classic"), ("aa+", "classic"), ("aaa+", "classic"), ("aaaa+", "classic")]
STAGES = ("resolve", "monoid", "rules", "saturate", "closure_dfa", "comparison")


def run_once(regex: str, variant: str) -> tuple[dict, dict]:
    """One pass through the pipeline: (seconds per stage, outcome)."""
    alphabet = Alphabet.from_string("a")
    marks = [time.perf_counter()]
    lang = minimize(determinize(parse_regex(regex, alphabet)))
    marks.append(time.perf_counter())
    monoid = syntactic_monoid(lang)
    marks.append(time.perf_counter())
    bounds = theorem_bounds(monoid.size, variant)
    axioms = canonical_axioms(lang, bounds)
    rules = canonical_rules(RespectContext(monoid), alphabet, bounds)
    marks.append(time.perf_counter())
    closure = build_closure(SplicingSystem(variant, alphabet, axioms, rules))
    marks.append(time.perf_counter())
    generated = closure_dfa(closure)
    marks.append(time.perf_counter())
    escape = difference_witness(generated, lang)
    equal, witness = equivalent(generated, lang)
    marks.append(time.perf_counter())
    if escape is not None:
        raise AssertionError(f"closure generated {escape!r} outside the language")
    seconds = {stage: b - a for stage, a, b in zip(STAGES, marks, marks[1:])}
    outcome = {
        "verdict": "yes" if equal else "no",
        "witness": witness,
        "monoid_size": monoid.size,
        "rules": len(rules),
        "closure_states": closure.base.state_count,
    }
    return seconds, outcome


def measure(regex: str, variant: str, repeats: int) -> dict:
    """The record of one case, measured in this process."""
    runs = [run_once(regex, variant) for _ in range(repeats)]
    outcome = runs[0][1]
    if any(o != outcome for _, o in runs):
        raise AssertionError("repeats disagree")
    lang = minimize(determinize(parse_regex(regex, Alphabet.from_string("a"))))
    decision = decide_splicing(lang, variant)
    if (decision.verdict, decision.witness) != (outcome["verdict"], outcome["witness"]):
        raise AssertionError(f"decide_splicing gave {decision.verdict} {decision.witness!r}")
    return {
        "case": f"{regex} {variant} theorem",
        **outcome,
        "repeats": repeats,
        "median_s": {s: round(statistics.median(r[s] for r, _ in runs), 6) for s in STAGES},
        "total_s": round(statistics.median(sum(r.values()) for r, _ in runs), 6),
        "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", help="the JSON file to write (required)")
    parser.add_argument("--case", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.case is not None:
        print(json.dumps(measure(*CASES[args.case], args.repeats)))
        return
    if args.out is None:
        parser.error("--out is required")
    records = []
    for i, (regex, variant) in enumerate(CASES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--case", str(i), "--repeats", str(args.repeats)],
            capture_output=True, text=True, check=True,
        )
        record = json.loads(done.stdout)
        records.append(record)
        print(f"{record['case']:28} {record['verdict']:3} total {record['total_s']:.4f} s "
              f"rss {record['ru_maxrss_mb']} MB", file=sys.stderr)
    doc = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "repeats": args.repeats,
        "cases": records,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
