"""Per-stage ladder of decisions, written as JSON.

    python3 bench/ladder.py --out OUT.json [--repeats 5]

Cases, unary at theorem bounds: ``(a^k)*`` for k = 2..9 in both variants,
and ``a+``, ``aa+``, ``aaa+``, ``aaaa+``, ``a^5+``, ``a^6+`` and ``a^8+``
classic.  Then binary at custom bounds (axiom, inner, outer), where most
closure states are not useful: ``a+b+`` classic (3,3,3) and (4,3,4), and
``a*b*`` pixton (6,4,6).  ``a^8+`` (about 10^7 respecting rules) runs one
repeat whatever ``--repeats`` says; the others run ``--repeats``.  Each
case runs in
its own subprocess (a fresh interpreter, so ``ru_maxrss`` is that case's
own peak).  Each repeat times ``resolve`` (regex -> NFA -> DFA -> minimal
DFA) and then calls ``decide_splicing`` once, whose ``Decision.seconds``
gives the other stages at decide's own boundaries:

- monoid: the syntactic monoid, which minimizes its input itself;
- rules: canonical axioms, canonical rules and the system's validation;
- saturate: the closure automaton;
- closure_dfa: its minimal DFA;
- comparison: the subset check and the equivalence with its witness.

A record holds the median seconds of each stage over the repeats, the
median total, the verdict and witness, the monoid size, the rule and
closure-state counts and the peak RSS.
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
    custom_bounds,
    decide_splicing,
    determinize,
    minimize,
    parse_regex,
)

# (regex, alphabet, variant, custom (axiom, inner, outer) bounds or None for
# the theorem bounds, repeats or None for --repeats); new cases go last, so
# that a case keeps its index
CASES = [
    (f"({'a' * k})*", "a", variant, None, None)
    for k in range(2, 10)
    for variant in ("classic", "pixton")
]
CASES += [(f"{'a' * k}+", "a", "classic", None, None) for k in range(1, 7)]
CASES += [("aaaaaaaa+", "a", "classic", None, 1)]
CASES += [
    ("a+b+", "ab", "classic", (3, 3, 3), None),
    ("a+b+", "ab", "classic", (4, 3, 4), None),
    ("a*b*", "ab", "pixton", (6, 4, 6), None),
]


def case_name(regex: str, variant: str, bounds: tuple[int, int, int] | None) -> str:
    if bounds is None:
        return f"{regex} {variant} theorem"
    return f"{regex} {variant} custom({','.join(map(str, bounds))})"


def run_once(
    regex: str, alphabet: str, variant: str, bounds: tuple[int, int, int] | None
) -> tuple[dict, dict]:
    """One decision from the regex: (seconds per stage, outcome)."""
    start = time.perf_counter()
    lang = minimize(determinize(parse_regex(regex, Alphabet.from_string(alphabet))))
    resolve = time.perf_counter() - start
    profile = None if bounds is None else custom_bounds(variant, *bounds)
    decision = decide_splicing(lang, variant, profile)
    outcome = {
        "verdict": decision.verdict,
        "witness": decision.witness,
        "monoid_size": decision.stats["monoid_size"],
        "rules": decision.stats["rules_emitted"],
        "closure_states": decision.stats["closure_states"],
    }
    return {"resolve": resolve, **decision.seconds}, outcome


def measure(
    regex: str, alphabet: str, variant: str, bounds: tuple[int, int, int] | None, repeats: int
) -> dict:
    """The record of one case, measured in this process."""
    runs = [run_once(regex, alphabet, variant, bounds) for _ in range(repeats)]
    outcome = runs[0][1]
    if any(o != outcome for _, o in runs):
        raise AssertionError("repeats disagree")
    return {
        "case": case_name(regex, variant, bounds),
        **outcome,
        "repeats": repeats,
        "median_s": {s: round(statistics.median(r[s] for r, _ in runs), 6) for s in runs[0][0]},
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
        *case, repeats = CASES[args.case]
        print(json.dumps(measure(*case, repeats or args.repeats)))
        return
    if args.out is None:
        parser.error("--out is required")
    records = []
    for i in range(len(CASES)):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--case", str(i), "--repeats", str(args.repeats)],
            capture_output=True, text=True, check=True,
        )
        record = json.loads(done.stdout)
        records.append(record)
        print(f"{record['case']:32} {record['verdict']:3} total {record['total_s']:.4f} s "
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
