"""Per-stage ladder of decisions, written as JSON.

    python3 bench/ladder.py --out OUT.json [--repeats 5]
    python3 bench/ladder.py --compare DIR --out OUT.json [--repeats 5] [--case I ...]

Cases, unary at theorem bounds: ``(a^k)*`` for k = 2..9 in both variants,
and ``a+``, ``aa+``, ``aaa+``, ``aaaa+``, ``a^5+``, ``a^6+`` and ``a^8+``
classic.  Then binary at custom bounds (axiom, inner, outer): ``a+b+``
classic (3,3,3) and (4,3,4), whose closures go through site chains, and
``a*b*`` pixton (6,4,6).  Then two more triplet closures, which the class x
length gadgets build: ``aa+`` pixton at theorem bounds and ``(ab)*`` pixton
(6,3,4).  ``a^8+`` (about 10^7 respecting rules) runs one
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

After the repeats, the last repeat's decision writes the canonical system
and the closure automaton as ``decide --emit-system --emit-closure`` does,
once per repeat, into ``os.devnull``, so the chunks are made and encoded
but need no disk (``a^8+`` makes 1.9 GB and 0.3 GB of them), and each
write is timed as ``emit``.

A record holds the median seconds of each stage over the repeats, the
median total (``emit`` left out, so the total stays the decision's), the
median ``emit_s``, the verdict and witness, the monoid size, the rule and
closure-state counts and two peak RSS readings: ``ru_maxrss_mb`` after
every repeat's decision and before any emit, and ``emit_maxrss_mb`` after
the last emit.  The case's subprocess also times
``splicebench/calibrate.py``'s fixed kernel (``speed_now``) just before the
case and just after its last decision, before the emit stage (through the
``ON_DECIDED`` hook; after the whole case for a ladder without it), and the
record keeps the mean of the two host-speed factors as ``speed`` (above 1
where the host ran slower than the kernel's reference) and the total
divided by it as ``calibrated_total_s``.

``--compare DIR`` measures this checkout against the one at DIR, such as
its parent commit, on every case index both share.  Host speed drifts over
minutes, so the two sides are interleaved: each of ``--repeats`` rounds (or
the case's own repeat count) runs the case once from each checkout, each
in its own subprocess, the first side alternating from round to round, and
both sides' subprocesses take their host-speed factor from this checkout's
``calibrate.py``, so the parent's ladder need not have one.  Host speed
still drifts within and between rounds (``a+`` classic theorem, whose work
a change left alone, read x1.47 over 5 rounds), so each total is also
divided by its own run's host-speed factor.  A record holds each side's
median total seconds, calibrated total seconds, host-speed factor, peak RSS
and seconds per stage over the rounds (and the emit seconds and peak RSS
after emit, where its ladder has the stage) with its outcome
(verdict, witness, monoid size, rule and closure-state counts, which must
agree over the rounds), and the change/parent ratio of the seconds, the
calibrated seconds and the RSS.  The comparison stops, naming the case,
if the two sides' verdicts or witnesses differ; the other counts, such as
the closure states, may differ.  ``--case I``, repeatable, limits the
comparison to those case indices, in the order given.
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
from splicekit.automata import automaton_chunks  # noqa: E402
from splicekit.cli import _emit  # noqa: E402
from splicekit.decide import Decision  # noqa: E402
from splicekit.splicing import system_chunks  # noqa: E402

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
    ("aa+", "a", "pixton", None, None),
    ("(ab)*", "ab", "pixton", (6, 3, 4), None),
]


def case_name(regex: str, variant: str, bounds: tuple[int, int, int] | None) -> str:
    if bounds is None:
        return f"{regex} {variant} theorem"
    return f"{regex} {variant} custom({','.join(map(str, bounds))})"


def _peak_rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def run_once(
    regex: str, alphabet: str, variant: str, bounds: tuple[int, int, int] | None
) -> tuple[dict, dict, Decision]:
    """One decision from the regex: (seconds per stage, outcome, decision)."""
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
    return {"resolve": resolve, **decision.seconds}, outcome, decision


def emit_once(decision: Decision) -> float:
    """Seconds to write the decision's system and closure files, as
    ``decide --emit-system --emit-closure`` does, into ``os.devnull``."""
    start = time.perf_counter()
    _emit(os.devnull, system_chunks(decision.system))
    _emit(os.devnull, automaton_chunks(decision.closure.nfa()))
    return time.perf_counter() - start


# Called after the last decision and before the emit stage, where it is
# given: ``_CALIBRATED`` hands it in through ``runpy.run_path``'s
# ``init_globals`` to read the closing host-speed factor there.
ON_DECIDED = globals().get("ON_DECIDED")


def measure(
    regex: str, alphabet: str, variant: str, bounds: tuple[int, int, int] | None, repeats: int
) -> dict:
    """The record of one case, measured in this process."""
    runs = []
    for _ in range(repeats):
        # drop the previous decision before making the next, so that the peak
        # RSS stays one decision's; the last one is kept for the emit stage
        decision = None
        seconds, outcome, decision = run_once(regex, alphabet, variant, bounds)
        runs.append((seconds, outcome))
    decided_rss = _peak_rss_mb()
    if ON_DECIDED is not None:
        ON_DECIDED()
    emits = [emit_once(decision) for _ in range(repeats)]
    outcome = runs[0][1]
    if any(o != outcome for _, o in runs):
        raise AssertionError("repeats disagree")
    stages = [r for r, _ in runs]
    return {
        "case": case_name(regex, variant, bounds),
        **outcome,
        "repeats": repeats,
        "median_s": {s: round(statistics.median(r[s] for r in stages), 6) for s in stages[0]},
        "total_s": round(statistics.median(sum(r.values()) for r in stages), 6),
        "emit_s": round(statistics.median(emits), 6),
        "ru_maxrss_mb": decided_rss,
        "emit_maxrss_mb": _peak_rss_mb(),
    }


# Run in a case's subprocess: the ladder at argv[2] with the arguments after
# it, between two host-speed factors from the calibrate.py in argv[1], each
# the mean of five runs of its kernel (about 21 ms each).  The closing one is
# read by the ladder's ON_DECIDED hook, after the decisions and before the
# emit stage; a ladder without the hook gets it after its whole run.
_CALIBRATED = """
import contextlib, io, json, runpy, sys
sys.path.insert(0, sys.argv[1])
from calibrate import speed_now
script, sys.argv = sys.argv[2], sys.argv[2:]
closing = []
before, _ = speed_now(5)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    runpy.run_path(script, {"ON_DECIDED": lambda: closing.append(speed_now(5)[0])},
                   run_name="__main__")
after = closing[0] if closing else speed_now(5)[0]
record = json.loads(out.getvalue())
record["speed"] = (before + after) / 2
print(json.dumps(record))
"""


def _record(script: str, index: int, repeats: int) -> dict:
    """The record of case ``index`` as the ladder at ``script`` measures it,
    in a subprocess of its own, with its host-speed factor and calibrated
    total."""
    done = subprocess.run(
        [sys.executable, "-c", _CALIBRATED, os.path.join(ROOT, "splicebench"), script,
         "--case", str(index), "--repeats", str(repeats)],
        capture_output=True, text=True, check=True,
    )
    record = json.loads(done.stdout)
    record["speed"] = round(record["speed"], 4)
    record["calibrated_total_s"] = round(record["total_s"] / record["speed"], 6)
    return record


def _case_count(script: str) -> int:
    """How many cases the ladder at ``script`` has, read in a subprocess,
    which imports that checkout's library."""
    code = "import runpy, sys; print(len(runpy.run_path(sys.argv[1])['CASES']))"
    done = subprocess.run(
        [sys.executable, "-c", code, script], capture_output=True, text=True, check=True
    )
    return int(done.stdout)


# the fields of a case record that say what the decision was, and those
# that measure it
_OUTCOME = ("verdict", "witness", "monoid_size", "rules", "closure_states")
_MEASURED = ("total_s", "calibrated_total_s", "speed", "ru_maxrss_mb")
_EMIT = ("emit_s", "emit_maxrss_mb")  # absent where a ladder has no emit stage


def compare(parent: str, index: int, repeats: int) -> dict:
    """Case ``index`` measured from this ladder and from the one at
    ``parent``, one run each per round, the first side alternating."""
    scripts = {"change": os.path.abspath(__file__), "parent": parent}
    rounds = CASES[index][-1] or repeats
    runs: dict[str, list[dict]] = {"change": [], "parent": []}
    for turn in range(rounds):
        order = ("change", "parent") if turn % 2 == 0 else ("parent", "change")
        for side in order:
            runs[side].append(_record(scripts[side], index, 1))
    names = {r["case"] for records in runs.values() for r in records}
    if len(names) != 1:
        raise SystemExit(f"case {index} differs between the checkouts: {sorted(names)}")
    record: dict = {"case": names.pop(), "rounds": rounds}
    for side, records in runs.items():
        outcomes = {tuple(r[key] for key in _OUTCOME) for r in records}
        if len(outcomes) != 1:
            raise SystemExit(f"case {index} gives different outcomes on the {side} side")
        record[side] = {
            key: round(statistics.median(r[key] for r in records), 6)
            for key in _MEASURED + _EMIT
            if key in records[0]
        }
        record[side]["median_s"] = {
            stage: round(statistics.median(r["median_s"][stage] for r in records), 6)
            for stage in records[0]["median_s"]
        }
        record[side].update(zip(_OUTCOME, outcomes.pop()))
    decided = {side: (record[side]["verdict"], record[side]["witness"]) for side in runs}
    if decided["change"] != decided["parent"]:
        raise SystemExit(
            f"case {index} ({record['case']}) is decided differently: "
            f"{decided['parent']} in the parent, {decided['change']} in this checkout"
        )
    record["ratio"] = {
        key: round(record["change"][key] / record["parent"][key], 4)
        for key in ("total_s", "calibrated_total_s", "ru_maxrss_mb")
    }
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", help="the JSON file to write (required)")
    parser.add_argument("--compare", metavar="DIR", help="the checkout to compare against")
    parser.add_argument("--case", type=int, action="append",
                        help="with --compare: a case index to compare (repeatable)")
    args = parser.parse_args()
    if args.case is not None and args.compare is None:
        if len(args.case) != 1:
            parser.error("without --compare, --case takes one index")
        *case, repeats = CASES[args.case[0]]
        print(json.dumps(measure(*case, repeats or args.repeats)))
        return
    if args.out is None:
        parser.error("--out is required")
    records = []
    if args.compare is not None:
        parent = os.path.join(os.path.abspath(args.compare), "bench", "ladder.py")
        shared = range(min(len(CASES), _case_count(parent)))
        if args.case is not None:
            missing = [i for i in args.case if i not in shared]
            if missing:
                parser.error(f"case {missing[0]} is not in both checkouts")
            shared = args.case
        for i in shared:
            record = compare(parent, i, args.repeats)
            records.append(record)
            print(f"{record['case']:32} total {record['parent']['total_s']:.4f} -> "
                  f"{record['change']['total_s']:.4f} s (x{record['ratio']['total_s']}, "
                  f"calibrated x{record['ratio']['calibrated_total_s']})", file=sys.stderr)
    else:
        for i in range(len(CASES)):
            record = _record(os.path.abspath(__file__), i, args.repeats)
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
