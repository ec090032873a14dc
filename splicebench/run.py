"""splicekit benchmark: one workload, one seed, one run.

    python3 splicebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it imports splicekit from the ``src`` directory next to
``splicebench``.  Workloads (see ``workloads.py`` for why each was chosen):
``unary-theorem-no``, ``closure-yes``, ``oracle-diff``.

A closed loop: one client, one worker process, no threads, ops back to back,
in passes over the workload's cases until ``--seconds`` have gone by and one
whole pass is done; in a pass a cheap case repeats until it has taken the
workload's ``MIN_CASE_S``.  Every output is checked against a
reference that does not come from splicekit.  Timings are wall-clock.

``--trace 0`` reports the end-to-end metrics, all from each case's mean op
time, so that they do not depend on where in a pass the run stopped, and
calibrated by ``calibrate.py``, because the shared host's speed drifts over
minutes by more than a usable bound: each op time is divided by the
host-speed factor of the seconds around that op, and each set-up time by
that of the kernel timed right after it, in the same process, whose time is
taken out of the set-up time.  The raw values are printed and recorded
as well.  A case's mean,
not its median: op times on this host are bimodal, and the median of a
case's samples jumps between the modes where the mean, like the host-speed
factor, follows their mix.

* ``setup_s``: median over six worker starts of the time from process start
  to ready (Python start, importing splicekit, building the inputs);
* ``ops_per_s``: throughput over one pass of every case, cases / sum of
  their mean op times;
* ``op_s_geomean``: geometric mean of the case means, which weighs every
  case of a ladder alike where ``ops_per_s`` follows the largest;
* ``op_s_p50``: median of the case means, the median op of a pass;
* ``peak_rss_mb``: peak RSS of the worker process.

It also prints, outside the result line, ``failed_share`` (failed over
attempted ops) and ``op_s_tail``: the highest percentile of op time with at
least ten samples beyond it, with that percentile and the sample count, left
out when that is below the 90th percentile (fewer than 100 ops).

``--trace 1`` runs one untraced worker and one traced worker for half the
seconds each and reports the per-layer metrics of ``layers.py`` (median over
the traced whole passes), ``setup.import_s`` and ``trace.overhead_s`` (the
traced pass time minus the untraced one, each as the sum of case means,
raw, since a traced worker cannot time the kernel inside its spans).

Each worker caps its address space at 3 GiB and each op at 60 s; an op that
hits either, raises, or gives a wrong output counts as failed and the run
goes on.  The last line of standard output is the result as JSON; the full
record (commit, versions, per-case table, predictions, failures) goes to
``.splicebench/results/`` and the spans of a traced run to
``.splicebench/<run>/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs HERE on the path)
from worker import MEMORY_CAP_BYTES, OP_TIMEOUT_S  # noqa: E402

SETUP_STARTS = 6  # worker starts per run whose set-up time is measured
RUN_DEADLINE_S = 170

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    _declared = json.load(_handle)
UNITS = {m["name"]: m["unit"] for m in _declared["end_to_end"] + _declared["per_layer"]}


class BenchError(Exception):
    pass


def _spawn(args, workdir: str, deadline: float, probe: bool, trace: int, seconds: float):
    """Start a worker and wait for it: (set-up seconds, its import seconds,
    its host-speed factor at the end of set-up, its result or None for a
    probe).  The worker prints only its READY line."""
    out = os.path.join(workdir, f"worker{trace}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--workdir", workdir, "--out", out]
    if probe:
        cmd.append("--probe")
    if args.tiny:
        cmd.append("--tiny")
    if args.wrong_expected:
        cmd.append("--wrong-expected")
    env = {k: v for k, v in os.environ.items() if k != "SPLICEKIT_CANDIDATE_LIMIT"}
    env.update(PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran past the run deadline") from None
    finally:
        proc.stdout.close()
    if not line.startswith("READY ") or code != 0:
        raise BenchError(f"worker failed (exit {code}) before reporting a result")
    import_s, speed, kernel_s = (float(word) for word in line.split()[1:])
    if probe:
        return setup_s - kernel_s, import_s, speed, None
    with open(out, encoding="utf-8") as handle:
        return setup_s - kernel_s, import_s, speed, json.load(handle)


def _tail(times: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it, if that is at
    least the 90th."""
    if len(times) < 100:
        return None
    ordered = sorted(times)
    n = len(ordered)
    return {"value": ordered[n - 11], "percentile": 100 * (n - 10) / n,
            "samples": n, "beyond": 10}


def _case_means(result: dict, calibrated: bool = False) -> list[float]:
    """Mean op time of each case, each op divided by its host-speed factor
    if ``calibrated``."""
    by_case: dict[str, list[float]] = {}
    for op in result["ops"]:
        seconds = op["s"] / op["speed"] if calibrated else op["s"]
        by_case.setdefault(op["case"], []).append(seconds)
    return [statistics.fmean(times) for times in by_case.values()]


def _pass_s(result: dict) -> float:
    """Seconds of one pass over every case, each at its mean op time."""
    return sum(_case_means(result))


def end_to_end(result: dict, setup: list[float], setup_speed: list[float],
               calibrated: bool) -> dict:
    """The end-to-end metrics, calibrated or raw."""
    means = _case_means(result, calibrated)
    if calibrated:
        setup = [s / v for s, v in zip(setup, setup_speed)]
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(means) / sum(means),
        "op_s_geomean": math.exp(statistics.fmean(math.log(m) for m in means)),
        "op_s_p50": statistics.median(means),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _provenance() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())

    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    return {
        "commit": commit, "src_sha256": digest.hexdigest(), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest cases only (for the smoke test)")
    parser.add_argument("--wrong-expected", action="store_true",
                        help="corrupt the expected results (for the smoke test)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "splicekit", "__init__.py")):
        print(f"splicebench: no splicekit sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(ROOT, ".splicebench", run_name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    def probes(count):
        return [_spawn(args, workdir, deadline, True, 0, 0) for _ in range(count)]

    # Set-up probes go before and after the measured workers, so that their
    # median does not rest on one moment of the host's varying speed.
    try:
        starts = probes(3)
        if args.trace:
            plain = _spawn(args, workdir, deadline, False, 0, args.seconds / 2)
            traced = _spawn(args, workdir, deadline, False, 1, args.seconds / 2)
            starts += [plain, traced]
            runs = [plain[3], traced[3]]
        else:
            starts.append(_spawn(args, workdir, deadline, False, 0, args.seconds))
            runs = [starts[-1][3]]
        starts += probes(SETUP_STARTS - len(starts))
    except BenchError as exc:
        print(f"splicebench: {exc}", file=sys.stderr)
        return 1

    ops = [op for run in runs for op in run["ops"]]
    failures = [op for op in ops if op["error"] is not None]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, **_provenance(),
        "why": next(w["why"] for w in _declared["workloads"] if w["name"] == args.workload),
        "guards": {"memory_cap_bytes": MEMORY_CAP_BYTES, "op_timeout_s": OP_TIMEOUT_S,
                   "excluded": workloads.EXCLUDED},
        "predictions": workloads.PREDICTIONS,
        "attempted": len(ops), "failed": len(failures),
        "failed_share": len(failures) / len(ops),
        "failures": failures[:20],
        "setup_s": [s[0] for s in starts], "import_s": [s[1] for s in starts],
        "setup_speed": [s[2] for s in starts],
        "cases": {},
    }
    for op in runs[0]["ops"]:
        record["cases"].setdefault(op["case"], []).append(op["s"])

    if args.trace:
        layer_runs = traced[3]["layers"]
        metrics = {
            name: statistics.median(run[name] for run in layer_runs)
            for name in layer_runs[0]
        }
        metrics["setup.import_s"] = statistics.median(record["import_s"])
        metrics["trace.overhead_s"] = _pass_s(traced[3]) - _pass_s(plain[3])
        record["absent"] = traced[3]["absent"]
        record["spans"] = os.path.relpath(traced[3]["spans"], ROOT)
        record["layers_by_case"] = traced[3]["layers_by_case"]
    else:
        record["speed"] = runs[0]["speed"]
        record["raw"] = end_to_end(runs[0], record["setup_s"], record["setup_speed"], False)
        metrics = end_to_end(runs[0], record["setup_s"], record["setup_speed"], True)
        record["op_s_tail"] = _tail([op["s"] for op in runs[0]["ops"]])
    record["metrics"] = metrics

    os.makedirs(os.path.join(ROOT, ".splicebench", "results"), exist_ok=True)
    record_path = os.path.join(ROOT, ".splicebench", "results", f"{run_name}.json")
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    for failure in failures[:5]:
        print(f"FAILED {failure['case']}: {failure['error']}", file=sys.stderr)
    for name, value in metrics.items():
        raw = f" (raw {record['raw'][name]!r})" if "raw" in record else ""
        print(f"{name} {value!r} {UNITS[name]}{raw}")
    if "speed" in record:
        print(f"host speed factor {record['speed']!r}")
    print(f"failed_share {record['failed_share']!r} ({len(failures)}/{len(ops)})")
    if not args.trace:
        tail = record["op_s_tail"]
        print("op_s_tail " + (f"{tail['value']!r} s (p{tail['percentile']:.1f}, "
                              f"{tail['samples']} samples)" if tail else
                              f"omitted: {len(ops)} ops, tail needs 100"))
    if args.trace and record["absent"]:
        print(f"absent: {' '.join(record['absent'])}")
    print("provenance: " + " ".join(f"{key}={record[key]}" for key in
                                    ("commit", "seed", "nproc", "python", "numpy", "scipy")))
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
