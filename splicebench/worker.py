"""One workload process: set up, then run ops back to back.

Started by ``run.py``; not meant to be run by hand.  The process caps its own
address space before importing anything, imports splicekit from the
checkout's ``src``, builds the inputs, times the host-speed kernel of
``calibrate.py`` ``SETUP_SAMPLES`` times, and prints ``READY <import
seconds> <host-speed factor> <seconds the kernel took>``.

Unless it is a set-up probe, it then runs passes over the ops until
``--seconds`` have gone by and at least one whole pass is done.  In a pass
each op runs back to back until it has taken the workload's ``MIN_CASE_S``
(at least once), so that a cheap case gets as many samples as its mean
needs.  Each op runs under a timeout.  An untraced run times the kernel all
through, every ``CALIBRATE_EVERY_S`` seconds of CPU time, takes the kernel's
time out of the op it interrupted, and records with each op the host-speed
factor of the seconds around it.  Results go to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time

MEMORY_CAP_BYTES = 3 * 1024**3
OP_TIMEOUT_S = 60
CALIBRATE_EVERY_S = 0.3
SETUP_SAMPLES = 5

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S} s")


def _run_op(op, op_id, tracer, sampler):
    """(seconds, error or None); the check runs untimed, and so does the
    sampler."""
    if tracer is not None:
        tracer.begin_op(op_id)
    sampled = sampler.spent_s if sampler is not None else 0.0
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    start = time.perf_counter()
    try:
        got = op.run()
        error = None
    except Exception as exc:  # MemoryError and OpTimeout included
        got, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        if sampler is not None:
            elapsed -= sampler.spent_s - sampled
    emitted = sum(os.path.getsize(p) for p in op.emitted if os.path.exists(p))
    if tracer is not None:
        tracer.end_op({"cli.emit_bytes": emitted})
    if error is None:
        try:
            error = op.check(got)
        except Exception as exc:  # a malformed output is a wrong output
            error = f"check failed on the output: {type(exc).__name__}: {exc}"
    return elapsed, error


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="set up, report, exit")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--wrong-expected", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out")
    args = parser.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import splicekit  # noqa: F401  (the import is what set-up measures)
    import splicekit.cli  # noqa: F401
    import_s = time.perf_counter() - start

    import calibrate
    import workloads

    ops = workloads.build(args.workload, args.seed, args.workdir, args.tiny, args.wrong_expected)
    setup_speed, kernel_s = calibrate.speed_now(SETUP_SAMPLES)
    print(f"READY {import_s!r} {setup_speed!r} {kernel_s!r}", flush=True)
    if args.probe:
        return 0

    tracer = sampler = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        sampler = calibrate.Sampler(CALIBRATE_EVERY_S)
        sampler.start()
    signal.signal(signal.SIGALRM, _on_alarm)
    min_case_s = workloads.MIN_CASE_S[args.workload]
    records = []
    windows = []  # (start, end) of each op, perf_counter
    passes = []  # per whole pass, the id of each case's first op in it
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < args.seconds:
        heads = []
        for op in ops:
            if passes and time.perf_counter() - started >= args.seconds:
                break
            heads.append(len(records))
            spent = 0.0
            while True:
                began = time.perf_counter()
                elapsed, error = _run_op(op, len(records), tracer, sampler)
                records.append({"case": op.case, "s": elapsed, "error": error})
                windows.append((began, began + elapsed))
                spent += elapsed
                if spent >= min_case_s:
                    break
        if len(heads) == len(ops):
            passes.append(heads)
    if sampler is not None:
        sampler.stop()
        for record, (start, end) in zip(records, windows):
            record["speed"] = sampler.speed_around(start, end)
    for op in ops:
        for path in op.emitted:
            if os.path.exists(path):
                os.remove(path)

    result = {
        "import_s": import_s,
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if sampler is not None:
        result["speed"] = sampler.speed()
        result["calibration"] = sampler.samples
    if tracer is not None:
        result["layers"] = [tracer.metrics(p) for p in passes]
        result["layers_by_case"] = {
            records[op_id]["case"]: tracer.metrics([op_id]) for op_id in passes[0]
        }
        result["absent"] = tracer.absent
        spans_path = os.path.join(args.workdir, "spans.jsonl")
        tracer.write_spans(spans_path)
        result["spans"] = spans_path
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
