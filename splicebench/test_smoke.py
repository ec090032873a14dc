"""Smoke test of the benchmark itself, at tiny size.

    python3 -m pytest splicebench/test_smoke.py

Checks that every metric BENCHMARK.json names is reported with its unit,
that a deliberately wrong expected value is reported as a failure, that the
benchmark refuses to run without the splicekit sources, and that the
reference oracle and the seeded symmetries behave as the workloads assume.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from reference import stabilized_closure_words  # noqa: E402
from workloads import WORKLOADS, criterion7_corpus, present  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _run(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, "--seed", "5", "--seconds", "1", *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd, check=False)


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_reported(workload, trace):
    result = _result(_run("--workload", workload, "--trace", str(trace), "--tiny"))
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_value_is_reported_as_failure(workload):
    result = _result(_run("--workload", workload, "--trace", "0", "--tiny", "--wrong-expected"))
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_refuses_to_run_without_sources():
    bare = os.path.join(ROOT, ".splicebench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "splicebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        done = _run("--workload", WORKLOADS[0], "--trace", "0", cwd=bare,
                    script=os.path.join(bare, "splicebench", "run.py"))
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""


def _naive_bounded(variant, axioms, rules, cap):
    """Splice every pair under every rule until nothing new fits the cap."""
    words = {w for w in axioms if len(w) <= cap}
    while True:
        new = set()
        for rule, w1, w2 in itertools.product(rules, words, words):
            if variant == "classic":
                u1, v1, u2, v2 = rule
                left, right, insert = u1 + v1, u2 + v2, u1 + v2
            else:
                left, right, insert = rule
            for i in range(len(w1) - len(left) + 1):
                if not w1.startswith(left, i):
                    continue
                for j in range(len(w2) - len(right) + 1):
                    if w2.startswith(right, j):
                        z = w1[:i] + insert + w2[j + len(right):]
                        if len(z) <= cap:
                            new.add(z)
        if new <= words:
            return words
        words |= new


def test_reference_matches_naive_splicing_and_symmetries():
    from reference import bounded_words

    swap = str.maketrans("ab", "ba")
    for system in criterion7_corpus(40):
        variant, axioms, rules = system
        assert bounded_words(variant, axioms, rules, 5) == _naive_bounded(
            variant, axioms, rules, 5)
        words = stabilized_closure_words(system)
        assert stabilized_closure_words(present(system, 1)) == {w.translate(swap) for w in words}
        assert stabilized_closure_words(present(system, 2)) == {w[::-1] for w in words}


def test_sampler_times_the_kernel_inside_a_long_computation():
    from calibrate import Sampler

    sampler = Sampler(0.05)
    start = time.perf_counter()
    sampler.start()
    try:
        while time.perf_counter() < start + 0.6:
            sum(range(10_000))
    finally:
        sampler.stop()
    end = time.perf_counter()
    assert len(sampler.samples) >= 5
    assert 0 < sampler.spent_s < end - start
    assert sampler.speed() > 0
    # The window around a short stretch of the run still holds samples.
    assert sampler.speed_around(start + 0.3, start + 0.31) > 0
    assert sampler.speed_around(end + 100, end + 101) > 0
