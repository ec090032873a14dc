import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LADDER = os.path.join(ROOT, "bench", "ladder.py")


def test_ladder_case_reads_decide_splicing_stages():
    done = subprocess.run(
        [sys.executable, LADDER, "--case", "0", "--repeats", "1"],
        capture_output=True, text=True, check=True,
    )
    record = json.loads(done.stdout)
    assert record["case"] == "(aa)* classic theorem"
    assert (record["verdict"], record["witness"]) == ("no", "a" * 16)
    assert tuple(record["median_s"]) == (
        "resolve", "monoid", "rules", "saturate", "closure_dfa", "comparison",
    )
    assert record["total_s"] >= 0 and record["emit_s"] > 0
    assert record["emit_maxrss_mb"] >= record["ru_maxrss_mb"] > 0


def test_ladder_requires_an_output_path():
    done = subprocess.run([sys.executable, LADDER], capture_output=True, text=True)
    assert done.returncode != 0
    assert "--out is required" in done.stderr


def test_ladder_binary_case_runs_at_custom_bounds():
    done = subprocess.run(
        [sys.executable, LADDER, "--case", "23", "--repeats", "1"],
        capture_output=True, text=True, check=True,
    )
    record = json.loads(done.stdout)
    assert record["case"] == "a+b+ classic custom(3,3,3)"
    assert (record["verdict"], record["witness"]) == ("yes", None)
    assert (record["monoid_size"], record["rules"], record["closure_states"]) == (5, 2134, 83)


def test_ladder_compares_the_checkout_with_itself(tmp_path):
    out = tmp_path / "compare.json"
    subprocess.run(
        [sys.executable, LADDER, "--compare", ROOT, "--case", "0", "--repeats", "2",
         "--out", str(out)],
        capture_output=True, text=True, check=True,
    )
    (record,) = json.loads(out.read_text())["cases"]
    assert (record["case"], record["rounds"]) == ("(aa)* classic theorem", 2)
    for key in ("total_s", "calibrated_total_s", "ru_maxrss_mb"):
        change, parent = record["change"][key], record["parent"][key]
        assert change > 0 and parent > 0
        assert record["ratio"][key] == round(change / parent, 4)
    assert record["change"]["speed"] > 0 and record["parent"]["speed"] > 0


def test_ladder_comparison_records_each_side_s_outcome(tmp_path):
    out = tmp_path / "compare.json"
    subprocess.run(
        [sys.executable, LADDER, "--compare", ROOT, "--case", "0", "--case", "1",
         "--repeats", "1", "--out", str(out)],
        capture_output=True, text=True, check=True,
    )
    records = json.loads(out.read_text())["cases"]
    assert [r["case"] for r in records] == ["(aa)* classic theorem", "(aa)* pixton theorem"]
    for record in records:
        for side in ("change", "parent"):
            assert (record[side]["verdict"], record[side]["witness"]) == ("no", "a" * 16)
        assert set(record["ratio"]) == {"total_s", "calibrated_total_s", "ru_maxrss_mb"}
        assert record["change"]["emit_s"] > 0 and record["parent"]["emit_s"] > 0


def _ladder_module():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("field,parent_value", [("verdict", "inconclusive"), ("witness", "ab")])
def test_ladder_comparison_stops_on_a_changed_decision(monkeypatch, field, parent_value):
    """A verdict or witness that differs between the two sides ends the
    comparison with the case named; a closure-state count that differs
    does not."""
    ladder = _ladder_module()
    changed = {field: parent_value}  # what the parent side decides otherwise

    def record(script, index, repeats):
        parent = script == "PARENT"
        got = {
            "case": "a+b+ classic custom(3,3,3)", "verdict": "yes", "witness": None,
            "monoid_size": 5, "rules": 2134, "closure_states": 118 if parent else 83,
            "total_s": 1.0, "calibrated_total_s": 1.0, "speed": 1.0, "ru_maxrss_mb": 30.0,
            "median_s": {"rules": 0.25, "saturate": 0.5},
        }
        if parent:
            got.update(changed)
        return got

    monkeypatch.setattr(ladder, "_record", record)
    with pytest.raises(SystemExit, match=r"case 23 \(a\+b\+ classic custom\(3,3,3\)\)"):
        ladder.compare("PARENT", 23, 2)
    changed.clear()
    compared = ladder.compare("PARENT", 23, 2)
    assert (compared["parent"]["closure_states"], compared["change"]["closure_states"]) == (118, 83)
    assert compared["change"]["median_s"] == {"rules": 0.25, "saturate": 0.5}


def test_ladder_calls_its_hook_after_the_decisions_and_before_the_emits(monkeypatch):
    ladder = _ladder_module()
    events = []

    def decide(*case):
        events.append("decide")
        return {"rules": 0.1}, {"verdict": "yes"}, None

    def emit(decision):
        events.append("emit")
        return 0.1

    monkeypatch.setattr(ladder, "run_once", decide)
    monkeypatch.setattr(ladder, "emit_once", emit)
    monkeypatch.setattr(ladder, "ON_DECIDED", lambda: events.append("closing factor"))
    ladder.measure("a+", "a", "classic", None, 2)
    assert events == ["decide", "decide", "closing factor", "emit", "emit"]


# A stand-in for splicebench/calibrate.py whose host-speed factor is 1 plus
# the emits done so far, and a ladder that decides, maybe calls the hook,
# emits and prints its record.
_FAKE_CALIBRATE = """
emits = []
def speed_now(runs):
    return 1.0 + len(emits), None
"""
_FAKE_LADDER = """
import json
import calibrate
if {hook}:
    ON_DECIDED()
calibrate.emits.append("emit")
print(json.dumps({{"total_s": 3.0}}))
"""


@pytest.mark.parametrize("hook,speed", [(True, 1.0), (False, 1.5)])
def test_closing_speed_factor_is_read_before_the_emit_stage(tmp_path, monkeypatch, hook, speed):
    """Through the hook, the closing factor is read before the emits; a
    ladder without the hook has it read after its whole run."""
    ladder = _ladder_module()
    (tmp_path / "splicebench").mkdir()
    (tmp_path / "splicebench" / "calibrate.py").write_text(_FAKE_CALIBRATE)
    script = tmp_path / "ladder.py"
    script.write_text(_FAKE_LADDER.format(hook=hook))
    monkeypatch.setattr(ladder, "ROOT", str(tmp_path))
    record = ladder._record(str(script), 0, 1)
    assert record["speed"] == speed
    assert record["calibrated_total_s"] == round(3.0 / speed, 6)
