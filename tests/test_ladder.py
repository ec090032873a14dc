import json
import os
import subprocess
import sys

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
    assert record["total_s"] >= 0


def test_ladder_requires_an_output_path():
    done = subprocess.run([sys.executable, LADDER], capture_output=True, text=True)
    assert done.returncode != 0
    assert "--out is required" in done.stderr
