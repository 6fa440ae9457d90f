import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_oracle_ladder_runs_one_rung_in_a_child():
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "oracle_ladder.py"), "path(29,1) s=5"],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert list(rec) == ["rung", "status", "tests", "states", "edges", "seconds", "peak_rss_mb"]
    assert (rec["rung"], rec["status"], rec["tests"]) == ("path(29,1) s=5", "solved", 5)
    assert rec["states"] > 0 and rec["edges"] > 0 and rec["seconds"] > 0 and rec["peak_rss_mb"] > 0


def test_oracle_ladder_rejects_an_unknown_rung():
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "oracle_ladder.py"), "path(29,1) s=6"],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 2 and "unknown rung 'path(29,1) s=6'" in run.stderr


def test_oracle_ladder_runs_a_sweep_rung_in_a_child():
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "oracle_ladder.py"), "margin path(29,2) s=9 n=3"],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    rec = json.loads(run.stdout)
    assert (rec["rung"], rec["status"], rec["tests"]) == ("margin path(29,2) s=9 n=3", "solved", 10)
    assert rec["states"] is None and rec["edges"] is None and rec["seconds"] > 0


def test_oracle_ladder_reads_an_accuracy_rung_from_its_record():
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "oracle_ladder.py"), "path(40,1) accuracy"],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    rec = json.loads(run.stdout)
    assert (rec["rung"], rec["status"], rec["tests"]) == ("path(40,1) accuracy", "solved", 4)
    assert rec["states"] is not None and rec["edges"] is not None
