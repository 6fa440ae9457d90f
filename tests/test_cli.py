import io
import json
import os
import subprocess
import sys
import time

import pytest

from movingsearch.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_table_path_capacity_row():
    code, text = run_cli(
        "table", "--topology", "path", "--k", "1", "--s", "4", "--n", "0..6",
        "--format", "json-lines",
    )
    assert code == 0
    values = [json.loads(line)["N"] for line in text.splitlines()]
    assert values == [4, 6, 8, 10, 12, 14, 16]


def test_table_cycle_capacity_row():
    code, text = run_cli(
        "table", "--topology", "cycle", "--k", "1", "--s", "5", "--n", "0..3",
        "--format", "json-lines",
    )
    assert code == 0
    assert [json.loads(l)["N"] for l in text.splitlines()] == [5, 6, 8, 12]


def test_table_accuracy_column():
    code, text = run_cli(
        "table", "--topology", "path", "--k", "2", "--s-star", "--N", "1..13",
        "--format", "json-lines",
    )
    assert code == 0
    rows = [json.loads(l) for l in text.splitlines()]
    assert [r["s"] for r in rows] == [1, 2, 3, 4, 5, 5, 6, 6, 7, 7, 7, 7, 7]
    assert all(r["source"] == "path-min-accuracy" for r in rows)


def test_table_regime_violation_per_cell():
    code, text = run_cli(
        "table", "--topology", "cycle", "--k", "2", "--s", "7", "--n", "0..2",
        "--format", "json-lines",
    )
    assert code == 0
    rows = [json.loads(l) for l in text.splitlines()]
    assert all(r["N"] is None and "regime-error" in r["source"] for r in rows)


def test_matrix_command_prints_reference():
    code, text = run_cli("matrix", "--N", "16", "--k", "1")
    assert code == 0
    assert text.splitlines()[0] == "0000000011111111"
    assert len(text.splitlines()) == 6


def test_codec_round_trip():
    code, text = run_cli("codec", "--N", "16", "--k", "1", "--walk", "3,3,3,3,3,3,3")
    assert code == 0
    assert "bits=000000" in text
    assert "decoded=1-4" in text
    code, text = run_cli("codec", "--N", "16", "--k", "1", "--bits", "000000")
    assert code == 0
    assert "decoded=1-4" in text


def test_strategy_round_trip(tmp_path):
    target = tmp_path / "tree.txt"
    code, text = run_cli(
        "strategy", "--topology", "cycle", "--N", "12", "--k", "1", "--s", "5",
        "--out", str(target),
    )
    assert code == 0
    assert "depth 3" in text
    lines = target.read_text().splitlines()
    assert lines[0].startswith("node 0 test=")


def test_outdir_env_resolution(tmp_path, monkeypatch):
    monkeypatch.setenv("MOVINGSEARCH_OUTDIR", str(tmp_path))
    code, _ = run_cli("matrix", "--N", "10", "--k", "1", "--out", "m.txt")
    assert code == 0
    assert (tmp_path / "m.txt").exists()


def test_adversary_margin_sweep_report():
    code, text = run_cli(
        "adversary", "--mode", "margin", "--topology", "path",
        "--N", "9", "--k", "1", "--s", "4", "--n", "2",
    )
    assert code == 0
    assert "|D_2| >= 5" in text
    assert "accuracy 4 refuted" in text


def test_adversary_window_transcript():
    code, text = run_cli(
        "adversary", "--mode", "window", "--topology", "path", "--N", "9", "--k", "1",
    )
    assert code == 0
    assert "tracked=" in text


def test_adversary_counter_mode(tmp_path):
    mfile = tmp_path / "m.txt"
    run_cli("matrix", "--N", "16", "--k", "1", "--out", str(mfile))
    code, text = run_cli(
        "adversary", "--mode", "counter", "--topology", "path", "--N", "16", "--k", "1",
        "--matrix-file", str(mfile),
    )
    assert code == 0
    assert "forced_accuracy=4" in text


def test_oracle_record():
    code, text = run_cli(
        "oracle", "--topology", "path", "--N", "10", "--k", "1", "--s", "4",
    )
    assert code == 0
    rec = json.loads(text)
    assert rec["min_tests"] == 3 and rec["class"] == "intervals"
    assert rec["states"] > 0 and rec["edges"] > 0


def test_oracle_restricted_flag():
    code, text = run_cli(
        "oracle", "--topology", "path", "--N", "8", "--k", "1", "--s", "4", "--restricted",
    )
    rec = json.loads(text)
    assert code == 0 and rec["flag"] is False and rec["min_tests"] == 1


def test_simulate_seeded_deterministic():
    code1, text1 = run_cli(
        "simulate", "--topology", "path", "--N", "10", "--k", "1", "--s", "4", "--seed", "3",
    )
    code2, text2 = run_cli(
        "simulate", "--topology", "path", "--N", "10", "--k", "1", "--s", "4", "--seed", "3",
    )
    assert code1 == code2 == 0
    assert text1 == text2
    assert "announced=" in text1


def test_simulate_illegal_walk_is_usage_error(capsys):
    code, _ = run_cli(
        "simulate", "--topology", "path", "--N", "10", "--k", "1", "--s", "5", "--walk", "1,9",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "speed 1" in err and "Traceback" not in err


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "movingsearch", "verify", "--check", "example1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout


def test_verify_tiny_scale():
    code, text = run_cli("verify", "--scale", "tiny", "--check", "example1", "--check", "sliding-window")
    assert code == 0
    assert text.count("PASS") == 2


def test_verify_unknown_check_is_usage_error():
    code, _ = run_cli("verify", "--check", "nope")
    assert code == 2


def test_usage_error_exit_code():
    code, _ = run_cli("strategy", "--topology", "cycle", "--N", "12", "--k", "1")
    assert code == 2  # cycle strategies need --s


def test_accuracy_table_without_vertex_range_is_usage_error(capsys):
    code, _ = run_cli("table", "--k", "1", "--s-star")
    assert code == 2
    err = capsys.readouterr().err
    assert "--N" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--mode", "greedy", "--N", "5", "--k", "1", "--n", "-1"),
        ("--mode", "margin", "--N", "30", "--k", "1", "--s", "4", "--n", "-1"),
    ],
)
def test_sweep_negative_test_budget_is_usage_error(capsys, argv):
    code, _ = run_cli("adversary", *argv)
    assert code == 2
    err = capsys.readouterr().err
    assert "test budget must be >= 0" in err and "Traceback" not in err


def test_sweep_deep_test_budget_answers(capsys):
    code, text = run_cli(
        "adversary", "--mode", "greedy", "--topology", "path", "--N", "5", "--k", "1", "--n", "2000",
    )
    assert code == 0 and text.strip().endswith("|D_2000| >= 4")
    assert "Traceback" not in capsys.readouterr().err


def test_all_subsets_sweep_cap_exit_code(capsys):
    code, text = run_cli(
        "adversary", "--mode", "greedy", "--topology", "cycle", "--N", "23", "--k", "1", "--n", "1",
        "--test-class", "all_subsets",
    )
    assert code == 3 and text == ""
    assert "capped at N <= 22" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--s-star", "--N", "5..3"), "runs backwards"),
        (("--s-star", "--N", "1..1000000000000"), "lists more than 100000 values"),
        (("--s", "5", "--n", "6..0"), "runs backwards"),
        (("--s", "5", "--n", "0..100000"), "lists more than 100000 values"),
    ],
)
def test_table_rejects_reversed_and_huge_ranges(capsys, argv, message):
    # checked before any value is listed, so nothing is allocated
    code, text = run_cli("table", "--k", "1", *argv)
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_table_range_at_the_length_limit_runs():
    code, text = run_cli("table", "--s-star", "--N", "1..100000", "--k", "1", "--format", "csv")
    assert code == 0 and len(text.splitlines()) == 100_001


def test_out_of_memory_is_a_resource_cap(capsys, monkeypatch):
    def exhausted(n, s, k):
        raise MemoryError

    monkeypatch.setattr("movingsearch.adaptive.path_capacity", exhausted)
    code, text = run_cli("table", "--s", "5", "--k", "1", "--n", "1000000000000")
    assert code == 3 and text == ""
    err = capsys.readouterr().err
    assert err == "resource cap exceeded: out of memory\n"


def test_nonadaptive_accuracy_table_on_cycles_is_usage_error(capsys):
    code, text = run_cli(
        "table", "--s-star", "--nonadaptive", "--topology", "cycle", "--N", "5..9", "--k", "1",
    )
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert "paths only" in err and "Traceback" not in err


@pytest.mark.parametrize("topology", ["path", "cycle"])
def test_nonadaptive_capacity_table_is_usage_error(capsys, topology):
    code, text = run_cli(
        "table", "--nonadaptive", "--topology", topology, "--k", "1", "--s", "5", "--n", "0..2",
    )
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert "not implemented" in err and "Traceback" not in err


def test_budget_exit_code():
    code, _ = run_cli(
        "oracle", "--topology", "path", "--N", "23", "--k", "1", "--s", "4",
        "--test-class", "all_subsets",
    )
    assert code == 3


def test_oracle_budget_bounds_the_search():
    # the budget stops the deepening: no search of the 5 tests this needs
    start = time.perf_counter()
    code, text = run_cli(
        "oracle", "--topology", "cycle", "--N", "40", "--k", "1", "--s", "6", "--budget", "1",
    )
    assert code == 0 and json.loads(text)["status"] == "budget_exceeded"
    assert time.perf_counter() - start < 2


def test_oracle_negative_budget_is_usage_error(capsys):
    code, _ = run_cli(
        "oracle", "--topology", "path", "--N", "8", "--k", "1", "--s", "4", "--budget", "-1",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "budget" in err and "Traceback" not in err
