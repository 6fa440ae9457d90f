import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from helpers import assert_strategy_sound
from movingsearch.adaptive import AdaptiveStrategy
from movingsearch.cli import build_parser, main
from movingsearch.nonadaptive import TestMatrix
from movingsearch.oracle import exact_min_tests
from movingsearch.spaces import path


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def usage_error(capsys, *argv) -> str:
    """The stderr of an argv that argparse rejects with exit 2, before any command runs."""
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_table_path_capacity_row():
    code, text = run_cli(
        "table", "capacity", "--topology", "path", "--k", "1", "--s", "4", "--n", "0..6",
        "--format", "json-lines",
    )
    assert code == 0
    values = [json.loads(line)["N"] for line in text.splitlines()]
    assert values == [4, 6, 8, 10, 12, 14, 16]


def test_table_cycle_capacity_row():
    code, text = run_cli(
        "table", "capacity", "--topology", "cycle", "--k", "1", "--s", "5", "--n", "0..3",
        "--format", "json-lines",
    )
    assert code == 0
    assert [json.loads(l)["N"] for l in text.splitlines()] == [5, 6, 8, 12]


def test_table_accuracy_column():
    code, text = run_cli(
        "table", "accuracy", "--topology", "path", "--k", "2", "--N", "1..13",
        "--format", "json-lines",
    )
    assert code == 0
    rows = [json.loads(l) for l in text.splitlines()]
    assert [r["s"] for r in rows] == [1, 2, 3, 4, 5, 5, 6, 6, 7, 7, 7, 7, 7]
    assert all(r["source"] == "path-min-accuracy" for r in rows)


def test_table_regime_violation_per_cell():
    code, text = run_cli(
        "table", "capacity", "--topology", "cycle", "--k", "2", "--s", "7", "--n", "0..2",
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
    assert text == "walk=3,3,3,3,3,3,3\nbits=000000\ndecoded=1-4\n"
    # positions past the six tested and the one after are not read, and the walk= line says so
    code, text = run_cli("codec", "--N", "16", "--k", "1", "--walk", "3,3,3,3,3,3,3,4,5,6,7")
    assert code == 0
    assert text == "walk=3,3,3,3,3,3,3\nbits=000000\ndecoded=1-4\n"
    # a walk shorter than the matrix: every position is read, the last one after the last test
    code, text = run_cli("codec", "--N", "16", "--k", "1", "--walk", "3,4,5")
    assert code == 0
    assert text == "walk=3,4,5\nbits=00\ndecoded=1-8\n"
    code, text = run_cli("codec", "--N", "16", "--k", "1", "--bits", "000000")
    assert code == 0
    assert "decoded=1-4" in text


def test_strategy_round_trip(tmp_path):
    target = tmp_path / "tree.txt"
    code, text = run_cli(
        "strategy", "cycle", "--N", "12", "--k", "1", "--s", "5", "--out", str(target),
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
        "sweep", "margin", "--topology", "path", "--N", "9", "--k", "1", "--s", "4", "--n", "2",
    )
    assert code == 0
    assert "|D_2| >= 5" in text
    assert "accuracy 4 refuted" in text


def test_adversary_sweep_answers_below_the_split_cap():
    # expanding the whole last level of this sweep passed MAX_SPLITS and
    # exited 3; the budgeted oracle agrees that 2 tests do not reach 6
    code, text = run_cli(
        "sweep", "greedy", "--N", "19", "--k", "1", "--n", "2", "--test-class", "all_subsets", "--s", "6",
    )
    assert (code, text) == (0, "every all_subsets strategy with 2 tests ends with |D_2| >= 7: accuracy 6 refuted\n")
    assert exact_min_tests(path(19, 1), 6, "all_subsets", budget=2).status == "budget_exceeded"


def test_adversary_window_transcript():
    code, text = run_cli(
        "adversary", "window", "shifting", "--N", "9", "--k", "1",
    )
    assert code == 0
    assert "tracked=" in text


@pytest.mark.parametrize("argv", [
    ("sweep", "margin", "--N", "20", "--k", "1", "--n", "3", "--s", "3"),
    ("adversary", "margin", "shifting", "--N", "20", "--k", "1", "--n", "2", "--s", "3"),
])
def test_margin_below_its_regime_is_usage_error(argv, capsys):
    code, text = run_cli(*argv)
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: accuracy s=3 below the 4k=4 regime of the margin adversary\n"


@pytest.mark.parametrize("argv", [
    ("strategy", "split", "--N", "20", "--k", "2", "--s", "7"),
    ("simulate", "split", "--N", "20", "--k", "2", "--s", "7", "--seed", "1"),
    ("adversary", "greedy", "split", "--N", "20", "--k", "2", "--s", "7"),
    ("adversary", "margin", "split", "--N", "30", "--k", "2", "--s", "7", "--n", "2"),
])
def test_split_below_its_regime_is_usage_error(argv, capsys):
    code, text = run_cli(*argv)
    assert code == 2 and text == ""
    assert "accuracy s=7 below the 4k=8 regime" in capsys.readouterr().err


def test_window_adversary_on_a_scattered_row_is_usage_error(tmp_path, capsys):
    # the row meets the first block in two runs, which the window rule does not answer
    target = tmp_path / "m.txt"
    target.write_text("0110000000\n1000111001\n", encoding="ascii")
    code, text = run_cli("adversary", "window", "matrix", "--N", "10", "--k", "2", "--matrix-file", str(target))
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (
        "error: the window adversary cannot answer: no 7-wide block survives test 1,5-7,10 with window 1-7\n"
    )


def test_window_adversary_plays_the_expanding_matrix(tmp_path):
    # rows from the third on are not intervals, but each meets the block in one run
    mfile = tmp_path / "m.txt"
    run_cli("matrix", "--N", "16", "--k", "1", "--out", str(mfile))
    assert any(len(t.intervals) > 1 for t in TestMatrix.parse(mfile.read_text()).tests())
    code, text = run_cli("adversary", "window", "matrix", "--N", "16", "--k", "1", "--matrix-file", str(mfile))
    assert code == 0
    assert text.splitlines()[-1] == "final |D_6| = 4"


def test_adversary_counter_mode(tmp_path):
    mfile = tmp_path / "m.txt"
    run_cli("matrix", "--N", "16", "--k", "1", "--out", str(mfile))
    code, text = run_cli(
        "adversary", "counter", "--topology", "path", "--N", "16", "--k", "1",
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


def test_oracle_restricted_strategy_is_sound():
    code, text = run_cli(
        "oracle", "--N", "8", "--k", "1", "--s", "4", "--restricted", "--emit-strategy",
    )
    record, tree = text.split("\n", 1)
    assert code == 0 and json.loads(record)["flag"] is False
    st = AdaptiveStrategy.parse(tree, path(8, 1, moves_after_last_test=False), 4)
    assert st.depth() == 1
    assert_strategy_sound(st)


MISSING_OR_REMOVED = [
    (("oracle", "--N", "8", "--k", "1"), "the following arguments are required: --s"),
    (("oracle", "--N", "8", "--k", "1", "--s", "4", "--check", "before"), "unrecognized arguments: --check before"),
    (("sweep", "greedy", "--N", "8", "--k", "1", "--n", "2", "--restricted"), "unrecognized arguments: --restricted"),
    (("verify", "--scale", "tiny"), "unrecognized arguments: --scale tiny"),
    (("table", "accuracy", "--k", "1", "--s-star", "--N", "5"), "unrecognized arguments: --s-star"),
    # one walk source, and one direction of the codec
    (("simulate", "split", "--N", "10", "--k", "1", "--s", "4", "--walk", "5,5,5,5,5", "--seed", "3",
      "--adversarial"), "argument --seed: not allowed with argument --walk"),
    (("codec", "--N", "16", "--k", "1", "--walk", "3,3,3", "--bits", "000"),
     "argument --bits: not allowed with argument --walk"),
    # a seed of 0 is a seed too
    (("simulate", "split", "--N", "10", "--k", "1", "--s", "4", "--walk", "5,5,5", "--seed", "0"),
     "argument --seed: not allowed with argument --walk"),
    (("simulate", "matrix", "--N", "10", "--k", "1", "--matrix-file", "m.txt", "--seed", "0", "--adversarial"),
     "argument --adversarial: not allowed with argument --seed"),
]


@pytest.mark.parametrize("argv, cause", MISSING_OR_REMOVED, ids=[f"argv{i}" for i in range(len(MISSING_OR_REMOVED))])
def test_missing_or_removed_options_are_usage_errors(capsys, argv, cause):
    err = usage_error(capsys, *argv)
    assert err.splitlines()[-1].endswith(f" error: {cause}"), err


def test_simulate_seeded_deterministic():
    code1, text1 = run_cli(
        "simulate", "split", "--N", "10", "--k", "1", "--s", "4", "--seed", "3",
    )
    code2, text2 = run_cli(
        "simulate", "split", "--N", "10", "--k", "1", "--s", "4", "--seed", "3",
    )
    assert code1 == code2 == 0
    assert text1 == text2
    assert "announced=" in text1


def test_simulate_illegal_walk_is_usage_error(capsys):
    code, _ = run_cli(
        "simulate", "split", "--N", "10", "--k", "1", "--s", "5", "--walk", "1,9",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "speed 1" in err and "Traceback" not in err


@pytest.mark.parametrize("walk", ["3,20", "3,9"])
def test_codec_checks_the_whole_walk_as_simulate_does(walk, capsys):
    # the codec encodes all but the last position, which it still checks
    code, text = run_cli("codec", "--N", "16", "--k", "1", "--walk", walk)
    assert code == 2 and text == ""
    assert capsys.readouterr().err == f"error: walk {walk} leaves the arena or moves farther than speed 1 in one step\n"


@pytest.mark.parametrize("s", ["0", "-3"])
def test_simulate_with_an_accuracy_below_one_is_a_usage_error(tmp_path, capsys, s):
    target = str(tmp_path / "m16.txt")
    assert run_cli("matrix", "--N", "16", "--k", "1", "--out", target)[0] == 0
    code, text = run_cli("simulate", "matrix", "--N", "16", "--k", "1", "--matrix-file", target, "--s", s, "--seed", "1")
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: accuracy must be >= 1\n"


def test_simulate_below_the_strategys_accuracy_is_a_verification_failure(tmp_path, capsys):
    # the 12-vertex matrix decodes to 4 positions, wider than --s asks
    target = str(tmp_path / "m.txt")
    assert run_cli("matrix", "--N", "12", "--k", "1", "--out", target)[0] == 0
    code, _ = run_cli("simulate", "matrix", "--N", "12", "--k", "1", "--matrix-file", target, "--s", "2", "--seed", "3")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failed: decoded set has 4 > 2") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, reached",
    [
        (["simulate", "sliding", "--N", "12", "--k", "1", "--span", "1", "--s", "2", "--seed", "3"], 4),
        (["simulate", "sliding", "--N", "12", "--k", "2", "--span", "2", "--s", "9"], 8),
        (["strategy", "shifting", "--N", "12", "--k", "1", "--s", "4"], 4),
        (["adversary", "window", "sliding", "--N", "12", "--k", "1", "--s", "4"], 4),
    ],
)
def test_s_with_a_shifting_or_sliding_kind_is_usage_error(argv, reached, capsys):
    # these strategies reach their own accuracy, 3k+span, whatever --s asks
    at = argv.index("--s")
    err = usage_error(capsys, *argv)
    assert err.splitlines()[-1] == f"movingsearch: error: unrecognized arguments: --s {argv[at + 1]}"
    args = build_parser().parse_args(argv[:at] + argv[at + 2:])
    assert args.build(args).accuracy_target == reached


@pytest.mark.parametrize(
    "argv, option",
    [
        (["strategy", "shifting", "--N", "20", "--k", "2", "--span", "2"], "--span"),
        (["strategy", "split", "--N", "20", "--k", "2", "--s", "9", "--span", "2"], "--span"),
        (["strategy", "cycle", "--N", "20", "--k", "1", "--s", "5", "--kind", "shifting", "--span", "3"], "--kind"),
        (["adversary", "window", "shifting", "--N", "9", "--k", "1", "--test-class", "all_subsets"], "--test-class"),
        (["adversary", "greedy", "split", "--N", "12", "--k", "1", "--n", "2", "--s", "5"], "--n"),
        (["adversary", "greedy", "matrix", "--N", "12", "--k", "1", "--n", "2", "--matrix-file", "m.txt"], "--n"),
        (["adversary", "counter", "--N", "16", "--k", "1", "--s", "4", "--matrix-file", "m.txt"], "--s"),
        (["simulate", "matrix", "--N", "12", "--k", "1", "--kind", "split", "--matrix-file", "m.txt"], "--kind"),
        # the window and margin rules play on paths
        (["adversary", "window", "matrix", "--topology", "cycle", "--N", "12", "--k", "1", "--matrix-file", "m.txt"],
         "--topology"),
        (["adversary", "margin", "matrix", "--topology", "path", "--N", "12", "--k", "1", "--n", "2", "--s", "4",
          "--matrix-file", "m.txt"], "--topology"),
    ],
)
def test_options_the_chosen_path_does_not_read_are_usage_errors(argv, option, capsys):
    # named before any file is read, so m.txt need not exist
    err = usage_error(capsys, *argv).splitlines()[-1]
    assert err.startswith("movingsearch: error: unrecognized arguments: ") and option in err.split(), err


def test_strategy_too_deep_to_build_is_a_resource_cap(capsys):
    code, text = run_cli("strategy", "shifting", "--N", "2001", "--k", "1")
    assert code == 3 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("resource cap exceeded: maximum recursion depth exceeded") and err.count("\n") == 1


def test_margin_adversary_reads_s_as_its_own_target():
    code, text = run_cli("adversary", "margin", "shifting", "--N", "12", "--k", "1", "--s", "4", "--n", "3")
    assert code == 0 and text.endswith("final |D_3| = 5\n")


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
    code, text = run_cli("verify", "--check", "example1", "--check", "sliding-window")
    assert code == 0
    assert [line.split()[:4] for line in text.splitlines()] == [
        ["PASS", "criterion", "1", "[example1]"],
        ["PASS", "criterion", "9", "[sliding-window]"],
    ]


def test_verify_unknown_check_is_usage_error():
    code, _ = run_cli("verify", "--check", "nope")
    assert code == 2


def test_usage_error_exit_code(capsys):
    err = usage_error(capsys, "strategy", "cycle", "--N", "12", "--k", "1")
    assert "required: --s" in err  # cycle strategies need --s


def test_accuracy_table_without_vertex_range_is_usage_error(capsys):
    err = usage_error(capsys, "table", "accuracy", "--k", "1")
    assert "--N" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("greedy", "--N", "5", "--k", "1", "--n", "-1"),
        ("margin", "--N", "30", "--k", "1", "--s", "4", "--n", "-1"),
    ],
)
def test_sweep_negative_test_budget_is_usage_error(capsys, argv):
    code, _ = run_cli("sweep", *argv)
    assert code == 2
    err = capsys.readouterr().err
    assert "test budget must be >= 0" in err and "Traceback" not in err


def test_sweep_deep_test_budget_answers(capsys):
    code, text = run_cli(
        "sweep", "greedy", "--topology", "path", "--N", "5", "--k", "1", "--n", "2000",
    )
    assert code == 0 and text.strip().endswith("|D_2000| >= 4")
    assert "Traceback" not in capsys.readouterr().err


def test_all_subsets_sweep_cap_exit_code(capsys):
    code, text = run_cli(
        "sweep", "greedy", "--topology", "cycle", "--N", "23", "--k", "1", "--n", "1",
        "--test-class", "all_subsets",
    )
    assert code == 3 and text == ""
    assert "capped at N <= 22" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("accuracy", "--N", "5..3"), "runs backwards"),
        (("accuracy", "--N", "1..1000000000000"), "lists more than 100000 values"),
        (("capacity", "--s", "5", "--n", "6..0"), "runs backwards"),
        (("capacity", "--s", "5", "--n", "0..100000"), "lists more than 100000 values"),
    ],
)
def test_table_rejects_reversed_and_huge_ranges(capsys, argv, message):
    # checked before any value is listed, so nothing is allocated
    code, text = run_cli("table", *argv, "--k", "1")
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_table_range_at_the_length_limit_runs():
    code, text = run_cli("table", "accuracy", "--N", "1..100000", "--k", "1", "--format", "csv")
    assert code == 0 and len(text.splitlines()) == 100_001


def test_out_of_memory_is_a_resource_cap(capsys, monkeypatch):
    def exhausted(n, s, k):
        raise MemoryError

    monkeypatch.setattr("movingsearch.adaptive.path_capacity", exhausted)
    code, text = run_cli("table", "capacity", "--s", "5", "--k", "1", "--n", "1000000000000")
    assert code == 3 and text == ""
    err = capsys.readouterr().err
    assert err == "resource cap exceeded: out of memory\n"


def test_nonadaptive_accuracy_table_on_cycles_is_usage_error(capsys):
    # the non-adaptive floor is known for paths only
    err = usage_error(capsys, "table", "nonadaptive", "--topology", "cycle", "--N", "5..9", "--k", "1")
    assert err.splitlines()[-1] == "movingsearch: error: unrecognized arguments: --topology cycle"


@pytest.mark.parametrize(
    "argv",
    [
        ("capacity", "--s", "4", "--n", "0..2", "--N", "5"),
        ("accuracy", "--N", "5..6", "--s", "4", "--n", "2"),
        ("accuracy", "--N", "5", "--n", "2"),
    ],
)
def test_table_with_floor_and_capacity_inputs_is_usage_error(capsys, argv):
    # --N asks for accuracy floors, --s with --n for capacities: no input is ignored
    err = usage_error(capsys, "table", *argv, "--k", "1")
    reads = ("--N",) if argv[0] == "accuracy" else ("--s", "--n")
    unread = [f"{o} {v}" for o, v in zip(argv[1::2], argv[2::2]) if o not in reads]
    assert err.splitlines()[-1] == "movingsearch: error: unrecognized arguments: " + " ".join(unread)


@pytest.mark.parametrize("topology", ["path", "cycle"])
def test_nonadaptive_capacity_table_is_usage_error(capsys, topology):
    # no leaf tabulates non-adaptive capacities
    err = usage_error(
        capsys, "table", "capacity", "--nonadaptive", "--topology", topology, "--k", "1", "--s", "5", "--n", "0..2",
    )
    assert err.splitlines()[-1] == "movingsearch: error: unrecognized arguments: --nonadaptive"


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


# -- fuzzed argv ------------------------------------------------------------------

def cli_parsers(parser, words=()):
    """(command words, parser) for ``parser`` and every parser below it."""
    yield words, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from cli_parsers(sub, words + (name,))


def cli_leaves():
    """Command words -> parser, for every parser that takes no further command word."""
    return {
        words: p for words, p in cli_parsers(build_parser())
        if not any(isinstance(a, argparse._SubParsersAction) for a in p._actions)
    }


def cli_options():
    """Leaf command words -> {long option: the values it takes}: its
    choices, [] for a flag, None for anything else."""
    return {
        words: {a.option_strings[-1]: (list(a.choices) if a.choices else [] if a.nargs == 0 else None)
                for a in p._actions if a.option_strings and a.option_strings[-1] != "--help"}
        for words, p in cli_leaves().items()
    }


CLI_OPTIONS = cli_options()
# small values (N <= 10) and ranges, then junk
CLI_NUMBERS = ["0", "1", "2", "3", "4", "5", "6", "7", "8", "10", "-1", "0..3", "3..1", "2..2", "4..10"]
CLI_CHECKS = ["example1", "eq1", "restricted-formulas", "sliding-window", "x"]  # the quick ones
CLI_JUNK = ["1,2,3", "3,3,4", "1-3", "01", "2.5", "", "x", "--", "-", ",", "..", "\u0663", "0101",
            "tree.txt", "--x"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


@hs.composite
def cli_argv(draw):
    """A leaf command with most of its options, each with a value it takes;
    now and then a junk token in place of an option or a value."""
    words = draw(hs.sampled_from(sorted(CLI_OPTIONS)))
    options = CLI_OPTIONS[words]
    argv = list(words)
    for option in draw(hs.permutations(sorted(options))):
        if draw(hs.integers(0, 3)) == 0:
            continue
        argv.append(option)
        takes = options[option]
        if takes != []:  # not a flag
            argv.append(draw(hs.sampled_from(CLI_CHECKS if option == "--check" else takes or CLI_NUMBERS)))
        if draw(hs.integers(0, 9)) == 0:
            argv.append(draw(hs.sampled_from(CLI_JUNK)))
    if words == ("verify",) and "--check" not in argv:
        argv += ["--check", "eq1"]  # all nine checks take half a second; test_verify_* run them
    return argv


@given(cli_argv())
@settings(max_examples=200, deadline=None)
def test_fuzzed_argv_keeps_the_exit_code_contract(fuzz_dir, argv):
    # files that --out writes land in fuzz_dir, and --matrix-file reads from there
    err, cwd = io.StringIO(), os.getcwd()
    os.chdir(fuzz_dir)
    try:
        with mock.patch.dict(os.environ, {"MOVINGSEARCH_OUTDIR": str(fuzz_dir)}), \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv, out=io.StringIO())
    except SystemExit as exc:  # argparse: 2 on a usage error
        code = exc.code
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv


# -- the command tree ------------------------------------------------------------

# one argv per leaf that exits 0 and reaches every option the leaf declares;
# m.txt is the 10-vertex matrix
SOURCE_ARGV = {
    "split": "--N 10 --k 1 --s 4",
    "shifting": "--N 10 --k 1",
    "sliding": "--N 10 --k 1 --span 1",
    "cycle": "--N 12 --k 1 --s 5",
    "matrix": "--topology path --N 10 --k 1 --matrix-file m.txt",
}
LEAF_ARGV = {
    ("table", "capacity"): "--topology cycle --k 1 --s 5 --n 0..2 --format csv",
    ("table", "accuracy"): "--topology cycle --k 1 --N 3..5 --format csv",
    ("table", "nonadaptive"): "--k 1 --N 3..5 --format csv",
    **{("strategy", kind): f"{SOURCE_ARGV[kind]} --out tree.txt" for kind in ("split", "shifting", "sliding", "cycle")},
    ("matrix",): "--N 10 --k 1 --out m.txt",
    **{("simulate", kind): f"{argv} --seed 3 --restricted" for kind, argv in SOURCE_ARGV.items() if kind != "matrix"},
    ("simulate", "matrix"): f"{SOURCE_ARGV['matrix']} --s 4 --seed 3 --restricted",
    **{("adversary", "greedy", kind): argv for kind, argv in SOURCE_ARGV.items()},
    # the window and margin rules play on paths: a matrix takes no --topology there
    **{("adversary", "window", kind): argv.replace("--topology path ", "")
       for kind, argv in SOURCE_ARGV.items() if kind != "cycle"},
    **{("adversary", "margin", kind): argv.replace("--topology path ", "") + " --n 1"
       + ("" if "--s" in argv.split() else " --s 4") for kind, argv in SOURCE_ARGV.items() if kind != "cycle"},
    ("adversary", "counter"): SOURCE_ARGV["matrix"],
    ("sweep", "greedy"): "--topology cycle --N 8 --k 1 --n 1 --s 5 --test-class all_subsets",
    ("sweep", "margin"): "--topology path --N 9 --k 1 --n 2 --s 4 --test-class intervals",
    ("oracle",): "--topology path --N 8 --k 1 --s 4 --test-class intervals --restricted --format csv "
                 "--budget 3 --emit-strategy",
    ("codec",): "--N 10 --k 1 --walk 3,3,3 --matrix-file m.txt",
    ("verify",): "--check eq1 --format csv",
}


class Reads:
    """Parsed arguments that note each name a handler reads."""

    def __init__(self, args):
        self.args, self.read = args, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.args, name)


def test_every_leaf_reads_every_option_it_declares(tmp_path, monkeypatch):
    # argparse rejects whatever a leaf does not declare; this checks the other
    # side, that each declared option reaches the handler on the leaf's argv
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MOVINGSEARCH_OUTDIR", raising=False)
    assert run_cli("matrix", *LEAF_ARGV[("matrix",)].split())[0] == 0
    leaves = cli_leaves()
    assert sorted(leaves) == sorted(LEAF_ARGV)
    for words, p in leaves.items():
        declared = {a.dest for a in p._actions if a.option_strings and a.dest != "help"}
        args = Reads(build_parser().parse_args([*words, *LEAF_ARGV[words].split()]))
        with contextlib.redirect_stderr(io.StringIO()):
            assert args.fn(args, io.StringIO()) == 0, words
        assert declared <= args.read, (words, declared - args.read)


def test_no_parser_takes_an_abbreviated_option(capsys):
    assert all(p.allow_abbrev is False for _, p in cli_parsers(build_parser()))
    # read as --span, this would print a span-2 tree
    err = usage_error(capsys, "strategy", "sliding", "--N", "12", "--k", "2", "--s", "2")
    assert err.splitlines()[-1] == "movingsearch: error: unrecognized arguments: --s 2"


def readme_tour():
    """The argv of every ``movingsearch`` line in the README's CLI tour."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        tour = fh.read().split("## CLI tour", 1)[1].split("```", 2)[1]
    return [shlex.split(line, comments=True)[1:] for line in tour.splitlines() if line.startswith("movingsearch ")]


def test_readme_cli_tour_runs(tmp_path, monkeypatch):
    # the tour writes tree.txt and m.txt, and reads m.txt back
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MOVINGSEARCH_OUTDIR", raising=False)
    tour = readme_tour()
    assert len(tour) == 18
    for argv in tour:
        assert run_cli(*argv)[0] == 0, argv


@pytest.mark.parametrize("argv", [
    ["codec", "--N", "8", "--k", "1", "--bits=--"],
    ["simulate", "matrix", "--N", "8", "--k", "1", "--matrix-file=--"],
    ["verify", "--check=--"],
])
def test_bare_double_dash_value_is_usage_error(argv, capsys):
    assert run_cli(*argv)[0] == 2
    assert "needs a value, got '--'" in capsys.readouterr().err


def test_strategy_file_as_matrix_file_is_usage_error(tmp_path, capsys):
    target = str(tmp_path / "tree.txt")
    assert run_cli("strategy", "split", "--N", "12", "--k", "1", "--s", "4", "--out", target)[0] == 0
    capsys.readouterr()
    code, _ = run_cli("simulate", "matrix", "--N", "12", "--k", "1", "--matrix-file", target)
    assert code == 2
    assert capsys.readouterr().err == (
        "error: matrix line 1: expected a row of '0'/'1' characters as wide as the first, "
        "got 'node 0 test=1-6 on0=1 on'\n"
    )


@pytest.mark.parametrize("argv", [
    ["simulate", "matrix", "--N", "6", "--k", "1", "--seed", "1"],
    ["codec", "--N", "6", "--k", "1", "--bits", "01"],
    ["adversary", "greedy", "matrix", "--N", "6", "--k", "1"],
    ["simulate", "matrix", "--N", "3", "--k", "1", "--seed", "1"],
])
def test_matrix_of_the_wrong_width_is_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "m.txt"
    target.write_text("0011\n0110\n", encoding="ascii")
    assert run_cli(*argv, "--matrix-file", str(target))[0] == 2
    n = argv[argv.index("--N") + 1]
    assert capsys.readouterr().err == f"error: matrix has 4 columns but the arena has {n} vertices\n"


# near-matrices, text with a few stray characters, then anything
MATRIX_TEXT = hs.one_of(
    hs.lists(hs.text("01", min_size=1, max_size=9), max_size=4).map("\n".join),
    hs.text("01 \n\t\r2x-", max_size=30),
    hs.text(max_size=12),
)
BIT_TEXT = hs.one_of(hs.text("01", max_size=6), hs.text("01 x-", max_size=6), hs.text(max_size=6))


@given(MATRIX_TEXT, BIT_TEXT)
@example("", "--")  # argparse reads "--bits=--" as an empty list
@settings(max_examples=60, deadline=None)
def test_fuzzed_matrix_and_bit_text_keep_the_exit_code_contract(fuzz_dir, text, bits):
    target = fuzz_dir / "fuzzed-matrix.txt"
    target.write_text(text, encoding="utf-8")  # the CLI reads it as ASCII: anything else is exit 2
    for argv in (
        ["codec", "--N", "8", "--k", "1", "--matrix-file", str(target), f"--bits={bits}"],
        ["codec", "--N", "8", "--k", "1", f"--bits={bits}"],
        ["simulate", "matrix", "--N", "8", "--k", "1", "--matrix-file", str(target), "--seed", "1"],
        ["adversary", "counter", "--N", "8", "--k", "1", "--matrix-file", str(target)],
    ):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv, out=io.StringIO())
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
