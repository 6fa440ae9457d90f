"""The oracle ladder: one exact query per rung, each in a child process of its own.

    python3 tools/oracle_ladder.py                      # every rung
    python3 tools/oracle_ladder.py "path(29,1) s=5"     # the rungs named

Each rung runs in a process started with the ``spawn`` method, under an
address-space limit (``resource.setrlimit(RLIMIT_AS)``, 3 GB) and a
wall-clock limit (60 s, an alarm in the child, and a kill shortly after
it from this process).  Prints one JSON line per rung, in order: its name,
``status`` (the query's status, ``edge_cap`` among them, or ``size_cap``
for N over the engine's cap, ``time_cap``, ``memory_cap`` or ``crashed``),
``tests`` (the fewest tests, or for an accuracy rung the least accuracy),
the query record's ``states`` and ``edges`` (none past a time or memory
cap), ``seconds`` and the child's peak RSS in MB: the README's ladder table.

The sweep rungs (``greedy cycle(37,1) n=4``, ``margin path(29,1) s=5
n=4``) ask the greedy or margin class sweep for the final size n tests
force, one vertex above the capacity, under the same limits: ``tests`` is
that size, ``status`` is ``solved`` or ``split_cap`` (past
``adversary.MAX_SPLITS``), and ``states`` and ``edges`` stay empty.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIMIT_SECONDS = 60
LIMIT_BYTES = 3 << 30
FIELDS = ("rung", "status", "tests", "states", "edges", "seconds", "peak_rss_mb")
# (topology, N, k, accuracy or None for the least accuracy, test class, budget)
RUNGS = [
    ("cycle", 37, 1, 5, "intervals", None),
    ("cycle", 68, 1, 5, "intervals", None),
    ("cycle", 69, 1, 6, "intervals", None),
    ("cycle", 69, 1, 5, "intervals", None),
    ("cycle", 72, 2, 10, "intervals", None),
    ("cycle", 73, 2, 10, "intervals", None),
    ("cycle", 80, 1, 5, "intervals", None),
    ("cycle", 80, 2, 9, "intervals", None),
    ("cycle", 33, 1, 4, "intervals", None),
    ("path", 29, 1, 5, "intervals", None),
    ("path", 47, 1, 5, "intervals", None),
    ("path", 47, 1, 5, "intervals", 5),
    ("path", 80, 1, 5, "intervals", None),
    ("path", 28, 1, 3, "intervals", None),
    ("path", 36, 1, 3, "intervals", None),
    ("path", 44, 1, 3, "intervals", None),
    ("path", 40, 1, 4, "intervals", None),
    ("path", 30, 1, 4, "intervals", 5),
    ("path", 40, 1, None, "intervals", None),
    ("path", 48, 1, None, "intervals", None),
    ("cycle", 22, 1, 5, "all_subsets", None),
    ("path", 18, 1, 4, "all_subsets", None),
]
# (sweep, topology, N, k, accuracy for the margin start or None, tests)
SWEEPS = [
    ("greedy", "cycle", 37, 1, None, 4),
    ("greedy", "cycle", 37, 1, None, 5),
    ("greedy", "cycle", 69, 1, None, 5),
    ("margin", "path", 15, 1, 4, 5),
    ("margin", "path", 29, 1, 5, 4),
    ("margin", "path", 47, 1, 5, 5),
    ("margin", "path", 25, 2, 8, 4),
    ("margin", "path", 29, 2, 9, 3),
    ("margin", "path", 41, 2, 9, 4),
]


def name(rung: tuple) -> str:
    if rung in SWEEPS:
        sweep, topology, n, k, s, rounds = rung
        return " ".join([sweep, f"{topology}({n},{k})"] + ([f"s={s}"] if s else []) + [f"n={rounds}"])
    topology, n, k, s, test_class, budget = rung
    words = [f"{topology}({n},{k})", f"s={s}" if s else "accuracy"]
    if budget is not None:
        words.append(f"budget={budget}")
    if test_class != "intervals":
        words.append(test_class)
    return " ".join(words)


class _TimeCap(Exception):
    pass


def _alarm(signum, frame):
    raise _TimeCap


def run_rung(rung: tuple, conn) -> None:
    """The child: set the limits, answer the rung, send its record."""
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from movingsearch import adversary, oracle, spaces
    from movingsearch.errors import BudgetExceededError

    sweep = rung in SWEEPS
    if sweep:
        kind, topology, n, k, s, rounds = rung
    else:
        topology, n, k, s, test_class, budget = rung
    space = getattr(spaces, topology)(n, k)
    gv, rec = None, dict.fromkeys(FIELDS, None) | {"rung": name(rung)}
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(LIMIT_SECONDS)
    start = time.perf_counter()
    try:
        if sweep:
            forced = (
                adversary.greedy_forced_size(space, rounds)
                if kind == "greedy"
                else adversary.margin_forced_size(space, rounds, s)
            )
            rec["status"], rec["tests"] = "solved", forced
        elif s is None:
            gv = oracle.exact_min_accuracy_value(space, test_class)
            rec["status"], rec["tests"] = gv.status, gv.s
        else:
            gv = oracle.exact_min_tests(space, s, test_class, budget)
            rec["status"], rec["tests"] = gv.status, gv.min_tests
    except BudgetExceededError as exc:  # the split or edge cap, or N over the cap the engine checks first
        gv = exc.value  # the oracle's record at the edge cap, else None
        rec["status"] = "split_cap" if sweep else gv.status if gv else "size_cap"
    except _TimeCap:
        rec["status"] = "time_cap"
    except MemoryError:
        rec["status"] = "memory_cap"
    finally:
        signal.alarm(0)
    rec["seconds"] = round(time.perf_counter() - start, 3)
    if gv:
        rec["states"], rec["edges"] = gv.states, gv.edges
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
    conn.send(rec)
    conn.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rungs", nargs="*", help="rung names as printed (default: every rung)")
    args = parser.parse_args(argv)
    by_name = {name(r): r for r in RUNGS + SWEEPS}
    unknown = [r for r in args.rungs if r not in by_name]
    if unknown:
        parser.error(f"unknown rung {unknown[0]!r}; rungs: {', '.join(by_name)}")
    ctx = multiprocessing.get_context("spawn")
    for key in args.rungs or by_name:
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=run_rung, args=(by_name[key], send))
        child.start()
        send.close()
        rec = dict.fromkeys(FIELDS, None) | {"rung": key, "status": "time_cap"}
        if receive.poll(LIMIT_SECONDS + 30):
            try:
                rec = receive.recv()
            except EOFError:  # the child died without a record
                rec["status"] = "crashed"
        child.kill()
        child.join()
        receive.close()
        print(json.dumps(rec), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
