"""In-process A/B of two source checkouts on one perfbench workload.

    python3 tools/ab_inprocess.py PARENT_CHECKOUT CHANGE_CHECKOUT \
        --workload construct-replay --seed 7 --repeats 5

Loads ``src/movingsearch`` of each checkout into this one process under
its own package name, and the parent's a second time under a third,
builds the workload's instance grid from ``perfbench/workloads.py`` of
this checkout (read only) with the same seed for every side, and runs
every instance on each side in turn, the side that goes first rotating
from one instance to the next.  Each instance's time is the best of
``--repeats`` runs on that side; an instance that raises is timed up to
its exception and counted.  Each run starts with the side's round memo
(``spaces._round``) cleared, where the side has one: in a perfbench pass
other instances run in between, so a run there finds none of the rounds
it computed before either.  Prints the parent's and the change's totals,
the ratio change/parent, and the ratio of the parent's second copy to
its first: the tool's own bias, which a change ratio must clear to mean
anything.  All sides share the interpreter, the heap and the machine's
state at each moment, so slow drift of the host cancels out; a run in
separate processes, as perfbench makes, is still the end-to-end measure.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import random
import sys
import time
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIBRARY_MODULES = ("spaces", "adaptive", "nonadaptive", "adversary", "oracle", "codec")


def load_library(checkout: str, name: str) -> SimpleNamespace:
    """The checkout's ``src/movingsearch`` imported as package ``name``."""
    pkg_dir = os.path.join(os.path.abspath(checkout), "src", "movingsearch")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"), submodule_search_locations=[pkg_dir]
    )
    if spec is None:
        raise SystemExit(f"no movingsearch package under {checkout}")
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in LIBRARY_MODULES})


def best_time(inst, repeats: int, clear_memo) -> tuple[float, bool]:
    """Best of ``repeats`` runs of one instance, each after ``clear_memo()``,
    and whether it raised."""
    best, failed = float("inf"), False
    for _ in range(repeats):
        clear_memo()
        gc.collect()
        t0 = time.perf_counter()
        try:
            inst.check()
        except Exception:  # the workload's failing rungs are timed up to their exception
            failed = True
        best = min(best, time.perf_counter() - t0)
    return best, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout holding the baseline src/movingsearch")
    parser.add_argument("change", help="checkout holding the changed src/movingsearch")
    parser.add_argument("--workload", default="construct-replay")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=5, help="runs per instance and side; the best counts")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    if args.workload not in workloads.GRIDS:
        parser.error(f"--workload must be one of {', '.join(sorted(workloads.GRIDS))}")
    paths = (args.parent, args.change, args.parent)
    sides = [load_library(path, f"movingsearch_ab{i}") for i, path in enumerate(paths)]
    grids = [workloads.GRIDS[args.workload](ms, random.Random(args.seed)) for ms in sides]
    clears = [getattr(getattr(ms.spaces, "_round", None), "cache_clear", lambda: None) for ms in sides]
    totals, failed = [0.0] * 3, [0] * 3
    for i, row in enumerate(zip(*grids)):
        for side in (i % 3, (i + 1) % 3, (i + 2) % 3):
            seconds, raised = best_time(row[side], args.repeats, clears[side])
            totals[side] += seconds
            failed[side] += raised
    for label, total, fails in zip(("parent", "change"), totals, failed):
        print(f"{label}: {total:.4f} s over {len(grids[0])} instances ({fails} raised)")
    print(f"ratio change/parent: {totals[1] / totals[0]:.4f}")
    print(f"ratio parent/parent: {totals[2] / totals[0]:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
