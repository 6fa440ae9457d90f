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

Before the runs, each side's library is loaded afresh ``--repeats`` times,
the sides in rotation, and the median load time of each side is printed
with the same two ratios, so that a change to perfbench's ``setup_s``, most
of which is this load, can be compared beside the tool's own bias.  Each
side's load is then split into the median time spent compiling source
(``SourceFileLoader.source_to_code``) and the median of the rest, mostly
running the module bodies: class creation and module-level constants,
plus finding and reading the files.  Run
it as the benchmark host runs perfbench, with ``PYTHONDONTWRITEBYTECODE=1``:

    PYTHONDONTWRITEBYTECODE=1 python3 tools/ab_inprocess.py PARENT CHANGE

so that every load compiles the modules from source, as a set-up there
does.  The loads look for cached bytecode in an empty directory only
(``sys.pycache_prefix``), so a checkout's ``__pycache__`` is never read.
"""

from __future__ import annotations

import argparse
import gc
import importlib.machinery
import importlib.util
import os
import random
import statistics
import sys
import tempfile
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


def forget(name: str):
    for mod in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[mod]


def rotation(i: int) -> tuple[int, int, int]:
    """The three sides in the order they run in round i."""
    return i % 3, (i + 1) % 3, (i + 2) % 3


def load_times(paths, repeats: int) -> tuple[list[SimpleNamespace], list[tuple[float, float, float]]]:
    """Each side's library, loaded afresh ``repeats`` times with the side
    that goes first rotating from one round to the next, and the medians of
    each side's load seconds, of the compile seconds in them and of the
    rest.  The libraries of the last round are returned."""
    load_library(paths[0], "movingsearch_abwarm")  # untimed: imports the stdlib modules the library uses
    forget("movingsearch_abwarm")
    sides, times = [None] * len(paths), [[] for _ in paths]
    loader, compiled = importlib.machinery.SourceFileLoader, [0.0]
    source_to_code = loader.source_to_code

    def timed_source_to_code(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return source_to_code(self, *args, **kwargs)
        finally:
            compiled[0] += time.perf_counter() - t0

    prefix = sys.pycache_prefix
    with tempfile.TemporaryDirectory() as empty:
        sys.pycache_prefix = empty
        loader.source_to_code = timed_source_to_code
        try:
            for r in range(repeats):
                for side in rotation(r):
                    name = f"movingsearch_ab{side}"
                    forget(name)
                    sides[side] = None  # so that the collection frees the previous copy
                    gc.collect()
                    compiled[0] = 0.0
                    t0 = time.perf_counter()
                    sides[side] = load_library(paths[side], name)
                    total = time.perf_counter() - t0
                    times[side].append((total, compiled[0], total - compiled[0]))
        finally:
            del loader.source_to_code  # the inherited method again
            sys.pycache_prefix = prefix
    return sides, [tuple(map(statistics.median, zip(*t))) for t in times]


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
    parser.add_argument("--repeats", type=int, default=5,
                        help="runs per instance and side, the best counting, and library loads per side, the median counting")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    if args.workload not in workloads.GRIDS:
        parser.error(f"--workload must be one of {', '.join(sorted(workloads.GRIDS))}")
    paths = (args.parent, args.change, args.parent)
    if not sys.dont_write_bytecode:
        print("warning: without PYTHONDONTWRITEBYTECODE=1 the loads after the first read cached bytecode",
              file=sys.stderr)
    sides, loads = load_times(paths, args.repeats)
    grids = [workloads.GRIDS[args.workload](ms, random.Random(args.seed)) for ms in sides]
    clears = [getattr(getattr(ms.spaces, "_round", None), "cache_clear", lambda: None) for ms in sides]
    totals, failed = [0.0] * 3, [0] * 3
    for i, row in enumerate(zip(*grids)):
        for side in rotation(i):
            seconds, raised = best_time(row[side], args.repeats, clears[side])
            totals[side] += seconds
            failed[side] += raised
    for label, total, fails in zip(("parent", "change"), totals, failed):
        print(f"{label}: {total:.4f} s over {len(grids[0])} instances ({fails} raised)")
    print(f"ratio change/parent: {totals[1] / totals[0]:.4f}")
    print(f"ratio parent/parent: {totals[2] / totals[0]:.4f}")
    for label, (seconds, _, _) in zip(("parent", "change"), loads):
        print(f"{label} load: {seconds * 1e3:.2f} ms, median of {args.repeats}")
    print(f"load ratio change/parent: {loads[1][0] / loads[0][0]:.4f}")
    print(f"load ratio parent/parent: {loads[2][0] / loads[0][0]:.4f}")
    for label, (_, compiling, rest) in zip(("parent", "change"), loads):
        print(f"{label} load split: {compiling * 1e3:.2f} ms compile, {rest * 1e3:.2f} ms module bodies, "
              "medians")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
