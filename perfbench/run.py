"""End-to-end benchmark of movingsearch: time until checked verdicts are in.

    python3 perfbench/run.py --workload oracle-exact --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` there, never from an installed copy, and a checkout without it
exits with code 2 before measuring anything.

One process, one client, a closed loop: the next instance starts only
when the previous verdict is in.  Set-up (import the library, generate
the seeded inputs) is timed several times and its median reported.  Whole
passes over the workload's fixed grid run, in a seeded order, until the
next pass would overrun ``--seconds``; at least one pass always runs.
Each instance's verdict is checked against a closed form; a contradiction
makes ``correct`` false, an exception is counted in ``failed`` and the
run goes on.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs pairs of
passes, one untraced and one with the wrappers of ``tracing.py``
installed, and prints the per-layer metrics; the spans are written once,
at the end, to ``.bench_out/`` in the checkout.

The last line of standard output is the result object; the line before
it is a report with the environment, failures and the tail percentile.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
LIBRARY_MODULES = ("spaces", "adaptive", "nonadaptive", "adversary", "oracle", "codec")
SETUP_REPEATS = 5
PROBE_REF_S = 0.001  # the probe's time on the reference host, which sets the scale of every timing
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10  # a tail percentile needs this many samples above it
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "peak_rss_mb": "MB",
}


class LibraryMissing(RuntimeError):
    pass


def import_library() -> SimpleNamespace:
    """Import movingsearch afresh from the checkout's src/."""
    for name in [n for n in sys.modules if n == "movingsearch" or n.startswith("movingsearch.")]:
        del sys.modules[name]
    try:
        mods = {name: importlib.import_module(f"movingsearch.{name}") for name in LIBRARY_MODULES}
    except ImportError as exc:
        raise LibraryMissing(f"cannot import movingsearch from {SRC}: {exc}") from exc
    where = os.path.realpath(sys.modules["movingsearch"].__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise LibraryMissing(f"movingsearch was imported from {where}, not from {SRC}")
    return SimpleNamespace(**mods)


def setup(workload: str, seed: int):
    ms = import_library()
    return ms, workloads.GRIDS[workload](ms, random.Random(seed))


def timed_setup(args, times: list):
    t0 = time.perf_counter()
    ms, instances = setup(args.workload, args.seed)
    times.append(time.perf_counter() - t0)
    return ms, instances


def probe() -> float:
    """Seconds for a fixed slice of pure-Python work, about 1 ms: the host's speed now."""
    t0 = time.perf_counter()
    memo: dict = {}
    for i in range(2000):
        key = (i & 63, i >> 6)
        memo[key] = memo.get(key, 0) + i * i % 7
    return time.perf_counter() - t0


@dataclass
class PassResult:
    wall_s: float  # as measured, not scaled
    times: dict = field(default_factory=dict)  # key -> seconds to the verdict, as measured
    errors: list = field(default_factory=list)  # (key, contradictions)
    failures: list = field(default_factory=list)  # (key, exception type)
    probes: list = field(default_factory=list)  # probe() before each instance

    @property
    def scale(self) -> float:
        """Factor from this pass's seconds to reference-host seconds."""
        return PROBE_REF_S / statistics.median(self.probes)


def run_pass(instances: list, order_seed: str, call=None) -> PassResult:
    """Each instance once, in a seeded order.  wall_s sums the instances' own
    times; the collection and the probe run before each instance stay
    outside them, so that garbage left by the previous instance does not
    land in the next one's time."""
    order = list(instances)
    random.Random(order_seed).shuffle(order)
    result = PassResult(0.0)
    for inst in order:
        gc.collect()
        result.probes.append(probe())
        t0 = time.perf_counter()
        try:
            problems = call(inst) if call else inst.check()
        except Exception as exc:  # one failed instance must not stop the run
            result.failures.append((inst.key, type(exc).__name__))
            result.wall_s += time.perf_counter() - t0
            continue
        elapsed = time.perf_counter() - t0
        result.wall_s += elapsed
        result.times[inst.key] = elapsed
        if problems:
            result.errors.append((inst.key, problems))
    return result


def passes(seconds: float, run_one):
    """Yield run_one(0), run_one(1), ... until the next would end after ``seconds``."""
    start = time.perf_counter()
    done = 0
    while True:
        yield run_one(done)
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return


def rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n samples, in exact integers."""
    return -(-round(p * 10) * n // 1000)


def tail_percentile(n: int):
    """The highest ladder percentile with at least MIN_BEYOND of n samples above it."""
    for p in TAIL_LADDER:
        if n - rank(p, n) >= MIN_BEYOND:
            return p
    return None


def nearest_rank(sorted_values: list, p: float) -> float:
    return sorted_values[max(0, rank(p, len(sorted_values)) - 1)]


def verdict_times(results: list) -> list:
    """Each instance's time to its verdict in reference-host seconds, sorted.

    The shared host runs stretches of seconds to minutes up to 1.5x slower,
    often a whole run.  So each pass's times are scaled by the pass's
    ``scale``, and each instance takes the first quartile of its scaled
    times over the passes, which keeps slow stretches out without resting
    on the single luckiest pass.
    """
    per_instance: dict = {}
    for r in results:
        scale = r.scale
        for key, t in r.times.items():
            per_instance.setdefault(key, []).append(t * scale)
    return sorted(
        statistics.quantiles(ts, n=4, method="inclusive")[0] if len(ts) > 1 else ts[0]
        for ts in per_instance.values()
    )


def git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            return next((line.split()[0] for line in f if line.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GRIDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            ms, instances = timed_setup(args, setup_times)
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    report = {"env": environment(args), "instances": len(instances)}
    if args.trace:
        results, metrics = traced_run(args, ms, instances, report)
    else:
        results = []
        for result in passes(args.seconds, lambda i: run_pass(instances, f"{args.seed}:{i}")):
            results.append(result)
            timed_setup(args, setup_times)  # spread the set-up samples over the run
        metrics = end_to_end(results, setup_times, report)

    attempted = sum(len(r.times) + len(r.failures) for r in results)
    failed = sum(len(r.failures) for r in results)
    errors = [e for r in results for e in r.errors]
    report.update(
        passes=len(results),
        attempted=attempted,
        failed=failed,
        failed_share=failed / attempted,
        failures=sorted({f"{key}: {kind}" for r in results for key, kind in r.failures}),
        verdict_errors=len(errors),
        first_errors=[f"{key}: {msgs[0]}" for key, msgs in errors[:5]],
        wall_s_per_pass=[r.wall_s for r in results],
        scale_per_pass=[r.scale for r in results],
    )
    print(json.dumps({"report": report}))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def end_to_end(results: list, setup_times: list, report: dict) -> dict:
    verdicts = verdict_times(results)
    p = tail_percentile(len(verdicts))
    if p is None:
        raise RuntimeError(f"{len(verdicts)} verdicts are too few for a tail percentile")
    report.update(tail_percentile=p, tail_samples=len(verdicts))
    run_scale = PROBE_REF_S / statistics.median(t for r in results for t in r.probes)
    values = {
        "setup_s": statistics.median(setup_times) * run_scale,
        "wall_s": sum(verdicts),
        "verdict_p50_s": statistics.median(verdicts),
        "verdict_tail_s": nearest_rank(verdicts, p),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def traced_run(args, ms, instances: list, report: dict):
    """Pairs of passes in the same order, one untraced and one traced."""
    tracer = tracing.Tracer()
    call = lambda inst: tracer.call("instance " + inst.key, inst.check)  # noqa: E731

    def pair(i: int):
        order = f"{args.seed}:{i}"
        untraced = run_pass(instances, order)
        tracer.reset()
        tracer.install(ms, workloads)
        try:
            return untraced, run_pass(instances, order, call)
        finally:
            tracer.uninstall()

    untraced, traced, per_pass, dumps = [], [], [], []
    for plain, result in passes(args.seconds, pair):
        untraced.append(plain)
        traced.append(result)
        per_pass.append(tracing.layer_metrics(tracer, result.scale))
        dumps.append({
            "wall_s": result.wall_s,
            "load_share": tracing.load_share(tracer, args.workload, result.wall_s),
            "metrics": per_pass[-1],
            "ops": tracer.ops,
            "spans": tracer.spans,
        })
    report["load_share"] = [d["load_share"] for d in dumps]
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump({"env": report["env"], "passes": dumps}, f)
    report["trace_file"] = os.path.relpath(path, ROOT)
    values = tracing.median_metrics(per_pass)
    values["trace.overhead_s"] = sum(verdict_times(traced)) - sum(verdict_times(untraced))
    return untraced + traced, {name: (values[name], spec[0]) for name, spec in tracing.PER_LAYER.items()}


if __name__ == "__main__":
    sys.exit(main())
