"""Tracing from outside the program, for the benchmark's traced run.

``Tracer.install`` swaps movingsearch's public functions for timing
wrappers at every module that holds them -- the defining module and each
module that imported the name -- plus the ``PositionSet`` operators and
the benchmark's own leaf replay.  The untraced run installs nothing.

Layer calls become spans kept in memory: id, parent id, name, start, end
and self time (duration minus the time covered by child calls).  The
``spaces`` operations run millions of times in a sweep, so they are folded
into per-operation totals (calls, total and self seconds) instead; their
time still counts as child time of the span that called them.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from typing import Callable

# span name of each public layer function, by defining module
LAYER_FUNCTIONS = {
    "oracle": {
        "exact_min_tests": "oracle.min_tests",
        "exact_min_accuracy": "oracle.min_accuracy",
        "exact_best_matrix": "oracle.best_matrix",
        "extract_strategy": "oracle.extract",
    },
    "adversary": {
        "greedy_forced_size": "adversary.sweep",
        "margin_forced_size": "adversary.sweep",
        "greedy_adversary": "adversary.transcript",
        "window_adversary": "adversary.transcript",
        "margin_adversary": "adversary.transcript",
        "matrix_counter": "adversary.transcript",
    },
    "adaptive": {
        "cycle_strategy": "adaptive.build",
        "path_strategy": "adaptive.build",
        "path_shifting_strategy": "adaptive.build",
        "path_sliding_window_strategy": "adaptive.build",
    },
    "nonadaptive": {
        "expanding_accuracy_matrix": "nonadaptive.build",
        "general_k_matrix": "nonadaptive.build",
        "evaluate_matrix": "nonadaptive.evaluate",
    },
    "codec": {
        "simulate_session": "codec.session",
        "decode": "codec.decode",
    },
}
SPACES_OPS = ("neighborhood", "update", "split", "final_expand")
# & - | are aliases of these three and get the same wrapper
POSITIONSET_OPS = {"__init__": (), "intersection": ("__and__",), "difference": ("__sub__",), "union": ("__or__",)}

# per-layer metric -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "spaces.calls": ("count", "lower", "wall_s on sweep-refute"),
    "spaces.self_s": ("s", "lower", "wall_s on sweep-refute"),
    "spaces.positionset_ops": ("count", "lower", "wall_s on sweep-refute"),
    "spaces.positionset_self_s": ("s", "lower", "wall_s on sweep-refute"),
    "adversary.sweep_calls": ("count", "lower", "wall_s, verdict_tail_s on sweep-refute"),
    "adversary.sweep_s": ("s", "lower", "wall_s, verdict_tail_s on sweep-refute"),
    "adversary.sweep_self_s": ("s", "lower", "wall_s, verdict_tail_s on sweep-refute"),
    "adversary.transcript_s": ("s", "lower", "wall_s on construct-replay"),
    "oracle.min_tests_calls": ("count", "lower", "wall_s, verdict_tail_s, peak_rss_mb on oracle-exact"),
    "oracle.min_tests_s": ("s", "lower", "wall_s, verdict_tail_s, peak_rss_mb on oracle-exact"),
    "oracle.states": ("count", "lower", "wall_s, verdict_tail_s, peak_rss_mb on oracle-exact"),
    "oracle.states_per_s": ("1/s", "higher", "wall_s, verdict_tail_s, peak_rss_mb on oracle-exact"),
    "oracle.min_accuracy_calls": ("count", "lower", "verdict_p50_s on oracle-exact"),
    "oracle.min_accuracy_s": ("s", "lower", "verdict_p50_s on oracle-exact"),
    "oracle.best_matrix_calls": ("count", "lower", "wall_s on oracle-exact"),
    "oracle.best_matrix_s": ("s", "lower", "wall_s on oracle-exact"),
    "oracle.extract_s": ("s", "lower", "verdict_p50_s on oracle-exact"),
    "oracle.self_s": ("s", "lower", "wall_s on oracle-exact"),
    "adaptive.build_s": ("s", "lower", "wall_s, failed share on construct-replay"),
    "adaptive.nodes": ("count", "lower", "wall_s, failed share on construct-replay"),
    "adaptive.roundtrip_s": ("s", "lower", "wall_s on construct-replay"),
    "adaptive.replay_s": ("s", "lower", "wall_s on construct-replay"),
    "nonadaptive.build_s": ("s", "lower", "wall_s on construct-replay"),
    "nonadaptive.evaluate_s": ("s", "lower", "wall_s on construct-replay"),
    "codec.session_s": ("s", "lower", "verdict_p50_s on construct-replay"),
    "codec.decode_s": ("s", "lower", "verdict_p50_s on construct-replay"),
    "codec.bits": ("count", "lower", "verdict_p50_s on construct-replay"),
    "trace.overhead_s": ("s", "lower", "traced wall_s minus untraced wall_s, per workload"),
}

# the layer calls each workload was built to load; their share of the traced wall time
LOAD_SPANS = {
    "oracle-exact": ("oracle.",),
    "sweep-refute": ("adversary.sweep",),
    "construct-replay": ("adaptive.", "codec.", "nonadaptive.", "adversary.transcript"),
}


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, self seconds)
        self.ops: dict[str, list] = {}  # op name -> [calls, total seconds, self seconds]
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # open calls: [nearest kept span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple] = []

    def reset(self):
        """Start a fresh record, leaving the old one to its holders; the
        wrappers of the next install count into the new one."""
        self.spans, self.ops, self.counts = [], {}, {}

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a kept span."""
        stack = self._stack
        self._next_id += 1
        frame = [self._next_id, 0.0]
        parent = stack[-1][0] if stack else None
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            if stack:
                stack[-1][1] += end - start
            self.spans.append((frame[0], parent, name, start, end, end - start - frame[1]))

    def span_wrapper(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """fn traced as a kept span; count(counts, result, args) records a result size."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, result, args)
            return result

        return traced

    def op_wrapper(self, name: str, fn: Callable) -> Callable:
        """fn traced into the per-operation totals only."""
        agg = self.ops.setdefault(name, [0, 0.0, 0.0])
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [stack[-1][0] if stack else None, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]

        return traced

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original: Callable, wrapper: Callable):
        """Replace original at every movingsearch module that holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "movingsearch" or mod_name.startswith("movingsearch."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def install(self, ms, bench_module):
        """Wrap the layer functions of the modules in namespace ms, and
        bench_module.replay_leaves as the adaptive leaf replay."""
        for mod_name, names in LAYER_FUNCTIONS.items():
            mod = getattr(ms, mod_name)
            for fn_name, span in names.items():
                original = getattr(mod, fn_name)
                self._patch_everywhere(original, self.span_wrapper(span, original, _COUNTERS.get(fn_name)))
        for fn_name in SPACES_OPS:
            original = getattr(ms.spaces, fn_name)
            self._patch_everywhere(original, self.op_wrapper(f"spaces.{fn_name}", original))
        position_set = ms.spaces.PositionSet
        for method, aliases in POSITIONSET_OPS.items():
            wrapper = self.op_wrapper(f"positionset.{method}", position_set.__dict__[method])
            for attr in (method, *aliases):
                self._patch(position_set, attr, wrapper)
        strategy = ms.adaptive.AdaptiveStrategy
        self._patch(strategy, "serialize", self.span_wrapper("adaptive.roundtrip", strategy.serialize))
        parse = strategy.__dict__["parse"].__func__
        self._patch(strategy, "parse", classmethod(self.span_wrapper("adaptive.roundtrip", parse)))
        self._patch(bench_module, "replay_leaves", self.span_wrapper("adaptive.replay", bench_module.replay_leaves))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _add(counts: dict, key: str, amount: int):
    counts[key] = counts.get(key, 0) + amount


def _count_nodes(counts: dict, strategy, args):
    _add(counts, "adaptive.nodes", strategy.num_nodes())


# result sizes recorded after a layer call returns, outside its span
_COUNTERS = {
    "exact_min_tests": lambda counts, gv, args: _add(counts, "oracle.states", gv.states),
    **dict.fromkeys(LAYER_FUNCTIONS["adaptive"], _count_nodes),
    "simulate_session": lambda counts, tr, args: _add(counts, "codec.bits", len(tr.rounds)),
    "decode": lambda counts, decoded, args: _add(counts, "codec.bits", len(args[2])),
}


def layer_metrics(tracer: Tracer, scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics (all but trace.overhead_s) from what the tracer
    recorded; seconds are multiplied by scale."""
    spans: dict[str, list] = {}  # span name -> [calls, total seconds, self seconds]
    for _id, _parent, name, start, end, self_s in tracer.spans:
        agg = spans.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += (end - start) * scale
        agg[2] += self_s * scale

    def span(name, i):
        return spans.get(name, [0, 0.0, 0.0])[i]

    def ops(prefix, i):
        return sum(agg[i] for name, agg in tracer.ops.items() if name.startswith(prefix)) * (scale if i else 1)

    min_tests_s = span("oracle.min_tests", 1)
    states = tracer.counts.get("oracle.states", 0)
    return {
        "spaces.calls": ops("spaces.", 0),
        "spaces.self_s": ops("spaces.", 2),
        "spaces.positionset_ops": ops("positionset.", 0),
        "spaces.positionset_self_s": ops("positionset.", 2),
        "adversary.sweep_calls": span("adversary.sweep", 0),
        "adversary.sweep_s": span("adversary.sweep", 1),
        "adversary.sweep_self_s": span("adversary.sweep", 2),
        "adversary.transcript_s": span("adversary.transcript", 1),
        "oracle.min_tests_calls": span("oracle.min_tests", 0),
        "oracle.min_tests_s": min_tests_s,
        "oracle.states": states,
        "oracle.states_per_s": states / min_tests_s if min_tests_s else 0.0,
        "oracle.min_accuracy_calls": span("oracle.min_accuracy", 0),
        "oracle.min_accuracy_s": span("oracle.min_accuracy", 1),
        "oracle.best_matrix_calls": span("oracle.best_matrix", 0),
        "oracle.best_matrix_s": span("oracle.best_matrix", 1),
        "oracle.extract_s": span("oracle.extract", 1),
        "oracle.self_s": sum(agg[2] for name, agg in spans.items() if name.startswith("oracle.")),
        "adaptive.build_s": span("adaptive.build", 1),
        "adaptive.nodes": tracer.counts.get("adaptive.nodes", 0),
        "adaptive.roundtrip_s": span("adaptive.roundtrip", 1),
        "adaptive.replay_s": span("adaptive.replay", 1),
        "nonadaptive.build_s": span("nonadaptive.build", 1),
        "nonadaptive.evaluate_s": span("nonadaptive.evaluate", 1),
        "codec.session_s": span("codec.session", 1),
        "codec.decode_s": span("codec.decode", 1),
        "codec.bits": tracer.counts.get("codec.bits", 0),
    }


def load_share(tracer: Tracer, workload: str, wall_s: float) -> float:
    """Share of wall_s spent in the outermost calls of the layers the workload loads."""
    prefixes = LOAD_SPANS[workload]
    parents = {sid: parent for sid, parent, *_ in tracer.spans}
    loaded = {sid for sid, _p, name, *_ in tracer.spans if name.startswith(prefixes)}

    def outermost(sid):
        parent = parents[sid]
        while parent is not None:
            if parent in loaded:
                return False
            parent = parents.get(parent)
        return True

    busy = sum(end - start for sid, _p, _n, start, end, _s in tracer.spans if sid in loaded and outermost(sid))
    return busy / wall_s if wall_s else 0.0


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
