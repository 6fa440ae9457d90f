"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

import json
import os
import re
import sys

import pytest

import run
import tracing
import workloads

sys.path.insert(0, run.SRC)


@pytest.mark.parametrize(
    "n, want",
    [(0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, want):
    assert run.tail_percentile(n) == want


def test_nearest_rank():
    values = list(range(1, 101))
    assert run.nearest_rank(values, 90.0) == 90
    assert run.nearest_rank(values, 50.0) == 50
    assert run.nearest_rank([7.0], 50.0) == 7.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_on_a_synthetic_span_tree():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def op_inner():
        clock.advance(0.5)

    inner = tracer.op_wrapper("positionset.__init__", op_inner)

    def op_outer():
        clock.advance(1.0)
        inner()
        clock.advance(0.25)

    outer = tracer.op_wrapper("spaces.update", op_outer)

    def child():
        clock.advance(2.0)
        outer()
        outer()

    def root():
        clock.advance(1.0)
        tracer.call("child", child)
        clock.advance(3.0)
        tracer.call("leaf", lambda: clock.advance(4.0))

    tracer.call("root", root)
    spans = {name: (sid, parent, end - start, self_s) for sid, parent, name, start, end, self_s in tracer.spans}
    root_id = spans["root"][0]
    assert spans["root"][1] is None
    assert spans["child"][1] == root_id and spans["leaf"][1] == root_id
    # child: 2 + 2 * 1.75 = 5.5 s, of which 3.5 s in the update op
    assert spans["child"][2:] == pytest.approx((5.5, 2.0))
    assert spans["leaf"][2:] == pytest.approx((4.0, 4.0))
    assert spans["root"][2:] == pytest.approx((13.5, 4.0))
    assert tracer.ops["spaces.update"] == pytest.approx([2, 3.5, 2.5])
    assert tracer.ops["positionset.__init__"] == pytest.approx([2, 1.0, 1.0])
    # the self times partition the root span
    assert sum(s[3] for s in spans.values()) + 2.5 + 1.0 == pytest.approx(spans["root"][2])


def test_verdict_times_scale_each_pass_then_take_the_lower_quartile():
    fast = run.PassResult(0.0, {"a": 1.0, "b": 0.1}, probes=[run.PROBE_REF_S] * 3)
    slow = run.PassResult(0.0, {"a": 3.0, "b": 0.3}, probes=[3 * run.PROBE_REF_S] * 3)
    odd = run.PassResult(0.0, {"a": 5.0}, probes=[run.PROBE_REF_S])
    # scaled: a -> 1.0, 1.0, 5.0 (first quartile 1.0); b -> 0.1, 0.1
    assert run.verdict_times([fast, slow, odd]) == pytest.approx([0.1, 1.0])
    assert run.verdict_times([odd]) == pytest.approx([5.0])


def test_failures_are_counted_and_the_pass_goes_on():
    def boom():
        raise RecursionError("deep")

    instances = [
        workloads.Instance("ok", lambda: []),
        workloads.Instance("boom", boom),
        workloads.Instance("wrong", lambda: ["contradiction"]),
    ]
    result = run.run_pass(instances, "order")
    assert result.failures == [("boom", "RecursionError")]
    assert sorted(result.times) == ["ok", "wrong"]
    assert result.errors == [("wrong", ["contradiction"])]


def _small(instances, limit=12):
    return [i for i in instances if max(int(n) for n in re.findall(r"N=(\d+)", i.key)) <= limit]


@pytest.mark.parametrize("workload", sorted(workloads.GRIDS))
def test_reduced_smoke_pass_has_no_verdict_errors(workload):
    ms, instances = run.setup(workload, seed=3)
    assert len({i.key for i in instances}) == len(instances), "instance keys must be unique"
    assert run.tail_percentile(len(instances)) == 90.0
    small = _small(instances)
    assert len(small) >= 10
    result = run.run_pass(small, "smoke")
    assert result.failures == []
    assert result.errors == []


def test_traced_pass_reports_every_layer_and_restores_the_library():
    ms, instances = run.setup("construct-replay", seed=5)
    originals = (ms.oracle.exact_min_tests, ms.spaces.PositionSet.__and__, ms.adaptive.AdaptiveStrategy.parse)
    tracer = tracing.Tracer()
    tracer.install(ms, workloads)
    try:
        extra = [workloads._min_tests(ms, ms.spaces.path(8, 1), 4, "intervals", 2, False)]
        result = run.run_pass(_small(instances, 20) + extra, "trace", lambda i: tracer.call("instance", i.check))
    finally:
        tracer.uninstall()
    assert result.errors == [] and result.failures == []
    metrics = tracing.layer_metrics(tracer)
    assert set(metrics) | {"trace.overhead_s"} == set(tracing.PER_LAYER)
    for name in ("spaces.calls", "spaces.positionset_ops", "adaptive.build_s", "adaptive.nodes",
                 "adaptive.roundtrip_s", "adaptive.replay_s", "adversary.transcript_s", "codec.session_s",
                 "codec.decode_s", "codec.bits", "nonadaptive.evaluate_s", "oracle.states"):
        assert metrics[name] > 0, name
    assert 0 < tracing.load_share(tracer, "construct-replay", result.wall_s) <= 1
    assert (ms.oracle.exact_min_tests, ms.spaces.PositionSet.__and__, ms.adaptive.AdaptiveStrategy.parse) == originals


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GRIDS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _target) in tracing.PER_LAYER.items()
    }
