"""Tests of the benchmark's own helpers: statistics, span accounting, tracing."""

import json
import math

import numpy as np
import pytest

import spans
import stats
from conftest import BENCH_DIR
from spans import METHOD_RUN, OP, Span


def test_tail_is_the_eleventh_largest_sample():
    samples = list(range(100, 0, -1))  # order must not matter
    assert stats.tail_percentile(samples) == (90.0, 90)


def test_tail_percentile_follows_the_sample_count():
    pct, value = stats.tail_percentile([5.0] * 10 + [1.0] * 8)
    assert value == 1.0  # ten samples beyond it, all of them 5.0
    assert pct == pytest.approx(100.0 * 8 / 18)
    assert stats.tail_percentile(range(11)) == (pytest.approx(100 / 11), 0)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(range(10))


def test_quartile_spread_is_relative_to_the_median():
    assert stats.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)


def _span(name, parent, start, end, info=None, error=False):
    return Span(name, parent, start, end, error, info)


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span(OP, -1, 0.0, 10.0),
        _span("cli.main", 0, 1.0, 9.0),
        _span("methods.apply_method", 1, 2.0, 8.0),
        _span(METHOD_RUN, 2, 2.5, 7.5),
        _span("core.validate", 3, 3.0, 4.0),
        _span("core.validate", 3, 5.0, 5.5),
    ]
    assert spans.self_times(tree) == pytest.approx([2.0, 2.0, 1.0, 3.5, 1.0, 0.5])
    assert sum(spans.self_times(tree)) == pytest.approx(tree[0].duration)


def test_distinct_evaluations_are_counted_per_tuner_call():
    a, b = [("w", 5.0)], [("w", 7.0)]
    assert spans.distinct_evaluations([[a, a, b], [a], []]) == (3, 4)


def _tuner_op(start, phis, failed=()):
    """An op span holding one autotune call with one method run per phi."""
    out = [_span(OP, -1, start, start + 10.0), _span("tune.autotune", None, start, start + 9.0)]
    for k, phi in enumerate(phis):
        out.append(_span(METHOD_RUN, None, start + k * 0.1, start + k * 0.1 + 0.05,
                         info={"phi": sorted(phi.items())}, error=k in failed))
    return out


def _link(ops):
    """Give each op's spans their parent indices: op <- autotune <- runs."""
    tree = []
    for op in ops:
        base = len(tree)
        for i, s in enumerate(op):
            s.parent = -1 if i == 0 else base + (0 if i == 1 else 1)
            tree.append(s)
    return tree


def test_layer_metrics_pool_tuner_evaluations_over_ops():
    tree = _link([_tuner_op(0.0, [{"w": 5}, {"w": 5}, {"w": 7}], failed={2}),
                  _tuner_op(20.0, [{"w": 5}])])
    metrics = spans.layer_metrics(tree)
    assert metrics["tune.evaluations"] == 2.0
    assert metrics["tune.distinct_ratio"] == 0.75
    assert metrics["tune.failed_evaluations"] == 0.5
    assert metrics["tune.method_s"] == pytest.approx(0.1)
    assert metrics["trace.traced_op_s"] == 10.0
    assert metrics["tvr.converged_ratio"] == 0.0  # no TVR calls


def test_layer_times_are_scaled_by_their_op_root():
    tree = _link([_tuner_op(0.0, [{"w": 5}]), _tuner_op(20.0, [{"w": 5}])])
    tree[0].info = {"scale": 0.5}
    metrics = spans.layer_metrics(tree)
    assert metrics["trace.traced_op_s"] == pytest.approx((0.5 * 10.0 + 10.0) / 2)
    assert metrics["tune.method_s"] == pytest.approx((0.5 * 0.05 + 0.05) / 2)
    assert metrics["tune.evaluations"] == 1.0


def test_layer_metrics_cover_every_per_layer_metric_in_benchmark_json():
    declared = {m["name"] for m in
                json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["per_layer"]}
    computed = set(spans.layer_metrics(_link([_tuner_op(0.0, [{"w": 5}])])))
    # the replay adds the untraced time and the overhead
    assert declared == computed | {"trace.untraced_op_s", "trace.overhead_s"}
    mapped = {name for row in json.loads((BENCH_DIR / "layers.json").read_text())["rows"]
              for name in row["metrics"]}
    assert declared == mapped


def test_install_traces_nested_library_calls_and_uninstall_restores():
    from derivkit import kalman, methods
    from derivkit.core import Grid, Signal

    original = kalman.rts_smooth
    recorder = spans.Recorder()
    uninstall = spans.install(recorder)
    try:
        t = np.sort(np.random.default_rng(0).uniform(0.0, 4.0, 200))
        signal = Signal(Grid(t), np.sin(t))
        recorder.active = True
        root = recorder.open(OP)
        methods.apply_method("rts", signal)
        recorder.close(root)
        recorder.active = False
        methods.apply_method("rts", signal)  # inactive: not recorded
    finally:
        uninstall()
    names = [s.name for s in recorder.spans]
    assert names[:3] == [OP, "methods.apply_method", METHOD_RUN]
    assert {"kalman.rtsdiff", "kalman.rts_smooth", "kalman.discretize",
            "core.validate"} <= set(names)
    assert names.count(OP) == 1
    assert kalman.rts_smooth is original
    assert methods.get_method("rts").run.__name__ == "_rts_run"
    metrics = spans.layer_metrics(recorder.spans)
    accounted = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert accounted + metrics["core.validate_s"] == pytest.approx(metrics["trace.traced_op_s"])
    assert metrics["kalman.discretize_calls"] >= 1
    assert math.isfinite(metrics["kalman.rtsdiff_s"])
