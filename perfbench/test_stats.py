"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import pytest

import stats
import tracing


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 101))  # 1..100, shuffled order must not matter
    values.reverse()
    t = stats.tail(values)
    assert t.value == 90
    assert t.beyond == 10
    assert t.percentile == 90.0
    assert t.samples == 100
    assert sum(v > t.value for v in values) == 10


def test_tail_percentile_grows_with_the_sample_count():
    t = stats.tail([float(i) for i in range(1000)])
    assert t.value == 989.0
    assert t.percentile == 99.0
    assert t.beyond == 10


def test_tail_never_falls_below_the_median():
    # three classes of operation, as in a rotation: at 20 samples the order
    # statistic with ten beyond it is the lower middle one
    values = [0.01] * 10 + [0.3] * 5 + [0.5] * 5
    t = stats.tail(values)
    assert (t.value, t.percentile) == (pytest.approx(0.155), 50.0)
    t = stats.tail(values + [0.5])
    assert t.value == 0.3 and t.beyond == 10
    assert t.percentile == pytest.approx(100.0 * 11 / 21)


def test_tail_below_twenty_samples_falls_back_to_the_median():
    t = stats.tail([3.0, 1.0, 2.0, 10.0])
    assert t.value == 2.5
    assert t.percentile == 50.0
    assert t.samples == 4


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        stats.tail([])


def test_covered_merges_overlapping_intervals():
    assert stats.covered([]) == 0.0
    assert stats.covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == 3.0
    assert stats.covered([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        (0, 0.0, 10.0, None),  # root
        (1, 1.0, 3.0, 0),      # child
        (2, 2.0, 2.5, 1),      # grandchild: counts against 1, not 0
        (3, 5.0, 9.0, 0),      # child
        (4, 11.0, 12.0, None),  # second root
    ]
    selfs = stats.self_times(spans)
    assert selfs == pytest.approx({0: 4.0, 1: 1.5, 2: 0.5, 3: 4.0, 4: 1.0})
    # self times of a tree add up to the durations of its roots
    assert sum(selfs.values()) == pytest.approx(10.0 + 1.0)


def test_self_time_clips_children_to_their_parent_and_never_double_counts():
    spans = [
        (0, 0.0, 4.0, None),
        (1, 1.0, 3.0, 0),
        (2, 2.0, 5.0, 0),  # overlaps its sibling and outlives the parent
    ]
    selfs = stats.self_times(spans)
    assert selfs[0] == pytest.approx(1.0)


def test_error_rate_counts_operations_not_checks():
    o = stats.Outcomes()
    o.record([])
    o.record(["distance < eps", "cli verify (exit 2)"])  # one failed op
    o.record(["ValueError: boom"])
    o.record([])
    assert (o.attempted, o.failed) == (4, 2)
    assert o.error_rate == 0.5
    assert stats.Outcomes().error_rate == 0.0


def test_tracer_nests_spans_counts_leaves_and_errors_once():
    import tridecomp as td

    tracer = tracing.Tracer()
    original = td.norm

    class NotAState:
        space = td.ProductSpace((2, 2, 2))

    tracer.install()
    try:
        tracer.op = 7
        state = td.SumState(td.ProductSpace((2, 2, 2)), (
            td.ProductTerm(1.0, (((0, 1.0),), ((1, 1.0),), ((0, 1.0),))),))
        assert td.norm(state) == pytest.approx(1.0)
        with pytest.raises(TypeError):
            td.reduced_spectra(NotAState())  # partial_trace raises inside
    finally:
        tracer.uninstall()
    assert td.norm is original and td.states.norm is original

    names = {sid: name for sid, name, *_ in tracer.spans}
    parent = {names[sid]: names.get(p) for sid, _, _, _, p, _ in tracer.spans}
    assert parent["states.norm"] is None
    assert parent["states.inner"] == "states.norm"
    assert parent["states.term_gram"] == "states.inner"
    assert parent["states.partial_trace"] == "spectral.reduced_spectra"
    assert {op for *_, op in tracer.spans} == {7}
    assert tracer.counts["states.ProductTerm"] == 1
    assert tracer.counts["states.sparse_vector"] == 3  # one per factor
    assert dict(tracer.errors) == {"states": 1}
    metrics = tracer.metrics(ops=1)
    assert metrics["states.norm.calls"] == 1
    assert metrics["spectral.reduced_spectra.calls"] == 1
    assert metrics["states.errors"] == 1 and metrics["spectral.errors"] == 0


def test_benchmark_json_lists_every_metric_the_runs_print():
    doc = json.loads((Path(__file__).resolve().parent.parent
                      / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert per_layer == tracing.metric_units()
    end_to_end = {m["name"] for m in doc["end_to_end"]}
    assert end_to_end == {"op_p50_s", "op_tail_s", "ops_per_s", "peak_rss_mb",
                          "setup_s"}
