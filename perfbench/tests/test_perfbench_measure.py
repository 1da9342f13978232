"""The benchmark's own arithmetic: spans, probe scaling, percentiles."""

import pytest

from perfbench import hostprobe
from perfbench.runner import TARGETS
from perfbench.spans import Tracer, layer_totals, outermost, self_times
from perfbench.summary import percentile, rank


def span(name, start, end, parent=-1, op=0):
    return [name, start, end, parent, op]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("engine.sync", 0.0, 10.0),
        span("graphs.traverse", 1.0, 4.0, parent=0),
        span("graphs.traverse", 5.0, 6.0, parent=0),
        span("graphs.repair", 2.0, 3.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 5.0, parent=0),
        span("c", 3.0, 7.0, parent=0),
        span("d", 4.0, 6.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_reentrant_span_counts_once_in_inclusive_time():
    # best_response -> score -> best_response (re-entrant) -> score
    spans = [
        span("core.best_response", 0.0, 10.0),
        span("engine.score", 1.0, 9.0, parent=0),
        span("core.best_response", 2.0, 8.0, parent=1),
        span("engine.score", 3.0, 4.0, parent=2),
    ]
    assert outermost(spans) == [True, True, False, False]
    totals = layer_totals(spans)
    best, score = totals["core.best_response"], totals["engine.score"]
    assert best.inclusive_s == pytest.approx(10.0)
    assert best.calls == 1
    assert best.self_s == pytest.approx(2.0 + 5.0)
    assert score.inclusive_s == pytest.approx(8.0)
    assert score.self_s == pytest.approx(2.0 + 1.0)
    assert sum(t.self_s for t in totals.values()) == pytest.approx(10.0)


def test_layer_totals_scale_each_span_by_its_operation():
    spans = [span("x", 0.0, 2.0, op=0), span("x", 2.0, 3.0, op=1)]
    totals = layer_totals(spans, {0: 0.5, 1: 2.0})
    assert totals["x"].self_s == pytest.approx(2.0 * 0.5 + 1.0 * 2.0)
    assert totals["x"].calls == 2


def test_tracer_records_nested_program_spans_and_restores_patches():
    import repro.core.equilibrium as equilibrium
    from repro import UniformBBCGame, best_response, equilibrium_report
    from repro.core.search import random_profile

    game = UniformBBCGame(6, 2)
    profile = random_profile(game, 3)
    with Tracer(TARGETS) as tracer:
        tracer.op = 7
        equilibrium_report(game, profile)
    assert equilibrium.best_response is best_response
    names = [s[0] for s in tracer.spans]
    assert names.count("core.best_response") == 6
    parents = {s[3] for s in tracer.spans if s[0] == "engine.score"}
    assert parents and all(tracer.spans[p][0] == "core.best_response" for p in parents)
    assert {s[4] for s in tracer.spans} == {7}
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_scale_factor_brings_wall_time_to_reference_speed():
    # A host twice as slow as the reference probes at 2 ms against 1 ms.
    assert hostprobe.scale_factor(1e-3, 2e-3, 2e-3) == pytest.approx(0.5)
    assert hostprobe.scale_factor(1e-3, 1e-3, 3e-3) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        hostprobe.scale_factor(1e-3, 0.0, 1e-3)


def test_timed_units_share_boundary_probes(monkeypatch):
    probe = hostprobe.HostProbe(p_ref=1.0)
    readings = iter([2.0, 4.0, 1.0, 3.0, 6.0])
    monkeypatch.setattr(probe, "_once", lambda: next(readings))
    monkeypatch.setattr(hostprobe, "REPEATS", 1)
    first = probe.timed(lambda: "a")
    second = probe.timed(lambda: "b")
    probe.invalidate()
    third = probe.timed(lambda: "c")
    assert (first[0], first[2]) == ("a", pytest.approx(1.0 / 3.0))  # probes 2 and 4
    assert (second[0], second[2]) == ("b", pytest.approx(1.0 / 2.5))  # probes 4 and 1
    assert (third[0], third[2]) == ("c", pytest.approx(1.0 / 4.5))  # fresh probes 3 and 6
    assert probe.samples == [2.0, 4.0, 1.0, 3.0, 6.0]


def test_percentile_is_nearest_rank_with_its_sample_count():
    values = [float(v) for v in range(10, 0, -1)]
    p50, p90 = percentile(values, 0.5), percentile(values, 0.9)
    assert (p50.value, p50.samples, p50.beyond) == (5.0, 10, 5)
    assert (p90.value, p90.samples, p90.beyond) == (9.0, 10, 1)
    assert percentile(values, 1.0).value == 10.0
    assert percentile([3.5], 0.9).value == 3.5
    assert rank(0.99, 1000) == 990
    assert rank(0.1, 30) == 3  # 0.1 * 30 is 3.0000000000000004 in floating point
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        rank(0.0, 10)
