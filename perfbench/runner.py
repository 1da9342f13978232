"""One benchmark run: set-up samples, timed passes, checks, metrics.

End-to-end metrics come from an untraced run.  A traced run times the same
operation list twice, untraced then traced on a freshly built workload, and
reports the per-layer metrics; the difference between the two passes is the
tracing overhead.
"""

from __future__ import annotations

import json
import random
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from .hostprobe import HostProbe, scale_factor
from .spans import LayerTotals, Target, Tracer, layer_totals
from .summary import percentile
from .workloads import ENGINE_COUNTERS, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150

_KERNELS = "repro.graphs.int_kernels"
_KERNELS_NP = "repro.graphs.int_kernels_np"
TARGETS = [
    *(
        Target("graphs.traverse", f"{module}:{fn}")
        for module, fn in (
            (_KERNELS, "bfs_hops_csr"),
            (_KERNELS, "bfs_hops_csr_multi"),
            (_KERNELS, "dijkstra_csr"),
            (_KERNELS, "dijkstra_csr_multi"),
            (_KERNELS_NP, "bfs_hops_csr_np"),
            (_KERNELS_NP, "bfs_hops_csr_multi"),
            (_KERNELS_NP, "dijkstra_csr_np"),
            (_KERNELS_NP, "dijkstra_csr_multi"),
        )
    ),
    *(
        Target("graphs.repair", f"{module}:{fn}")
        for module, fn in (
            (_KERNELS, "repair_hops_csr"),
            (_KERNELS, "repair_dijkstra_csr"),
            (_KERNELS_NP, "repair_hops_csr_np"),
            (_KERNELS_NP, "repair_dijkstra_csr_np"),
        )
    ),
    Target("graphs.flow", "repro.graphs.flow:FlowNetwork.min_cost_flow"),
    Target("engine.sync", "repro.engine.cost_engine:CostEngine.sync"),
    Target("engine.plan", "repro.engine.cost_engine:CostEngine.plan_report_prefetch"),
    Target("engine.score", "repro.engine.cost_engine:StrategyScorer.score_combinations"),
    Target("engine.score", "repro.engine.cost_engine:StrategyScorer.score_ints"),
    Target("core.best_response", "repro.core.best_response:best_response"),
    Target("dynamics.walk", "repro.dynamics.walk:run_best_response_walk"),
    Target("sweep.check", "repro.engine.sweep:SweepEvaluator.is_nash"),
    Target("fractional.lp", "repro.engine.fractional_engine:linprog", local=True),
    Target("fractional.best_response", "repro.core.fractional:fractional_best_response"),
    Target("service.execute", "repro.service.batching:execute_batch"),
    Target("service.update", "repro.service.catalog:GameEntry.apply_update"),
]


@dataclass
class Pass:
    """Everything one timed pass over an operation list measured."""

    results: List[tuple] = field(default_factory=list)
    factors: Dict[int, float] = field(default_factory=dict)
    work: int = 0
    attempted: int = 0
    failed: int = 0
    busy_raw: float = 0.0
    busy_scaled: float = 0.0
    latencies_raw: List[float] = field(default_factory=list)
    latencies_scaled: List[float] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        return self.work / self.busy_scaled if self.busy_scaled else 0.0


def timed_pass(
    wl: Workload, ops: list, probe: HostProbe, tracer: Optional[Tracer] = None
) -> Pass:
    """Run every operation as one timed unit between host probes."""
    result = Pass()
    probe.invalidate()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        operations = wl.operations(op)
        result.attempted += operations
        if wl.prepare(op):
            probe.invalidate()
        try:
            output, wall, factor = probe.timed(lambda op=op: wl.execute(op))
        except Exception:  # noqa: BLE001 - a raising operation is a failed one
            traceback.print_exc(file=sys.stderr)
            result.failed += operations
            probe.invalidate()
            continue
        result.results.append((op, output))
        result.factors[index] = factor
        result.work += wl.work(op, output)
        result.busy_raw += wall
        result.busy_scaled += wall * factor
        latencies = wl.latencies(output)
        if latencies is None:
            latencies = [wall]
        result.latencies_raw.extend(latencies)
        result.latencies_scaled.extend(x * factor for x in latencies)
    return result


def check(wl: Workload, timed: Pass, seed: int) -> None:
    """Check every output outside the timed region; count failures into ``timed``."""
    timed.failed += wl.check_all(timed.results, random.Random(f"check:{wl.name}:{seed}"))


def measure_setup(name: str, seed: int, probe: HostProbe) -> List[tuple]:
    """``(raw_s, scaled_s)`` of each fresh-process set-up."""
    samples = []
    for _ in range(SETUP_REPEATS):
        before = probe.measure()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), "--workload", name, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=False,
        )
        after = probe.measure()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {name} failed:\n{proc.stderr}")
        raw = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        samples.append((raw, raw * scale_factor(probe.p_ref, before, after)))
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def host_figures(timed: Pass, probe: HostProbe, setup=()) -> Dict[str, float]:
    """The probe median and the unscaled timings, recorded in every run."""
    figures = {
        "host.probe_ms": percentile(probe.samples, 0.5).value * 1e3,
        "host.raw_throughput_per_s": _ratio(timed.work, timed.busy_raw),
        "host.raw_latency_p50_ms": percentile(timed.latencies_raw, 0.5).value * 1e3,
        "host.raw_latency_p90_ms": percentile(timed.latencies_raw, 0.9).value * 1e3,
    }
    if setup:
        figures["host.raw_setup_s"] = percentile([raw for raw, _ in setup], 0.5).value
    return figures


def end_to_end(name: str, seed: int, seconds: float, p_ref: float) -> dict:
    """An untraced run: every end-to-end metric."""
    probe = HostProbe(p_ref)
    wl = WORKLOADS[name](seed)
    try:
        wl.warm_up()
        ops = wl.make_ops(wl.op_count(seconds))
        timed = timed_pass(wl, ops, probe)
        check(wl, timed, seed)
    finally:
        wl.close()
    setup = measure_setup(name, seed, probe)
    p50 = percentile(timed.latencies_scaled, 0.5)
    p90 = percentile(timed.latencies_scaled, 0.9)
    return {
        "workload": name,
        "unit": wl.unit,
        "attempted": timed.attempted,
        "failed": timed.failed,
        "work": timed.work,
        "latency_samples": p50.samples,
        "latency_p90_samples_beyond": p90.beyond,
        "setup_samples_s": [scaled for _, scaled in setup],
        "host": host_figures(timed, probe, setup),
        "metrics": {
            "throughput_per_s": timed.throughput,
            "latency_p50_ms": p50.value * 1e3,
            "latency_p90_ms": p90.value * 1e3,
            "setup_s": percentile([scaled for _, scaled in setup], 0.5).value,
            "peak_rss_mb": peak_rss_mb(),
        },
    }


def traced(name: str, seed: int, seconds: float, p_ref: float, spans_path: Path) -> dict:
    """A traced run: every per-layer metric."""
    probe = HostProbe(p_ref)
    wl = WORKLOADS[name](seed)
    try:
        wl.warm_up()
        # Two passes share the run's time budget.
        ops = wl.make_ops(wl.op_count(seconds / 2))
        plain = timed_pass(wl, ops, probe)
        check(wl, plain, seed)
    finally:
        wl.close()

    wl = WORKLOADS[name](seed)
    try:
        wl.warm_up()
        engine_before, counters_before = wl.engine_stats(), wl.counters()
        with Tracer(TARGETS, wl.trace_hooks()) as tracer:
            traced_pass = timed_pass(wl, ops, probe, tracer)
        engine_after, counters_after = wl.engine_stats(), wl.counters()
        cache_mb = sum(engine.cache_bytes() for engine in wl.cost_engines()) / 2**20
        check(wl, traced_pass, seed)
    finally:
        wl.close()
    tracer.dump(str(spans_path))

    scaled = layer_totals(tracer.spans, traced_pass.factors)
    raw = layer_totals(tracer.spans)

    def layer(span: str) -> LayerTotals:
        return scaled.get(span, LayerTotals())

    engine = {k: engine_after[k] - engine_before[k] for k in ENGINE_COUNTERS}
    counters = {k: v - counters_before[k] for k, v in counters_after.items()}
    waits = [wait * traced_pass.factors.get(op, 1.0) for op, wait in wl.queue_waits]
    row_requests = engine["rows_computed"] + engine["rows_reused"] + engine["rows_repaired"]
    metrics = {
        "graphs.traverse_s": layer("graphs.traverse").inclusive_s,
        "graphs.traverse_calls": layer("graphs.traverse").calls,
        "graphs.repair_s": layer("graphs.repair").inclusive_s,
        "graphs.repair_calls": layer("graphs.repair").calls,
        "graphs.flow_s": layer("graphs.flow").inclusive_s,
        "engine.sync_s": layer("engine.sync").self_s,
        "engine.plan_s": layer("engine.plan").self_s,
        "engine.score_s": layer("engine.score").self_s,
        **{f"engine.{k}": engine[k] for k in ENGINE_COUNTERS},
        "engine.row_reuse_ratio": _ratio(
            engine["rows_reused"] + engine["rows_repaired"], row_requests
        ),
        "engine.cache_mb": cache_mb,
        "core.best_response_s": layer("core.best_response").self_s,
        "core.best_response_calls": layer("core.best_response").calls,
        "dynamics.walk_s": layer("dynamics.walk").self_s,
        "sweep.check_s": layer("sweep.check").self_s,
        "sweep.checks": counters.get("checks", 0),
        "sweep.full_probes": counters.get("full_probes", 0),
        "sweep.memo_hit_ratio": _ratio(
            counters.get("memoised_probes", 0),
            counters.get("memoised_probes", 0) + counters.get("full_probes", 0),
        ),
        "fractional.lp_s": layer("fractional.lp").inclusive_s,
        "fractional.lp_solved": counters.get("lp_solved", 0),
        "fractional.lp_skip_ratio": _ratio(
            counters.get("lp_skipped", 0),
            counters.get("lp_skipped", 0) + counters.get("lp_solved", 0),
        ),
        "fractional.best_response_s": layer("fractional.best_response").self_s,
        "service.queue_ms_p50": percentile(waits, 0.5).value * 1e3 if waits else 0.0,
        "service.execute_s": layer("service.execute").inclusive_s,
        "service.update_s": layer("service.update").inclusive_s,
        "service.coalescing_factor": _ratio(
            counters.get("batched_queries", 0), counters.get("batches", 0)
        ),
        "service.latency_p99_ms": (
            percentile(plain.latencies_scaled, 0.99).value * 1e3 if name == "service" else 0.0
        ),
        **{k: v for k, v in host_figures(plain, probe).items() if k != "host.raw_latency_p90_ms"},
        "trace.overhead_frac": _ratio(plain.throughput, traced_pass.throughput) - 1.0,
        "trace.coverage": _ratio(sum(t.self_s for t in raw.values()), traced_pass.busy_raw),
    }
    return {
        "workload": name,
        "unit": wl.unit,
        "attempted": plain.attempted + traced_pass.attempted,
        "failed": plain.failed + traced_pass.failed,
        "work": plain.work,
        "latency_samples": len(plain.latencies_scaled),
        "spans": len(tracer.spans),
        "metrics": metrics,
    }
