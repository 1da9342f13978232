"""Speed benchmark: flat-array engine vs dict-based reference hot paths.

Times full equilibrium checks (``equilibrium_report``) and best-response
walks (``run_best_response_walk``) at n in {8, 16, 32, 64} (k = 2), against
both the flat-array :class:`~repro.engine.CostEngine` path (the default) and
the reference :class:`~repro.core.best_response.DeviationOracle` path
(``engine=False`` / ``use_engine=False``).  Results go to
``benchmarks/output/BENCH_speed.json`` as a machine-readable trajectory for
future PRs, plus a rendered table in ``BENCH_speed.txt``.

``--sweep`` runs the sweep-engine scenarios instead — exhaustive equilibrium
search (n = 7, k = 2 uniform, Gray order + incremental checks vs a
from-scratch check per profile), the Figure 4 completion scan, one
process-parallel study grid, and the sharded exhaustive search (the same
restricted grid split into contiguous Gray-rank subranges over
``--processes`` shared-memory workers, certified bit-identical to the serial
summary) — and merges them into the same JSON under ``sweep_results``,
preserving whatever the other modes last wrote.  The sharded row's scaling
floor only gates non-smoke recordings taken with at least two workers on at
least two CPUs; single-core boxes record the fork overhead unfloored.

``--fractional`` runs the fractional-game scenarios — iterated best-response
dynamics from the empty profile and the epsilon-equilibrium report of the
resulting profile, both against the shared-structure
:class:`~repro.engine.FractionalEngine` (cached environment flow networks +
sparse patched LPs) and the from-scratch FlowNetwork / dense-LP reference —
and merges them under ``fractional_results`` the same way.

``--incremental`` runs the incremental-engine scenarios — long best-response
walks and single-deviation equilibrium rechecks, where the engine repairs
its cached rows in place — against the dict-based reference
(``engine=False``).  Results merge under ``incremental_results``.

``--backend`` runs the traversal-backend scenarios — equilibrium reports
with per-node restricted candidate targets at n in {64, 256, 1024} on a
uniform (BFS-backed) and an integer-weighted (Dijkstra-backed) game, plus
whole-profile ``all_costs`` sweeps at the largest size — timing
``CostEngine(game, backend="python")`` (list kernels) against
``backend="numpy"`` (vectorised frontier kernels).  On top of those, the
giant-batch scenarios time whole reports against the same probes run node
by node without a report plan at n = 4096 on both kernels plus a giant-only
n = 16384 BFS report, each row carrying a bottleneck profile (in-kernel
traversal seconds vs scoring/enumeration) and the engine's cache counters
(chunk evictions, rows per giant traversal, recomputes after eviction).
Results merge under ``backend_results``; the Dijkstra-backed report and the
giant-batch BFS report at their largest sizes must each clear a 3x floor.
Without numpy the mode runs a tiny python-kernel giant-batch parity check
(the fallback the minimal-deps CI leg exercises) and records nothing.

``--check-floors`` runs no benchmarks: it re-reads ``BENCH_speed.json`` and
exits non-zero if any recorded (non-smoke) mode fell below its enforced
floor — the reusable regression gate CI wires in.

Usage::

    PYTHONPATH=src python scripts/bench_speed.py                      # core scenarios
    PYTHONPATH=src python scripts/bench_speed.py --sweep              # sweep scenarios
    PYTHONPATH=src python scripts/bench_speed.py --fractional         # fractional scenarios
    PYTHONPATH=src python scripts/bench_speed.py --incremental        # incremental-engine scenarios
    PYTHONPATH=src python scripts/bench_speed.py --backend            # traversal-backend scenarios
    PYTHONPATH=src python scripts/bench_speed.py --smoke [--sweep | ...]
    PYTHONPATH=src python scripts/bench_speed.py --check-floors       # regression gate only

The reference path is skipped above ``--max-reference-n`` (default 32: at
n = 64 the dict-based oracle takes minutes for no extra information — the
speedup trend is already established).
"""

import argparse
import json
import os
import pathlib
import platform
import sys
import time
from typing import Callable, NamedTuple, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import (  # noqa: E402
    FractionalBBCGame,
    UniformBBCGame,
    best_response,
    epsilon_equilibrium_report,
    equilibrium_report,
    exhaustive_equilibrium_search,
    iterated_best_response,
)
from repro.core.search import candidate_strategy_sets  # noqa: E402
from repro.dynamics import reconstruct_figure4, run_best_response_walk  # noqa: E402
from repro.engine import CostEngine, FractionalEngine  # noqa: E402
from repro.experiments import (  # noqa: E402
    default_processes,
    last_run_stats,
    max_cost_first_convergence_study,
)
from repro.reliability import atomic_write_text  # noqa: E402
from repro.experiments.workloads import (  # noqa: E402
    empty_initial_profile,
    random_initial_profile,
)

OUTPUT_DIR = REPO_ROOT / "benchmarks" / "output"
K = 2
PROFILE_SEED = 7
WALK_MAX_ROUNDS = 8
#: The exhaustive-search sweep scenario must stay at least this much faster
#: than the from-scratch reference; the script exits non-zero below it.
SWEEP_SPEEDUP_FLOOR = 5.0
#: The sharded exhaustive search must at least break even against the serial
#: sweep — but only on recordings that actually had parallelism available
#: (non-smoke, >= 2 workers, >= 2 CPUs); anything else just records.
SHARDED_SCALING_FLOOR = 1.0
#: The fractional dynamics scenario must stay at least this much faster than
#: the FlowNetwork / dense-LP reference at the largest size benchmarked.
FRACTIONAL_SPEEDUP_FLOOR = 3.0
#: The long-walk incremental scenario at the largest size must stay at least
#: this much faster than the dict-based reference.
INCREMENTAL_WALK_FLOOR = 9.6
#: The core equilibrium_report scenario must stay at least this much faster
#: than the dict-based oracle at every benchmarked n >= 32.
CORE_REPORT_FLOOR = 3.0
#: The Dijkstra-backed backend report at the largest benchmarked size must
#: stay at least this much faster on the numpy kernels than the list kernels.
BACKEND_DIJKSTRA_FLOOR = 3.0
#: The giant-batch BFS report at its largest compared size must stay at
#: least this much faster than the same probes run node by node without a
#: report plan, on the same numpy kernels.
BACKEND_GIANT_FLOOR = 3.0
#: The service load generator (``scripts/bench_service.py``) must sustain at
#: least this many queries per second across its whole catalog; the floor is
#: deliberately an order of magnitude under warm-cache measurements so it
#: catches a serving-layer regression (per-query traversals, lost batching)
#: rather than machine noise.
SERVICE_QPS_FLOOR = 25.0
#: The service load run must coalesce concurrently-submitted reads into
#: giant batches: total batched queries per executed batch across the
#: catalog.  A value near 1.0 means the worker loop stopped batching.
SERVICE_COALESCING_FLOOR = 3.0
FRACTIONAL_MAX_ROUNDS = 12
FRACTIONAL_TOLERANCE = 1e-5
#: Candidate targets per node in the backend reports: restricting deviations
#: keeps thousand-node equilibrium checks enumerable (C(6, 2) strategies per
#: node) while every check still pays one masked SSSP per candidate per node.
BACKEND_CANDIDATES_PER_NODE = 6


def time_call(fn, repeats):
    """Return (best wall-clock seconds, last result) over ``repeats`` runs."""
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def bench_equilibrium(n, repeats, include_reference):
    game = UniformBBCGame(n, K)
    profile = random_initial_profile(game, seed=PROFILE_SEED)
    # A fresh engine per call: time the cold path (snapshot build + all SSSPs),
    # not a warmed cache, so the comparison against the oracle is fair.
    engine_time, engine_report = time_call(
        lambda: equilibrium_report(game, profile, engine=CostEngine(game)), repeats
    )
    row = {
        "task": "equilibrium_report",
        "n": n,
        "k": K,
        "engine_seconds": engine_time,
        "max_regret": engine_report.max_regret,
    }
    if include_reference:
        reference_time, reference_report = time_call(
            lambda: equilibrium_report(game, profile, engine=False), repeats
        )
        assert reference_report.max_regret == engine_report.max_regret
        row["reference_seconds"] = reference_time
        row["speedup"] = reference_time / engine_time
    return row


def bench_walk(n, repeats, include_reference):
    game = UniformBBCGame(n, K)
    initial = empty_initial_profile(game)

    def run(engine):
        return run_best_response_walk(
            game, initial, max_rounds=WALK_MAX_ROUNDS, engine=engine
        )

    # Fresh engine per timing so every repeat pays the cold path, matching
    # the per-call oracle construction of the reference.
    engine_time, engine_result = time_call(lambda: run(CostEngine(game)), repeats)
    row = {
        "task": "best_response_walk",
        "n": n,
        "k": K,
        "max_rounds": WALK_MAX_ROUNDS,
        "engine_seconds": engine_time,
        "probes": engine_result.probes,
        "deviations": engine_result.deviations,
    }
    if include_reference:
        reference_time, reference_result = time_call(lambda: run(False), repeats)
        assert reference_result.final_profile == engine_result.final_profile
        assert reference_result.probes == engine_result.probes
        row["reference_seconds"] = reference_time
        row["speedup"] = reference_time / engine_time
    return row


def bench_exhaustive_search(repeats, smoke):
    """Exhaustive search over a restricted (7, 2)-uniform profile grid.

    The full 15^7 product is out of reach for a benchmark, so the tail nodes
    are pinned to their first budget-maximal strategy and the head nodes
    sweep their full strategy sets — the same restricted-candidates call
    both paths support, exhausted to the end (``stop_at_first=False``) so
    the timing covers the whole grid.
    """
    game = UniformBBCGame(7, K)
    sets = candidate_strategy_sets(game, None, None)
    free = 2 if smoke else 3
    candidates = {node: sets[node][:1] for node in range(free, 7)}
    kwargs = dict(candidate_strategies=candidates, stop_at_first=False)

    sweep_time, sweep_summary = time_call(
        lambda: exhaustive_equilibrium_search(game, engine=CostEngine(game), **kwargs),
        repeats,
    )
    reference_time, reference_summary = time_call(
        lambda: exhaustive_equilibrium_search(game, engine=False, **kwargs), repeats
    )
    assert reference_summary == sweep_summary
    return {
        "task": "exhaustive_search",
        "n": 7,
        "k": K,
        "free_nodes": free,
        "profiles": sweep_summary.profiles_examined,
        "equilibria": sweep_summary.equilibria_found,
        "engine_seconds": sweep_time,
        "reference_seconds": reference_time,
        "speedup": reference_time / sweep_time,
    }


def bench_figure4(repeats, include_reference):
    engine_time, engine_results = time_call(
        lambda: reconstruct_figure4(max_results=1), repeats
    )
    row = {
        "task": "figure4_reconstruction",
        "n": 7,
        "k": K,
        "reconstructions": len(engine_results),
        "engine_seconds": engine_time,
    }
    if include_reference:
        reference_time, reference_results = time_call(
            lambda: reconstruct_figure4(max_results=1, engine=False), repeats
        )
        assert [r.profile for r in reference_results] == [
            r.profile for r in engine_results
        ]
        row["reference_seconds"] = reference_time
        row["speedup"] = reference_time / engine_time
    return row


def bench_study_grid(repeats, smoke):
    """Process-parallel study grid: serial vs fan-out over worker processes.

    On a single-CPU box the parallel run records the fork overhead rather
    than a speedup; ``cpus`` is stored alongside so the trajectory stays
    interpretable across machines.
    """
    n = 7 if smoke else 8
    starts = 3 if smoke else 6
    processes = default_processes()

    def run(process_count):
        return max_cost_first_convergence_study(
            n, K, num_starts=starts, max_rounds=50, seed=0, processes=process_count
        )

    serial_time, serial_rows = time_call(lambda: run(1), repeats)
    parallel_time, parallel_rows = time_call(lambda: run(max(processes, 2)), repeats)
    assert serial_rows == parallel_rows
    # The fault-tolerant runtime's counters for the parallel leg: all zero on
    # a healthy box, and the first place to look when a CI run goes sideways.
    reliability = last_run_stats()
    return {
        "task": "study_grid",
        "n": n,
        "k": K,
        "starts": starts,
        "cpus": os.cpu_count(),
        "processes": max(processes, 2),
        "serial_seconds": serial_time,
        "parallel_seconds": parallel_time,
        "scaling": serial_time / parallel_time,
        "crashed": reliability["crashed"],
        "retried": reliability["retried"],
        "pool_restarts": reliability["pool_restarts"],
        "serial_fallback_cells": reliability["serial_fallback_cells"],
    }


def bench_sharded_search(repeats, smoke, processes):
    """Sharded exhaustive search: serial sweep vs contiguous subrange shards.

    The same restricted (7, 2)-uniform grid as the sweep scenario, run once
    serially and once sharded over ``processes`` workers attached to the
    parent's shared-memory payload.  The summaries must match bit for bit —
    that is the sharding contract, not a tolerance — and the row records the
    wall-clock scaling plus the fault-runtime counters so a CI run that
    limped home on pool restarts is visible in the trajectory.
    """
    game = UniformBBCGame(7, K)
    sets = candidate_strategy_sets(game, None, None)
    free = 2 if smoke else 3
    candidates = {node: sets[node][:1] for node in range(free, 7)}
    kwargs = dict(
        candidate_strategies=candidates, stop_at_first=False, checkpoint_every=64
    )

    serial_time, serial_summary = time_call(
        lambda: exhaustive_equilibrium_search(game, **kwargs), repeats
    )
    sharded_time, sharded_summary = time_call(
        lambda: exhaustive_equilibrium_search(game, processes=processes, **kwargs),
        repeats,
    )
    assert sharded_summary == serial_summary
    reliability = last_run_stats()
    return {
        "task": "sharded_search",
        "n": 7,
        "k": K,
        "free_nodes": free,
        "profiles": serial_summary.profiles_examined,
        "cpus": os.cpu_count(),
        "processes": processes,
        "serial_seconds": serial_time,
        "parallel_seconds": sharded_time,
        "scaling": serial_time / sharded_time,
        "crashed": reliability["crashed"],
        "retried": reliability["retried"],
        "pool_restarts": reliability["pool_restarts"],
        "serial_fallback_cells": reliability["serial_fallback_cells"],
    }


def bench_fractional_dynamics(n, repeats):
    """Iterated fractional best responses from the empty profile.

    A fresh :class:`FractionalEngine` per timed call keeps the comparison
    cold-for-cold against the per-call FlowNetwork / dense-LP reference.
    Returns the row plus both final profiles so the report scenario can
    certify them without re-running the dynamics.
    """
    game = FractionalBBCGame(UniformBBCGame(n, K))
    initial = game.empty_profile()

    def run(engine):
        return iterated_best_response(
            game,
            initial,
            max_rounds=FRACTIONAL_MAX_ROUNDS,
            tolerance=FRACTIONAL_TOLERANCE,
            engine=engine,
        )

    engine_time, engine_result = time_call(lambda: run(FractionalEngine(game)), repeats)
    reference_time, reference_result = time_call(lambda: run(False), repeats)
    assert engine_result.rounds == reference_result.rounds
    assert engine_result.converged == reference_result.converged
    assert abs(engine_result.max_final_regret - reference_result.max_final_regret) < 1e-9
    row = {
        "task": "fractional_dynamics",
        "n": n,
        "k": K,
        "rounds": engine_result.rounds,
        "converged": engine_result.converged,
        "engine_seconds": engine_time,
        "reference_seconds": reference_time,
        "speedup": reference_time / engine_time,
    }
    return row, game, engine_result.profile


def bench_fractional_report(n, repeats, game, profile):
    """Epsilon-equilibrium certification of the dynamics' final profile."""
    engine_time, engine_report = time_call(
        lambda: epsilon_equilibrium_report(
            game, profile, FRACTIONAL_TOLERANCE, engine=FractionalEngine(game)
        ),
        repeats,
    )
    reference_time, reference_report = time_call(
        lambda: epsilon_equilibrium_report(
            game, profile, FRACTIONAL_TOLERANCE, engine=False
        ),
        repeats,
    )
    assert abs(engine_report.max_regret - reference_report.max_regret) < 1e-9
    return {
        "task": "fractional_report",
        "n": n,
        "k": K,
        "max_regret": engine_report.max_regret,
        "engine_seconds": engine_time,
        "reference_seconds": reference_time,
        "speedup": reference_time / engine_time,
    }


def bench_incremental_walk(n, rounds, repeats):
    """Long deviating walk: default engine vs the dict-based reference."""
    game = UniformBBCGame(n, K)
    initial = random_initial_profile(game, seed=PROFILE_SEED)

    def run(engine):
        return run_best_response_walk(game, initial, max_rounds=rounds, engine=engine)

    new_time, new_result = time_call(lambda: run(CostEngine(game)), repeats)
    reference_time, reference_result = time_call(lambda: run(False), repeats)
    assert reference_result.final_profile == new_result.final_profile
    assert reference_result.probes == new_result.probes
    assert reference_result.deviations == new_result.deviations
    return {
        "task": "incremental_walk",
        "n": n,
        "k": K,
        "max_rounds": rounds,
        "probes": new_result.probes,
        "deviations": new_result.deviations,
        "engine_seconds": new_time,
        "reference_seconds": reference_time,
        "speedup": reference_time / new_time,
    }


def bench_incremental_recheck(n, steps, repeats):
    """Equilibrium rechecks after single deviations: the repair hot path.

    A warmed engine re-certifies the profile after each of ``steps``
    single-node perturbations, repairing its cached rows and patching the
    batched cost vectors in place; the reference re-derives every report
    from scratch.
    """
    import random as random_module

    game = UniformBBCGame(n, K)
    rng = random_module.Random(PROFILE_SEED)
    nodes = list(game.nodes)
    sequence = [random_initial_profile(game, seed=PROFILE_SEED)]
    for _ in range(steps):
        node = rng.choice(nodes)
        others = [v for v in nodes if v != node]
        sequence.append(
            sequence[-1].with_strategy(node, frozenset(rng.sample(others, K)))
        )

    def timed(make_engine):
        best = None
        regrets = None
        for _ in range(repeats):
            engine = make_engine()
            if engine is not False:  # the reference keeps no state to warm
                equilibrium_report(game, sequence[0], engine=engine)
            start = time.perf_counter()
            regrets = [
                equilibrium_report(game, p, engine=engine).max_regret
                for p in sequence[1:]
            ]
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
        return best, regrets

    repair_time, repair_regrets = timed(lambda: CostEngine(game))
    reference_time, reference_regrets = timed(lambda: False)
    assert repair_regrets == reference_regrets
    return {
        "task": "incremental_recheck",
        "n": n,
        "k": K,
        "perturbations": steps,
        "engine_seconds": repair_time,
        "reference_seconds": reference_time,
        "speedup": reference_time / repair_time,
    }


def _backend_available():
    """Whether the numpy traversal backend can be constructed at all."""
    from repro.engine import resolve_backend

    try:
        resolve_backend("numpy", 1)
    except ValueError:
        return False
    return True


def _backend_candidates(game, per_node, seed):
    """Deterministic per-node candidate-target restriction for big-n reports."""
    import random as random_module

    rng = random_module.Random(seed)
    nodes = list(game.nodes)
    return {
        u: rng.sample([v for v in nodes if v != u], min(per_node, len(nodes) - 1))
        for u in nodes
    }


def _backend_weighted_game(n, seed=5):
    """An integer-weighted game (lengths 2..9 on 6 arcs per node, 1 elsewhere).

    Non-uniform lengths route every row through the Dijkstra kernels, and the
    integer values keep the numpy backend in exact int64 space — the
    configuration the backend floor certifies.
    """
    import random as random_module

    from repro.core import BBCGame

    rng = random_module.Random(seed)
    lengths = {}
    for u in range(n):
        for v in rng.sample([x for x in range(n) if x != u], min(6, n - 1)):
            lengths[(u, v)] = float(rng.randint(2, 9))
    return BBCGame(nodes=range(n), link_lengths=lengths, default_budget=2.0)


def _timed_backend_report(game, profile, candidates, backend, repeats):
    """Best time of an equilibrium report on a cold engine of ``backend``.

    The engine (snapshot build, numpy CSR views) is constructed outside the
    timed region so the row records kernel time, not IndexedGame
    construction, which both backends share.
    """
    best = None
    report = None
    for _ in range(repeats):
        engine = CostEngine(game, backend=backend)
        start = time.perf_counter()
        report = equilibrium_report(game, profile, candidates=candidates, engine=engine)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, report


def bench_backend_report(game, kernel, n, repeats):
    """Python-vs-numpy kernels on one restricted-candidate equilibrium report."""
    profile = random_initial_profile(game, seed=PROFILE_SEED)
    candidates = _backend_candidates(game, BACKEND_CANDIDATES_PER_NODE, seed=11)
    numpy_time, numpy_report = _timed_backend_report(
        game, profile, candidates, "numpy", repeats
    )
    python_time, python_report = _timed_backend_report(
        game, profile, candidates, "python", repeats
    )
    assert numpy_report.responses == python_report.responses
    return {
        "task": f"backend_{kernel}_report",
        "kernel": kernel,
        "n": n,
        "k": K,
        "candidates_per_node": BACKEND_CANDIDATES_PER_NODE,
        "max_regret": numpy_report.max_regret,
        "engine_seconds": numpy_time,
        "reference_seconds": python_time,
        "speedup": python_time / numpy_time,
    }


def bench_backend_all_costs(game, kernel, n, repeats):
    """Python-vs-numpy kernels on a whole-profile ``all_costs`` sweep."""
    profile = random_initial_profile(game, seed=PROFILE_SEED)

    def timed(backend):
        best = None
        costs = None
        for _ in range(repeats):
            engine = CostEngine(game, backend=backend)
            start = time.perf_counter()
            costs = engine.all_costs(profile)
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
        return best, costs

    numpy_time, numpy_costs = timed("numpy")
    python_time, python_costs = timed("python")
    assert numpy_costs == python_costs
    return {
        "task": f"backend_{kernel}_all_costs",
        "kernel": kernel,
        "n": n,
        "k": K,
        "engine_seconds": numpy_time,
        "reference_seconds": python_time,
        "speedup": python_time / numpy_time,
    }


def _timed_cold(game, backend, run, repeats):
    """Best time of ``run(engine)`` on a cold engine; returns the best run's
    result and engine too."""
    best = None
    result = None
    engine = None
    for _ in range(repeats):
        candidate_engine = CostEngine(game, backend=backend)
        start = time.perf_counter()
        candidate_result = run(candidate_engine)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best, result, engine = elapsed, candidate_result, candidate_engine
    return best, result, engine


def _per_node_responses(game, profile, candidates, engine):
    """A report's probes run node by node, with no report plan installed."""
    return {
        node: best_response(
            game, profile, node, candidates=candidates.get(node), engine=engine
        )
        for node in game.nodes
    }


def bench_backend_giant_report(
    game,
    kernel,
    n,
    repeats,
    include_reference,
    backend="numpy",
    candidates_per_node=BACKEND_CANDIDATES_PER_NODE,
):
    """Giant chunked multi-mask traversals vs the per-node-batch path.

    Both arms run the same kernels on the same restricted-candidate probes;
    the only difference is whether ``equilibrium_report``'s staged row plan
    fills the cache in giant per-row-masked chunks, or the probes run node
    by node without a plan, one small batch per probed node.  The row
    doubles as a bottleneck profile: ``traversal_seconds`` is the engine's
    in-kernel time and
    ``scoring_seconds`` the rest of the report (candidate enumeration,
    vectorised scoring, bookkeeping), so the trajectory records where the
    next optimisation target sits.  ``include_reference=False`` records a
    giant-only row for sizes where the per-node arm would take minutes.
    """
    profile = random_initial_profile(game, seed=PROFILE_SEED)
    candidates = _backend_candidates(game, candidates_per_node, seed=11)
    giant_time, report, engine = _timed_cold(
        game,
        backend,
        lambda e: equilibrium_report(game, profile, candidates=candidates, engine=e),
        repeats,
    )
    stats = engine.snapshot_stats()
    row = {
        "task": f"backend_giant_{kernel}_report",
        "kernel": kernel,
        "backend": backend,
        "n": n,
        "k": K,
        "candidates_per_node": candidates_per_node,
        "max_regret": report.max_regret,
        "engine_seconds": giant_time,
        "traversal_seconds": stats["traversal_seconds"],
        "scoring_seconds": max(0.0, giant_time - stats["traversal_seconds"]),
        "giant_batch_traversals": stats["giant_batch_traversals"],
        "giant_batch_rows": stats["giant_batch_rows"],
        "rows_per_traversal": (
            stats["giant_batch_rows"] / stats["giant_batch_traversals"]
            if stats["giant_batch_traversals"]
            else 0.0
        ),
        "rows_evicted": stats["rows_evicted"],
        "chunks_evicted": stats["chunks_evicted"],
        "evicted_recomputes": stats["evicted_recomputes"],
        "cache_bytes": stats["cache_bytes"],
        "memory_budget_bytes": stats["memory_budget_bytes"],
    }
    if include_reference:
        per_node_time, per_node_responses, _ = _timed_cold(
            game,
            backend,
            lambda e: _per_node_responses(game, profile, candidates, e),
            repeats,
        )
        assert per_node_responses == report.responses
        row["reference_seconds"] = per_node_time
        row["speedup"] = per_node_time / giant_time
    print(
        f"  giant stats: {stats['giant_batch_rows']} rows in "
        f"{stats['giant_batch_traversals']} traversals "
        f"({row['rows_per_traversal']:.0f} rows/traversal), "
        f"{stats['chunks_evicted']} chunks / {stats['rows_evicted']} rows evicted, "
        f"{stats['evicted_recomputes']} recomputes after eviction, "
        f"cache {stats['cache_bytes'] / 2**20:.1f} MiB of "
        f"{stats['memory_budget_bytes'] / 2**20:.0f} MiB budget"
    )
    print(
        f"  profile: traversal {row['traversal_seconds']:.3f}s, "
        f"scoring+enumeration {row['scoring_seconds']:.3f}s"
    )
    return row


def _python_giant_fallback_check():
    """The minimal-deps leg: giant-batch planning on the pure-list kernels.

    Without numpy there is no vectorised arm to compare, but the staged row
    plan still drains through the list multi-kernels one chunk at a time —
    this checks that fallback end to end against the dict oracle and reports
    how it ran, recording nothing (there is no speedup to gate).
    """
    game = UniformBBCGame(24, K)
    profile = random_initial_profile(game, seed=PROFILE_SEED)
    candidates = _backend_candidates(game, BACKEND_CANDIDATES_PER_NODE, seed=11)
    engine = CostEngine(game, backend="python")
    start = time.perf_counter()
    report = equilibrium_report(game, profile, candidates=candidates, engine=engine)
    elapsed = time.perf_counter() - start
    reference = equilibrium_report(game, profile, candidates=candidates, engine=False)
    assert report.responses == reference.responses
    assert engine.stats["giant_batch_traversals"] > 0
    print(
        "numpy is not installed; ran the python-kernel giant-batch fallback "
        f"check instead: n=24 report in {elapsed:.3f}s, "
        f"{engine.stats['giant_batch_rows']} rows in "
        f"{engine.stats['giant_batch_traversals']} giant traversals, "
        "matches the reference oracle"
    )
    return 0


def run_backend_scenarios(args, repeats):
    sizes = [32, 64] if args.smoke else [64, 256, 1024]
    rows = []
    for n in sizes:
        print(f"benchmarking backend report n={n} (BFS kernels) ...")
        rows.append(bench_backend_report(UniformBBCGame(n, K), "bfs", n, repeats))
        print(f"benchmarking backend report n={n} (Dijkstra kernels) ...")
        rows.append(
            bench_backend_report(_backend_weighted_game(n), "dijkstra", n, repeats)
        )
    largest = sizes[-1]
    print(f"benchmarking backend all_costs n={largest} ...")
    rows.append(
        bench_backend_all_costs(UniformBBCGame(largest, K), "bfs", largest, repeats)
    )
    rows.append(
        bench_backend_all_costs(
            _backend_weighted_game(largest), "dijkstra", largest, repeats
        )
    )
    if args.smoke:
        # Tiny giant-batch runs on both backends: the point is exercising the
        # staged-plan path end to end, not the ratios.
        for backend in ("numpy", "python"):
            print(f"benchmarking giant-batch report n=48 ({backend} kernels) ...")
            rows.append(
                bench_backend_giant_report(
                    UniformBBCGame(48, K),
                    "bfs",
                    48,
                    repeats,
                    include_reference=True,
                    backend=backend,
                )
            )
        sizes = sizes + [48]
    else:
        n = 4096
        print(f"benchmarking giant-batch report n={n} (BFS kernels) ...")
        rows.append(
            bench_backend_giant_report(
                UniformBBCGame(n, K), "bfs", n, repeats, include_reference=True
            )
        )
        print(f"benchmarking giant-batch report n={n} (Dijkstra kernels) ...")
        rows.append(
            bench_backend_giant_report(
                _backend_weighted_game(n), "dijkstra", n, repeats, include_reference=True
            )
        )
        n = 16384
        print(f"benchmarking giant-batch report n={n} (BFS kernels, giant only) ...")
        rows.append(
            bench_backend_giant_report(
                UniformBBCGame(n, K),
                "bfs",
                n,
                repeats,
                include_reference=False,
                candidates_per_node=4,
            )
        )
        sizes = sizes + [4096, 16384]
    return sizes, rows


# --------------------------------------------------------------------- #
# Floor checks (shared by post-run gating and --check-floors)
# --------------------------------------------------------------------- #
class Floor(NamedTuple):
    """One enforced floor: ``metric >= floor`` on ``mode``'s ``task`` rows.

    ``select`` is ``"each"`` (every eligible row is gated) or ``"largest"``
    (only the eligible row with the largest ``n``: the floor certifies the
    asymptotic win).  A row is eligible when it carries ``metric`` — rows
    that record no comparison, such as giant-only sizes, are never gated —
    and passes ``condition``.
    """

    mode: str
    task: str
    select: str
    metric: str
    floor: float
    condition: Optional[Callable[[dict], bool]] = None
    unit: str = "x"


FLOORS = (
    Floor(
        "core", "equilibrium_report", "each", "speedup", CORE_REPORT_FLOOR,
        condition=lambda row: row["n"] >= 32,
    ),
    Floor("sweep", "exhaustive_search", "each", "speedup", SWEEP_SPEEDUP_FLOOR),
    Floor(
        "sweep", "sharded_search", "each", "scaling", SHARDED_SCALING_FLOOR,
        condition=lambda row: row.get("processes", 1) >= 2
        and (row.get("cpus") or 1) >= 2,
    ),
    Floor(
        "fractional", "fractional_dynamics", "largest", "speedup",
        FRACTIONAL_SPEEDUP_FLOOR,
    ),
    Floor(
        "incremental", "incremental_walk", "largest", "speedup",
        INCREMENTAL_WALK_FLOOR,
    ),
    Floor(
        "backend", "backend_dijkstra_report", "largest", "speedup",
        BACKEND_DIJKSTRA_FLOOR,
    ),
    Floor(
        "backend", "backend_giant_bfs_report", "largest", "speedup",
        BACKEND_GIANT_FLOOR,
    ),
    Floor("service", "service_total", "each", "qps", SERVICE_QPS_FLOOR, unit=" q/s"),
    Floor(
        "service", "service_total", "each", "coalescing_factor",
        SERVICE_COALESCING_FLOOR, unit="",
    ),
)

#: mode -> (results key, meta key) in ``BENCH_speed.json``.  Smoke-recorded
#: modes are skipped: smoke sizes are deliberately tiny and their ratios are
#: noise.  The service mode records into ``BENCH_service.json`` instead.
RECORDED_MODES = {
    "core": ("results", "core_meta"),
    "sweep": ("sweep_results", "sweep_meta"),
    "fractional": ("fractional_results", "fractional_meta"),
    "incremental": ("incremental_results", "incremental_meta"),
    "backend": ("backend_results", "backend_meta"),
}


def mode_floor_violations(mode, rows):
    """Return every floor violation of ``mode``'s recorded ``rows``."""
    violations = []
    for spec in FLOORS:
        if spec.mode != mode:
            continue
        eligible = [
            row
            for row in rows
            if row.get("task") == spec.task
            and spec.metric in row
            and (spec.condition is None or spec.condition(row))
        ]
        if spec.select == "largest" and eligible:
            eligible = [max(eligible, key=lambda row: row["n"])]
        for row in eligible:
            value = row[spec.metric]
            if value < spec.floor:
                at = f" at n={row['n']}" if "n" in row else ""
                violations.append(
                    f"{mode}: {spec.task} {spec.metric} {value:.2f}{spec.unit}{at} "
                    f"is below {spec.floor:g}{spec.unit}"
                )
    return violations


def _service_floor_violations(rows):
    """Floor checks for the ``BENCH_service.json`` load-generator recording."""
    if not any(row.get("task") == "service_total" for row in rows):
        return ["service: recording has no service_total row"]
    return mode_floor_violations("service", rows)


def _checked_modes(payload):
    return [
        mode
        for mode, (results_key, meta_key) in RECORDED_MODES.items()
        if payload.get(results_key) and not payload.get(meta_key, {}).get("smoke")
    ]


def floor_violations(payload, only_mode=None):
    """Return every floor violation recorded in ``payload`` (non-smoke rows)."""
    violations = []
    for mode in _checked_modes(payload):
        if only_mode is None or mode == only_mode:
            violations.extend(
                mode_floor_violations(mode, payload[RECORDED_MODES[mode][0]])
            )
    return violations


def check_floors(json_path, service_json_path=None):
    """The ``--check-floors`` entry point: validate the recorded trajectory.

    Also validates the service load-generator recording
    (``BENCH_service.json``, written by ``scripts/bench_service.py``) when
    one sits next to ``json_path`` — the serving layer shares this one
    regression gate rather than growing a second checker.

    Exit codes are distinct so CI can tell the failure classes apart:
    ``1`` for a missing recording or a floor violation, ``2`` for a
    recording that exists but cannot be parsed (corrupt or truncated —
    which the atomic writes should make impossible short of disk
    corruption, hence its own loud signal).
    """
    if not json_path.exists():
        print(f"no {json_path} to check; run the benchmarks first", file=sys.stderr)
        return 1
    try:
        payload = json.loads(json_path.read_text())
    except ValueError as exc:
        print(
            f"CORRUPT RECORDING: {json_path} exists but is not parseable JSON "
            f"({exc}); the benchmark writes are atomic, so this points at disk "
            "corruption or a manual edit — delete the file and re-run the "
            "benchmarks",
            file=sys.stderr,
        )
        return 2
    violations = floor_violations(payload)
    checked = _checked_modes(payload)
    if service_json_path is None:
        service_json_path = json_path.parent / "BENCH_service.json"
    if service_json_path.exists():
        try:
            service_payload = json.loads(service_json_path.read_text())
        except ValueError as exc:
            print(
                f"CORRUPT RECORDING: {service_json_path} exists but is not "
                f"parseable JSON ({exc}); delete the file and re-run "
                "scripts/bench_service.py",
                file=sys.stderr,
            )
            return 2
        if not service_payload.get("service_meta", {}).get("smoke"):
            violations.extend(
                _service_floor_violations(
                    service_payload.get("service_results") or []
                )
            )
            checked.append("service")
    if violations:
        for violation in violations:
            print(f"FLOOR VIOLATION: {violation}", file=sys.stderr)
        return 1
    print(f"floors ok for recorded modes: {', '.join(checked) if checked else '(none)'}")
    return 0


#: The rows README.md's trajectory table shows: one representative task per
#: recorded mode (the task each mode's floor gates, where one exists).
README_TABLE_TASKS = (
    ("results", "equilibrium_report", "Equilibrium report (flat-array engine vs dict oracle)"),
    ("sweep_results", "exhaustive_search", "Exhaustive sweep (Gray-code + memoised engine)"),
    (
        "incremental_results",
        "incremental_walk",
        "Best-response walk (incremental engine vs dict oracle)",
    ),
    ("fractional_results", "fractional_dynamics", "Fractional dynamics (warm LP engine vs reference)"),
    ("backend_results", "backend_dijkstra_report", "Dijkstra report (numpy kernels vs list kernels)"),
    ("backend_results", "backend_giant_bfs_report", "Giant-batch BFS report (vs per-node batches)"),
)


def print_readme_table(json_path):
    """Print the recorded trajectory as the markdown table README.md embeds.

    The table is *generated from* ``BENCH_speed.json`` — after re-recording
    a mode, re-run ``--readme-table`` and paste the output over the table in
    README.md so the prose never drifts from the recording.
    """
    if not json_path.exists():
        print(f"no {json_path}; run the benchmarks first", file=sys.stderr)
        return 1
    payload = json.loads(json_path.read_text())
    lines = [
        "| Scenario | n | Reference [s] | Engine [s] | Speedup |",
        "| --- | ---: | ---: | ---: | ---: |",
    ]
    for results_key, task, label in README_TABLE_TASKS:
        rows = [
            row
            for row in payload.get(results_key, [])
            if row.get("task") == task and row.get("speedup") is not None
        ]
        if not rows:
            continue
        row = max(rows, key=lambda r: r["n"])
        lines.append(
            f"| {label} | {row['n']} | {row['reference_seconds']:.2f} "
            f"| {row['engine_seconds']:.2f} | {row['speedup']:.1f}x |"
        )
    print("\n".join(lines))
    return 0


def render_table(rows):
    lines = [
        f"{'task':<30} {'n':>5} {'reference[s]':>13} {'engine[s]':>10} {'speedup':>8}"
    ]
    for row in rows:
        # The study-grid scenario times serial vs parallel instead of
        # reference vs engine; the columns line up the same way.
        reference = row.get("reference_seconds", row.get("serial_seconds"))
        engine = row.get("engine_seconds", row.get("parallel_seconds"))
        speedup = row.get("speedup", row.get("scaling"))
        lines.append(
            f"{row['task']:<30} {row['n']:>5} "
            f"{(f'{reference:.4f}' if reference is not None else '-'):>13} "
            f"{engine:>10.4f} "
            f"{(f'{speedup:.2f}x' if speedup is not None else '-'):>8}"
        )
    return "\n".join(lines)


def run_core_scenarios(args, repeats):
    sizes = [8, 16] if args.smoke else [8, 16, 32, 64]
    rows = []
    for n in sizes:
        include_reference = n <= args.max_reference_n
        print(f"benchmarking n={n} (reference={'yes' if include_reference else 'no'}) ...")
        rows.append(bench_equilibrium(n, repeats, include_reference))
        rows.append(bench_walk(n, repeats, include_reference))
    return sizes, rows


def run_sweep_scenarios(args, repeats):
    print("benchmarking exhaustive equilibrium search (sweep vs from-scratch) ...")
    rows = [bench_exhaustive_search(repeats, args.smoke)]
    print("benchmarking figure-4 completion scan ...")
    rows.append(bench_figure4(repeats, include_reference=not args.smoke))
    print("benchmarking process-parallel study grid ...")
    grid_row = bench_study_grid(repeats, args.smoke)
    print(
        "study grid reliability: "
        f"crashed={grid_row['crashed']} retried={grid_row['retried']} "
        f"pool_restarts={grid_row['pool_restarts']} "
        f"serial_fallback_cells={grid_row['serial_fallback_cells']}"
    )
    rows.append(grid_row)
    processes = args.processes or max(default_processes(), 2)
    print(f"benchmarking sharded exhaustive search ({processes} workers) ...")
    sharded_row = bench_sharded_search(repeats, args.smoke, processes)
    print(
        "sharded search reliability: "
        f"crashed={sharded_row['crashed']} retried={sharded_row['retried']} "
        f"pool_restarts={sharded_row['pool_restarts']} "
        f"serial_fallback_cells={sharded_row['serial_fallback_cells']}"
    )
    rows.append(sharded_row)
    return rows


def run_incremental_scenarios(args, repeats):
    sizes = [16] if args.smoke else [32, 64]
    rounds = 6 if args.smoke else 30
    rows = []
    for n in sizes:
        print(f"benchmarking incremental walk n={n} (engine vs reference) ...")
        rows.append(bench_incremental_walk(n, rounds, repeats))
    n = 16 if args.smoke else 64
    steps = 4 if args.smoke else 12
    print(f"benchmarking single-deviation equilibrium rechecks n={n} ...")
    rows.append(bench_incremental_recheck(n, steps, repeats))
    return sizes, rows


def run_fractional_scenarios(args, repeats):
    sizes = [5, 6] if args.smoke else [8, 10, 12, 14]
    rows = []
    for n in sizes:
        print(f"benchmarking fractional dynamics n={n} (engine vs reference) ...")
        row, game, profile = bench_fractional_dynamics(n, repeats)
        rows.append(row)
        print(f"benchmarking fractional equilibrium report n={n} ...")
        rows.append(bench_fractional_report(n, repeats, game, profile))
    return sizes, rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes and one repeat so the whole run takes seconds",
    )
    parser.add_argument(
        "--sweep",
        action="store_true",
        help="run the sweep-engine scenarios (exhaustive search, figure-4 "
        "scan, parallel study grid) instead of the core per-call scenarios",
    )
    parser.add_argument(
        "--fractional",
        action="store_true",
        help="run the fractional-game scenarios (iterated best-response "
        "dynamics and epsilon-equilibrium reports, FractionalEngine vs the "
        "FlowNetwork / dense-LP reference) instead of the core scenarios",
    )
    parser.add_argument(
        "--incremental",
        action="store_true",
        help="run the incremental-engine scenarios (long walks and "
        "single-deviation equilibrium rechecks) against the dict-based "
        "reference",
    )
    parser.add_argument(
        "--backend",
        action="store_true",
        help="run the traversal-backend scenarios (restricted-candidate "
        "equilibrium reports and all_costs sweeps, numpy frontier kernels vs "
        "the list kernels) instead of the core scenarios",
    )
    parser.add_argument(
        "--check-floors",
        action="store_true",
        help="run no benchmarks; exit non-zero if any recorded (non-smoke) "
        "mode in BENCH_speed.json is below its enforced speedup floor",
    )
    parser.add_argument(
        "--readme-table",
        action="store_true",
        help="run no benchmarks; print the recorded trajectory as the "
        "markdown table README.md embeds (regenerate it after re-recording)",
    )
    parser.add_argument("--repeats", type=int, default=None, help="timing repeats per cell")
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        help="worker count for the --sweep sharded-search scenario (default: "
        "the affinity-aware default, at least 2 so the sharded path is real)",
    )
    parser.add_argument(
        "--max-reference-n",
        type=int,
        default=32,
        help="largest n at which the dict-based reference path is also timed",
    )
    args = parser.parse_args()

    json_path = OUTPUT_DIR / "BENCH_speed.json"
    if args.readme_table:
        return print_readme_table(json_path)
    if args.check_floors:
        if args.sweep or args.fractional or args.incremental or args.backend or args.smoke:
            parser.error("--check-floors runs no benchmarks; pass it alone")
        return check_floors(json_path)

    if args.repeats is not None:
        repeats = args.repeats
    elif args.smoke or args.incremental or args.backend:
        # The incremental walks and the backend reports time deliberately
        # slow baselines; one repeat keeps each mode under a couple of
        # minutes.
        repeats = 1
    else:
        repeats = 3
    if repeats < 1:
        parser.error(f"--repeats must be at least 1 (got {repeats})")

    OUTPUT_DIR.mkdir(exist_ok=True)
    # Each mode owns its own key in the payload and appends around the other
    # mode's last results, so `--sweep` runs extend the trajectory instead of
    # erasing the core scenarios (and vice versa).
    payload = {}
    if json_path.exists():
        try:
            payload = json.loads(json_path.read_text())
        except ValueError:
            payload = {}
    payload.update({"benchmark": "bench_speed", "k": K})
    # Provenance lives next to each mode's rows: the other mode's results are
    # preserved as-is, so top-level repeats/smoke would misstate how they ran.
    meta = {
        "repeats": repeats,
        "smoke": args.smoke,
        "python": platform.python_version(),
    }

    if sum(map(bool, (args.sweep, args.fractional, args.incremental, args.backend))) > 1:
        parser.error(
            "--sweep, --fractional, --incremental, and --backend are mutually exclusive"
        )

    if args.backend and not _backend_available():
        # The minimal-deps CI leg lands here: the selector refuses "numpy"
        # and every auto resolution degrades to the list kernels, so there is
        # no vectorised arm to record — but the giant-batch plan still has a
        # pure-python drain path, which this checks end to end.
        return _python_giant_fallback_check()

    if args.sweep:
        rows = run_sweep_scenarios(args, repeats)
        payload["sweep_results"] = rows
        payload["sweep_meta"] = meta
    elif args.backend:
        sizes, rows = run_backend_scenarios(args, repeats)
        payload["backend_sizes"] = sizes
        payload["backend_results"] = rows
        payload["backend_meta"] = meta
    elif args.incremental:
        sizes, rows = run_incremental_scenarios(args, repeats)
        payload["incremental_sizes"] = sizes
        payload["incremental_results"] = rows
        payload["incremental_meta"] = meta
    elif args.fractional:
        sizes, rows = run_fractional_scenarios(args, repeats)
        payload["fractional_sizes"] = sizes
        payload["fractional_results"] = rows
        payload["fractional_meta"] = meta
    else:
        sizes, rows = run_core_scenarios(args, repeats)
        payload["sizes"] = sizes
        payload["results"] = rows
        payload["core_meta"] = meta
    payload.pop("repeats", None)  # top-level provenance from older payloads
    payload.pop("smoke", None)
    payload.pop("python", None)

    # Atomic writes (tmp + os.replace): a benchmark killed mid-write must
    # leave the previous recording intact, never a truncated JSON that a
    # later --check-floors run would choke on.
    atomic_write_text(json_path, json.dumps(payload, indent=2) + "\n")
    table = render_table(rows)
    if args.sweep:
        mode, table_name = "sweep", "BENCH_speed_sweep.txt"
    elif args.incremental:
        mode, table_name = "incremental", "BENCH_speed_incremental.txt"
    elif args.fractional:
        mode, table_name = "fractional", "BENCH_speed_fractional.txt"
    elif args.backend:
        mode, table_name = "backend", "BENCH_speed_backend.txt"
    else:
        mode, table_name = "core", "BENCH_speed.txt"
    table_path = OUTPUT_DIR / table_name
    atomic_write_text(table_path, table + "\n")
    print("\n" + table)
    print(f"\nwrote {json_path}")

    if args.smoke:
        # Smoke sizes are deliberately tiny and their ratios are noise; the
        # floors only gate real recordings (and --check-floors skips
        # smoke-recorded modes for the same reason).
        return 0
    violations = floor_violations(payload, only_mode=mode)
    for violation in violations:
        print(f"WARNING: {violation}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
