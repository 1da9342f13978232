"""Parity of the numpy traversal backend against the list kernels.

Two layers, mirroring ``tests/test_engine_parity.py``:

* kernel level — the array kernels in :mod:`repro.graphs.int_kernels_np`
  (single-source, multi-source, and repair) against the list kernels on
  randomized graphs, masked and unmasked, with zero-length edges and
  disconnected nodes;
* engine level — ``CostEngine(game, backend="numpy")`` against
  ``backend="python"`` on full equilibrium reports, ``all_costs``, and
  best-response walk traces (the refill-after-edit path), all required
  **bit-identical**.

The backend selector's fallback behaviour (auto resolution, the explicit
``backend="numpy"`` failure without numpy) is tested without requiring
numpy, so the minimal-deps CI leg still exercises it.
"""

import math
import random

import pytest

from repro.core import BBCGame, UniformBBCGame, best_response, equilibrium_report
from repro.dynamics import run_best_response_walk
from repro.engine import (
    NUMPY_BACKEND_MIN_N,
    CostEngine,
    SweepEvaluator,
    resolve_backend,
)
from repro.engine.cost_engine import NUMPY_BACKEND_MIN_N_UNIFORM
from repro.graphs.int_kernels import (
    bfs_hops_csr,
    bfs_hops_csr_multi,
    build_csr,
    dijkstra_csr,
    dijkstra_csr_multi,
)
from repro.experiments.workloads import random_initial_profile

try:
    import numpy as np
except ImportError:  # pragma: no cover - the minimal CI leg
    np = None

needs_numpy = pytest.mark.skipif(np is None, reason="numpy is not installed")

if np is not None:
    from repro.graphs import int_kernels_np as npk

from hypothesis import given, settings, strategies as st

from test_engine_parity import (
    _csr_with_lengths,
    _random_adjacency,
    _random_edit_sequence,
)


def _float_rows_equal(reference, produced):
    """Bitwise row equality with inf == inf (lists or arrays, any numeric mix)."""
    assert len(reference) == len(produced)
    for a, b in zip(reference, produced):
        if math.isinf(a):
            assert math.isinf(b)
        else:
            assert a == b


def _length_choices(integral):
    # Zero-length edges exercise the tie rules; the non-integral pool forces
    # the float64 frontier path (including an awkwardly rounded value).
    if integral:
        return [0.0, 1.0, 1.0, 2.0, 5.0]
    return [0.0, 0.1, 1.0, 1.7, 2.30000001]


# --------------------------------------------------------------------- #
# Kernel-level parity
# --------------------------------------------------------------------- #
@needs_numpy
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12), integral=st.booleans())
def test_fresh_kernels_match_list_kernels(seed, n, integral):
    """BFS and Dijkstra array kernels are bit-identical, masked and unmasked."""
    rng = random.Random(seed)
    rows = _random_adjacency(rng, n)
    length_rows = [
        [float(rng.choice(_length_choices(integral))) for _ in range(n)]
        for _ in range(n)
    ]
    indptr, indices, lengths = _csr_with_lengths(rows, length_rows)
    indptr_np, indices_np = npk.csr_arrays(indptr, indices)
    lengths_np = np.asarray(
        lengths, dtype=np.int64 if integral else np.float64
    )
    for forbidden in (-1, rng.randrange(n)):
        for source in range(n):
            if source == forbidden:
                continue
            hops = bfs_hops_csr(indptr, indices, n, source, forbidden)
            hops_np = npk.bfs_hops_csr_np(indptr_np, indices_np, n, source, forbidden)
            assert hops == hops_np.tolist()
            dist = dijkstra_csr(indptr, indices, lengths, n, source, forbidden)
            dist_np = npk.dijkstra_csr_np(
                indptr_np, indices_np, lengths_np, n, source, forbidden
            )
            produced = (
                npk.int_to_float_rows(dist_np) if integral else dist_np
            )
            _float_rows_equal(dist, produced)


@needs_numpy
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12), integral=st.booleans())
def test_multi_source_kernels_match_single_source(seed, n, integral):
    """Each row of the batched kernels equals its single-source counterpart."""
    rng = random.Random(seed)
    rows = _random_adjacency(rng, n)
    length_rows = [
        [float(rng.choice(_length_choices(integral))) for _ in range(n)]
        for _ in range(n)
    ]
    indptr, indices, lengths = _csr_with_lengths(rows, length_rows)
    indptr_np, indices_np = npk.csr_arrays(indptr, indices)
    lengths_np = np.asarray(lengths, dtype=np.int64 if integral else np.float64)
    for forbidden in (-1, rng.randrange(n)):
        sources = [s for s in range(n) if s != forbidden]
        hop_matrix = npk.bfs_hops_csr_multi(
            indptr_np, indices_np, n, sources, forbidden
        )
        dist_matrix = npk.dijkstra_csr_multi(
            indptr_np, indices_np, lengths_np, n, sources, forbidden
        )
        for i, source in enumerate(sources):
            assert hop_matrix[i].tolist() == bfs_hops_csr(
                indptr, indices, n, source, forbidden
            )
            reference = dijkstra_csr(indptr, indices, lengths, n, source, forbidden)
            produced = (
                npk.int_to_float_rows(dist_matrix[i])
                if integral
                else dist_matrix[i]
            )
            _float_rows_equal(reference, produced)


@needs_numpy
def test_multi_source_rejects_forbidden_source():
    indptr, indices = npk.csr_arrays(*build_csr([[1], [0]]))
    with pytest.raises(ValueError):
        npk.bfs_hops_csr_multi(indptr, indices, 2, [0, 1], forbidden=1)
    with pytest.raises(ValueError):
        npk.dijkstra_csr_multi(
            indptr, indices, np.asarray([1.0, 1.0]), 2, [0, 1], forbidden=1
        )


def _random_per_row_masks(rng, sources, n):
    """Per-row forbidden masks: a mix of -1 and random non-source nodes."""
    masks = []
    for s in sources:
        if rng.random() < 0.3 or n < 2:
            masks.append(-1)
        else:
            masks.append(rng.choice([v for v in range(n) if v != s]))
    return masks


@needs_numpy
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12), integral=st.booleans())
def test_per_row_mask_kernels_match_single_source(seed, n, integral):
    """Row i of a per-row-masked batch equals a single masked traversal.

    Each row computes ``d_{G-u_i}`` for its *own* masked node — the
    giant-batch substrate — so the shared frontier must never leak values
    through a node that is forbidden for one row but live for another.
    Covers uniform BFS and exact-int / float Dijkstra, zero-length edges,
    and disconnected nodes.
    """
    rng = random.Random(seed)
    rows = _random_adjacency(rng, n)
    length_rows = [
        [float(rng.choice(_length_choices(integral))) for _ in range(n)]
        for _ in range(n)
    ]
    indptr, indices, lengths = _csr_with_lengths(rows, length_rows)
    indptr_np, indices_np = npk.csr_arrays(indptr, indices)
    lengths_np = np.asarray(lengths, dtype=np.int64 if integral else np.float64)
    sources = [rng.randrange(n) for _ in range(rng.randint(2, 2 * n))]
    masks = _random_per_row_masks(rng, sources, n)
    hop_matrix = npk.bfs_hops_csr_multi(indptr_np, indices_np, n, sources, masks)
    dist_matrix = npk.dijkstra_csr_multi(
        indptr_np, indices_np, lengths_np, n, sources, masks
    )
    for i, (source, forbidden) in enumerate(zip(sources, masks)):
        assert hop_matrix[i].tolist() == bfs_hops_csr(
            indptr, indices, n, source, forbidden
        )
        reference = dijkstra_csr(indptr, indices, lengths, n, source, forbidden)
        produced = (
            npk.int_to_float_rows(dist_matrix[i]) if integral else dist_matrix[i]
        )
        _float_rows_equal(reference, produced)


@needs_numpy
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
def test_fused_scaled_rows_match_two_pass(seed, n):
    """``bfs_hops_csr_multi(..., scale_unit=u)`` returns ``(hops, scaled)``
    with ``scaled`` bit-identical to ``scaled_float_rows(hops, u)`` — the
    fused giant-chunk path may not drift from the two-pass conversion by a
    single ULP, across shared and per-row masks and disconnected nodes."""
    rng = random.Random(seed)
    rows = _random_adjacency(rng, n)
    indptr, indices = build_csr(rows)
    indptr_np, indices_np = npk.csr_arrays(indptr, indices)
    sources = [rng.randrange(n) for _ in range(rng.randint(2, 2 * n))]
    unit = rng.choice([1.0, 0.5, 1.5, 3.25])
    for forbidden in (-1, _random_per_row_masks(rng, sources, n)):
        plain = npk.bfs_hops_csr_multi(indptr_np, indices_np, n, sources, forbidden)
        hops, scaled = npk.bfs_hops_csr_multi(
            indptr_np, indices_np, n, sources, forbidden, scale_unit=unit
        )
        assert np.array_equal(hops, plain)
        expected = npk.scaled_float_rows(plain, unit)
        finite = np.isfinite(expected)
        assert np.array_equal(finite, np.isfinite(scaled))
        assert np.array_equal(scaled[finite], expected[finite])


@needs_numpy
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_wide_batch_dense_rounds_match_narrow_batches(seed):
    """Giant-width batches (>= 4 bit-planes of sources, so the dense
    reverse-CSR reduceat rounds engage) agree row for row with narrow
    batches that stay on the sparse scatter.  Sparse graphs make empty
    in-edge head groups — including a trailing run of them, the regression
    of record: clipping a trailing start used to drop the previous head's
    last in-edge from its reduceat group."""
    rng = random.Random(seed)
    n = rng.randint(32, 64)
    # Sparse rows (out-degree <= 3) keep diameters long enough that many
    # rounds run dense; dense graphs would finish before the switch.
    rows = [
        sorted(rng.sample([v for v in range(n) if v != u], rng.randint(0, 3)))
        for u in range(n)
    ]
    # Guarantee in-degree-0 heads, one of them last.
    orphans = {n - 1, rng.randrange(n)}
    rows = [sorted(set(row) - orphans) for row in rows]
    indptr, indices = build_csr(rows)
    indptr_np, indices_np = npk.csr_arrays(indptr, indices)
    num = rng.randint(193, 320)  # words >= 4
    sources = [rng.randrange(n) for _ in range(num)]
    for forbidden in (-1, _random_per_row_masks(rng, sources, n)):
        wide = npk.bfs_hops_csr_multi(indptr_np, indices_np, n, sources, forbidden)
        step = 8
        for lo in range(0, num, step):
            masks = forbidden if forbidden == -1 else forbidden[lo:lo + step]
            narrow = npk.bfs_hops_csr_multi(
                indptr_np, indices_np, n, sources[lo:lo + step], masks
            )
            assert np.array_equal(wide[lo:lo + step], narrow)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 10), integral=st.booleans())
def test_list_multi_kernels_match_single_source(seed, n, integral):
    """The list-kernel batched forms (the reference, and the python
    backend's giant-batch path) agree row for row with single traversals —
    with a shared scalar mask and with per-row masks."""
    rng = random.Random(seed)
    rows = _random_adjacency(rng, n)
    length_rows = [
        [float(rng.choice(_length_choices(integral))) for _ in range(n)]
        for _ in range(n)
    ]
    indptr, indices, lengths = _csr_with_lengths(rows, length_rows)
    sources = [rng.randrange(n) for _ in range(rng.randint(2, 2 * n))]
    masks = _random_per_row_masks(rng, sources, n)
    non_sources = [v for v in range(n) if v not in sources]
    shared = rng.choice(non_sources) if non_sources else -1
    for forbidden in (masks, shared):
        per_row = forbidden if isinstance(forbidden, list) else [forbidden] * len(sources)
        assert bfs_hops_csr_multi(indptr, indices, n, sources, forbidden) == [
            bfs_hops_csr(indptr, indices, n, s, f)
            for s, f in zip(sources, per_row)
        ]
        assert dijkstra_csr_multi(
            indptr, indices, lengths, n, sources, forbidden
        ) == [
            dijkstra_csr(indptr, indices, lengths, n, s, f)
            for s, f in zip(sources, per_row)
        ]


def test_per_row_masks_reject_collisions_and_misalignment():
    indptr, indices = build_csr([[1], [0]])
    with pytest.raises(ValueError):
        bfs_hops_csr_multi(indptr, indices, 2, [0, 1], [1, 1])
    with pytest.raises(ValueError):
        dijkstra_csr_multi(indptr, indices, [1.0, 1.0], 2, [0, 1], [0, 1, 0])
    if np is not None:
        indptr_np, indices_np = npk.csr_arrays(indptr, indices)
        with pytest.raises(ValueError):
            npk.bfs_hops_csr_multi(indptr_np, indices_np, 2, [0, 1], [1, 1])
        with pytest.raises(ValueError):
            npk.dijkstra_csr_multi(
                indptr_np, indices_np, np.asarray([1.0, 1.0]), 2, [0, 1], [0, 1, 0]
            )


@needs_numpy
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(3, 11),
    steps=st.integers(1, 4),
    integral=st.booleans(),
)
def test_repair_kernels_match_fresh_traversals_np(seed, n, steps, integral):
    """Array-repaired rows are bit-identical to fresh traversals of the new graph."""
    rng = random.Random(seed)
    rows = _random_adjacency(rng, n)
    length_rows = [
        [float(rng.choice(_length_choices(integral))) for _ in range(n)]
        for _ in range(n)
    ]
    indptr0, indices0, lengths0 = _csr_with_lengths(rows, length_rows)
    new_rows, edits = _random_edit_sequence(rng, rows, steps)
    indptr1, indices1, lengths1 = _csr_with_lengths(new_rows, length_rows)
    indptr0_np, indices0_np = npk.csr_arrays(indptr0, indices0)
    indptr1_np, indices1_np = npk.csr_arrays(indptr1, indices1)
    rev_indptr, rev_tails = npk.reverse_csr(indptr1_np, indices1_np, n)
    lengths1_np = np.asarray(lengths1, dtype=np.float64)
    length_matrix = np.asarray(length_rows, dtype=np.float64)
    for forbidden in (-1, rng.randrange(n)):
        for source in range(n):
            if source == forbidden:
                continue
            # Hop rows repair in exact int64 space on the single-source
            # kernel's output array.
            hops = npk.bfs_hops_csr_np(indptr0_np, indices0_np, n, source, forbidden)
            touched = npk.repair_hops_csr_np(
                indptr1_np, indices1_np, hops, source, edits,
                rev_indptr, rev_tails, forbidden,
            )
            fresh = bfs_hops_csr(indptr1, indices1, n, source, forbidden)
            assert hops.tolist() == fresh
            assert set(touched) >= {
                v
                for v, (old, new) in enumerate(
                    zip(bfs_hops_csr(indptr0, indices0, n, source, forbidden), fresh)
                )
                if old != new
            }
            dist = np.asarray(
                dijkstra_csr(indptr0, indices0, lengths0, n, source, forbidden),
                dtype=np.float64,
            )
            npk.repair_dijkstra_csr_np(
                indptr1_np, indices1_np, lengths1_np, dist, source, edits,
                rev_indptr, rev_tails, length_matrix, forbidden,
            )
            _float_rows_equal(
                dijkstra_csr(indptr1, indices1, lengths1, n, source, forbidden), dist
            )


# --------------------------------------------------------------------- #
# Backend selection
# --------------------------------------------------------------------- #
def test_resolve_backend_pins_and_rejects():
    assert resolve_backend("python", 10_000) == "python"
    with pytest.raises(ValueError):
        resolve_backend("vectorised", 8)
    if np is None:
        with pytest.raises(ValueError):
            resolve_backend("numpy", 8)
        assert resolve_backend(None, 10_000) == "python"
        assert resolve_backend("auto", 10_000, uniform_lengths=True) == "python"
    else:
        assert resolve_backend("numpy", 8) == "numpy"
        assert resolve_backend(None, NUMPY_BACKEND_MIN_N) == "numpy"
        assert resolve_backend(None, NUMPY_BACKEND_MIN_N - 1) == "python"
        assert (
            resolve_backend("auto", NUMPY_BACKEND_MIN_N, uniform_lengths=True)
            == "python"
        )
        assert (
            resolve_backend("auto", NUMPY_BACKEND_MIN_N_UNIFORM, uniform_lengths=True)
            == "numpy"
        )


def test_engine_backend_defaults_to_python_on_small_games():
    engine = CostEngine(UniformBBCGame(6, 2))
    assert engine.backend == "python"


def test_sweep_evaluator_rejects_engine_plus_backend(small_uniform_game):
    engine = CostEngine(small_uniform_game)
    with pytest.raises(ValueError):
        SweepEvaluator(small_uniform_game, engine=engine, backend="python")


# --------------------------------------------------------------------- #
# Engine-level parity
# --------------------------------------------------------------------- #
def _weighted_game(n, seed=5, integral=True):
    rng = random.Random(seed)
    lengths = {}
    for u in range(n):
        for v in rng.sample([x for x in range(n) if x != u], min(5, n - 1)):
            value = float(rng.randint(2, 7))
            lengths[(u, v)] = value if integral else value + 0.25
    return BBCGame(nodes=range(n), link_lengths=lengths, default_budget=2.0)


@needs_numpy
@pytest.mark.parametrize(
    "make_game",
    [
        lambda: UniformBBCGame(20, 2),
        lambda: _weighted_game(20, integral=True),
        lambda: _weighted_game(20, integral=False),
    ],
    ids=["uniform-bfs", "weighted-int", "weighted-float"],
)
def test_equilibrium_report_bit_identical_across_backends(make_game):
    game = make_game()
    profile = random_initial_profile(game, seed=9)
    report_py = equilibrium_report(
        game, profile, engine=CostEngine(game, backend="python")
    )
    report_np = equilibrium_report(
        game, profile, engine=CostEngine(game, backend="numpy")
    )
    assert report_np.responses == report_py.responses
    assert report_np.max_regret == report_py.max_regret
    assert type(report_np.max_regret) is float


@needs_numpy
@pytest.mark.parametrize("uniform", [True, False], ids=["bfs", "dijkstra"])
def test_walk_trace_bit_identical_across_backends(uniform):
    """End-to-end walk (syncs, repairs or refills, scoring) pinned across backends."""
    game = UniformBBCGame(40, 2) if uniform else _weighted_game(24)
    initial = random_initial_profile(game, seed=3)
    walk_py = run_best_response_walk(
        game, initial, max_rounds=18, engine=CostEngine(game, backend="python")
    )
    walk_np = run_best_response_walk(
        game, initial, max_rounds=18, engine=CostEngine(game, backend="numpy")
    )
    assert walk_np.final_profile == walk_py.final_profile
    assert walk_np.probes == walk_py.probes
    assert walk_np.deviations == walk_py.deviations
    assert walk_np.reached_equilibrium == walk_py.reached_equilibrium


@needs_numpy
def test_repeated_rechecks_refill_numpy_rows_bit_identically():
    """Single-deviation rechecks on a warmed numpy engine refill stale rows in
    the giant traversal, while the python engine repairs them in place; both
    stay bit-identical."""
    game = UniformBBCGame(32, 2)
    rng = random.Random(1)
    nodes = list(game.nodes)
    profile = random_initial_profile(game, seed=7)
    engine_np = CostEngine(game, backend="numpy")
    engine_py = CostEngine(game, backend="python")
    equilibrium_report(game, profile, engine=engine_np)
    equilibrium_report(game, profile, engine=engine_py)
    for _ in range(6):
        node = rng.choice(nodes)
        others = [v for v in nodes if v != node]
        profile = profile.with_strategy(node, frozenset(rng.sample(others, 2)))
        report_np = equilibrium_report(game, profile, engine=engine_np)
        report_py = equilibrium_report(game, profile, engine=engine_py)
        assert report_np.responses == report_py.responses
    assert engine_np.stats["rows_repaired"] == 0
    assert engine_py.stats["rows_repaired"] > 0


@pytest.fixture
def numpy_repair_kernels_raise(monkeypatch):
    """Make any call of the vectorised repair kernels fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("numpy-backend engines must not repair rows")

    monkeypatch.setattr(npk, "repair_hops_csr_np", refuse)
    monkeypatch.setattr(npk, "repair_dijkstra_csr_np", refuse)


def _step(game, profile, mover=0):
    """``profile`` with ``mover`` switched to a different feasible strategy."""
    old = profile.strategy(mover)
    others = [v for v in game.nodes if v != mover and v not in old]
    return profile.with_strategy(mover, frozenset(others[:2]))


@needs_numpy
@pytest.mark.parametrize(
    "make_game",
    [lambda: UniformBBCGame(20, 2), lambda: _weighted_game(20)],
    ids=["uniform-bfs", "weighted-int"],
)
def test_numpy_engine_refills_stale_rows_in_the_giant_traversal(
    make_game, numpy_repair_kernels_raise
):
    """After a single-node step, a numpy engine's stale rows are refilled by
    the next report's fused traversal, never repaired one at a time."""
    game = make_game()
    profile = random_initial_profile(game, seed=9)
    engine = CostEngine(game, backend="numpy")
    first = equilibrium_report(game, profile, engine=engine)
    assert first.responses == equilibrium_report(game, profile, engine=False).responses
    moved = _step(game, profile)
    engine.sync(moved)
    stale_rows = sum(
        len(rows) for version, rows in engine._env_cache.values()
        if version != engine.version
    )
    assert stale_rows > 0
    giant_rows_before = engine.stats["giant_batch_rows"]
    second = equilibrium_report(game, moved, engine=engine)
    reference = equilibrium_report(game, moved, engine=False)
    assert second.responses == reference.responses
    assert second.max_regret == reference.max_regret
    assert engine.stats["giant_batch_rows"] - giant_rows_before >= stale_rows
    assert engine.stats["rows_repaired"] == 0
    assert not engine._hop_cache


@needs_numpy
def test_service_read_batch_after_update_refills_numpy_rows(
    numpy_repair_kernels_raise,
):
    """A coalesced read batch after an update, on a numpy-backend service
    entry, answers exactly what the direct library calls answer."""
    import asyncio

    from repro.service import GameService, Query

    game = UniformBBCGame(20, 2)
    profile = random_initial_profile(game, seed=4)
    moved = _step(game, profile)
    queries = [
        Query(kind="cost", node=3),
        Query(kind="best_response", node=5),
        Query(kind="what_if", node=7, strategy=(1, 2)),
        Query(kind="report"),
    ]

    async def scenario():
        async with GameService() as svc:
            svc.register("g", game, profile=profile, backend="numpy")
            await svc.gather("g", [Query(kind="report")])
            update = await svc.update("g", 0, sorted(moved.strategy(0)))
            assert update.ok
            return await svc.gather("g", queries)

    cost, response, what_if, report = asyncio.run(scenario())
    assert all(r.ok and r.version == 2 for r in (cost, response, what_if, report))
    assert cost.payload == game.node_cost(moved, 3)
    direct = best_response(game, moved, 5, engine=False)
    assert response.payload == {
        "node": 5,
        "current_cost": direct.current_cost,
        "best_cost": direct.best_cost,
        "regret": direct.regret,
        "improved": direct.improved,
        "best_strategy": sorted(direct.best_strategy, key=repr),
    }
    assert what_if.payload == game.node_cost(moved.with_strategy(7, {1, 2}), 7)
    direct_report = equilibrium_report(game, moved, engine=False)
    assert report.payload == {
        "is_equilibrium": direct_report.is_equilibrium,
        "max_regret": direct_report.max_regret,
        "unstable_nodes": sorted(direct_report.unstable_nodes, key=repr),
        "nodes_checked": game.num_nodes,
    }


@needs_numpy
def test_all_costs_matches_and_returns_plain_floats():
    for game in (UniformBBCGame(24, 2), _weighted_game(24), _weighted_game(24, integral=False)):
        profile = random_initial_profile(game, seed=4)
        costs_np = CostEngine(game, backend="numpy").all_costs(profile)
        costs_py = CostEngine(game, backend="python").all_costs(profile)
        assert costs_np == costs_py
        assert all(type(value) is float for value in costs_np.values())


@needs_numpy
def test_sweep_evaluator_backend_kwarg_parity(small_uniform_game):
    from repro.core import random_profile

    profiles = [
        random_profile(small_uniform_game, seed=seed) for seed in range(12)
    ]
    sweep_np = SweepEvaluator(small_uniform_game, backend="numpy")
    sweep_py = SweepEvaluator(small_uniform_game, backend="python")
    assert sweep_np.engine.backend == "numpy"
    assert sweep_py.engine.backend == "python"
    for profile in profiles:
        assert sweep_np.is_nash(profile) == sweep_py.is_nash(profile)


@needs_numpy
def test_prefetch_is_invisible_to_results():
    """Prefetched rows serve later probes; a cold scorer path agrees exactly."""
    game = UniformBBCGame(24, 2)
    profile = random_initial_profile(game, seed=2)
    engine = CostEngine(game, backend="numpy")
    engine.sync(profile)
    engine.prefetch_env_rows(3, [v for v in range(24) if v != 3])
    prefetched = engine.scorer(3)
    cold_engine = CostEngine(game, backend="numpy")
    cold_engine.sync(profile)
    cold = cold_engine.scorer(3)
    for seed in range(10):
        rng = random.Random(seed)
        strategy = rng.sample([v for v in range(24) if v != 3], 2)
        assert prefetched.score_ints(list(strategy)) == cold.score_ints(list(strategy))


# --------------------------------------------------------------------- #
# Giant-batch report plans
# --------------------------------------------------------------------- #
def _restricted_candidates(game, per_node=5, seed=13):
    rng = random.Random(seed)
    nodes = list(game.nodes)
    return {
        node: rng.sample([v for v in nodes if v != node], per_node)
        for node in nodes
    }


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize(
    "make_game",
    [
        lambda: UniformBBCGame(20, 2),
        lambda: _weighted_game(18, integral=True),
        lambda: _weighted_game(18, integral=False),
    ],
    ids=["uniform-bfs", "weighted-int", "weighted-float"],
)
def test_giant_batch_report_matches_per_node_and_reference(make_game, backend):
    """Giant-batch reports are bit-identical to per-node batches and to the
    dict-oracle reference, restricted and unrestricted, on both backends."""
    if backend == "numpy" and np is None:
        pytest.skip("numpy is not installed")
    game = make_game()
    profile = random_initial_profile(game, seed=9)
    for candidates in (None, _restricted_candidates(game)):
        giant = CostEngine(game, backend=backend)
        report_giant = equilibrium_report(
            game, profile, candidates=candidates, engine=giant
        )
        # Per node: the same probes on a fresh engine with no report plan,
        # so every row comes from the per-node fill paths.
        per_node = CostEngine(game, backend=backend)
        responses_per_node = {
            node: best_response(
                game,
                profile,
                node,
                candidates=None if candidates is None else candidates[node],
                engine=per_node,
            )
            for node in game.nodes
        }
        report_ref = equilibrium_report(
            game, profile, candidates=candidates, engine=False
        )
        assert report_giant.responses == responses_per_node
        assert report_giant.responses == report_ref.responses
        assert report_giant.max_regret == report_ref.max_regret
        assert giant.stats["giant_batch_traversals"] > 0
        assert per_node.stats["giant_batch_traversals"] == 0


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_giant_batch_under_tiny_budget_evicts_mid_report_and_stays_exact(backend):
    """A budget far below one report's working set forces chunk evictions in
    the middle of the giant-batch report; results must not move, and a
    post-report walk (repair-after-eviction territory) must match the
    reference trace exactly."""
    if backend == "numpy" and np is None:
        pytest.skip("numpy is not installed")
    game = UniformBBCGame(24, 2)
    profile = random_initial_profile(game, seed=5)
    engine = CostEngine(game, backend=backend, memory_budget_bytes=6_000)
    report = equilibrium_report(game, profile, engine=engine)
    reference = equilibrium_report(game, profile, engine=False)
    assert report.responses == reference.responses
    assert engine.stats["chunks_evicted"] > 0
    # Budget plus the exempt in-flight node's working set (up to 4 rows of 24
    # floats per first hop, plus one combination vector).
    assert engine.cache_bytes() <= 6_000 + 4 * 23 * 8 * 24 + 4_096
    walk = run_best_response_walk(game, profile, max_rounds=10, engine=engine)
    walk_ref = run_best_response_walk(game, profile, max_rounds=10, engine=False)
    assert walk.final_profile == walk_ref.final_profile
    assert walk.probes == walk_ref.probes
    assert walk.deviations == walk_ref.deviations


def test_swap_stability_report_uses_the_plan_and_matches_reference():
    from repro.core.equilibrium import swap_stability_report

    game = UniformBBCGame(16, 2)
    profile = random_initial_profile(game, seed=11)
    engine = CostEngine(game)
    report = swap_stability_report(game, profile, engine=engine)
    reference = swap_stability_report(game, profile, engine=False)
    assert report.responses == reference.responses
    assert engine.stats["giant_batch_traversals"] > 0


def test_plan_is_cleared_by_profile_changes_and_skips_oversized_reports():
    game = UniformBBCGame(12, 2)
    profile = random_initial_profile(game, seed=3)
    engine = CostEngine(game)
    planned = engine.plan_report_prefetch(profile)
    assert planned > 0 and engine._plan_chunks
    moved = profile.with_strategy(0, frozenset([1, 2]))
    engine.sync(moved)
    assert engine._plan_version != engine.version and not engine._plan_chunk_of
    # A plan above the row limit is declined outright (per-node prefetch
    # serves those reports).
    import repro.engine.cost_engine as ce

    old_limit = ce.PLAN_ROW_LIMIT
    ce.PLAN_ROW_LIMIT = 10
    try:
        assert engine.plan_report_prefetch(moved) == 0
        assert not engine._plan_chunk_of
    finally:
        ce.PLAN_ROW_LIMIT = old_limit
