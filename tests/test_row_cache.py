"""Byte-budget regression tests for the engine's chunked row cache.

PR 5's row-*count* cap overflowed silently: crossing it dropped rows with no
signal, and the cap's byte footprint scaled with n² behind the caller's
back.  These tests drive a long random walk of profile edits and restricted
probes at n = 1024 — big enough that real numpy rows, giant-batch chunks,
stale-row refills, and evictions all occur — and pin the new contract: cache bytes
never exceed ``memory_budget_bytes``, evictions are counted (not silent),
evicted rows re-enter via recompute, and a budget-starved engine returns
bit-identical results to an unbudgeted one.
"""

import random

import pytest

from repro.core import UniformBBCGame, equilibrium_report
from repro.core.best_response import best_response
from repro.engine import CostEngine
from repro.engine.cost_engine import default_memory_budget
from repro.engine.row_store import ChunkLedger
from repro.experiments.workloads import random_initial_profile

try:
    import numpy  # noqa: F401 - presence gates the realistic large-n walk
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the minimal CI leg
    HAVE_NUMPY = False


def test_chunk_ledger_accounting_and_lru_order():
    ledger = ChunkLedger()
    ledger.add(1, 100)
    ledger.add(2, 50)
    ledger.add(1, 25)  # accrues to node 1's existing chunk, touching it
    assert ledger.bytes == 175
    assert ledger.node_bytes(1) == 125 and 1 in ledger and len(ledger) == 2
    # Node 2's singleton chunk is now least recently used.
    assert ledger.lru_nodes() == [2]
    assert ledger.lru_nodes(exempt={2}) == [1]
    assert ledger.lru_nodes(exempt={1, 2}) is None
    ledger.touch(2)
    assert ledger.lru_nodes() == [1]
    # Grouping moves both into one fresh MRU chunk, keeping their bytes.
    ledger.group([1, 2])
    assert sorted(ledger.lru_nodes()) == [1, 2]
    assert ledger.bytes == 175
    ledger.deduct(2, 20)
    assert ledger.bytes == 155 and ledger.node_bytes(2) == 30
    ledger.deduct(2, 30)  # full deduction removes the node
    assert 2 not in ledger and ledger.bytes == 125
    assert ledger.remove(1) == 125
    assert ledger.bytes == 0 and ledger.lru_nodes() is None


def test_default_budget_is_bounded_at_both_ends():
    assert default_memory_budget(4) == 16 * 2**20
    assert default_memory_budget(16384) == 256 * 2**20
    # In between it tracks the old row cap's byte footprint.
    assert default_memory_budget(1024) == 8 * 1024 * 1024 * 8


@pytest.mark.slow
@pytest.mark.skipif(not HAVE_NUMPY, reason="the large-n walk needs the numpy backend")
def test_long_walk_at_n_1024_stays_within_budget_and_counts_evictions():
    n = 1024
    budget = 1 << 20  # 1 MiB: a handful of probes' working sets
    game = UniformBBCGame(n, 2)
    profile = random_initial_profile(game, seed=7)
    engine = CostEngine(game, memory_budget_bytes=budget)
    unbudgeted = CostEngine(game)
    assert engine.backend == "numpy"
    rng = random.Random(3)
    nodes = list(game.nodes)
    # Probe a small pool round-robin so later probes revisit nodes whose
    # chunks were evicted in between — the refill-vs-recompute-after-eviction
    # path — while movers range over the whole game.
    probe_pool = rng.sample(nodes, 12)
    for step in range(40):
        node = probe_pool[step % len(probe_pool)]
        candidates = rng.sample([v for v in nodes if v != node], 6)
        got = best_response(game, profile, node, candidates=candidates, engine=engine)
        want = best_response(
            game, profile, node, candidates=candidates, engine=unbudgeted
        )
        assert got.best_cost == want.best_cost
        assert got.best_strategy == want.best_strategy
        # The byte contract, pinned at every step of the walk: eviction runs
        # inside every charging site, so the cache never ends a probe over
        # budget (the exempt in-flight working set is far below 1 MiB here).
        assert engine.cache_bytes() <= budget
        # Single-node profile step: the next probes exercise the stale-row
        # refill and refill-after-eviction paths under budget pressure.
        mover = rng.choice(nodes)
        profile = profile.with_strategy(
            mover, frozenset(rng.sample([v for v in nodes if v != mover], 2))
        )
    stats = engine.snapshot_stats()
    assert stats["chunks_evicted"] > 0
    assert stats["rows_evicted"] > 0
    assert stats["evicted_recomputes"] > 0
    assert stats["cache_bytes"] == engine.cache_bytes() <= budget
    assert stats["memory_budget_bytes"] == budget


@pytest.mark.skipif(not HAVE_NUMPY, reason="the n=256 probes need the numpy backend")
def test_budget_holds_for_probes_after_a_report():
    """A report groups its planned nodes into a few giant ledger chunks.  A
    probe exempts its own node's chunk from eviction, so once only one such
    chunk is left the budget must still be enforced by evicting the probed
    node's chunk-mates, not by giving up."""
    game = UniformBBCGame(256, 2)
    profile = random_initial_profile(game, seed=3)
    engine = CostEngine(game)
    unbudgeted = CostEngine(game, memory_budget_bytes=1 << 40)
    budget = engine.memory_budget_bytes
    rng = random.Random(5)
    nodes = list(game.nodes)
    report_candidates = {
        u: rng.sample([v for v in nodes if v != u], 3) for u in nodes
    }
    equilibrium_report(game, profile, candidates=report_candidates, engine=engine)
    for _ in range(600):
        node = rng.choice(nodes)
        candidates = rng.sample([v for v in nodes if v != node], 8)
        got = best_response(game, profile, node, candidates=candidates, engine=engine)
        want = best_response(
            game, profile, node, candidates=candidates, engine=unbudgeted
        )
        assert got == want
        assert engine.cache_bytes() <= budget + engine._ledger.node_bytes(
            engine.indexed.index[node]
        )
    assert engine.stats["chunks_evicted"] > 0


@pytest.mark.skipif(not HAVE_NUMPY, reason="the refill policy is the numpy backend's")
def test_stale_drops_count_as_invalidations_not_evictions():
    """``rows_evicted`` means budget pressure only: with an ample budget, the
    rows a numpy engine drops for going stale after one step are counted in
    ``rows_invalidated`` instead."""
    game = UniformBBCGame(24, 2)
    profile = random_initial_profile(game, seed=6)
    engine = CostEngine(game, backend="numpy", memory_budget_bytes=1 << 30)
    equilibrium_report(game, profile, engine=engine)
    mover = 0
    others = [v for v in game.nodes if v != mover and v not in profile.strategy(mover)]
    moved = profile.with_strategy(mover, frozenset(others[:2]))
    recheck = equilibrium_report(game, moved, engine=engine)
    assert recheck.responses == equilibrium_report(game, moved, engine=False).responses
    assert engine.stats["rows_evicted"] == 0
    assert engine.stats["chunks_evicted"] == 0
    assert engine.stats["rows_invalidated"] > 0
