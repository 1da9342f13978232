"""Flat-array distance/cost engine (index + version-stamp invalidation).

This subsystem is the performance core of the reproduction.  It replaces the
per-oracle rebuild of hash-dict :class:`~repro.graphs.DiGraph` environments
with one shared, int-indexed CSR snapshot of the profile plus caches that are
invalidated by a version stamp instead of by reconstruction.

**The index contract.**  :class:`~repro.engine.indexed.IndexedGame` maps the
game's node labels to dense ints ``0..n-1`` exactly once, in declaration
order, and materialises link lengths and the positive-preference target
lists (with their weights) as flat per-node rows.  Every traversal kernel
(the list kernels of :mod:`repro.graphs.int_kernels` and the numpy kernels
of :mod:`repro.graphs.int_kernels_np` alike) and every cache in
:class:`~repro.engine.cost_engine.CostEngine` speaks ints; labels only appear
at the public API boundary.  The mapping is immutable for the lifetime of the
engine, so cached rows indexed by int stay meaningful across profile changes.

**The version-stamp contract.**  A :class:`CostEngine` carries a
monotonically increasing ``version``.  :meth:`CostEngine.sync` diffs the
incoming profile against the engine's snapshot and:

* *no node changed* — the version is unchanged and every cache
  (environment-distance rows ``d_{G-u}(a, ·)``, the all-costs table) remains
  valid, so an equilibrium check immediately after a walk, or repeated stable
  probes within a walk, re-use every SSSP already paid for;
* *exactly one node ``u`` changed* — the version is bumped, ``u``'s own
  environment rows are re-stamped (``G - u`` never contained ``u``'s links,
  so a local change by ``u`` cannot invalidate ``u``'s own deviation
  geometry), and the step — ``u`` plus its arcs before the step — is
  appended to a bounded **edit log** instead of dropping the other nodes'
  rows;
* *more than one node changed* — the version is bumped, all caches are
  dropped, and the edit log is cleared.

**The repair contract** (new in PR 4).  A cached row whose stamp is behind
the engine's version is not discarded on touch: the engine collapses the
edit log since the row's stamp into net per-mover arc diffs (a node that
moved away and back contributes nothing; the masked node's own steps never
matter).  When nothing is left the row is re-stamped as it stands, on
either backend.  Otherwise the two backends part ways, by policy rather
than by a flag:

* the **list engine** *repairs* the row in place with the dynamic-SSSP
  kernels :func:`repro.graphs.int_kernels.repair_hops_csr` /
  :func:`repro.graphs.int_kernels.repair_dijkstra_csr` — bounded
  re-relaxation of only the region the arc changes can reach, seeded from
  the region's intact in-boundary (the engine maintains the reverse
  adjacency for this).  Hop rows repair in exact int space before
  rescaling, so repaired rows are **bit-identical** to recomputation;
  derived rows (through rows, penalty-substituted slices, batched
  combination cost vectors) are patched at the touched indices only.  When
  repair would not pay — more pending net movers than
  ``_repair_edit_limit`` (the affected region would approach the whole
  row), a row older than the ``REPAIR_LOG_LIMIT``-entry log, or tiny games
  where a fresh BFS is cheaper — it falls back to drop-and-recompute;
* the **numpy engine** *refills*: it drops the node's stale rows
  (``stats["rows_invalidated"]``) and the next fill recomputes them —
  inside a report or a coalesced service batch, as part of the plan
  chunk's one fused multi-source traversal, where a row costs a small
  fraction of a vectorised per-row repair.  It keeps no hop rows.

Drop-and-recompute remains the reference semantics.
``tests/test_engine_parity.py`` pins repaired rows, costs, and walk traces
against full recomputation across randomized single-node edit sequences,
and ``tests/test_backend_parity.py`` pins the numpy refill path.

Consumers never invalidate caches themselves; they call ``sync`` (directly
or through the routed entry points :func:`repro.core.best_response`,
:func:`repro.core.equilibrium_report`, :meth:`repro.core.BBCGame.all_costs`)
and trust the stamp.  Anything holding a pre-``sync`` artefact — e.g. a
:class:`~repro.engine.cost_engine.StrategyScorer` — checks the stamp and
refuses to run stale.

**The traversal backend.**  The SSSP kernels behind every row come in two
interchangeable implementations: the list kernels of
:mod:`repro.graphs.int_kernels` (the reference — plain deques and binary
heaps over list CSR) and the array kernels of
:mod:`repro.graphs.int_kernels_np` (level-synchronous frontier BFS and
frontier-relaxation Dijkstra over int64 numpy CSR views of the same
snapshot).  ``CostEngine(game, backend=...)`` selects
between them with the usual tri-state idiom: ``None``/``"auto"`` picks numpy
when it is importable and the game has at least
:data:`~repro.engine.cost_engine.NUMPY_BACKEND_MIN_N` nodes, ``"python"`` or
``"numpy"`` pin a side (:class:`SweepEvaluator` forwards a ``backend=``
kwarg the same way; uniform-length games cross over at
:data:`~repro.engine.cost_engine.NUMPY_BACKEND_MIN_N_UNIFORM` because the
deque BFS is leaner than the heap Dijkstra).  Hop counts and integer-valued
lengths traverse in exact int space; non-integer lengths traverse in IEEE
float64, whose frontier relaxation converges to the heap Dijkstra's labels
bit for bit.  Batched entry points (the probe prefetch in
:func:`repro.core.best_response._resolve_scorer` and `score_combinations`,
plus ``all_costs``) pull every row a probe can touch out of one multi-source
traversal.  The numpy backend stores cached rows as float64/int64 arrays
(the python backend keeps lists), but derived results — through rows, costs,
regrets — stay plain Python floats, so every scorer fast path, cache
contract, and result type above the kernels is shared;
``tests/test_backend_parity.py`` pins kernel-level and end-to-end parity
and ``scripts/bench_speed.py --backend`` records the python-vs-numpy
trajectory at n in {64, 256, 1024} (>=3x on Dijkstra-backed equilibrium
checks at n=1024, floor enforced).

**The giant-batch contract** (new in PR 6).  Both kernel families'
multi-source forms additionally take a *per-row* forbidden mask — row ``i``
of one call computes ``d_{G-u_i}(s_i, ·)`` — so a whole-profile report is
one giant sweep instead of n small per-node batches.  Entry points that
probe every node against one profile (:func:`repro.core.equilibrium_report`,
:func:`repro.core.swap_stability_report`) stage the full row working set up
front via :meth:`CostEngine.plan_report_prefetch`; the engine splits the
plan into contiguous chunks of roughly
:data:`~repro.engine.cost_engine.GIANT_CHUNK_TARGET_BYTES` and drains one
chunk per masked multi-source traversal, lazily, as probes first touch a
planned node.  The short-circuiting checkers (``is_pure_nash``,
``first_unstable_node``) deliberately do not plan — rows staged for nodes
never probed would be wasted.  Planning changes only *when* rows are
computed, never their values: every giant-batch result is bit-identical to
the per-node path and to the dict reference, pinned by
``tests/test_backend_parity.py``.

**The memory-budget contract** (new in PR 6, replacing the PR 5 row-count
cap).  ``CostEngine(game, memory_budget_bytes=...)`` bounds the byte
footprint of every row cache (environment, hop, derived, and combination
rows), defaulting to :func:`~repro.engine.cost_engine.default_memory_budget`
— 16 MiB floored, 256 MiB capped.  A
:class:`~repro.engine.row_store.ChunkLedger` accounts bytes per node and
groups the nodes filled by one giant traversal into one LRU *chunk* (rows
from one sweep are views into one allocation, so only dropping the whole
group actually releases memory).  Eviction is node-granular within the
evicted chunk — a node's environment row and everything derived from it
leave together, so the repair contract above never patches a derived row
whose base was dropped — and never silent: ``stats["rows_evicted"]`` /
``stats["chunks_evicted"]`` count it, ``stats["evicted_recomputes"]`` counts
rows that re-entered by recomputation, and :meth:`CostEngine.cache_bytes` /
:meth:`CostEngine.snapshot_stats` expose the live footprint.  An evicted row
re-enters only through full recomputation (its version stamp is gone with
it), so eviction composes with repair without a staleness hazard.  The
probed node is exempt from the eviction its own fill triggers; when every
remaining chunk holds it (typically one giant-batch chunk after a report),
its chunk-mates are evicted without it, so the cache never exceeds the
budget by more than the probed node's working set.
``tests/test_row_cache.py`` drives a long budget-starved walk at n = 1024,
and a stream of probes after a report, and pins that bound throughout with
bit-identical results.

**The vectorised scoring spec.**  When numpy is importable (optional — every
path degrades to the original loops without it), scoring of SUM-objective
unit-weight nodes whose disconnection penalty dominates every finite
distance keeps per-first-hop *penalty-substituted target slices* and reduces
them at C level; on games whose lengths and penalty are integer-valued
(:attr:`IndexedGame.exact_sums` — every default game) whole strategy sets
are scored in one vectorised pass
(:meth:`~repro.engine.cost_engine.StrategyScorer.score_combinations`), with
the per-environment cost vector cached and patched through repairs.
Exactness of integer float sums below ``2**53`` is what makes the reordered
reductions bit-identical to the reference's left-to-right loops; games
failing any gate (MAX objective, non-unit weights, small penalties,
non-integer lengths, fewer than 16 targets) stay on the original code path.

**The sweep contract.**  Multi-profile workloads (exhaustive / sampled
equilibrium search, the Figure 4 completion scan) go through
:mod:`repro.engine.sweep`: :func:`gray_code_profiles` enumerates a cartesian
product of per-node strategy sets so that consecutive profiles differ in
exactly one node — every ``sync`` along the sweep is then the cheap
single-node case above — and :class:`SweepEvaluator` layers environment-keyed
memoisation on top: a node's deviation check depends only on its
*environment* (everyone else's strategies), so the evaluator caches the
node's minimum achievable cost and its stability verdicts per environment
and never re-probes a node whose environment rows are still valid.
``sync`` reports which nodes a profile step changed (its return value) so
sweep layers know exactly which memo entries survived.  Verdicts stay
bit-identical to the reference path; ``tests/test_sweep.py`` pins it.

**Snapshot ownership and lifetime** (new in PR 9).  Everything a traversal
or sweep *reads* — the CSR of the bought graph, aligned edge lengths, the
synced strategies, the static tables and licence flags — lives in a frozen
:class:`~repro.engine.snapshot.EngineSnapshot`, separable from the engine's
mutable cache/repair machinery.  The ownership rules:

* **One writer.**  ``CostEngine._rebuild_csr`` (reached only through
  ``sync``) is the sole producer: it builds a *fresh* snapshot for each
  profile version and publishes it atomically; a published snapshot is never
  mutated.  Readers obtain it via :meth:`CostEngine.snapshot` and may hold
  it across syncs — its lists and array views stay exactly as published.
* **Version rules.**  Each snapshot carries the engine ``version`` it was
  built at.  A reader caching state derived from a snapshot compares
  ``snapshot().version`` instead of re-diffing strategies; equal versions
  guarantee bit-identical reads.
* **Cross-process lifetime.**  Sharded sweeps export the *static* half (the
  game spec, candidate sets, and :func:`~repro.engine.snapshot
  .export_tables` output) into one ``multiprocessing.shared_memory`` segment
  via :class:`~repro.experiments.parallel.SharedPayload`.  The **parent
  creates** the segment and is the only process that **unlinks** it — in a
  ``finally`` around the pool run, backstopped by a module atexit hook.
  **Workers attach** read-only (:func:`~repro.experiments.parallel
  .attach_payload`, zero-copy numpy views on the full leg; the minimal leg
  ships pickled lists) and never unlink; their attachments die with the
  worker process, so crashes and pool restarts cannot leak segments.  The
  shared payload is immutable by construction — workers rebuild their own
  mutable engines (adopting the exported tables through
  ``CostEngine(game, tables=...)``) and write nothing back.  Allocation
  failure degrades to shipping the same packed bytes inline with each task;
  the ``parallel.shm-create`` / ``parallel.shm-attach`` fault sites pin both
  halves under injection.

**The parallel-map spec.**  For process-level fan-out,
:mod:`repro.experiments.parallel` ships a compact picklable
:class:`~repro.experiments.parallel.GameSpec` — ``("uniform", (n, k,
objective, penalty))`` or ``("general", (nodes, sparse tables, defaults))`` —
from which each worker rebuilds the game and its :class:`IndexedGame`/
:class:`CostEngine` locally instead of pickling engine state;
``parallel_map(fn, items, processes=...)`` preserves item order and falls
back to a deterministic serial loop when ``processes == 1``.  The fan-out is
crash-safe: per-task timeouts, bounded deterministic retries, dead-pool
detection with resubmission of only the lost cells on fresh pools, and a
final serial rung mean results are bit-identical at any process count, retry
count, or crash schedule (``tests/test_reliability.py`` pins it across all
three axes).

**Failure semantics.**  Every entry point above either returns a result
bit-identical to its fault-free run or raises a *documented typed error* —
never a wrong answer, never an unhandled ``multiprocessing``/scipy
traceback.  The contract, enforced under the deterministic fault-injection
harness of :mod:`repro.reliability` (seeded :class:`~repro.reliability
.FaultPlan` rules firing at named ``fault_point`` sites):

* ``parallel_map`` — a worker exception is retried in-pool up to ``retries``
  times with deterministic backoff; a dead pool (``BrokenProcessPool`` or a
  task that outlives its ``timeout``) is rebuilt up to ``max_pool_restarts``
  times with only the lost cells resubmitted, then the remaining cells run
  serially under a ``RuntimeWarning`` naming the cell count and cause.
  ``on_error`` picks the terminal policy: ``"raise"`` (the default — the
  first failing cell's exception propagates), ``"retry-serial"`` (one serial
  re-run per failed cell), or ``"skip"`` (failed cells yield ``None`` under
  a warning).  ``last_run_stats()`` reports the crashed / retried /
  journal-hit / fallback counters of the latest run.
* ``CostEngine(verify_every=N)`` — every ``N``-th environment-row cache hit
  is recomputed and compared; a poisoned row warns, is counted in
  ``stats["row_verify_failures"]``, and is rebuilt — never served silently.
  A failed giant-chunk build degrades to per-node fills
  (``stats["chunk_build_failures"]``); an unavailable numpy at resolve time
  degrades ``backend="auto"`` to the list kernels.
* ``FractionalEngine.best_response`` — a failed LP solve is retried once
  from a fresh assembly (``stats["lp_retries"]``), then falls back to the
  reference FlowNetwork path for that call under a ``RuntimeWarning``
  (``stats["lp_fallbacks"]``).
* Long sweeps — ``exhaustive_equilibrium_search(journal=...)`` and the
  ``journal=`` kwarg of ``parallel_map`` and the study grids checkpoint
  completed profile blocks / grid cells through an atomic-write
  :class:`~repro.reliability.CheckpointJournal`; a killed run resumes
  without recomputing journalled work and returns the identical summary.
  A corrupt or mismatched journal raises
  :class:`~repro.reliability.CheckpointError`.

**Invariants.**  The contracts above are cross-cutting conventions — easy to
hold in one PR, easy to erode over twenty.  Each one is therefore enforced
twice: statically by a rule of the in-repo AST linter
(``python -m repro.tooling.lint``, run by CI on both dependency legs) and
dynamically by the parity/fault suite.  The mapping:

* *Optional-stack degradation* — numpy/scipy only ever imported behind a
  module-level ``try/except ImportError`` gate, so the minimal CI leg
  imports everything.  Lint rule **RPR001**; runtime proof: the whole suite
  on the minimal leg plus the live ``engine.numpy-import`` degradation check.
* *Determinism* — no interpreter-global RNG state, no wall-clock seeds;
  every stochastic entry point threads a ``SeedLike`` through
  :func:`repro.rng.as_rng`.  Lint rule **RPR002**; runtime proof: the
  replay/identical-summary pins in ``tests/test_reliability.py`` and the
  seeded-walk traces in ``tests/test_engine_parity.py``.
* *Engine threading* — a routed entry point that accepts the tri-state
  ``engine=`` kwarg passes it down to every engine-aware callee, else a walk
  silently mixes shared-engine and reference paths.  Lint rule **RPR003**;
  runtime proof: ``tests/test_engine_parity.py`` pins both paths
  bit-identical, so a dropped kwarg is a perf bug before it is a wrong one.
* *Fault-site registry* — every ``fault_point`` site literal is declared in
  :mod:`repro.reliability.sites` (tests use the reserved ``test.``
  namespace), so a typo'd :class:`~repro.reliability.FaultRule` cannot
  silently never fire.  Lint rule **RPR004**; runtime proof:
  :class:`~repro.reliability.UnknownFaultSiteWarning` warns once per unknown
  site at plan construction.
* *Cost comparison* — cost-typed floats never compared with ``==``/``!=``
  in ``core``/``engine``; the documented tolerance is ``1e-9``.  Lint rule
  **RPR005**; runtime proof: the parity suites compare exact where exactness
  is guaranteed (int space, sums below ``2**53``) and within tolerance
  elsewhere.
* *Cache aliasing* — public engine methods return cached rows only as
  copies or under an explicit ``# repro: readonly`` annotation with a
  docstring contract.  Lint rule **RPR006**; runtime proof:
  ``verify_every`` recomputation catches a caller that mutated a shared row.

**The fractional contract.**  The fractional relaxation
(:mod:`repro.core.fractional`) has its own engine,
:class:`~repro.engine.fractional_engine.FractionalEngine`, built on the same
:class:`IndexedGame` mapping and the same version-stamp discipline: the
profile's edge list is materialised once per version, per-``(version, node)``
*environment* flow networks (everyone else's purchases) serve every
destination through ``min_cost_flow(..., overflow_cost=M)``, a single-mover
sync preserves the mover's environment network, and best-response LPs are
assembled sparse once per node and only patched while the environment's edge
structure holds.  ``get_fractional_engine`` / ``resolve_fractional_engine``
mirror the integral registry and tri-state ``engine`` kwarg.

The dict-based :class:`~repro.core.best_response.DeviationOracle` remains in
the tree as the reference implementation; ``tests/test_engine_parity.py``
asserts bit-identical costs and regrets between the two, and
``scripts/bench_speed.py`` (``--sweep`` for the sweep scenarios,
``--fractional`` for the fractional ones) tracks the speedup.
"""

from weakref import WeakKeyDictionary

from .cost_engine import (
    NUMPY_BACKEND_MIN_N,
    CostEngine,
    StrategyScorer,
    resolve_backend,
)
from .fractional_engine import (
    FractionalEngine,
    get_fractional_engine,
    resolve_fractional_engine,
)
from .indexed import IndexedGame
from .snapshot import EngineSnapshot, SnapshotTables, export_tables, restore_tables
from .sweep import SweepEvaluator, gray_code_profiles, profile_at

#: One shared engine per live game object; weak keys so games can be GC'd.
_ENGINES: "WeakKeyDictionary" = WeakKeyDictionary()


def get_engine(game) -> CostEngine:
    """Return the shared :class:`CostEngine` for ``game``, creating it on first use.

    Sharing one engine per game is what lets independently written call sites
    (a best-response walk followed by an equilibrium check, say) reuse each
    other's cached distance rows whenever the profile version still matches.
    """
    engine = _ENGINES.get(game)
    if engine is None:
        engine = CostEngine(game)
        _ENGINES[game] = engine
    return engine


def resolve_engine(game, engine) -> "CostEngine | None":
    """Resolve the tri-state ``engine`` argument shared by routed entry points.

    ``False`` means "use the dict-based reference path" and resolves to
    ``None``; ``None`` resolves to the shared per-game engine; an explicit
    :class:`CostEngine` is validated against ``game`` (see
    :meth:`CostEngine.check_game`) and returned as-is.  Call sites fall back
    to their own reference implementation when this returns ``None``.
    """
    if engine is False:
        return None
    if engine is None:
        return get_engine(game)
    engine.check_game(game)
    return engine


__all__ = [
    "CostEngine",
    "EngineSnapshot",
    "NUMPY_BACKEND_MIN_N",
    "SnapshotTables",
    "StrategyScorer",
    "FractionalEngine",
    "IndexedGame",
    "SweepEvaluator",
    "export_tables",
    "gray_code_profiles",
    "get_engine",
    "get_fractional_engine",
    "profile_at",
    "resolve_backend",
    "resolve_engine",
    "resolve_fractional_engine",
    "restore_tables",
]
