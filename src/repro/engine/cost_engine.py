"""Profile-versioned flat-array cost engine with incremental row repair.

:class:`CostEngine` owns one int-indexed CSR snapshot of the current
profile's edge set, stamped with a monotonically increasing ``version``.
Every distance the game loop needs — environment rows ``d_{G-u}(a, ·)`` for
deviation scoring, full-graph rows for ``all_costs`` — is computed by the
selected traversal backend (the list kernels of
:mod:`repro.graphs.int_kernels` or, via ``backend=``/auto-selection, the
vectorised kernels of :mod:`repro.graphs.int_kernels_np`) and cached against
that version stamp, so repeated probes of an unchanged profile (equilibrium
checks, the stable tail of a best-response walk) pay for each SSSP at most
once.

Invalidation exploits locality twice over.  When :meth:`sync` observes that
exactly one node ``u`` changed its strategy, the environment ``G - u`` is by
definition untouched (it never contained ``u``'s links), so ``u``'s cached
rows are re-stamped to the new version instead of recomputed.  Every *other*
node's rows are not dropped at sync time either: the engine appends the step
to a bounded edit log, and on the row's next touch a span that nets out to
nothing for that node re-stamps its rows.  Otherwise the list backend
**repairs** them in place with the dynamic-SSSP kernels
(:func:`~repro.graphs.int_kernels.repair_hops_csr` /
:func:`~repro.graphs.int_kernels.repair_dijkstra_csr`) — bounded
re-relaxation of only the region the arc changes could have reached — while
the numpy backend drops them and refills them in the next fresh traversal
(inside a report, the chunk's one fused multi-source sweep), which costs a
fraction of a vectorised per-row repair.  A multi-node change, or a row that
has fallen behind the edit log, resets to a full recompute.

Every fresh row — a single :meth:`CostEngine.env_row` miss, a per-node
prefetch batch, a giant-batch chunk, an ``all_costs`` sweep — goes through
one kernel choice (:meth:`CostEngine._traverse`: backend, uniform or
weighted lengths, exact-int lengths, one source or many) and, when it is
cached, one store path (:meth:`CostEngine._store`: row caches, counters,
ledger charge).

Memory is bounded in *bytes*, not rows: every cached row is charged to a
:class:`~repro.engine.row_store.ChunkLedger` and whole LRU chunks are
evicted once ``memory_budget_bytes`` is exceeded (see
:meth:`CostEngine._evict_over_budget`).  On top of the cache sits the
*giant-batch* plan: :meth:`CostEngine.plan_report_prefetch` records the
whole working set of an equilibrium report up front, and the first probe of
any planned node materialises its entire chunk — potentially hundreds of
masked rows for dozens of nodes — in **one** multi-source, per-row-masked
traversal instead of one small batch per node.
"""

from __future__ import annotations

import math
import time
import warnings
import weakref
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from ..core.errors import InvalidProfile
from ..reliability.faults import InjectedFault, fault_fires, fault_point
from ..core.objectives import Objective
from ..core.profile import StrategyProfile
from ..graphs.int_kernels import (
    bfs_hops_csr,
    build_csr,
    dijkstra_csr,
    repair_dijkstra_csr,
    repair_hops_csr,
    scaled_float_row,
)
from .indexed import IndexedGame
from .row_store import ChunkLedger
from .snapshot import EngineSnapshot, csr_arrays_of, csr_of

try:  # Optional vectorised backend; every path below degrades gracefully.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on the minimal CI leg
    _np = None

if _np is not None:
    from ..graphs import int_kernels_np as _npk
else:  # pragma: no cover - exercised on the minimal CI leg
    _npk = None

Node = Hashable
Row = List[float]

#: How many single-node sync steps the engine remembers for lazy row repair.
#: A cached row more than this many versions behind the snapshot is dropped
#: and recomputed instead (repairing across that many edits would approach a
#: fresh traversal anyway).
REPAIR_LOG_LIMIT = 128

#: Auto backend selection thresholds: below these node counts the list
#: kernels' lower fixed overhead beats the vectorised traversals (each numpy
#: frontier round costs a handful of array dispatches regardless of size);
#: above them the per-edge Python bytecode dominates and the array sweeps
#: win, growing past 3x/5x at n=1024 (``scripts/bench_speed.py --backend``).
#: Uniform-length games cross over later because the deque BFS is leaner
#: than the binary-heap Dijkstra the weighted games are up against.
NUMPY_BACKEND_MIN_N = 128
NUMPY_BACKEND_MIN_N_UNIFORM = 256

#: Default memory budget bounds for the row cache (see
#: :func:`default_memory_budget`).
DEFAULT_BUDGET_FLOOR_BYTES = 16 * 2**20
DEFAULT_BUDGET_CAP_BYTES = 256 * 2**20

#: Target size of one giant-batch chunk: big enough to amortise the numpy
#: per-round dispatch across dozens of nodes' rows, small enough that a
#: chunk (and the traversal's transient frontier state) stays cache- and
#: budget-friendly.  Chunks are additionally capped at a quarter of the
#: engine's byte budget so the in-flight chunk can never crowd out the rest
#: of the cache.
GIANT_CHUNK_TARGET_BYTES = 64 * 2**20

#: A report plan larger than this many masked rows (an unrestricted report
#: at n ≈ 1500+ wants all n·(n-1) of them) is not planned at all — the
#: per-node prefetch path handles it and the cache budget bounds the rest.
PLAN_ROW_LIMIT = 2_000_000


def default_memory_budget(n: int) -> int:
    """Default row-cache budget in bytes for an ``n``-node game.

    Re-expresses the PR 5 row-count cap (``max(8n, 2e6/n)`` rows of ``8n``
    bytes each) in bytes, clamped to
    [:data:`DEFAULT_BUDGET_FLOOR_BYTES`, :data:`DEFAULT_BUDGET_CAP_BYTES`].
    The cap is what changes the large-``n`` story: at n = 16384 the row-count
    cap admitted ~17 GB of rows, while 256 MiB holds a giant-batch report's
    rolling working set with room to spare.
    """
    rows = max(8 * n, 2_000_000 // max(n, 1))
    return min(max(rows * n * 8, DEFAULT_BUDGET_FLOOR_BYTES), DEFAULT_BUDGET_CAP_BYTES)


def _payload_nbytes(row) -> int:
    """Byte charge of one cached row (numpy's real nbytes, 8/entry for lists)."""
    if type(row) is not list:  # lists skip the failing attribute lookup
        nbytes = getattr(row, "nbytes", None)
        if nbytes is not None:
            return int(nbytes)
    return 8 * len(row)


def resolve_backend(backend, n: int, uniform_lengths: bool = False) -> str:
    """Resolve the tri-state traversal ``backend`` selector to a concrete name.

    ``None`` / ``"auto"`` picks ``"numpy"`` when numpy is importable and the
    game has at least :data:`NUMPY_BACKEND_MIN_N` nodes
    (:data:`NUMPY_BACKEND_MIN_N_UNIFORM` for uniform-length games), else
    ``"python"``; ``"python"`` pins the list kernels (the reference);
    ``"numpy"`` insists on the array kernels and raises when numpy is
    unavailable.  Both backends produce bit-identical rows, costs, and
    traces — the selector only trades constant factors
    (``tests/test_backend_parity.py`` pins the parity).

    The ``engine.numpy-import`` fault site simulates an unavailable numpy
    without uninstalling it: an armed rule makes ``auto`` degrade to the
    list kernels and an explicit ``"numpy"`` raise the same ``ValueError``
    as a genuinely missing import.
    """
    numpy_available = _np is not None and fault_fires("engine.numpy-import") is None
    if backend is None or backend == "auto":
        threshold = NUMPY_BACKEND_MIN_N_UNIFORM if uniform_lengths else NUMPY_BACKEND_MIN_N
        if numpy_available and n >= threshold:
            return "numpy"
        return "python"
    if backend == "python":
        return "python"
    if backend == "numpy":
        if not numpy_available:
            raise ValueError(
                "backend='numpy' requires numpy, which is not installed; "
                "install numpy or pass backend='python'"
            )
        return "numpy"
    raise ValueError(
        f"unknown traversal backend {backend!r}: expected 'auto', 'numpy', or 'python'"
    )

#: Cached ``numpy.triu_indices`` pairs keyed by candidate count — shared by
#: every engine because they only depend on the count.
_TRIU_CACHE: Dict[int, tuple] = {}


def _readonly_view(array):
    """Return a write-protected view of a cached numpy vector.

    The cache keeps the writable base (repairs patch it in place via
    :meth:`CostEngine._update_combo`), so the view shares the scorer's
    staleness contract: it is only meaningful until the engine's next sync.
    Freezing it keeps caller writes from poisoning the cache.
    """
    view = array.view()
    view.setflags(write=False)
    return view


def _triu_pairs(count: int):
    pairs = _TRIU_CACHE.get(count)
    if pairs is None:
        pairs = _np.triu_indices(count, 1)
        if len(_TRIU_CACHE) > 32:  # a handful of game sizes per process
            _TRIU_CACHE.clear()
        _TRIU_CACHE[count] = pairs
    return pairs


class CostEngine:
    """Flat-array distance/cost engine bound to one game.

    The engine is stateful: :meth:`sync` points it at a profile (diffing
    against the previous one), after which :meth:`cost_of`,
    :meth:`all_costs`, and :meth:`scorer` evaluate costs against the cached
    snapshot.  All results are bit-identical to the reference
    :class:`~repro.core.best_response.DeviationOracle` / dict-BFS path; the
    parity tests in ``tests/test_engine_parity.py`` enforce this.  Across
    single-node profile steps, cached distance rows are re-stamped when the
    pending edits net out to nothing for their node, repaired in place on
    the list backend when the edit log and the repair policy allow it, and
    recomputed otherwise (see :meth:`_ensure_current`).

    ``backend`` selects the traversal kernels: ``"python"`` pins the list
    kernels of :mod:`repro.graphs.int_kernels`, ``"numpy"`` the array
    kernels of :mod:`repro.graphs.int_kernels_np`, and ``None`` /
    ``"auto"`` (the default) picks numpy when it is importable and the game
    is at or above the size crossover (:data:`NUMPY_BACKEND_MIN_N`, or
    :data:`NUMPY_BACKEND_MIN_N_UNIFORM` for uniform-length games).  On the
    numpy backend cached rows are float64/int64 arrays instead of lists;
    every cost, regret, and trace stays bit-identical across backends, and
    results keep plain Python float types.

    ``memory_budget_bytes`` bounds the total bytes of cached rows
    (:func:`default_memory_budget` when ``None``); crossing it evicts whole
    least-recently-used chunks of nodes (:meth:`cache_bytes` /
    ``stats["chunks_evicted"]`` observe it).  The budget changes only which
    rows stay cached, never a computed value.

    ``verify_every`` (default ``None`` = off) arms self-verification: every
    ``verify_every``-th cache *hit* recomputes the served environment row
    from scratch and compares elementwise.  A mismatch — a row corrupted
    after it was filled — is never served silently: the engine emits a
    ``RuntimeWarning``, counts it in ``stats["row_verify_failures"]``, drops
    the node's cached rows, and rebuilds from the fresh recompute
    (``stats["rows_verified"]`` counts the probes).  The engine also carries
    the ``engine.row-poison``, ``engine.forced-evict``, ``engine.chunk-build``
    and ``engine.numpy-import`` fault sites of :mod:`repro.reliability` for
    exercising these paths deterministically.
    """

    def __init__(
        self,
        game,
        backend: Optional[str] = None,
        memory_budget_bytes: Optional[int] = None,
        verify_every: Optional[int] = None,
        tables=None,
    ) -> None:
        # Only a weak back-reference to `game`: a strong one would pin the
        # WeakKeyDictionary entry in the per-game engine registry forever.
        self._game_ref = weakref.ref(game)
        # ``tables`` forwards exported static tables (see
        # repro.engine.snapshot.SnapshotTables) so pool workers skip the
        # O(n^2) probing pass; None constructs normally.
        self.indexed = IndexedGame(game, tables=tables)
        self.backend = resolve_backend(
            backend, self.indexed.n, self.indexed.uniform_lengths
        )
        # The numpy traversal state (int64 CSR views plus aligned edge
        # lengths — exact int64 when the licence holds, float64 otherwise)
        # lives inside the published EngineSnapshot.  The backend also sets
        # the staleness policy: numpy engines refill stale rows instead of
        # repairing them (see _ensure_current).
        self._np_traversal = self.backend == "numpy"
        # List-backend repair beats recompute only while the pending edits
        # reach a small part of the graph: past this many distinct net movers
        # the affected region approaches the whole row and a fresh traversal
        # is cheaper, so _ensure_current drops the rows instead.  Below n=16
        # a fresh BFS over the tiny row is already cheaper than the kernel's
        # bookkeeping, so only edits that net out to nothing are worth
        # replaying (limit 0).
        # Tests raise the limit to pin repair-vs-recompute parity on long
        # edit sequences.
        n = self.indexed.n
        self._repair_edit_limit = n // 8 if n >= 16 else 0
        #: Bumped on every observed profile change; all caches key on it.
        self.version = 0
        # The exact profile object of the last successful sync (profiles are
        # immutable repo-wide), for the identity no-op fast path.
        self._synced_profile: Optional[StrategyProfile] = None
        self._strategies: Optional[List[frozenset]] = None
        # The same strategies in label space (what profiles carry), kept so
        # sync can diff by frozenset equality and only re-map the nodes that
        # actually changed; and the per-node sorted CSR rows, updated the
        # same incremental way.
        self._label_strategies: Optional[List[frozenset]] = None
        self._sorted_rows: List[List[int]] = []
        # The frozen read-view of the current profile version: everything a
        # traversal consumes (CSR, lengths, synced strategies, static
        # tables).  _rebuild_csr publishes a *fresh* snapshot per sync and
        # never mutates an old one, so readers holding a snapshot are safe
        # across engine syncs.
        self._snapshot = EngineSnapshot(
            version=0,
            indexed=self.indexed,
            indptr=[0] * (self.indexed.n + 1),
            indices=[],
            edge_lengths=None,
        )
        # In-neighbour sets of the current snapshot, maintained alongside the
        # CSR; the repair kernels seed orphaned nodes from their intact
        # in-boundary, which a forward-only CSR cannot answer.
        self._rev_rows: List[set] = [set() for _ in range(self.indexed.n)]
        # version -> (mover, mover's arcs *before* that step), for lazy
        # repair of rows that are several single-node steps behind.
        self._edits: Dict[int, Tuple[int, frozenset]] = {}
        # masked node u -> (version, {first hop a -> distance row})
        self._env_cache: Dict[int, Tuple[int, Dict[int, Row]]] = {}
        # masked node u -> (version, {first hop a -> l(u,a) + env row}); same
        # lifecycle as _env_cache, so same-version probes of a node skip even
        # the O(n)-per-hop through-row materialisation.
        self._through_cache: Dict[int, Tuple[int, Dict[int, Row]]] = {}
        # masked node u -> (version, {first hop a -> penalty-substituted
        # target slice of the through row}); the C-level scoring fast path
        # (see StrategyScorer) reduces over these directly.
        self._sub_cache: Dict[int, Tuple[int, Dict[int, Row]]] = {}
        # masked node u -> (version, {first hop a -> raw BFS hop row}); kept
        # for uniform games on the list backend only, because hop repair
        # must happen in exact int space before rescaling to floats.
        self._hop_cache: Dict[int, Tuple[int, Dict[int, List[int]]]] = {}
        # node u -> {target node -> position in u's target row} (lazy), for
        # patching substituted slices after a repair.
        self._target_pos: Dict[int, Dict[int, int]] = {}
        # masked node u -> (version, (size, candidates), cost vector): the
        # batched costs of *every* candidate strategy of u against its
        # environment.  The vector depends only on the environment, so it
        # survives u's own strategy changes, and a repair that touches
        # nothing re-stamps it — an equilibrium recheck after one deviation
        # then skips almost all scoring work.
        self._combo_cache: Dict[int, Tuple[int, tuple, object]] = {}
        # Byte budget for cached rows (environment rows plus the derived
        # through / substituted / hop rows and combination vectors): a full
        # equilibrium check wants all rows live (total reuse), but at large n
        # that is O(n^2) bytes per dozen nodes, so every cached payload is
        # charged to the chunk ledger and whole least-recently-used chunks
        # are evicted once the budget is crossed.  Nodes filled together by
        # one giant-batch traversal share a chunk and are evicted together
        # (their rows are views into one backing matrix, so only a full-chunk
        # drop actually releases memory).
        self.memory_budget_bytes = (
            int(memory_budget_bytes)
            if memory_budget_bytes is not None
            else default_memory_budget(self.indexed.n)
        )
        # Self-verification sampling: every `verify_every`-th cache *hit*
        # recomputes the served row from scratch and compares elementwise.
        # A mismatch means the cached copy was corrupted after it was filled
        # (a "poisoned" row); the engine warns, drops the node's caches, and
        # rebuilds — it never silently serves the bad row again.
        if verify_every is not None and verify_every < 1:
            raise ValueError(
                f"verify_every must be at least 1 (got {verify_every})"
            )
        self.verify_every = verify_every
        self._verify_probes = 0
        self._ledger = ChunkLedger()
        # Nodes that lost cached rows to *budget* eviction (not staleness):
        # their next fill is a recompute the repair path could not have
        # served, surfaced as stats["evicted_recomputes"].
        self._evicted_nodes: Set[int] = set()
        # Giant-batch report plan: valid only while _plan_version matches the
        # snapshot version.  _plan_chunks holds (node, wanted first hops)
        # groups sized against GIANT_CHUNK_TARGET_BYTES; _plan_chunk_of maps
        # each planned node to its chunk index until the chunk runs.
        self._plan_version = -1
        self._plan_chunks: List[List[Tuple[int, List[int]]]] = []
        self._plan_chunk_of: Dict[int, int] = {}
        # Nodes whose warm through dict was already counted into rows_reused
        # at the current version (so repeated probes do not inflate the stat).
        self._reuse_counted: set = set()
        # (version, {label: cost}) for the whole profile
        self._all_costs_cache: Optional[Tuple[int, Dict[Node, float]]] = None
        #: Cache observability: how many environment rows were computed,
        #: served from cache, or repaired in place (list backend only), how
        #: many cached rows left for the byte budget (``rows_evicted``) or
        #: for going stale past repair (``rows_invalidated``), and how each
        #: sync classified its diff.
        self.stats: Dict[str, int] = {
            "rows_computed": 0,
            "rows_reused": 0,
            "rows_repaired": 0,
            "rows_evicted": 0,
            "rows_invalidated": 0,
            "chunks_evicted": 0,
            "giant_batch_traversals": 0,
            "giant_batch_rows": 0,
            "evicted_recomputes": 0,
            "noop_syncs": 0,
            "local_syncs": 0,
            "full_syncs": 0,
            "rows_verified": 0,
            "row_verify_failures": 0,
            "chunk_build_failures": 0,
        }
        #: Wall-clock seconds spent inside the traversal kernels (every
        #: fresh row, see _traverse) — the bench profile's
        #: traversal-vs-scoring split reads this.
        self.timings: Dict[str, float] = {"traversal_seconds": 0.0}

    def cache_bytes(self) -> int:
        """Current bytes of cached rows charged against the memory budget."""
        return self._ledger.bytes

    def snapshot_stats(self) -> Dict[str, float]:
        """Return the counters plus the live cache/budget/timing gauges.

        ``stats`` itself stays a plain mutable dict (call sites index and
        reset it); this adds the point-in-time gauges the bench prints:
        ``cache_bytes``, ``memory_budget_bytes``, and ``traversal_seconds``.
        """
        snapshot: Dict[str, float] = dict(self.stats)
        snapshot["cache_bytes"] = self.cache_bytes()
        snapshot["memory_budget_bytes"] = self.memory_budget_bytes
        snapshot["traversal_seconds"] = self.timings["traversal_seconds"]
        return snapshot

    def check_game(self, game) -> None:
        """Raise ``ValueError`` when this engine was built for a different game.

        Two games with the same node count but different weights or lengths
        would otherwise sync successfully and score against the wrong
        snapshot; call sites that accept an explicit engine guard with this.
        """
        if self._game_ref() is not game:
            raise ValueError(
                "this CostEngine was built for a different game instance; "
                "create one with CostEngine(game) or use repro.engine.get_engine(game)"
            )

    # ------------------------------------------------------------------ #
    # Profile synchronisation
    # ------------------------------------------------------------------ #
    def sync(self, profile: StrategyProfile) -> Optional[Tuple[int, ...]]:
        """Point the engine at ``profile``, invalidating as little as possible.

        Diffs the profile against the current snapshot: no change keeps the
        version (full cache reuse); a single-node change bumps the version,
        preserves the mover's own environment rows (``G - u`` does not
        contain ``u``'s links) and records the step in the edit log so every
        other node's still-cached rows can be re-stamped or repaired on their
        next touch; anything larger resets all caches.

        Returns the dense int ids of the nodes whose strategies changed —
        ``()`` for a no-op sync — or ``None`` on the first sync, when there
        is no previous snapshot to diff against, so callers and
        instrumentation can see how a profile step was classified.  (The
        sweep layer diffs against :meth:`snapshot_strategies` instead: its
        memo validity depends on *its* last profile, and a shared engine may
        have been synced elsewhere in between.)
        """
        indexed = self.indexed
        # Identity fast path: profiles are immutable throughout the repo, so
        # re-syncing the very object the snapshot came from cannot change
        # anything — and it is the overwhelmingly common case (equilibrium
        # checks sync the same profile once per node).
        if profile is self._synced_profile:
            self.stats["noop_syncs"] += 1
            return ()
        if len(profile) != indexed.n:
            raise InvalidProfile("profile nodes do not match the game's node set")
        index = indexed.index
        raw = [profile.strategy(label) for label in indexed.labels]

        old_raw = self._label_strategies
        if old_raw is not None:
            # Diff in label space: distinct labels map to distinct ints, so
            # frozenset equality agrees with the int view and only the
            # changed nodes need the label->int remap below.  The C-level
            # list comparison decides the (very common) no-op case without a
            # Python-loop diff — equilibrium checks sync once per node.
            if raw == old_raw:
                self.stats["noop_syncs"] += 1
                self._synced_profile = profile
                return ()
            changed = [u for u in range(indexed.n) if raw[u] != old_raw[u]]
            if not changed:
                self.stats["noop_syncs"] += 1
                self._synced_profile = profile
                return ()
        else:
            changed = None

        old_arcs: List[frozenset] = []
        try:
            if changed is None:
                self._strategies = [
                    frozenset(index[target] for target in targets) for targets in raw
                ]
            else:
                # Remap fully before mutating so an unknown-target failure
                # leaves the engine exactly on its previous snapshot.
                remapped = [
                    frozenset(index[target] for target in raw[u]) for u in changed
                ]
                old_arcs = [self._strategies[u] for u in changed]
                for u, strategy in zip(changed, remapped):
                    self._strategies[u] = strategy
        except KeyError as exc:
            raise InvalidProfile(
                f"profile buys a link to unknown node {exc.args[0]!r}"
            ) from exc

        self._label_strategies = raw
        self.version += 1
        # Any real profile change invalidates an outstanding report plan:
        # its wanted rows were computed against the previous snapshot.
        self._clear_plan()
        if changed is not None:
            # Keep the in-neighbour view in lockstep with the CSR: only the
            # changed nodes' arcs moved.
            rev = self._rev_rows
            for u, old in zip(changed, old_arcs):
                new = self._strategies[u]
                for a in old - new:
                    rev[a].discard(u)
                for a in new - old:
                    rev[a].add(u)
        self._rebuild_csr(changed)
        self._all_costs_cache = None
        self._reuse_counted.clear()
        if changed is not None and len(changed) == 1:
            self.stats["local_syncs"] += 1
            changed_node = changed[0]
            self._edits[self.version] = (changed_node, old_arcs[0])
            if len(self._edits) > REPAIR_LOG_LIMIT:
                del self._edits[min(self._edits)]
            # The mover's masked rows never contained its own arcs: when
            # they were current a moment ago, re-stamp them eagerly so
            # sweep-style probes of the mover stay entirely free.  Rows
            # further behind are left stale for lazy repair (the edit log
            # replay skips the mover's own steps anyway).
            for cache in self._row_caches():
                entry = cache.get(changed_node)
                if entry is not None and entry[0] == self.version - 1:
                    cache[changed_node] = (self.version, entry[1])
            combo = self._combo_cache.get(changed_node)
            if combo is not None and combo[0] == self.version - 1:
                self._combo_cache[changed_node] = (
                    self.version, combo[1], combo[2]
                )
        else:
            self.stats["full_syncs"] += 1
            self._clear_row_caches()
            self._edits.clear()
        self._synced_profile = profile
        return tuple(changed) if changed is not None else None

    def _clear_row_caches(self) -> None:
        self._env_cache.clear()
        self._through_cache.clear()
        self._sub_cache.clear()
        self._hop_cache.clear()
        self._combo_cache.clear()
        self._ledger.clear()
        self._evicted_nodes.clear()

    def _rebuild_csr(self, changed: Optional[List[int]] = None) -> None:
        indexed = self.indexed
        strategies = self._strategies
        if changed is None:
            self._sorted_rows = [sorted(strategies[u]) for u in range(indexed.n)]
            rev: List[set] = [set() for _ in range(indexed.n)]
            for u, row in enumerate(self._sorted_rows):
                for v in row:
                    rev[v].add(u)
            self._rev_rows = rev
        else:
            for u in changed:
                self._sorted_rows[u] = sorted(strategies[u])
        rows = self._sorted_rows
        indptr, indices = build_csr(rows)
        edge_lengths: Optional[List[float]] = None
        if not indexed.uniform_lengths:
            lengths: List[float] = []
            for u, row in enumerate(rows):
                length_row = indexed.length_rows[u]
                lengths.extend(length_row[v] for v in row)
            edge_lengths = lengths
        indptr_np = indices_np = edge_lengths_np = edge_lengths_exact_np = None
        if self._np_traversal:
            indptr_np, indices_np = _npk.csr_arrays(indptr, indices)
            if not indexed.uniform_lengths:
                edge_lengths_np = _np.asarray(edge_lengths, dtype=_np.float64)
                # Integer-valued lengths run the fresh traversals in exact
                # int64 space and convert to float rows once at the end.
                edge_lengths_exact_np = (
                    edge_lengths_np.astype(_np.int64)
                    if indexed.integral_lengths
                    else None
                )
        # Publish the new read-view atomically: one fresh frozen object per
        # version, never a mutation of the previous one — snapshots handed
        # out earlier stay internally consistent forever.
        strategies = self._strategies
        label_strategies = self._label_strategies
        self._snapshot = EngineSnapshot(
            version=self.version,
            indexed=indexed,
            indptr=indptr,
            indices=indices,
            edge_lengths=edge_lengths,
            indptr_np=indptr_np,
            indices_np=indices_np,
            edge_lengths_np=edge_lengths_np,
            edge_lengths_exact_np=edge_lengths_exact_np,
            strategies=None if strategies is None else tuple(strategies),
            label_strategies=(
                None if label_strategies is None else tuple(label_strategies)
            ),
        )

    # ------------------------------------------------------------------ #
    # Snapshot read-throughs
    # ------------------------------------------------------------------ #
    def snapshot(self) -> EngineSnapshot:
        """Return the frozen read-view of the current profile version.

        The returned object is immutable and remains valid (and internally
        consistent) after further :meth:`sync` calls — later syncs publish
        *new* snapshots rather than mutating this one.  It is the only
        engine state the kernels and the sweep layer consume.
        """
        return self._snapshot

    def _require_sync(self) -> None:
        if self._strategies is None:
            raise InvalidProfile("CostEngine.sync(profile) must be called first")

    def snapshot_strategies(self) -> Optional[List[frozenset]]:
        """Return the synced profile's per-node strategies in label space.

        ``None`` before the first sync; indexed by dense node id, in the
        same order as :attr:`IndexedGame.labels`.  This is the snapshot the
        sweep layer compares against to decide whether a node's masked
        ``d_{G-u}`` rows are still valid without forcing a sync.  Readers
        that also want the CSR should take :meth:`snapshot` instead — the
        frozen view carries the same strategies plus everything else.
        """
        return self._label_strategies

    # ------------------------------------------------------------------ #
    # Lazy repair
    # ------------------------------------------------------------------ #
    def _row_caches(self) -> Tuple[Dict[int, Tuple[int, dict]], ...]:
        return (self._env_cache, self._through_cache, self._sub_cache, self._hop_cache)

    def _drop_node(self, u: int) -> int:
        """Remove every cached row of masked node ``u``; returns rows dropped.

        Eviction is always node-granular: a node loses its environment rows
        and every derived (through / substituted / hop / combination) row in
        one stroke.  That is what keeps eviction repair-compatible — the
        engine never holds a derived row whose environment base is gone, so
        a later :meth:`_repair_node` can never patch values whose base row
        was silently recomputed from a different version.
        """
        dropped = 0
        for cache in self._row_caches():
            entry = cache.pop(u, None)
            if entry is not None:
                dropped += len(entry[1])
        if self._combo_cache.pop(u, None) is not None:
            dropped += 1
        self._ledger.remove(u)
        return dropped

    def _evict_over_budget(self, keep: Set[int]) -> None:
        """Evict whole least-recently-used chunks until back under budget.

        The nodes in ``keep`` — the caller's in-flight working set,
        typically the node being probed or the giant-batch chunk just
        filled — are exempt, so the cache may transiently exceed the budget
        by at most that working set (chunk sizing caps a filled chunk at a
        quarter of the budget).  A chunk is exempt as a whole while other
        chunks can go; once only chunks holding ``keep`` nodes remain, the
        ``keep`` nodes are split into a chunk of their own and their former
        chunk-mates evicted as a unit — otherwise one giant-batch chunk
        whose members are probed in turn would pin the cache over budget
        forever.  Evicted nodes are remembered so their next fill is
        surfaced as an eviction-forced recompute.
        """
        ledger = self._ledger
        budget = self.memory_budget_bytes
        split = False
        while ledger.bytes > budget:
            victims = ledger.lru_nodes(exempt=keep)
            if victims is None:
                if split:
                    break
                ledger.group(keep)
                split = True
                continue
            self._evict_chunk(victims)

    def _evict_chunk(self, victims: List[int]) -> None:
        for node in victims:
            self.stats["rows_evicted"] += self._drop_node(node)
            self._evicted_nodes.add(node)
        self.stats["chunks_evicted"] += 1

    def _repairable(self, entry_version: int) -> bool:
        edits = self._edits
        if self.version - entry_version > len(edits):
            return False
        return all(v in edits for v in range(entry_version + 1, self.version + 1))

    def _ensure_current(self, u: int) -> None:
        """Bring masked node ``u``'s cached rows up to the current version.

        Still-current entries are untouched.  A stale entry whose edit-log
        span nets out to nothing for ``u`` is re-stamped; one with real
        pending edits is repaired in place on the list backend.  Anything
        else — every real edit on the numpy backend, where a per-row repair
        costs far more than the row's share of a fused multi-source refill —
        is dropped so the normal compute path refills it.
        """
        entry = self._env_cache.get(u)
        if entry is not None:
            if entry[0] == self.version:
                self._ledger.touch(u)
                return
            if self._repairable(entry[0]):
                edits = self._pending_edits(u, entry[0])
                if edits is not None and not (edits and self._np_traversal):
                    self._repair_node(u, entry, edits)
                    self._ledger.touch(u)
                    return
            self.stats["rows_invalidated"] += self._drop_node(u)
            return
        # No environment rows: any stale derived rows are unusable on their
        # own (they cannot be repaired without the env rows they came from).
        dropped = 0
        freed = 0
        for cache in (self._through_cache, self._sub_cache, self._hop_cache):
            stale = cache.get(u)
            if stale is not None and stale[0] != self.version:
                del cache[u]
                dropped += len(stale[1])
                freed += sum(_payload_nbytes(row) for row in stale[1].values())
        combo = self._combo_cache.get(u)
        if combo is not None and combo[0] != self.version:
            del self._combo_cache[u]
            dropped += 1
            freed += _payload_nbytes(combo[2])
        self._ledger.deduct(u, freed)
        self.stats["rows_invalidated"] += dropped

    def _pending_edits(
        self, u: int, entry_version: int
    ) -> Optional[List[Tuple[int, tuple, tuple]]]:
        """Collapse the edit log since ``entry_version`` into net per-mover diffs.

        Replaying in one shot (rather than edit by edit) is what makes
        multi-step repair correct: each intermediate graph only existed
        transiently, but the kernels compare the row's *origin* graph with
        the *current* one directly.  A node that moved away and back nets
        out to nothing; the masked node ``u``'s own steps are skipped
        because ``G - u`` never contained its arcs.

        Returns ``None`` once the distinct movers exceed the repair budget —
        the affected region would approach the whole row, so the caller
        recomputes instead.
        """
        cap = self._repair_edit_limit + 1  # u's own steps are free to skip
        origin: Dict[int, frozenset] = {}
        for version in range(entry_version + 1, self.version + 1):
            mover, arcs_before = self._edits[version]
            if mover not in origin:
                if len(origin) >= cap:
                    return None
                origin[mover] = arcs_before
        edits: List[Tuple[int, tuple, tuple]] = []
        for mover, arcs_before in origin.items():
            if mover == u:
                continue
            arcs_now = self._strategies[mover]
            if arcs_now != arcs_before:
                edits.append(
                    (mover, tuple(arcs_before - arcs_now), tuple(arcs_now - arcs_before))
                )
        if len(edits) > self._repair_edit_limit:
            return None
        return edits

    def _repair_node(
        self,
        u: int,
        entry: Tuple[int, Dict[int, Row]],
        edits: List[Tuple[int, tuple, tuple]],
    ) -> None:
        """Re-stamp ``u``'s rows, first patching them for ``edits`` if any.

        Only list-backend engines get here with real edits; a numpy engine
        only re-stamps (``edits`` empty), see :meth:`_ensure_current`.
        """
        version = self.version
        entry_version, env_rows = entry
        indexed = self.indexed

        def live(cache):
            stale = cache.get(u)
            if stale is None:
                return None
            if stale[0] != entry_version:  # pragma: no cover - defensive
                del cache[u]
                self._ledger.deduct(
                    u, sum(_payload_nbytes(row) for row in stale[1].values())
                )
                return None
            return stale[1]

        through_rows = live(self._through_cache)
        sub_rows = live(self._sub_cache)
        hop_rows = live(self._hop_cache)

        rows_changed = False
        changed_hops: List[int] = []
        if edits:
            n = indexed.n
            snap = self._snapshot
            indptr, indices, edge_lengths = csr_of(snap)
            rev = self._rev_rows
            uniform = indexed.uniform_lengths
            unit = indexed.unit_length
            penalty = indexed.penalty
            length_row_u = indexed.length_rows[u]
            inf = math.inf
            positions: Optional[Dict[int, int]] = None
            for first_hop, row in env_rows.items():
                hop_row = hop_rows.get(first_hop) if hop_rows is not None else None
                if uniform and hop_row is None:  # pragma: no cover - defensive
                    hop_row = bfs_hops_csr(indptr, indices, n, first_hop, u)
                    touched = range(n)
                    row[:] = scaled_float_row(hop_row, unit)
                    if hop_rows is not None:
                        hop_rows[first_hop] = hop_row
                elif uniform:
                    touched = repair_hops_csr(
                        indptr, indices, hop_row, first_hop, edits, rev, u
                    )
                    for t in touched:
                        h = hop_row[t]
                        row[t] = float(h) * unit if h >= 0 else inf
                else:
                    touched = repair_dijkstra_csr(
                        indptr,
                        indices,
                        edge_lengths,
                        row,
                        first_hop,
                        edits,
                        rev,
                        indexed.length_rows,
                        u,
                    )
                self.stats["rows_repaired"] += 1
                if not touched:
                    continue
                rows_changed = True
                changed_hops.append(first_hop)
                hop_length = length_row_u[first_hop]
                through_row = (
                    through_rows.get(first_hop) if through_rows is not None else None
                )
                if through_row is not None:
                    for t in touched:
                        through_row[t] = hop_length + row[t]
                sub_row = sub_rows.get(first_hop) if sub_rows is not None else None
                if sub_row is not None:
                    if positions is None:
                        positions = self._target_positions(u)
                    for t in touched:
                        i = positions.get(t)
                        if i is not None:
                            d = hop_length + row[t]
                            sub_row[i] = d if d < inf else penalty

        for cache in self._row_caches():
            stale = cache.get(u)
            if stale is not None:
                cache[u] = (version, stale[1])
        combo = self._combo_cache.get(u)
        if combo is not None:
            if not rows_changed:
                # No row value moved, so the batched cost vector of every
                # candidate strategy against u's environment is still exact.
                self._combo_cache[u] = (version, combo[1], combo[2])
            elif sub_rows is not None and self._update_combo(
                combo, changed_hops, sub_rows
            ):
                self._combo_cache[u] = (version, combo[1], combo[2])
            else:
                del self._combo_cache[u]
                self._ledger.deduct(u, _payload_nbytes(combo[2]))

    def _update_combo(
        self,
        combo: Tuple[int, tuple, object],
        changed_hops: List[int],
        sub_rows: Dict[int, Row],
    ) -> bool:
        """Patch a cached combination cost vector after a row repair, in place.

        Only the combinations containing a changed first hop can have moved,
        so their entries are re-reduced from the (already patched)
        substituted rows — bit-identical to a full rebuild, at a cost
        proportional to the changed hops.  Returns ``False`` when patching
        would not pay off (too many hops moved, or a needed row is gone), in
        which case the caller drops the vector instead.
        """
        size, candidates = combo[1]
        vector = combo[2]
        count = len(candidates)
        if 3 * len(changed_hops) > count:
            return False
        index_of = {c: i for i, c in enumerate(candidates)}
        if size == 1:
            for hop in changed_hops:
                i = index_of.get(hop)
                if i is None:
                    continue
                row = sub_rows.get(hop)
                if row is None:
                    return False
                vector[i] = row.sum()
            return True
        rows = []
        for c in candidates:
            row = sub_rows.get(c)
            if row is None:
                return False
            rows.append(row)
        matrix = _np.stack(rows)
        left, right = _triu_pairs(count)
        for hop in changed_hops:
            i = index_of.get(hop)
            if i is None:
                continue
            mask = (left == i) | (right == i)
            partners = _np.where(left[mask] == i, right[mask], left[mask])
            vector[mask] = _np.minimum(matrix[i], matrix[partners]).sum(axis=1)
        return True

    def _target_positions(self, u: int) -> Dict[int, int]:
        positions = self._target_pos.get(u)
        if positions is None:
            positions = {t: i for i, t in enumerate(self.indexed.target_rows[u])}
            self._target_pos[u] = positions
        return positions

    # ------------------------------------------------------------------ #
    # Giant-batch report plan
    # ------------------------------------------------------------------ #
    def _clear_plan(self) -> None:
        self._plan_version = -1
        self._plan_chunks = []
        self._plan_chunk_of = {}

    def plan_report_prefetch(self, profile: StrategyProfile, candidates=None) -> int:
        """Plan one report's whole row working set for giant-batch execution.

        ``candidates`` mirrors :func:`repro.core.equilibrium
        .equilibrium_report`'s restriction dict ``{label: candidate
        labels}``; ``None`` (or a missing node) means every other node.  Per
        node the wanted first hops are its candidates plus its current arcs
        — exactly the set the per-node prefetch in ``_resolve_scorer`` would
        request — grouped into byte-bounded chunks.  The first subsequent
        probe of any planned node (via :meth:`env_row` or
        :meth:`prefetch_env_rows`, on either backend) computes its entire
        chunk in one multi-source per-row-masked traversal.

        Returns the number of planned rows; 0 when the plan would exceed
        :data:`PLAN_ROW_LIMIT` or there is nothing to plan.  Rows, costs,
        and traces are bit-identical with or without a plan — only *when*
        rows are computed changes.  The plan dies with the snapshot: any
        profile change clears it.
        """
        self.sync(profile)
        self._clear_plan()
        indexed = self.indexed
        index = indexed.index
        n = indexed.n
        strategies = self._strategies
        pairs: List[Tuple[int, List[int]]] = []
        total = 0
        for u, label in enumerate(indexed.labels):
            raw = candidates.get(label) if candidates is not None else None
            if raw is None:
                wanted = [a for a in range(n) if a != u]
            else:
                wanted = []
                for target in raw:
                    a = index.get(target)
                    if a is not None and a != u:
                        wanted.append(a)
            for a in strategies[u]:
                wanted.append(a)
            hops = list(dict.fromkeys(wanted))
            if not hops:
                continue
            total += len(hops)
            if total > PLAN_ROW_LIMIT:
                self._clear_plan()
                return 0
            pairs.append((u, hops))
        self._install_plan(pairs)
        return total

    def _install_plan(self, pairs: List[Tuple[int, List[int]]]) -> None:
        """Group the planned ``(node, hops)`` pairs into byte-bounded chunks.

        A chunk targets :data:`GIANT_CHUNK_TARGET_BYTES` of stored rows
        (capped at a quarter of the byte budget so a just-filled chunk never
        forces the rest of the cache out); weighted games additionally cap
        the rows per traversal so the Dijkstra kernel's transient per-round
        ``(rows, edges)`` candidate matrix stays bounded.  A single node's
        rows never split across chunks, so one oversized node simply gets a
        chunk to itself.
        """
        indexed = self.indexed
        n = indexed.n
        uniform = indexed.uniform_lengths
        # Bytes per row: the env float row, plus on uniform games the hop
        # row — cached for repair on the python backend (list ints), built
        # transiently as int16 by the fused numpy kernel.  The estimate only
        # shapes chunks; the ledger charges actual payload bytes.
        if uniform:
            per_row = 10 * n if self._np_traversal else 16 * n
        else:
            per_row = 8 * n
        limit = max(
            per_row, min(GIANT_CHUNK_TARGET_BYTES, self.memory_budget_bytes // 4)
        )
        row_cap = None
        if not uniform:
            # The Dijkstra kernel's per-round cost is dominated by the
            # (rows, frontier edges) candidate matrix, and converged rows
            # keep paying it until the whole chunk settles — so unlike BFS
            # (bit-parallel, flat per-row cost in the chunk size), weighted
            # chunks get *cheaper* per row as they shrink, down to dispatch
            # overhead.  Measured on 2-out-degree games at n in {1k, 4k},
            # 32-48 rows per traversal is the sweet spot (at or below the
            # per-node batch cost); scale down as the edge count grows.
            edges = max(1, len(self._snapshot.indices))
            row_cap = max(12, min(48, (1 << 19) // edges))
        chunks: List[List[Tuple[int, List[int]]]] = []
        current: List[Tuple[int, List[int]]] = []
        current_bytes = 0
        current_rows = 0
        for u, hops in pairs:
            nbytes = len(hops) * per_row
            if current and (
                current_bytes + nbytes > limit
                or (row_cap is not None and current_rows + len(hops) > row_cap)
            ):
                chunks.append(current)
                current, current_bytes, current_rows = [], 0, 0
            current.append((u, hops))
            current_bytes += nbytes
            current_rows += len(hops)
        if current:
            chunks.append(current)
        self._plan_chunks = chunks
        self._plan_chunk_of = {
            u: i for i, chunk in enumerate(chunks) for u, _ in chunk
        }
        self._plan_version = self.version

    def _maybe_run_plan(self, u: int) -> None:
        """Run ``u``'s planned chunk now, if a current-version plan holds one."""
        if self._plan_version != self.version:
            return
        chunk_index = self._plan_chunk_of.get(u)
        if chunk_index is None:
            return
        chunk = self._plan_chunks[chunk_index]
        self._plan_chunks[chunk_index] = []
        for member, _ in chunk:
            self._plan_chunk_of.pop(member, None)
        try:
            self._run_plan_chunk(u, chunk)
        except InjectedFault:
            # Graceful degradation: a failed giant-chunk build (the
            # `engine.chunk-build` fault site) is absorbed here — the chunk's
            # bookkeeping is already cleared above, so every member simply
            # falls through to the per-node fill path, which is bit-identical
            # to the batched one.
            self.stats["chunk_build_failures"] += 1

    def _run_plan_chunk(self, u: int, chunk: List[Tuple[int, List[int]]]) -> None:
        """Fill every missing planned row of ``chunk`` in one giant traversal.

        All members' missing ``(mask, source)`` pairs go through one
        :meth:`_traverse` — on the numpy backend a single multi-source
        per-row-masked kernel call — and the members are grouped into one
        ledger chunk so they age and evict together.  Rows already cached
        (or repaired current by :meth:`_ensure_current`) are left untouched,
        which keeps the fill bit-identical to the per-row path.
        """
        fault_point("engine.chunk-build", key=u)
        work: List[Tuple[int, List[int]]] = []
        masks: List[int] = []
        sources: List[int] = []
        for member, hops in chunk:
            self._ensure_current(member)
            entry = self._env_cache.get(member)
            rows = entry[1] if entry is not None else {}
            missing = [a for a in hops if a not in rows]
            if missing:
                work.append((member, missing))
                masks.extend([member] * len(missing))
                sources.extend(missing)
        if sources:
            hop_rows, rows = self._traverse(masks, sources)
            start = 0
            for member, missing in work:
                end = start + len(missing)
                self._store(
                    member,
                    missing,
                    None if hop_rows is None else hop_rows[start:end],
                    rows[start:end],
                )
                start = end
            self.stats["giant_batch_traversals"] += 1
            self.stats["giant_batch_rows"] += len(sources)
        # One ledger chunk for the whole batch, exempt from the eviction its
        # own bytes may trigger.
        members = [member for member, _ in chunk]
        self._ledger.group(members)
        if self._ledger.bytes > self.memory_budget_bytes:
            self._evict_over_budget(keep=set(members))

    # ------------------------------------------------------------------ #
    # Distance rows
    # ------------------------------------------------------------------ #
    def _traverse(
        self, masks: List[int], sources: List[int]
    ) -> Tuple[Optional[list], list]:
        """Fresh distance rows from ``sources``; the one kernel choice.

        Row ``i`` never enters ``masks[i]`` (``-1`` for an unmasked row).
        Returns ``(hops, rows)``: ``rows[i]`` is the float distance row from
        ``sources[i]``, and on uniform-length games of the list backend
        ``hops[i]`` is its exact BFS hop row (kept for int-space repair);
        ``hops`` is ``None`` on weighted games and on the numpy backend,
        which never repairs.  Every call is timed into ``traversal_seconds``.

        The list backend runs one single-source kernel per row.  The numpy
        backend takes the single-source frontier kernel for one source and
        the fused multi-source form (per-row masks, scaled floats assembled
        in the kernel) for two or more — one masked row costs about twice
        as much through the multi-source kernel, while a batch of six costs
        no more than six single rows.  Integer-valued weighted lengths
        traverse in exact int64 space and convert once at the end
        (``float(int)`` is exact under the
        :attr:`IndexedGame.integral_lengths` gate); other lengths traverse
        in float64, which reproduces the heap kernel's labels bit for bit.
        Every choice yields bit-identical rows.
        """
        start = time.perf_counter()
        indexed = self.indexed
        snap = self._snapshot
        n = indexed.n
        uniform = indexed.uniform_lengths
        hops = None
        if not self._np_traversal:
            if uniform and len(sources) == 1:  # the hot single-row fill, no loop
                hops = [bfs_hops_csr(snap.indptr, snap.indices, n, sources[0], masks[0])]
                rows = [scaled_float_row(hops[0], indexed.unit_length)]
            elif uniform:
                hops = [
                    bfs_hops_csr(snap.indptr, snap.indices, n, source, mask)
                    for source, mask in zip(sources, masks)
                ]
                rows = [scaled_float_row(hop_row, indexed.unit_length) for hop_row in hops]
            else:
                indptr, indices, lengths = csr_of(snap)
                rows = [
                    dijkstra_csr(indptr, indices, lengths, n, source, mask)
                    for source, mask in zip(sources, masks)
                ]
        else:
            unit = indexed.unit_length
            indptr, indices, lengths, exact = csr_arrays_of(snap)
            if exact is not None:
                lengths = exact
            if len(sources) > 1 and uniform:
                _, rows = _npk.bfs_hops_csr_multi(
                    indptr, indices, n, sources, masks, scale_unit=unit
                )
            elif len(sources) > 1:
                rows = _npk.dijkstra_csr_multi(indptr, indices, lengths, n, sources, masks)
            elif uniform:
                hop_row = _npk.bfs_hops_csr_np(indptr, indices, n, sources[0], masks[0])
                rows = [_npk.scaled_float_rows(hop_row, unit)]
            else:
                rows = _npk.dijkstra_csr_np(
                    indptr, indices, lengths, n, sources[0], masks[0]
                )[None]
            if not uniform and exact is not None:
                rows = _npk.int_to_float_rows(rows)
        self.timings["traversal_seconds"] += time.perf_counter() - start
        return hops, rows

    def _store(self, u: int, first_hops: List[int], hops, rows) -> None:
        """Cache and charge fresh ``d_{G-u}`` rows: the one store path.

        ``rows[i]`` — and the exact hop row ``hops[i]`` when
        :meth:`_traverse` returns one — is the row of first hop
        ``first_hops[i]``.  The rows land in ``u``'s current-version caches,
        count in ``rows_computed`` (and in ``evicted_recomputes`` when ``u``
        lost rows to the budget), and are charged to the ledger.  Callers
        have brought ``u`` current via :meth:`_ensure_current`, listed only
        missing rows, and enforce the budget once their whole batch is
        stored.
        """
        env_rows = self._current_rows(self._env_cache, u)
        # Every row of one traversal has the same shape and dtype.
        nbytes = _payload_nbytes(rows[0])
        if hops is not None:
            hop_rows = self._current_rows(self._hop_cache, u)
            nbytes += _payload_nbytes(hops[0])
        for i, a in enumerate(first_hops):
            env_rows[a] = rows[i]
            if hops is not None:
                hop_rows[a] = hops[i]
        count = len(first_hops)
        self.stats["rows_computed"] += count
        if u in self._evicted_nodes:
            self._evicted_nodes.discard(u)
            self.stats["evicted_recomputes"] += count
        self._ledger.add(u, count * nbytes)

    def _current_rows(self, cache: Dict[int, Tuple[int, dict]], u: int) -> dict:
        """``u``'s row dict in ``cache``, created empty at the current version.

        Callers have run :meth:`_ensure_current`, so an existing entry
        always carries the current version.
        """
        entry = cache.get(u)
        if entry is None:
            rows: dict = {}
            cache[u] = (self.version, rows)
            return rows
        return entry[1]

    def env_row(self, u: int, first_hop: int) -> Row:
        """Return ``d_{G-u}(first_hop, ·)`` as a dense float row (``inf`` = unreachable).

        Rows are cached per ``(version, u)``; within one version each first
        hop costs at most one SSSP no matter how many strategies probe it,
        and rows stranded at an older version by single-node syncs are
        re-stamped, repaired or refilled before use (see
        :meth:`_ensure_current`).

        The returned row is the *cached object itself* — shared read-only by
        contract (lint rule RPR006).  Callers never mutate it: scorers copy
        before patching (see :meth:`StrategyScorer._through_row`), and a
        mutated return would corrupt every later read at this version.
        """
        self._require_sync()
        self._maybe_run_plan(u)
        if fault_fires("engine.forced-evict", key=u) is not None:
            # Adversarial-eviction fault site: drop the least-recently-used
            # chunk right under the probe (the probed node's own chunk is
            # exempt).  Costs stay bit-identical — evicted rows recompute.
            self._force_evict_chunk(keep={u})
        self._ensure_current(u)
        entry = self._env_cache.get(u)
        row = entry[1].get(first_hop) if entry is not None else None
        if row is None:
            first_hops = [first_hop]
            hops, rows = self._traverse([u], first_hops)
            self._store(u, first_hops, hops, rows)
            row = rows[0]
            if fault_fires("engine.row-poison", key=(u, first_hop)) is not None:
                # Corruption fault site: cache a subtly-wrong copy while this
                # call still returns the correct row — modelling a row that
                # goes bad *after* it was filled.  Only verify_every sampling
                # can catch it on a later cache hit.
                self._env_cache[u][1][first_hop] = self._poisoned_copy(row)
            if self._ledger.bytes > self.memory_budget_bytes:
                self._evict_over_budget(keep={u})
        else:
            self.stats["rows_reused"] += 1
            if self.verify_every is not None:
                self._verify_probes += 1
                if self._verify_probes >= self.verify_every:
                    self._verify_probes = 0
                    row = self._verify_row(u, first_hop, row)
        return row  # repro: readonly — the cached row itself, never mutated by callers

    def _poisoned_copy(self, row: Row) -> Row:
        """A copy of ``row`` with its first finite entry nudged by ``+1.0``."""
        poisoned = row.copy() if hasattr(row, "copy") else list(row)
        for i in range(len(poisoned)):
            value = float(poisoned[i])
            if value != math.inf:
                poisoned[i] = value + 1.0
                break
        return poisoned

    def _force_evict_chunk(self, keep: Set[int]) -> None:
        """Drop one least-recently-used chunk regardless of the byte budget."""
        victims = self._ledger.lru_nodes(exempt=keep)
        if victims is not None:
            self._evict_chunk(victims)

    def _verify_row(self, u: int, first_hop: int, row: Row) -> Row:
        """Recompute a served cache hit from scratch and compare elementwise.

        A mismatch means the cached copy was corrupted after it was filled.
        The engine never serves the bad row silently: it warns, counts the
        failure in ``stats["row_verify_failures"]``, drops every cached row
        of ``u`` (plus the whole-profile cost cache, which may have been
        built from the bad row), re-inserts the fresh row, and returns it.
        """
        self.stats["rows_verified"] += 1
        fresh = self._traverse([u], [first_hop])[1][0]
        n = len(row)
        clean = n == len(fresh) and all(
            float(row[i]) == float(fresh[i]) for i in range(n)
        )
        if clean:
            return row
        self.stats["row_verify_failures"] += 1
        warnings.warn(
            f"CostEngine self-verification: cached row (node {u}, first hop "
            f"{first_hop}) does not match a fresh recompute; rebuilding the "
            "node's caches",
            RuntimeWarning,
            stacklevel=3,
        )
        self.stats["rows_evicted"] += self._drop_node(u)
        self._all_costs_cache = None
        self._env_cache[u] = (self.version, {first_hop: fresh})
        self._ledger.add(u, _payload_nbytes(fresh))
        return fresh

    def prefetch_env_rows(self, u: int, first_hops) -> None:
        """Compute every missing ``d_{G-u}`` row of ``first_hops`` in one batch.

        A no-op on the python backend and for fewer than two missing rows;
        on the numpy backend the missing rows come from one multi-source
        frontier traversal (:func:`~repro.graphs.int_kernels_np
        .bfs_hops_csr_multi` / :func:`~repro.graphs.int_kernels_np
        .dijkstra_csr_multi`), which amortises the per-round dispatch
        overhead that makes single-source array traversals lose to the list
        kernels on sparse graphs.  Cached rows are byte-identical to the
        one-at-a-time path, so this only changes *when* rows are computed.

        When a giant-batch report plan covers ``u``, the node's whole
        planned chunk runs first (on either backend); the per-node batch
        below then only mops up hops the plan did not cover.
        """
        self._require_sync()
        self._maybe_run_plan(u)
        if not self._np_traversal:
            return
        self._ensure_current(u)
        rows = self._current_rows(self._env_cache, u)
        missing = [a for a in dict.fromkeys(first_hops) if a not in rows]
        if len(missing) >= 2:
            hops, rows = self._traverse([u] * len(missing), missing)
            self._store(u, missing, hops, rows)
            if self._ledger.bytes > self.memory_budget_bytes:
                self._evict_over_budget(keep={u})

    def through_rows(self, u: int) -> Dict[int, Row]:
        """Return the current-version through-row dict for masked node ``u``.

        A through row is ``l(u, a) + d_{G-u}(a, ·)`` for one first hop ``a``;
        scorers fill the dict lazily and, because it lives on the engine, a
        later probe of the same node at the same version starts warm (after
        any pending in-place repair).
        """
        self._ensure_current(u)
        entry = self._through_cache.get(u)
        if entry is None:
            rows: Dict[int, Row] = {}
            self._through_cache[u] = (self.version, rows)
        else:
            rows = entry[1]
            if rows and u not in self._reuse_counted:
                # Warm start: a later probe inherits rows a same-version
                # predecessor already paid for.  Counted once per node per
                # version so repeated probes do not inflate the stat.
                self._reuse_counted.add(u)
                self.stats["rows_reused"] += len(rows)
        return rows  # repro: readonly — live cache dict, filled lazily by scorers

    def sub_rows(self, u: int) -> Dict[int, Row]:
        """Return the penalty-substituted target slices for masked node ``u``.

        One slice per first hop: the through row sampled at ``u``'s positive
        targets, with unreachable entries replaced by the disconnection
        penalty.  Only valid (and only built) when the penalty dominates
        every finite distance — see :attr:`IndexedGame.penalty_dominates` —
        which is what lets the scoring fast path reduce over the slices with
        C-level ``min``/``sum``.
        """
        self._ensure_current(u)
        rows = self._current_rows(self._sub_cache, u)
        return rows  # repro: readonly — live cache dict, filled lazily by scorers

    def _note_derived_row(
        self, u: int, cache_name: str, rows: Dict[int, Row], row
    ) -> None:
        """Charge one newly materialised derived row against the byte budget.

        ``rows`` is the scorer's dict; if eviction already detached it from
        the engine cache the row lives outside the cache (garbage once the
        scorer dies) and must not be charged, or the ledger would drift above
        the caches' real contents and thrash eviction for the whole version.
        """
        cache = self._through_cache if cache_name == "through" else self._sub_cache
        entry = cache.get(u)
        if entry is None or entry[1] is not rows:
            return
        self._ledger.add(u, _payload_nbytes(row))
        if self._ledger.bytes > self.memory_budget_bytes:
            self._evict_over_budget(keep={u})

    def _note_derived_batch(
        self, u: int, cache_name: str, rows: Dict[int, Row], nbytes: int
    ) -> None:
        """Batch form of :meth:`_note_derived_row`: one ledger charge and one
        budget check for a whole batch of equal-shaped rows."""
        cache = self._through_cache if cache_name == "through" else self._sub_cache
        entry = cache.get(u)
        if entry is None or entry[1] is not rows:
            return
        self._ledger.add(u, nbytes)
        if self._ledger.bytes > self.memory_budget_bytes:
            self._evict_over_budget(keep={u})

    def full_row(self, u: int) -> Row:
        """Return full-graph distances from int node ``u`` (no masking)."""
        self._require_sync()
        return self._traverse([-1], [u])[1][0]

    # ------------------------------------------------------------------ #
    # Cost evaluation
    # ------------------------------------------------------------------ #
    def scorer(self, node: Node) -> "StrategyScorer":
        """Return a :class:`StrategyScorer` bound to ``node`` at the current version."""
        self._require_sync()
        try:
            u = self.indexed.index[node]
        except KeyError:
            raise InvalidProfile(f"node {node!r} is not part of this game") from None
        return StrategyScorer(self, u)

    def cost_of(self, node: Node, strategy: Iterable[Node]) -> float:
        """Return ``node``'s cost when it plays ``strategy`` (labels) against the synced profile."""
        scorer = self.scorer(node)
        return scorer.score(strategy)

    def all_costs(self, profile: StrategyProfile) -> Dict[Node, float]:
        """Return every node's cost under ``profile`` (cached per version)."""
        self.sync(profile)
        cached = self._all_costs_cache
        if cached is not None and cached[0] == self.version:
            return dict(cached[1])
        indexed = self.indexed
        n = indexed.n
        use_np = self._np_traversal
        if use_np:
            # Batched traversals for all n unmasked rows, sliced so one
            # slice's row matrix stays around GIANT_CHUNK_TARGET_BYTES (a
            # single n-source batch at n = 16384 would be a 2 GiB matrix);
            # each row is converted back to the list form _aggregate_row
            # expects, so the costs (and their plain-float types) match the
            # list backend — multi-kernel rows do not depend on how the
            # sources are batched.
            uniform = indexed.uniform_lengths
            chunk_rows = max(1, min(n, GIANT_CHUNK_TARGET_BYTES // ((16 if uniform else 8) * n)))
            if not uniform:
                edges = max(1, len(self._snapshot.indices))
                chunk_rows = min(
                    chunk_rows, max(16, GIANT_CHUNK_TARGET_BYTES // (8 * edges))
                )
        else:
            chunk_rows = 1  # list rows gain nothing from batching
        labels = indexed.labels
        costs = {}
        for lo in range(0, n, chunk_rows):
            sources = list(range(lo, min(n, lo + chunk_rows)))
            rows = self._traverse([-1] * len(sources), sources)[1]
            for u, row in zip(sources, rows):
                costs[labels[u]] = self._aggregate_row(u, row.tolist() if use_np else row)
        self._all_costs_cache = (self.version, costs)
        return dict(costs)

    def social_cost(self, profile: StrategyProfile) -> float:
        """Return the total cost over all nodes under ``profile``."""
        return sum(self.all_costs(profile).values())

    def _aggregate_row(self, u: int, row: Row) -> float:
        indexed = self.indexed
        targets = indexed.target_rows[u]
        weights = indexed.target_weight_rows[u]
        penalty = indexed.penalty
        inf = math.inf
        if indexed.objective is Objective.SUM:
            total = 0.0
            for t, w in zip(targets, weights):
                d = row[t]
                total += w * (d if d < inf else penalty)
            return total
        if not targets:
            return 0.0
        worst = -inf
        for t, w in zip(targets, weights):
            d = row[t]
            value = w * (d if d < inf else penalty)
            if value > worst:
                worst = value
        return float(worst)


class StrategyScorer:
    """Fast repeated scoring of candidate strategies for one node.

    Bound to one ``(engine, version, node)``; per candidate first hop ``a``
    it lazily materialises the *through* row ``l(u, a) + d_{G-u}(a, ·)`` so
    that scoring a strategy is nothing but elementwise mins over cached
    lists.  For SUM-objective, unit-weight nodes of games whose
    disconnection penalty dominates every finite distance (every default
    game), it additionally keeps per-hop penalty-substituted target slices
    and reduces them with C-level ``sum(map(min, ...))`` — value-identical
    to the reference loop because substituting the penalty for ``inf``
    commutes with ``min`` exactly when the penalty is at least every finite
    distance.  Invalid to use after the engine syncs to a different profile.
    """

    __slots__ = (
        "engine",
        "u",
        "index",
        "targets",
        "weights",
        "penalty",
        "is_sum",
        "unit_weights",
        "fast_sum",
        "fast_batch",
        "identity_labels",
        "_length_row",
        "_through",
        "_sub",
        "_target_idx",
        "_version",
    )

    def __init__(self, engine: CostEngine, u: int) -> None:
        self.engine = engine
        self.u = u
        indexed = engine.indexed
        self.index = indexed.index
        self.targets = indexed.target_rows[u]
        self.weights = indexed.target_weight_rows[u]
        self.penalty = indexed.penalty
        self.is_sum = indexed.objective is Objective.SUM
        # Multiplying by an exact 1.0 weight is the identity, so the unit-weight
        # fast path below stays bit-identical to the reference oracle.
        self.unit_weights = indexed.unit_weight_nodes[u]
        # Below ~16 targets the fixed per-call overhead of the substituted-row
        # machinery (and of numpy) loses to the plain loops, so small games
        # stay on the original code path end to end.
        self.fast_sum = (
            self.is_sum
            and self.unit_weights
            and indexed.penalty_dominates
            and len(self.targets) >= 16
        )
        # The batch path sums in vectorised (pairwise) order, which is only
        # bit-identical to the reference's left-to-right loop when every sum
        # is exact — see IndexedGame.exact_sums.
        self.fast_batch = self.fast_sum and indexed.exact_sums and _np is not None
        self.identity_labels = indexed.identity_labels
        self._length_row = indexed.length_rows[u]
        self._through = engine.through_rows(u)
        self._sub = engine.sub_rows(u) if self.fast_sum else None
        self._target_idx = None  # int64 target indices, built on first use
        self._version = engine.version

    def _through_row(self, first_hop: int) -> Row:
        row = self._through.get(first_hop)
        if row is None:
            hop_length = self._length_row[first_hop]
            env = self.engine.env_row(self.u, first_hop)
            if self.engine._np_traversal:
                # Numpy-backend env rows are float64 arrays; the vectorised
                # sum is the same one IEEE addition per entry, and tolist()
                # keeps through rows (and everything scored off them) plain
                # Python floats on every backend.
                row = (hop_length + env).tolist()
            else:
                row = [hop_length + d for d in env]
            self._through[first_hop] = row
            self.engine._note_derived_row(self.u, "through", self._through, row)
        return row

    def _target_index(self) -> "_np.ndarray":
        if self._target_idx is None:
            targets = self.targets
            if len(targets) == self.engine.indexed.n - 1:
                # Complete target set: targets are exactly every node but
                # u, in increasing id order (IndexedGame builds target
                # rows sorted), so the index vector is an arange with a
                # gap at u — O(n) with no per-element Python boxing,
                # which matters when n is in the tens of thousands.
                idx = _np.arange(len(targets), dtype=_np.int64)
                idx[self.u:] += 1
                self._target_idx = idx
            else:
                self._target_idx = _np.asarray(targets, dtype=_np.int64)
        return self._target_idx

    def _build_sub_rows(self, missing: List[int]):
        """Build and cache every ``missing`` sub row in one broadcast.

        Numpy fast-batch path only (returns ``None`` otherwise): each entry
        is the same single IEEE sum and the same penalty test as
        :meth:`_sub_row`'s, so the rows (stored as views of the returned
        ``(len(missing), targets)`` batch) are bit-identical — only the
        numpy dispatch count changes.
        """
        engine = self.engine
        if not missing or not self.fast_batch or not engine._np_traversal:
            return None
        u = self.u
        targets = self.targets
        # One sync/plan/version check for the whole batch; the prefetch that
        # preceded this call left every row resident, so the per-row work is
        # a dict hit (env_row stays the fallback for anything evicted in
        # between).
        engine._require_sync()
        engine._maybe_run_plan(u)
        engine._ensure_current(u)
        entry = engine._env_cache.get(u)
        cached = entry[1] if entry is not None else {}
        hits = 0

        def env_for(a):
            nonlocal hits
            env = cached.get(a)
            if env is None:
                return engine.env_row(u, a)
            hits += 1
            return env

        envs = _np.stack([env_for(a) for a in missing])
        if len(targets) == engine.indexed.n - 1:
            # Complete target set: dropping column u is two contiguous
            # block copies, far cheaper than a fancy-index gather of
            # 99.9% of the matrix.
            batch = _np.concatenate((envs[:, :u], envs[:, u + 1:]), axis=1)
        else:
            batch = envs[:, self._target_index()]
        engine.stats["rows_reused"] += hits
        hop_lengths = _np.array(
            [self._length_row[a] for a in missing], dtype=_np.float64
        )
        batch += hop_lengths[:, None]
        batch[_np.isinf(batch)] = self.penalty
        sub = self._sub
        for j, a in enumerate(missing):
            sub[a] = batch[j]
        engine._note_derived_batch(
            self.u, "sub", sub, len(missing) * _payload_nbytes(batch[0])
        )
        return batch

    def _sub_row(self, first_hop: int) -> Row:
        engine = self.engine
        if self.fast_batch and engine._np_traversal:
            # Build the penalty-substituted target slice straight from the
            # env row, skipping the O(n) through-row list entirely: the
            # through value of each target is the same single IEEE sum
            # (`l(u, a) + d`), and the penalty substitution the same
            # elementwise test, so the slice is bit-identical to the list
            # path.
            env = engine.env_row(self.u, first_hop)
            row = self._length_row[first_hop] + env[self._target_index()]
            row[_np.isinf(row)] = self.penalty
            self._sub[first_hop] = row
            engine._note_derived_row(self.u, "sub", self._sub, row)
            return row
        through = self._through_row(first_hop)
        penalty = self.penalty
        inf = math.inf
        row = [d if d < inf else penalty for d in map(through.__getitem__, self.targets)]
        if self.fast_batch:
            row = _np.array(row)
        self._sub[first_hop] = row
        self.engine._note_derived_row(self.u, "sub", self._sub, row)
        return row

    def score_combinations(self, candidates: List[int], size: int):
        """Score every size-``size`` combination of ``candidates`` (dense ints).

        Returns a read-only numpy vector of costs in ``itertools.combinations``
        order — the exact order :meth:`BBCGame.feasible_strategies` enumerates
        when :meth:`BBCGame.combination_plan` applies.  Only valid on
        ``fast_batch`` scorers (exact integer-valued sums), where the
        vectorised reduction is bit-identical to scoring one by one.  Like the
        scorer itself, the returned vector is only valid until the engine
        syncs to another profile: it views the engine's cached buffer, which
        later repairs patch in place (copy it to keep a snapshot).
        """
        engine = self.engine
        if self._version != engine.version:
            raise InvalidProfile("scorer is stale: the engine synced to a new profile")
        key = (size, tuple(candidates))
        cached = engine._combo_cache.get(self.u)
        if cached is not None and cached[0] == self._version and cached[1] == key:
            return _readonly_view(cached[2])
        sub = self._sub
        missing = [a for a in candidates if a not in sub]
        engine.prefetch_env_rows(self.u, iter(missing))
        batch = self._build_sub_rows(missing)
        if batch is not None and len(missing) == len(candidates):
            # Every candidate was missing, so the batch rows are already the
            # combination matrix in candidate order — no re-stack.
            matrix = batch
        else:
            rows = []
            for a in candidates:
                row = sub.get(a)
                if row is None:
                    row = self._sub_row(a)
                rows.append(row)
            if not rows:
                return _np.empty(0)
            matrix = _np.stack(rows)
        if size == 1:
            costs = matrix.sum(axis=1)
        else:
            left, right = _triu_pairs(len(candidates))
            costs = _np.minimum(matrix[left], matrix[right]).sum(axis=1)
        previous = engine._combo_cache.get(self.u)
        if previous is not None:
            engine._ledger.deduct(self.u, _payload_nbytes(previous[2]))
        engine._combo_cache[self.u] = (self._version, key, costs)
        engine._ledger.add(self.u, _payload_nbytes(costs))
        if engine._ledger.bytes > engine.memory_budget_bytes:
            engine._evict_over_budget(keep={self.u})
        return _readonly_view(costs)

    def score(self, strategy: Iterable[Node]) -> float:
        """Return the node's cost for a strategy given as node *labels*."""
        if self.identity_labels:
            return self.score_ints(strategy)
        index = self.index
        return self.score_ints([index[target] for target in strategy])

    def score_ints(self, strategy: Iterable[int]) -> float:
        """Return the node's cost for a strategy given as dense int ids."""
        if self._version != self.engine.version:
            raise InvalidProfile("scorer is stale: the engine synced to a new profile")
        if self.fast_sum:
            sub = self._sub
            strategy = list(strategy)
            if self.engine._np_traversal:
                missing = list(
                    dict.fromkeys(a for a in strategy if a not in sub)
                )
                self.engine.prefetch_env_rows(self.u, iter(missing))
                self._build_sub_rows(missing)
            rows = []
            for a in strategy:
                row = sub.get(a)
                if row is None:
                    row = self._sub_row(a)
                rows.append(row)
            num_rows = len(rows)
            if num_rows == 0:
                total = 0.0
                for w in self.weights:
                    total += w * self.penalty
                return total
            if self.fast_batch:
                if num_rows == 2:
                    return float(_np.minimum(rows[0], rows[1]).sum())
                if num_rows == 1:
                    return float(rows[0].sum())
                return float(_np.minimum.reduce(rows).sum())
            if num_rows == 2:
                return sum(map(min, rows[0], rows[1]))
            if num_rows == 1:
                return sum(rows[0])
            return sum(map(min, *rows))
        through = self._through
        rows = []
        for a in strategy:
            row = through.get(a)
            if row is None:
                row = self._through_row(a)
            rows.append(row)
        targets = self.targets
        weights = self.weights
        penalty = self.penalty
        inf = math.inf
        num_rows = len(rows)
        if self.is_sum:
            total = 0.0
            if num_rows == 2:
                row_a, row_b = rows
                if self.unit_weights:
                    for t in targets:
                        da = row_a[t]
                        db = row_b[t]
                        d = da if da < db else db
                        total += d if d < inf else penalty
                else:
                    for t, w in zip(targets, weights):
                        da = row_a[t]
                        db = row_b[t]
                        d = da if da < db else db
                        total += w * (d if d < inf else penalty)
            elif num_rows == 1:
                row = rows[0]
                if self.unit_weights:
                    for t in targets:
                        d = row[t]
                        total += d if d < inf else penalty
                else:
                    for t, w in zip(targets, weights):
                        d = row[t]
                        total += w * (d if d < inf else penalty)
            elif num_rows == 0:
                for w in weights:
                    total += w * penalty
            else:
                for t, w in zip(targets, weights):
                    best = inf
                    for row in rows:
                        d = row[t]
                        if d < best:
                            best = d
                    total += w * (best if best < inf else penalty)
            return total
        # MAX objective.
        if not targets:
            return 0.0
        worst = -inf
        for t, w in zip(targets, weights):
            best = inf
            for row in rows:
                d = row[t]
                if d < best:
                    best = d
            value = w * (best if best < inf else penalty)
            if value > worst:
                worst = value
        return float(worst)
