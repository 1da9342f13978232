"""The catalog of live games: named, versioned, warm-engine entries.

A :class:`GameCatalog` maps client-facing names to :class:`GameEntry`
objects, each holding a game, its **warm engine** (a dedicated
:class:`~repro.engine.CostEngine` for integral games, the shared
:class:`~repro.engine.FractionalEngine` — or the dependency-free reference
path — for fractional games), the current profile, and a monotonically
increasing **service version**.

**The reader/writer contract** promotes the engine's version-stamp
discipline (see the "Snapshot ownership and lifetime" section of
:mod:`repro.engine`) to an explicit client-visible protocol:

* Readers never observe a half-applied update.  A read executes against the
  exact ``(version, profile)`` pair published by the last committed write,
  and for integral games the entry records which frozen
  :class:`~repro.engine.EngineSnapshot` version backs each service version
  (:attr:`GameEntry.engine_version`) — equal service versions therefore
  guarantee bit-identical cost reads.
* Writers go through :meth:`GameEntry.apply_update`, which validates the
  strategy, syncs the engine (a single-node step rides the edit log of the
  engine's repair contract — other nodes' stale rows are repaired lazily on
  a list-backend engine and refilled in the next giant traversal on a
  numpy-backend one — so an update stream never triggers full recomputes),
  and only then publishes the bumped version.  A rejected update leaves version and
  profile untouched.
* A read may *pin* a version; the entry answers only while the head still
  matches, else raises the documented
  :class:`~repro.service.errors.StaleVersionError` (the catalog keeps one
  live version per game — its warm row caches track the head).

The catalog itself is deliberately synchronous and single-threaded: the
asyncio :class:`~repro.service.service.GameService` serializes all access
through one event loop, which is what makes the contract above hold without
locks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.errors import InvalidStrategy
from ..core.fractional import FractionalBBCGame, FractionalProfile
from ..core.game import BBCGame
from ..engine import CostEngine, resolve_fractional_engine
from .errors import DuplicateGameError, StaleVersionError, UnknownGameError
from .metrics import GameMetrics

#: Entry kinds: integral games run on :class:`CostEngine`; fractional games
#: run on :class:`FractionalEngine` when scipy is available and on the
#: FlowNetwork reference otherwise (``engine_flag`` captures which).
KIND_INTEGRAL = "integral"
KIND_FRACTIONAL = "fractional"


@dataclass
class GameEntry:
    """One live game: warm engine, current profile, service version, metrics."""

    name: str
    kind: str
    game: object
    engine: object  # CostEngine | FractionalEngine | None (fractional reference)
    profile: object  # StrategyProfile | FractionalProfile
    version: int = 1
    #: The engine-snapshot version backing :attr:`version` (integral games
    #: only; fractional engines stamp internally).  Responses carry it so a
    #: client can correlate service versions with engine snapshots.
    engine_version: int = 0
    metrics: GameMetrics = field(default_factory=GameMetrics)

    @property
    def engine_flag(self):
        """The tri-state ``engine=`` value to thread into routed entry points.

        The entry's own engine instance when one is warm, else ``False`` —
        the reference path — so a fractional entry on the minimal dependency
        leg stays dependency-free instead of re-resolving the shared
        registry on every call.
        """
        return self.engine if self.engine is not None else False

    def check_version(self, pinned: Optional[int]) -> int:
        """Validate a pinned read version against the head; return the head."""
        if pinned is not None and pinned != self.version:
            raise StaleVersionError(self.name, pinned, self.version)
        return self.version

    def apply_update(self, node, strategy) -> int:
        """Commit ``node``'s new strategy; return the new service version.

        Integral entries take an iterable of target labels, fractional
        entries a ``{target: capacity}`` mapping.  Validation happens
        *before* any state changes: an infeasible strategy raises
        :class:`~repro.core.errors.InvalidStrategy` and the entry stays at
        its current version with its current profile.  The engine sync of a
        committed single-node step is the cheap local case of the engine's
        repair contract — cached rows of other nodes are repaired lazily
        (list backend) or refilled by the next giant traversal (numpy
        backend) instead of all being recomputed at once.
        """
        if self.kind == KIND_FRACTIONAL:
            if not isinstance(strategy, Mapping):
                raise InvalidStrategy(
                    f"fractional update for {node!r} needs a target->capacity "
                    f"mapping, got {type(strategy).__name__}"
                )
            if not self.game.is_feasible_strategy(node, strategy):
                raise InvalidStrategy(
                    f"update for node {node!r} exceeds its budget or buys "
                    "negative capacity"
                )
            new_profile = self.profile.with_strategy(node, strategy)
            if self.engine is not None:
                self.engine.sync(new_profile)
        else:
            validated = self.game.validate_strategy(node, strategy)
            new_profile = self.profile.with_strategy(node, validated)
            self.engine.sync(new_profile)
            self.engine_version = self.engine.snapshot().version
        self.profile = new_profile
        self.version += 1
        self.metrics.record_update()
        return self.version

    def absorb_engine_stats(self) -> None:
        """Fold the engine's exact counters into this entry's metrics."""
        stats = getattr(self.engine, "stats", None)
        if stats is not None:
            self.metrics.absorb_engine_stats(stats)


class GameCatalog:
    """Named registration, eviction, and lookup of live game entries."""

    def __init__(self) -> None:
        self._entries: Dict[str, GameEntry] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> List[str]:
        """Registered game names, in registration order."""
        return list(self._entries)

    def entry(self, name: str) -> GameEntry:
        """Return the live entry for ``name`` or raise :class:`UnknownGameError`."""
        entry = self._entries.get(name)
        if entry is None:
            raise UnknownGameError(name)
        return entry

    def register(
        self,
        name: str,
        game,
        *,
        profile=None,
        backend: Optional[str] = None,
        verify_every: Optional[int] = None,
        memory_budget_bytes: Optional[int] = None,
    ) -> GameEntry:
        """Register ``game`` under ``name`` with a freshly warmed engine.

        Integral :class:`BBCGame` instances get a *dedicated*
        :class:`CostEngine` (not the shared per-game registry entry), so
        service-level configuration — ``verify_every`` row self-verification
        for long-lived serving, an explicit traversal ``backend``, a byte
        budget — never leaks into batch callers sharing the same game
        object.  :class:`FractionalBBCGame` instances resolve the usual
        shared fractional engine (``None`` on the minimal dependency leg —
        the entry then serves on the FlowNetwork reference path and
        LP-backed queries surface the documented
        :class:`~repro.core.errors.BestResponseUnavailable`).

        The initial ``profile`` defaults to the game's empty profile; the
        engine is synced to it before the entry becomes visible, so the
        first query hits a warm, consistent version 1.
        """
        if name in self._entries:
            raise DuplicateGameError(name)
        if isinstance(game, FractionalBBCGame):
            if profile is None:
                profile = game.empty_profile()
            if not isinstance(profile, FractionalProfile):
                raise InvalidStrategy(
                    "fractional games need a FractionalProfile initial profile"
                )
            game.validate_profile(profile)
            engine = resolve_fractional_engine(game, None)
            if engine is not None:
                engine.sync(profile)
            entry = GameEntry(
                name=name,
                kind=KIND_FRACTIONAL,
                game=game,
                engine=engine,
                profile=profile,
            )
        elif isinstance(game, BBCGame):
            if profile is None:
                profile = game.empty_profile()
            game.validate_profile(profile)
            engine = CostEngine(
                game,
                backend=backend,
                verify_every=verify_every,
                memory_budget_bytes=memory_budget_bytes,
            )
            engine.sync(profile)
            entry = GameEntry(
                name=name,
                kind=KIND_INTEGRAL,
                game=game,
                engine=engine,
                profile=profile,
                engine_version=engine.snapshot().version,
            )
        else:
            raise InvalidStrategy(
                f"cannot register a {type(game).__name__}: expected a BBCGame "
                "or FractionalBBCGame"
            )
        self._entries[name] = entry
        return entry

    def evict(self, name: str) -> GameEntry:
        """Drop ``name`` from the catalog and return its (now dead) entry.

        The entry's engine and caches become garbage immediately; a query in
        flight for the name fails with :class:`UnknownGameError` once it
        reaches the worker loop, which is the documented race outcome.
        """
        entry = self._entries.pop(name, None)
        if entry is None:
            raise UnknownGameError(name)
        return entry

    def describe(self) -> List[Tuple[str, str, int, int]]:
        """Return ``(name, kind, n, version)`` for every entry (for ops)."""
        rows = []
        for entry in self._entries.values():
            nodes: Iterable = entry.game.nodes
            rows.append((entry.name, entry.kind, len(tuple(nodes)), entry.version))
        return rows


__all__ = [
    "GameCatalog",
    "GameEntry",
    "KIND_FRACTIONAL",
    "KIND_INTEGRAL",
]
