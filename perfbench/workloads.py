"""The five benchmark workloads: seeded inputs, one operation, output checks.

Every workload builds its games and engines in ``__init__`` (set-up),
generates a fixed seeded operation list before timing (:meth:`make_ops`),
runs one operation per timed unit (:meth:`execute`) and checks outputs
outside the timed region (:meth:`check`).  The program receives only the
generated inputs.  An operation list depends only on the seed and its
length, and its length only on ``--seconds``, so every run of the same
arguments does the same work.
"""

from __future__ import annotations

import asyncio
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

#: Regret tolerance of the pure-Nash checks (the library default).
TOLERANCE = 1e-9
#: The fractional game's tolerance and the reference-parity contract.
FRACTIONAL_TOLERANCE = 1e-5
FRACTIONAL_PARITY = 1e-9
#: ``CostEngine.snapshot_stats()`` counters reported as per-layer metrics.
ENGINE_COUNTERS = (
    "rows_computed",
    "rows_reused",
    "rows_repaired",
    "giant_batch_rows",
    "chunks_evicted",
    "evicted_recomputes",
)


class CheckFailed(Exception):
    """An operation's output disagrees with its check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def random_targets(rng: random.Random, n: int, node: int, count: int) -> List[int]:
    """``count`` distinct targets in ``range(n)`` other than ``node``."""
    return [x if x < node else x + 1 for x in rng.sample(range(n - 1), count)]


def random_profile(rng: random.Random, n: int, k: int):
    """A budget-maximal profile of a unit-cost game on labels ``0..n-1``."""
    from repro.core.profile import StrategyProfile

    return StrategyProfile({u: frozenset(random_targets(rng, n, u, k)) for u in range(n)})


class Workload:
    """One workload.  Subclasses set the class attributes below."""

    name = ""
    #: The unit of work counted by ``throughput_per_s``.
    unit = ""
    #: Operations per second at reference speed; sets the fixed op count.
    ops_per_second = 1.0
    #: Operations checked against the full reference per run (``None``: all).
    deep_checks: Optional[int] = None
    #: ``(op, seconds)`` queue waits recorded by a traced pass (service only).
    queue_waits: Sequence[tuple] = ()

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")

    def op_count(self, seconds: float) -> int:
        return max(2, math.ceil(seconds * self.ops_per_second))

    def make_ops(self, count: int) -> list:
        return [self.make_op() for _ in range(count)]

    def make_op(self):
        raise NotImplementedError

    def warm_up(self):
        """One operation that no metric counts: fills caches, finishes lazy set-up."""
        return self.execute(self.make_op())

    def execute(self, op):
        raise NotImplementedError

    def work(self, op, output) -> int:
        """Units of work the operation completed."""
        raise NotImplementedError

    def latencies(self, output) -> Optional[List[float]]:
        """Raw per-request latencies inside one unit; ``None``: the unit is one."""
        return None

    def operations(self, op) -> int:
        """Operations attempted by one unit."""
        return 1

    def check(self, op, output, deep: bool, rng: random.Random) -> None:
        """Check one operation's output; raise when it is wrong.

        ``deep`` selects the full comparison against an independent reference.
        """
        raise NotImplementedError

    def check_all(self, results: Sequence[tuple], rng: random.Random) -> int:
        """Check every ``(op, output)`` pair; return how many operations failed."""
        indices = range(len(results))
        deep = (
            set(indices)
            if self.deep_checks is None
            else set(rng.sample(indices, min(self.deep_checks, len(results))))
        )
        failed = 0
        for index, (op, output) in enumerate(results):
            try:
                self.check(op, output, index in deep, rng)
            except Exception:  # noqa: BLE001 - any check error fails the operation
                traceback.print_exc(file=sys.stderr)
                failed += 1
        return failed

    def cost_engines(self) -> list:
        """The :class:`~repro.engine.CostEngine` instances the workload drives."""
        return []

    def engine_stats(self) -> Dict[str, float]:
        """Cumulative counters of every engine the workload has driven."""
        totals: Dict[str, float] = dict.fromkeys(ENGINE_COUNTERS, 0)
        for engine in self.cost_engines():
            stats = engine.snapshot_stats()
            for key in ENGINE_COUNTERS:
                totals[key] += stats[key]
        return totals

    def counters(self) -> Dict[str, int]:
        """Workload-specific cumulative program counters (deltas become metrics)."""
        return {}

    def trace_hooks(self) -> Dict[str, Callable]:
        """Span-entry hooks ``hook(args, kwargs, start, op)`` for a traced pass."""
        return {}

    def prepare(self, op) -> bool:
        """Untimed work before a unit; return whether any was done."""
        return False

    def close(self) -> None:
        """Release resources the workload holds (event loops, services)."""


# ---------------------------------------------------------------------- #
# report: the read path
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ReportOp:
    profile: object
    candidates: Dict[int, List[int]]


class ReportWorkload(Workload):
    """``equilibrium_report`` on the (1024, 2)-uniform game, 6 candidates per node."""

    name = "report"
    unit = "nodes certified"
    ops_per_second = 2.2
    N, K, CANDIDATES = 1024, 2, 6
    #: Nodes per report re-derived on the reference path.
    SAMPLED_NODES = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro import UniformBBCGame
        from repro.engine import get_engine

        self.game = UniformBBCGame(self.N, self.K)
        self.engine = get_engine(self.game)

    def make_op(self) -> ReportOp:
        rng, n = self.rng, self.N
        return ReportOp(
            profile=random_profile(rng, n, self.K),
            candidates={u: random_targets(rng, n, u, self.CANDIDATES) for u in range(n)},
        )

    def execute(self, op: ReportOp):
        from repro import equilibrium_report

        return equilibrium_report(self.game, op.profile, candidates=op.candidates)

    def work(self, op, output) -> int:
        return len(output.responses)

    def check(self, op: ReportOp, output, deep: bool, rng: random.Random) -> None:
        from repro import best_response

        responses = output.responses
        _require(len(responses) == self.N, "report skipped nodes")
        stable = all(r.regret <= TOLERANCE for r in responses.values())
        _require(output.is_equilibrium == stable, "verdict disagrees with regrets")
        for node, result in responses.items():
            _require(result.current_strategy == op.profile[node], f"node {node}: wrong strategy")
            _require(result.best_cost <= result.current_cost, f"node {node}: negative regret")
        for node in rng.sample(range(self.N), self.SAMPLED_NODES):
            ref = best_response(
                self.game, op.profile, node, candidates=op.candidates[node], engine=False
            )
            got = responses[node]
            _require(
                (got.current_cost, got.best_cost, got.best_strategy)
                == (ref.current_cost, ref.best_cost, ref.best_strategy),
                f"node {node}: differs from the reference oracle",
            )

    def cost_engines(self) -> list:
        return [self.engine]


# ---------------------------------------------------------------------- #
# walk: §4.3 best-response dynamics on the list-kernel side
# ---------------------------------------------------------------------- #
class WalkWorkload(Workload):
    """Round-robin ``run_best_response_walk`` on the (64, 2)-uniform game."""

    name = "walk"
    unit = "best-response probes"
    ops_per_second = 1.8
    N, K, ROUNDS = 64, 2, 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro import UniformBBCGame
        from repro.engine import get_engine

        self.game = UniformBBCGame(self.N, self.K)
        self.engine = get_engine(self.game)

    def make_op(self):
        return random_profile(self.rng, self.N, self.K)

    def execute(self, op):
        from repro.dynamics.walk import run_best_response_walk

        return run_best_response_walk(
            self.game, op, max_rounds=self.ROUNDS, record_steps=True
        )

    def work(self, op, output) -> int:
        return output.probes

    def check(self, op, output, deep: bool, rng: random.Random) -> None:
        from repro import best_response

        _require(output.probes == output.rounds * self.N, "probe count != rounds * n")
        _require(output.deviations == len(output.steps), "deviation count != steps")
        profiles = [op]
        for step in output.steps:
            _require(
                tuple(sorted(profiles[-1][step.node], key=repr)) == step.old_strategy,
                f"step {step.index}: stale old strategy",
            )
            profiles.append(profiles[-1].with_strategy(step.node, step.new_strategy))
        _require(profiles[-1] == output.final_profile, "final profile != replayed steps")
        if output.steps:
            index = rng.randrange(len(output.steps))
            step = output.steps[index]
            ref = best_response(self.game, profiles[index], step.node, engine=False)
            _require(
                (ref.current_cost, ref.best_cost, tuple(sorted(ref.best_strategy, key=repr)))
                == (step.old_cost, step.new_cost, step.new_strategy),
                f"step {step.index}: differs from the reference oracle",
            )

    def cost_engines(self) -> list:
        return [self.engine]


# ---------------------------------------------------------------------- #
# sweep: the exhaustive existence search behind Theorem 2 / Figure 4
# ---------------------------------------------------------------------- #
class SweepWorkload(Workload):
    """Serial exhaustive search on the (7, 2)-uniform game, three nodes free."""

    name = "sweep"
    unit = "profiles examined"
    ops_per_second = 7.0
    deep_checks = 2
    N, K, FREE = 7, 2, 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro import UniformBBCGame
        from repro.engine import get_engine

        self.game = UniformBBCGame(self.N, self.K)
        self.engine = get_engine(self.game)
        self.space = math.comb(self.N - 1, self.K) ** self.FREE
        #: Stats of every SweepEvaluator seen by a traced pass (one per search).
        self._evaluator_stats: Dict[int, dict] = {}

    def make_op(self) -> Dict[int, list]:
        """Pinned strategies of the non-free nodes."""
        rng = self.rng
        free = set(rng.sample(range(self.N), self.FREE))
        return {
            u: [frozenset(random_targets(rng, self.N, u, self.K))]
            for u in range(self.N)
            if u not in free
        }

    def execute(self, op, engine=None):
        from repro.core.search import exhaustive_equilibrium_search

        return exhaustive_equilibrium_search(
            self.game, candidate_strategies=op, stop_at_first=False, engine=engine
        )

    def work(self, op, output) -> int:
        return output.profiles_examined

    def check(self, op, output, deep: bool, rng: random.Random) -> None:
        from repro import is_pure_nash

        _require(output.exhausted, "search stopped early")
        _require(output.profiles_examined == self.space, "wrong number of profiles")
        first = output.first_equilibrium
        _require((first is not None) == (output.equilibria_found > 0), "inconsistent summary")
        if first is not None:
            _require(
                all(first[u] == pins[0] for u, pins in op.items()), "equilibrium breaks a pin"
            )
            _require(is_pure_nash(self.game, first, engine=False), "reported equilibrium unstable")
        if deep:
            _require(output == self.execute(op, engine=False), "differs from the reference search")

    def trace_hooks(self) -> Dict[str, Callable]:
        def note(args, kwargs, start, op):
            stats = args[0].stats  # args[0] is the SweepEvaluator
            self._evaluator_stats.setdefault(id(stats), stats)

        return {"sweep.check": note}

    def counters(self) -> Dict[str, int]:
        return {
            key: sum(stats[key] for stats in self._evaluator_stats.values())
            for key in ("checks", "full_probes", "memoised_probes")
        }

    def cost_engines(self) -> list:
        return [self.engine]


# ---------------------------------------------------------------------- #
# fractional: Theorem 3 dynamics, the only LP workload
# ---------------------------------------------------------------------- #
class FractionalWorkload(Workload):
    """``iterated_best_response`` on the fractional (8, 2)-uniform game."""

    name = "fractional"
    unit = "fractional best responses"
    ops_per_second = 5.5
    deep_checks = 2
    N, K, MAX_TARGETS = 8, 2, 4
    #: Round budget per run.  Uncapped runs from seeded starts take 2 to 7
    #: rounds (mostly 3 or 4), which made the median run flip between modes
    #: from seed to seed; two rounds and the closing report make nearly every
    #: run the same 24 best responses.
    ROUNDS = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro import FractionalBBCGame, UniformBBCGame
        from repro.engine.fractional_engine import get_fractional_engine

        self.game = FractionalBBCGame(UniformBBCGame(self.N, self.K))
        self.engine = get_fractional_engine(self.game)

    def make_op(self):
        """A seeded start: each node spreads its budget over 1-4 random targets."""
        from repro.core.fractional import FractionalProfile

        rng, strategies = self.rng, {}
        for u in range(self.N):
            targets = random_targets(rng, self.N, u, rng.randint(1, self.MAX_TARGETS))
            shares = [rng.random() + 0.1 for _ in targets]
            total = sum(shares)
            strategies[u] = {t: self.K * s / total for t, s in zip(targets, shares)}
        return FractionalProfile(strategies)

    def execute(self, op, engine=None):
        from repro.core.fractional import iterated_best_response

        return iterated_best_response(
            self.game, op, max_rounds=self.ROUNDS, tolerance=FRACTIONAL_TOLERANCE, engine=engine
        )

    def work(self, op, output) -> int:
        # Each round probes every node; the closing report probes each once more.
        return (output.rounds + 1) * self.N

    def check(self, op, output, deep: bool, rng: random.Random) -> None:
        self.game.validate_profile(output.profile)
        _require(len(output.cost_history) == output.rounds + 1, "cost history length")
        _require(
            output.converged == (output.max_final_regret <= FRACTIONAL_TOLERANCE),
            "converged flag disagrees with the final regret",
        )
        if deep:
            ref = self.execute(op, engine=False)
            _require(
                (ref.rounds, ref.converged) == (output.rounds, output.converged),
                "rounds differ from the reference",
            )
            close = all(
                abs(a - b) <= FRACTIONAL_PARITY
                for a, b in zip(ref.cost_history, output.cost_history)
            ) and all(
                abs(ref.profile.capacity(u, v) - output.profile.capacity(u, v))
                <= FRACTIONAL_PARITY
                for u in range(self.N)
                for v in range(self.N)
            )
            _require(close, "differs from the FlowNetwork/dense-LP reference beyond 1e-9")

    def counters(self) -> Dict[str, int]:
        return {k: self.engine.stats[k] for k in ("lp_solved", "lp_skipped")}


# ---------------------------------------------------------------------- #
# service: closed-loop clients of a GameService hosting two games
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Request:
    game: str
    #: A read :class:`~repro.service.Query`, or ``None`` for an update.
    query: object = None
    node: int = 0
    strategy: tuple = ()


@dataclass(frozen=True)
class Served:
    request: Request
    response: object
    latency: float


@dataclass
class Segment:
    """What one segment served, and the profiles it started and ended at."""

    start: Dict[str, object]
    served: List[Served] = field(default_factory=list)
    end: Dict[str, object] = field(default_factory=dict)


class ServiceWorkload(Workload):
    """A ``GameService`` with 8 closed-loop clients on each of two games.

    One unit is one segment: every client sends :data:`SEGMENT_REQUESTS`
    requests, each after the reply to its previous one, one of them a
    single-node update, and the queues drain before the next segment.

    Each segment is served by a fresh service registered, outside the timed
    region, at the profiles the previous segment left.  A long-lived engine's
    repair work grows with its row cache -- on one service the update-carrying
    segments slowed from 1.4 s to 15 s over 34 segments while the cache grew
    past 100 MB -- so a service kept across segments never reaches a steady
    state a fixed run could measure.
    """

    name = "service"
    unit = "requests"
    #: Segments per second at reference speed.
    ops_per_second = 0.9
    CLIENTS, SEGMENT_REQUESTS = 8, 16
    #: Position of each client's update within its segment: reads follow it,
    #: so the lazy row repairs it causes fall inside the segment.
    UPDATE_AT = 7
    #: Shares of each game's reads per segment besides ``cost`` (the rest):
    #: about 50% cost, 25% what_if, 23% best_response and 2% report.  The
    #: counts are fixed per segment so that every run does the same mix.
    READ_MIX = {"what_if": 0.25, "best_response": 0.225, "report": 0.025}
    UNIFORM_N, FRIENDS_N, K = 256, 64, 2
    BEST_RESPONSE_CANDIDATES, REPORT_CANDIDATES = 8, 3
    #: Share of read responses re-derived by direct library calls.
    SAMPLED_READS = 1 / 8
    #: A segment still running after this long has lost a request.
    SEGMENT_TIMEOUT_S = 120

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro import UniformBBCGame
        from repro.experiments.workloads import random_preference_game

        rng = self.rng
        self.games = {
            "uniform": UniformBBCGame(self.UNIFORM_N, self.K),
            "friends": random_preference_game(
                self.FRIENDS_N, budget=self.K, seed=rng.randrange(2**31)
            ),
        }
        self.profiles = {
            name: random_profile(rng, game.num_nodes, self.K) for name, game in self.games.items()
        }
        self._clients = {
            name: [random.Random(f"{name}:{c}:{rng.random()}") for c in range(self.CLIENTS)]
            for name in self.games
        }
        self.loop = asyncio.new_event_loop()
        self.service = None
        #: Engine and batch counters of services already closed.
        self._retired: Dict[str, float] = {}
        #: Submit time of each in-flight query, by ``id``; read by the trace hook.
        self.submitted: Dict[int, float] = {}
        self.queue_waits: List[tuple] = []
        self.prepare(None)

    def _request(self, name: str, crng: random.Random, kind: Optional[str]) -> Request:
        """A request of ``kind`` (``None``: an update) with seeded node and targets."""
        from repro.service import Query

        n = self.games[name].num_nodes
        node = crng.randrange(n)
        if kind is None:
            return Request(name, None, node, tuple(random_targets(crng, n, node, self.K)))
        if kind == "cost":
            query = Query(kind="cost", node=node)
        elif kind == "what_if":
            query = Query(
                kind="what_if", node=node, strategy=tuple(random_targets(crng, n, node, self.K))
            )
        elif kind == "best_response":
            query = Query(
                kind="best_response",
                node=node,
                candidates=tuple(random_targets(crng, n, node, self.BEST_RESPONSE_CANDIDATES)),
            )
        else:
            query = Query(
                kind="report",
                candidates={
                    u: random_targets(crng, n, u, self.REPORT_CANDIDATES) for u in range(n)
                },
            )
        return Request(name, query)

    def _read_kinds(self) -> List[str]:
        """One game's reads in a segment: the fixed mix in a fixed order.

        The order is the same in every segment and for every seed: where the
        heavy reports fall relative to the updates decides how many cached
        rows the updates leave to repair, so a seeded order made the
        per-run work differ by a quarter between seeds.
        """
        total = self.CLIENTS * (self.SEGMENT_REQUESTS - 1)
        counts = {kind: round(total * share) for kind, share in self.READ_MIX.items()}
        kinds = ["cost"] * (total - sum(counts.values()))
        for kind, count in counts.items():
            kinds += [kind] * count
        random.Random("service-read-order").shuffle(kinds)
        return kinds

    def make_op(self) -> List[List[Request]]:
        """One segment: a request list per client."""
        segment = []
        for name, clients in self._clients.items():
            reads = iter(self._read_kinds())
            for crng in clients:
                segment.append([
                    self._request(name, crng, None if i == self.UPDATE_AT else next(reads))
                    for i in range(self.SEGMENT_REQUESTS)
                ])
        return segment

    def warm_up(self):
        """One read per client."""
        segment = [[r for r in requests if r.query is not None][:1] for requests in self.make_op()]
        return self.execute(segment)

    def _close_service(self) -> None:
        if self.service is None:
            return
        for key, value in self.counters().items():
            self._retired[key] = value
        self.loop.run_until_complete(self.service.close())
        self.service = None

    def prepare(self, op) -> bool:
        """Start a fresh service at the current profiles (outside the timed region)."""
        from repro.service import GameService

        self._close_service()
        self.service = GameService()
        for name, game in self.games.items():
            self.service.register(name, game, profile=self.profiles[name])
        return True

    async def _client(self, requests: Sequence[Request], served: List[Served]) -> None:
        service, submitted, clock = self.service, self.submitted, time.perf_counter
        for request in requests:
            started = clock()
            if request.query is None:
                response = await service.update(request.game, request.node, request.strategy)
            else:
                submitted[id(request.query)] = started
                response = await service.submit(request.game, request.query)
            served.append(Served(request, response, clock() - started))

    async def _segment(self, segment) -> Segment:
        result = Segment(start=dict(self.profiles))
        await asyncio.wait_for(
            asyncio.gather(*(self._client(requests, result.served) for requests in segment)),
            self.SEGMENT_TIMEOUT_S,
        )
        self.submitted.clear()
        for name in self.games:
            self.profiles[name] = self.service.catalog.entry(name).profile
        result.end = dict(self.profiles)
        return result

    def execute(self, op) -> Segment:
        return self.loop.run_until_complete(self._segment(op))

    def work(self, op, output) -> int:
        return len(output.served)

    def operations(self, op) -> int:
        return sum(len(requests) for requests in op)

    def latencies(self, output) -> List[float]:
        return [s.latency for s in output.served]

    def trace_hooks(self) -> Dict[str, Callable]:
        def queue_wait(args, kwargs, start, op):
            """Queue wait of every query the ``execute_batch(entry, queries)`` call carries."""
            for query in args[1]:
                submitted = self.submitted.get(id(query))
                if submitted is not None:
                    self.queue_waits.append((op, start - submitted))

        return {"service.execute": queue_wait}

    def check_all(self, results: Sequence[tuple], rng: random.Random) -> int:
        """Check every response; re-derive a sample of reads by direct library calls.

        Each segment's committed updates are replayed in version order to
        rebuild the profile behind every service version, so a read is
        compared with the library's reference path at exactly the version it
        was served at.
        """
        failed = 0
        for _, segment in results:
            versions = {name: {1: profile} for name, profile in segment.start.items()}
            reads, updates = [], []
            for served in segment.served:
                if not served.response.ok:
                    failed += 1
                elif served.request.query is None:
                    updates.append(served)
                else:
                    reads.append(served)
            for served in sorted(updates, key=lambda s: s.response.version):
                history = versions[served.request.game]
                previous = history.get(served.response.version - 1)
                if previous is None:
                    failed += 1
                    continue
                history[served.response.version] = previous.with_strategy(
                    served.request.node, served.request.strategy
                )
            for name, history in versions.items():
                if history[max(history)] != segment.end[name]:
                    failed += 1
            for served in reads:
                if rng.random() >= self.SAMPLED_READS:
                    continue
                try:
                    self._check_read(served, versions[served.request.game])
                except CheckFailed:
                    traceback.print_exc(file=sys.stderr)
                    failed += 1
        return failed

    def _check_read(self, served: Served, versions: Dict[int, object]) -> None:
        from repro import best_response, equilibrium_report

        query, response = served.request.query, served.response
        game = self.games[served.request.game]
        profile = versions.get(response.version)
        _require(profile is not None, "read at an unknown version")
        if query.kind == "cost":
            expected = game.node_cost(profile, query.node)
        elif query.kind == "what_if":
            expected = game.node_cost(profile.with_strategy(query.node, query.strategy), query.node)
        elif query.kind == "best_response":
            ref = best_response(
                game, profile, query.node, candidates=query.candidates, engine=False
            )
            expected = {
                "node": ref.node,
                "current_cost": ref.current_cost,
                "best_cost": ref.best_cost,
                "regret": ref.regret,
                "improved": ref.improved,
                "best_strategy": sorted(ref.best_strategy, key=repr),
            }
        else:
            ref = equilibrium_report(game, profile, candidates=query.candidates, engine=False)
            expected = {
                "is_equilibrium": ref.is_equilibrium,
                "max_regret": ref.max_regret,
                "unstable_nodes": sorted(ref.unstable_nodes, key=repr),
                "nodes_checked": len(ref.responses),
            }
        _require(response.payload == expected, f"{query.kind}: differs from the library call")

    def _live(self) -> list:
        return [self.service.catalog.entry(name) for name in self.games] if self.service else []

    def cost_engines(self) -> list:
        return [entry.engine for entry in self._live()]

    def engine_stats(self) -> Dict[str, float]:
        stats = super().engine_stats()
        return {key: stats[key] + self._retired.get(f"engine.{key}", 0) for key in stats}

    def counters(self) -> Dict[str, int]:
        live = {
            "batches": sum(entry.metrics.batches for entry in self._live()),
            "batched_queries": sum(entry.metrics.batched_queries for entry in self._live()),
            **{f"engine.{k}": v for k, v in super().engine_stats().items()},
        }
        return {key: value + self._retired.get(key, 0) for key, value in live.items()}

    def close(self) -> None:
        if not self.loop.is_closed():
            self._close_service()
            self.loop.close()


WORKLOADS = {
    cls.name: cls
    for cls in (ReportWorkload, WalkWorkload, SweepWorkload, FractionalWorkload, ServiceWorkload)
}
