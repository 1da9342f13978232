"""Load generator and fault drill for the always-on game service.

Drives a :class:`~repro.service.GameService` hosting three live games — a
uniform game, a weighted "friend finder" preference game, and a fractional
game — with a seeded, fully deterministic query script: waves of concurrent
reads (cost / what-if / best-response, with a restricted equilibrium report
per game) submitted through ``GameService.gather`` so they coalesce into
giant batches, interleaved with single-node strategy updates whose stale
rows the engines repair in place (list backend) or refill in the next giant
batch (numpy backend).

The run records ``benchmarks/output/BENCH_service.json``: one row per game
(exact query/batch/cache counters from the per-game metrics registry plus
p50/p99 latency) and a ``service_total`` row whose throughput and batch
coalescing factor are floor-gated by ``scripts/bench_speed.py
--check-floors`` (the floors themselves live in ``bench_speed`` next to
every other regression floor).

``--drill`` additionally runs the fault drill CI executes on both dependency
legs: the same deterministic script twice — once healthy, once under a
seeded :class:`~repro.reliability.FaultPlan` injecting an LP solver failure,
a poisoned cache row, a chunk-build failure, and handler crashes at the two
service sites — asserting that **every** drilled response is either
bit-identical to its healthy twin or the documented
:class:`~repro.reliability.InjectedFault` typed error.  State-changing
injections are pinned by key to the final update of the script, so a drilled
failure can never fork the version history the remaining reads compare
against.

Usage::

    PYTHONPATH=src python scripts/bench_service.py             # record + floors
    PYTHONPATH=src python scripts/bench_service.py --smoke     # tiny sizes
    PYTHONPATH=src python scripts/bench_service.py --drill     # + fault drill
"""

import argparse
import asyncio
import json
import pathlib
import platform
import sys
import time
import warnings

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "scripts"))

from bench_speed import (  # noqa: E402
    SERVICE_COALESCING_FLOOR,
    SERVICE_QPS_FLOOR,
    _service_floor_violations,
)

from repro.core import FractionalBBCGame, UniformBBCGame  # noqa: E402
from repro.experiments.workloads import random_preference_game  # noqa: E402
from repro.reliability import (  # noqa: E402
    FaultPlan,
    FaultRule,
    active_faults,
    atomic_write_text,
)
from repro.rng import as_rng  # noqa: E402
from repro.service import GameService, Query  # noqa: E402

OUTPUT_DIR = REPO_ROOT / "benchmarks" / "output"
WORKLOAD_SEED = 20080  # PODC 2008, where the source paper appeared
WEIGHTED_GAME_SEED = 11

#: Errors a drilled response may show instead of its healthy twin's payload.
#: Everything else the service can return is deterministic under injection
#: (LP fallbacks, verified row rebuilds, chunk-build degradation), so the
#: only *visible* drill outcome is the injected handler failure itself.
DOCUMENTED_DRILL_ERRORS = frozenset({"InjectedFault"})

#: The reserved node whose final strategy update the drill's
#: ``service.update`` rule pins to (regular script updates avoid it, so the
#: one state-changing injection lands after every compared read).
DRILL_UPDATE_NODE = 0


# --------------------------------------------------------------------- #
# Deterministic workload script
# --------------------------------------------------------------------- #
def _integral_wave(game, rng, clients):
    """One wave of concurrent reads for an integral game."""
    nodes = list(game.nodes)
    queries = []
    for _ in range(clients):
        node = nodes[rng.randrange(len(nodes))]
        others = [v for v in nodes if v != node]
        roll = rng.random()
        if roll < 0.5:
            queries.append(Query(kind="cost", node=node))
        elif roll < 0.75:
            targets = rng.sample(others, min(2, len(others)))
            queries.append(Query(kind="what_if", node=node, strategy=tuple(targets)))
        else:
            candidates = rng.sample(others, min(3, len(others)))
            queries.append(
                Query(kind="best_response", node=node, candidates=tuple(candidates))
            )
    return queries


def _integral_update(game, rng, reserve_node=None):
    """One single-node strategy update (a ``reserve_node`` is never picked)."""
    nodes = [v for v in game.nodes if v != reserve_node]
    node = nodes[rng.randrange(len(nodes))]
    others = [v for v in game.nodes if v != node]
    return node, tuple(rng.sample(others, min(2, len(others))))


def _fractional_wave(game, rng, clients):
    nodes = list(game.nodes)
    queries = []
    for _ in range(clients):
        node = nodes[rng.randrange(len(nodes))]
        others = [v for v in nodes if v != node]
        roll = rng.random()
        if roll < 0.4:
            queries.append(Query(kind="cost", node=node))
        elif roll < 0.7:
            target = others[rng.randrange(len(others))]
            queries.append(Query(kind="what_if", node=node, strategy={target: 1.0}))
        else:
            queries.append(Query(kind="best_response", node=node))
    return queries


def _fractional_update(game, rng):
    nodes = list(game.nodes)
    node = nodes[rng.randrange(len(nodes))]
    others = [v for v in nodes if v != node]
    target = others[rng.randrange(len(others))]
    return node, {target: 1.0}


def build_script(game, kind, *, waves, clients, seed, reserve_node=None):
    """The deterministic per-game script: ``waves`` (queries, update) pairs.

    Every wave's reads are submitted together (one coalesced batch), then
    its update commits.  A restricted equilibrium report rides the final
    wave, so each script exercises the giant-batch report staging too.
    """
    rng = as_rng(seed)
    script = []
    for wave_index in range(waves):
        if kind == "fractional":
            queries = _fractional_wave(game, rng, clients)
            update = _fractional_update(game, rng)
        else:
            queries = _integral_wave(game, rng, clients)
            update = _integral_update(game, rng, reserve_node=reserve_node)
        if wave_index == waves - 1:
            if kind == "fractional":
                queries.append(Query(kind="report"))
            else:
                nodes = list(game.nodes)
                candidates = {
                    node: rng.sample([v for v in nodes if v != node], 2)
                    for node in nodes
                }
                queries.append(Query(kind="report", candidates=candidates))
        script.append((queries, update))
    return script


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #
async def _drive_game(service, name, script):
    """Run one game's script; return its responses in submission order."""
    responses = []
    for queries, update in script:
        responses.extend(await service.gather(name, queries))
        if update is not None:
            responses.append(await service.update(name, update[0], update[1]))
    return responses


def _register_catalog(service, specs, *, verify_every=None):
    for name, game, kind in specs:
        if kind == "fractional":
            service.register(name, game)
        else:
            service.register(name, game, verify_every=verify_every)


async def _run_scripts(specs, scripts, *, verify_every=None, tail_updates=()):
    """One full service run: returns (per-game responses, stats, seconds)."""
    async with GameService() as service:
        _register_catalog(service, specs, verify_every=verify_every)
        started = time.perf_counter()
        streams = await asyncio.gather(
            *(_drive_game(service, name, scripts[name]) for name, _, _ in specs)
        )
        responses = {name: stream for (name, _, _), stream in zip(specs, streams)}
        for name, node, strategy in tail_updates:
            responses[name].append(await service.update(name, node, strategy))
        elapsed = time.perf_counter() - started
        stats = {}
        for name, _, _ in specs:
            stats[name] = (await service.stats(name)).payload
    return responses, stats, elapsed


# --------------------------------------------------------------------- #
# The load phase (records BENCH_service.json)
# --------------------------------------------------------------------- #
def load_specs(smoke):
    n_uniform = 8 if smoke else 24
    n_weighted = 6 if smoke else 16
    n_fractional = 4 if smoke else 6
    return [
        ("uniform", UniformBBCGame(n_uniform, 2), "integral"),
        (
            "weighted",
            random_preference_game(n_weighted, budget=2, seed=WEIGHTED_GAME_SEED),
            "integral",
        ),
        ("fractional", FractionalBBCGame(UniformBBCGame(n_fractional, 1)), "fractional"),
    ]


def run_load(smoke):
    specs = load_specs(smoke)
    waves = 2 if smoke else 6
    clients = 6 if smoke else 12
    scripts = {}
    for offset, (name, game, kind) in enumerate(specs):
        game_waves = max(2, waves // 2) if kind == "fractional" else waves
        game_clients = max(3, clients // 4) if kind == "fractional" else clients
        scripts[name] = build_script(
            game,
            kind,
            waves=game_waves,
            clients=game_clients,
            seed=WORKLOAD_SEED + offset,
        )
    responses, stats, elapsed = asyncio.run(_run_scripts(specs, scripts))

    rows = []
    total_queries = 0
    total_batches = 0
    total_batched = 0
    for name, game, kind in specs:
        payload = stats[name]
        queries = sum(payload["queries"].values())
        total_queries += queries
        total_batches += payload["batches"]
        total_batched += payload["batched_queries"]
        rows.append(
            {
                "task": "service_game",
                "game": name,
                "kind": kind,
                "n": len(tuple(game.nodes)),
                "queries": queries,
                "updates": payload["updates"],
                "errors": sum(payload["errors"].values()),
                "batches": payload["batches"],
                "max_batch": payload["max_batch"],
                "coalescing_factor": payload["coalescing_factor"],
                "cache_hit_rate": payload["cache_hit_rate"],
                "latency_p50_s": payload["latency_p50_s"],
                "latency_p99_s": payload["latency_p99_s"],
                "engine": payload["engine"],
            }
        )
    rows.append(
        {
            "task": "service_total",
            "games": len(specs),
            "queries": total_queries,
            "seconds": elapsed,
            "qps": total_queries / elapsed if elapsed > 0 else 0.0,
            "coalescing_factor": (
                total_batched / total_batches if total_batches else 0.0
            ),
        }
    )
    failed = {
        name: [r for r in stream if not r.ok]
        for name, stream in responses.items()
    }
    return rows, failed


# --------------------------------------------------------------------- #
# The fault drill (--drill)
# --------------------------------------------------------------------- #
def drill_plan():
    """The seeded injection set the drill arms on its second run."""
    return FaultPlan(
        seed=WORKLOAD_SEED,
        rules=(
            # Handler failure on the first two uniform cost dispatches:
            # surfaces as the documented InjectedFault typed error response.
            FaultRule(site="service.query", keys=[("uniform", "cost")], times=2),
            # Write-side failure, pinned to the reserved final update so the
            # rejected commit cannot fork the versions earlier reads compare.
            FaultRule(site="service.update", keys=[("uniform", DRILL_UPDATE_NODE)]),
            # Engine-level injections: all absorbed below the response
            # surface (verified rebuild, per-node degradation, LP fallback).
            FaultRule(site="engine.row-poison", times=1),
            FaultRule(site="engine.chunk-build", times=1),
            FaultRule(site="fractional.lp-solve", times=2),
        ),
    )


def run_drill(smoke):
    specs = [
        ("uniform", UniformBBCGame(6 if smoke else 10, 2), "integral"),
        ("fractional", FractionalBBCGame(UniformBBCGame(4 if smoke else 5, 1)), "fractional"),
    ]
    scripts = {}
    for offset, (name, game, kind) in enumerate(specs):
        scripts[name] = build_script(
            game,
            kind,
            waves=2 if smoke else 3,
            clients=3 if smoke else 6,
            seed=WORKLOAD_SEED + 100 + offset,
            reserve_node=DRILL_UPDATE_NODE if kind == "integral" else None,
        )
    # The reserved update the service.update rule is pinned to; it runs
    # after every compared read so its typed failure is the stream's tail.
    tail = [("uniform", DRILL_UPDATE_NODE, (1, 2))]

    healthy, _, _ = asyncio.run(
        _run_scripts(specs, scripts, verify_every=1, tail_updates=tail)
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with active_faults(drill_plan()):
            drilled, drilled_stats, _ = asyncio.run(
                _run_scripts(specs, scripts, verify_every=1, tail_updates=tail)
            )
    verify_warnings = sum(
        1 for w in caught if "self-verification" in str(w.message)
    )

    identical = 0
    typed_errors = 0
    mismatches = []
    for name, _, _ in specs:
        healthy_stream = healthy[name]
        drilled_stream = drilled[name]
        assert len(healthy_stream) == len(drilled_stream)
        for index, (want, got) in enumerate(zip(healthy_stream, drilled_stream)):
            if want.comparable() == got.comparable():
                identical += 1
            elif got.error in DOCUMENTED_DRILL_ERRORS:
                typed_errors += 1
            else:
                mismatches.append(
                    {
                        "game": name,
                        "index": index,
                        "kind": got.kind,
                        "healthy": repr(want.comparable()),
                        "drilled": repr(got.comparable()),
                    }
                )
    engine_counters = drilled_stats["uniform"]["engine"]
    return {
        "responses": identical + typed_errors + len(mismatches),
        "identical": identical,
        "typed_errors": typed_errors,
        "mismatches": mismatches,
        "row_verify_failures": engine_counters.get("row_verify_failures", 0),
        "verify_warnings": verify_warnings,
        "injected_rules": len(drill_plan().rules),
    }


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #
def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes for CI wiring checks"
    )
    parser.add_argument(
        "--drill",
        action="store_true",
        help="also run the healthy-vs-injected fault drill and assert parity",
    )
    args = parser.parse_args()

    rows, failed = run_load(args.smoke)
    total = rows[-1]
    print(
        f"service load: {total['queries']} queries over {total['games']} games "
        f"in {total['seconds']:.3f}s -> {total['qps']:.1f} q/s, "
        f"coalescing factor {total['coalescing_factor']:.2f}"
    )
    for row in rows[:-1]:
        print(
            f"  {row['game']:<12} n={row['n']:<5} queries={row['queries']:<4} "
            f"errors={row['errors']:<3} batches={row['batches']:<3} "
            f"max_batch={row['max_batch']:<3} "
            f"hit_rate={row['cache_hit_rate']:.2f} "
            f"p50={row['latency_p50_s'] * 1e3:.2f}ms "
            f"p99={row['latency_p99_s'] * 1e3:.2f}ms"
        )
    for name, failures in failed.items():
        for response in failures:
            print(f"  note: {name} {response.kind} -> {response.error}")

    payload = {
        "benchmark": "bench_service",
        "service_meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "smoke": bool(args.smoke),
            "seed": WORKLOAD_SEED,
            "qps_floor": SERVICE_QPS_FLOOR,
            "coalescing_floor": SERVICE_COALESCING_FLOOR,
        },
        "service_results": rows,
    }

    exit_code = 0
    if args.drill:
        drill = run_drill(args.smoke)
        payload["service_drill"] = drill
        print(
            f"fault drill: {drill['responses']} responses -> "
            f"{drill['identical']} bit-identical, "
            f"{drill['typed_errors']} documented typed errors, "
            f"{len(drill['mismatches'])} mismatches "
            f"(row verify failures: {drill['row_verify_failures']})"
        )
        for mismatch in drill["mismatches"]:
            print(f"DRILL MISMATCH: {mismatch}", file=sys.stderr)
        if drill["mismatches"]:
            exit_code = 1
        if not drill["typed_errors"]:
            print(
                "DRILL MISMATCH: no injected handler failure surfaced — the "
                "service.query/service.update rules never fired",
                file=sys.stderr,
            )
            exit_code = 1

    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    json_path = OUTPUT_DIR / "BENCH_service.json"
    atomic_write_text(json_path, json.dumps(payload, indent=2) + "\n")
    print(f"wrote {json_path}")

    if not args.smoke:
        violations = _service_floor_violations(rows)
        for violation in violations:
            print(f"FLOOR VIOLATION: {violation}", file=sys.stderr)
        if violations:
            exit_code = 1
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
