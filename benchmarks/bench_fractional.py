"""Theorem 3: fractional BBC games always admit (epsilon-)equilibria.

The engine-backed fractional evaluation (shared environment flow networks +
sparse patched best-response LPs) makes dynamics feasible well past the
single-digit sizes the from-scratch path was limited to, so the table now
sweeps up to n = 12 and certifies every final profile with an independent
:func:`epsilon_equilibrium_report`.
"""

import pytest
from conftest import save_table

from repro.analysis import format_table
from repro.core import (
    FractionalBBCGame,
    UniformBBCGame,
    epsilon_equilibrium_report,
    iterated_best_response,
)
from repro.experiments import random_preference_game

try:
    import scipy  # noqa: F401
except ImportError:
    scipy = None


def run_fractional():
    rows = []
    games = {
        "uniform(4,1)": FractionalBBCGame(UniformBBCGame(4, 1)),
        "uniform(5,2)": FractionalBBCGame(UniformBBCGame(5, 2)),
        "uniform(8,2)": FractionalBBCGame(UniformBBCGame(8, 2)),
        "uniform(12,2)": FractionalBBCGame(UniformBBCGame(12, 2)),
        "random(n=5,seed=1)": FractionalBBCGame(
            random_preference_game(5, budget=1, seed=1)
        ),
        "random(n=6,seed=2)": FractionalBBCGame(
            random_preference_game(6, budget=2, seed=2)
        ),
        "random(n=8,seed=3)": FractionalBBCGame(
            random_preference_game(8, budget=2, seed=3)
        ),
    }
    for name, game in games.items():
        result = iterated_best_response(game, max_rounds=15, tolerance=1e-4)
        # Certify with the from-scratch reference path: independent of every
        # cache the engine-backed dynamics just populated.
        report = epsilon_equilibrium_report(
            game, result.profile, epsilon=1e-3, engine=False
        )
        rows.append(
            {
                "game": name,
                "nodes": game.base.num_nodes,
                "rounds": result.rounds,
                "converged": result.converged,
                "max_final_regret": result.max_final_regret,
                "certified_regret": report.max_regret,
                "final_social_cost": game.social_cost(result.profile),
            }
        )
    return rows


@pytest.mark.skipif(
    scipy is None, reason="fractional best responses solve LPs and require scipy"
)
def test_thm3_fractional_equilibria_exist(benchmark):
    rows = benchmark.pedantic(run_fractional, rounds=1, iterations=1)
    table = format_table(
        rows, title="Theorem 3: fractional best-response dynamics (epsilon = 1e-4)"
    )
    save_table("thm3_fractional", table)
    # Theorem 3 guarantees existence; iterated best response finds profiles
    # with negligible regret on every instance tried, and the independent
    # certification agrees with the dynamics' own closing report.
    assert all(row["max_final_regret"] <= 1e-3 for row in rows)
    assert all(row["certified_regret"] <= 1e-3 for row in rows)
