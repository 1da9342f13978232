"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper, prints it, and
writes it to ``benchmarks/output/<name>.txt``, where the committed copy
records the last run's results.

Each check runs its body once through ``benchmark.pedantic(fn, rounds=1,
iterations=1)``.  When the pytest-benchmark plugin is not active (not
installed, or disabled with ``-p no:benchmark``), a stand-in ``benchmark``
fixture that just calls ``fn`` keeps the checks running.
"""

import pathlib

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def save_table(name: str, text: str) -> None:
    """Print a rendered table and persist it under ``benchmarks/output``."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


class _RunOnce:
    """The slice of pytest-benchmark's fixture the paper checks use."""

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1, **_):
        return fn(*args, **(kwargs or {}))


class _BenchmarkStandIn:
    @pytest.fixture
    def benchmark(self):
        return _RunOnce()


def pytest_configure(config):
    if not config.pluginmanager.hasplugin("benchmark"):
        config.pluginmanager.register(_BenchmarkStandIn(), "benchmark-stand-in")
