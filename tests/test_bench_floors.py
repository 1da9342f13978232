"""Exit-code contract of the benchmark regression gate (``--check-floors``).

The CI floor gate re-reads ``BENCH_speed.json`` and must fail loudly on a
regression but never on noise: smoke-recorded modes are exempt (their tiny
sizes make ratios meaningless) and giant-only rows carry no speedup to gate.
These tests drive :func:`bench_speed.check_floors` against synthetic
trajectory files so the gate's behaviour is pinned without running any
benchmark.
"""

import json
import pathlib
import sys

import pytest

SCRIPTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS_DIR))

import bench_speed  # noqa: E402


def _write(tmp_path, payload):
    path = tmp_path / "BENCH_speed.json"
    path.write_text(json.dumps(payload))
    return path


def _backend_payload(*, smoke=False, giant_speedup=9.0, dijkstra_speedup=9.0):
    return {
        "benchmark": "bench_speed",
        "backend_results": [
            {"task": "backend_dijkstra_report", "n": 1024, "speedup": dijkstra_speedup},
            {"task": "backend_giant_bfs_report", "n": 4096, "speedup": giant_speedup},
            # A giant-only row (no per-node arm timed): never gated.
            {"task": "backend_giant_bfs_report", "n": 16384, "engine_seconds": 5.0},
        ],
        "backend_meta": {"repeats": 1, "smoke": smoke},
    }


def test_missing_file_fails(tmp_path, capsys):
    assert bench_speed.check_floors(tmp_path / "BENCH_speed.json") == 1
    assert "run the benchmarks first" in capsys.readouterr().err


def test_corrupt_json_exits_two_with_distinct_message(tmp_path, capsys):
    # A recording that exists but cannot be parsed is its own failure class
    # (exit 2): with atomic writes it signals disk corruption or a manual
    # edit, not an interrupted benchmark.
    path = tmp_path / "BENCH_speed.json"
    path.write_text("{not json")
    assert bench_speed.check_floors(path) == 2
    err = capsys.readouterr().err
    assert "CORRUPT RECORDING" in err and "atomic" in err


def test_passing_floors_exit_zero_and_name_checked_modes(tmp_path, capsys):
    path = _write(tmp_path, _backend_payload())
    assert bench_speed.check_floors(path) == 0
    out = capsys.readouterr().out
    assert "floors ok" in out and "backend" in out


def test_empty_payload_passes_with_no_checked_modes(tmp_path, capsys):
    path = _write(tmp_path, {"benchmark": "bench_speed"})
    assert bench_speed.check_floors(path) == 0
    assert "(none)" in capsys.readouterr().out


def test_giant_floor_violation_fails(tmp_path, capsys):
    path = _write(tmp_path, _backend_payload(giant_speedup=1.4))
    assert bench_speed.check_floors(path) == 1
    err = capsys.readouterr().err
    assert "backend_giant_bfs_report" in err and "1.40x" in err


def test_dijkstra_floor_violation_fails(tmp_path, capsys):
    path = _write(tmp_path, _backend_payload(dijkstra_speedup=2.0))
    assert bench_speed.check_floors(path) == 1
    assert "backend_dijkstra_report" in capsys.readouterr().err


def test_smoke_recorded_mode_is_exempt(tmp_path, capsys):
    path = _write(tmp_path, _backend_payload(smoke=True, giant_speedup=0.5))
    assert bench_speed.check_floors(path) == 0
    assert "(none)" in capsys.readouterr().out


def test_gate_only_reads_the_largest_compared_giant_row(tmp_path):
    # A slow small-n giant row must not trip the gate when the largest
    # compared size clears the floor (the floor certifies the asymptotic win).
    payload = _backend_payload()
    payload["backend_results"].append(
        {"task": "backend_giant_bfs_report", "n": 64, "speedup": 0.9}
    )
    assert bench_speed.check_floors(_write(tmp_path, payload)) == 0


def test_core_floor_gates_only_large_sizes(tmp_path, capsys):
    payload = {
        "results": [
            {"task": "equilibrium_report", "n": 8, "speedup": 0.5},
            {"task": "equilibrium_report", "n": 64, "speedup": 2.0},
        ],
        "core_meta": {"smoke": False},
    }
    assert bench_speed.check_floors(_write(tmp_path, payload)) == 1
    err = capsys.readouterr().err
    # Only the n=64 row violates: small sizes are below the gated range.
    assert err.count("FLOOR VIOLATION") == 1 and "n=64" in err


@pytest.mark.parametrize("speedup,expected", [(3.0, 0), (2.99, 1)])
def test_giant_floor_boundary(tmp_path, speedup, expected):
    path = _write(tmp_path, _backend_payload(giant_speedup=speedup))
    assert bench_speed.check_floors(path) == expected


def test_incremental_walk_floor_gates_the_largest_walk_against_the_reference(
    tmp_path, capsys
):
    # The walk floor compares the engine with the dict-based reference, so
    # a 3.6x walk no longer clears it.  Only the largest walk is gated.
    def payload(speedup):
        return {
            "incremental_results": [
                {"task": "incremental_walk", "n": 32, "speedup": 2.4},
                {"task": "incremental_walk", "n": 64, "speedup": speedup},
            ],
            "incremental_meta": {"smoke": False},
        }

    floor = bench_speed.INCREMENTAL_WALK_FLOOR
    assert floor >= 9.0
    assert bench_speed.check_floors(_write(tmp_path, payload(floor))) == 0
    assert "incremental" in capsys.readouterr().out
    assert bench_speed.check_floors(_write(tmp_path, payload(3.6))) == 1
    err = capsys.readouterr().err
    assert err.count("FLOOR VIOLATION") == 1
    assert "incremental_walk" in err and "n=64" in err
