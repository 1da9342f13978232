"""Benchmark entry point: one workload (or all five), checked and measured.

    python3 perfbench/run.py --workload report --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures every end-to-end metric of ``BENCHMARK.json``,
``--trace 1`` every per-layer metric (spans go to ``.perfbench_out/``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Workloads, units,
the host-speed reference and the per-layer to end-to-end mapping are
recorded in ``perfbench/spec.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("report", "walk", "sweep", "fractional", "service")


def _metric_units(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _run_all(args) -> int:
    """Run every workload in its own process and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    from perfbench import runner

    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    units = _metric_units(args.trace)
    OUT.mkdir(exist_ok=True)
    if args.trace:
        result = runner.traced(
            args.workload, args.seed, args.seconds, spec["p_ref_s"],
            OUT / f"spans-{args.workload}.json",
        )
    else:
        result = runner.end_to_end(args.workload, args.seed, args.seconds, spec["p_ref_s"])
    if set(result["metrics"]) != set(units):
        raise RuntimeError(
            f"metrics {sorted(result['metrics'])} do not match BENCHMARK.json {sorted(units)}"
        )
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8"
    )

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}: seed {args.seed}, {attempted} operations attempted, "
          f"{result['work']} {result['unit']} and {result['latency_samples']} latency samples "
          f"in the {'untraced pass' if args.trace else 'timed pass'}")
    for name, value in result["metrics"].items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    print(f"  {'failed_ratio':<28} {failed / attempted:>14.6g} fraction")
    for name, value in result.get("host", {}).items():
        unit = "ms" if name.endswith("_ms") else "1/s" if name.endswith("_per_s") else "s"
        print(f"  {name:<28} {value:>14.6g} {unit} (host, unscaled)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
