"""Time one workload's set-up in a fresh process.

Set-up runs from the first statement of this process, before ``import
repro``, to the first result: imports, building the games, engines and
service catalog, and one warm-up operation.  Prints ``{"setup_s": ...}``
(unscaled; the parent scales it by the host probes around this process).

    python3 perfbench/setup_child.py --workload report --seed 1
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    elapsed = time.perf_counter() - STARTED
    workload.close()
    print(json.dumps({"setup_s": elapsed}))


if __name__ == "__main__":
    main()
