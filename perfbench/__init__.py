"""The repository benchmark: five seeded paper workloads, checked and timed.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the root of a checkout (see :mod:`perfbench.run`).
Workload definitions and checks live in :mod:`perfbench.workloads`, the
host-speed probe in :mod:`perfbench.hostprobe`, outside-in tracing in
:mod:`perfbench.spans`, and the measurement loop in :mod:`perfbench.runner`.
``perfbench/spec.json`` records the reference probe time, each workload's
unit, seed meaning and checks, and which per-layer metric should move which
end-to-end metric on which workload.
"""
