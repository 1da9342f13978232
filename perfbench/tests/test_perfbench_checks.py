"""A corrupted operation output counts as a failed operation."""

import dataclasses

import pytest

from perfbench import hostprobe, runner
from perfbench.workloads import ServiceWorkload, SweepWorkload


def run_pass(workload, ops, corrupt=None):
    if corrupt is not None:
        execute = workload.execute
        workload.execute = lambda op: corrupt(execute(op))
    timed = runner.timed_pass(workload, ops, hostprobe.HostProbe(p_ref=1e-3))
    runner.check(workload, timed, seed=0)
    return timed


@pytest.fixture(scope="module")
def sweep():
    workload = SweepWorkload(seed=5)
    ops = workload.make_ops(3)
    yield workload, ops
    workload.close()


def test_sweep_outputs_pass_their_checks(sweep):
    timed = run_pass(*sweep)
    assert (timed.attempted, timed.failed) == (3, 0)
    assert timed.work == 3 * sweep[0].space
    assert len(timed.latencies_scaled) == 3


def test_corrupted_sweep_summary_raises_failed_ratio(sweep):
    def corrupt(summary):
        return dataclasses.replace(summary, profiles_examined=summary.profiles_examined - 1)

    timed = run_pass(*sweep, corrupt=corrupt)
    assert timed.failed / timed.attempted == 1.0


def test_raising_operation_counts_as_failed(sweep):
    def corrupt(summary):
        raise RuntimeError("operation crashed")

    timed = run_pass(*sweep, corrupt=corrupt)
    assert (timed.attempted, timed.failed, timed.work) == (3, 3, 0)


@pytest.fixture()
def service():
    workload = ServiceWorkload(seed=5)
    workload.SEGMENT_REQUESTS = 4
    workload.UPDATE_AT = 1
    ops = workload.make_ops(2)
    yield workload, ops
    workload.close()


def test_service_outputs_pass_their_checks(service):
    timed = run_pass(*service)
    assert timed.attempted == 2 * 16 * 4
    assert timed.failed == 0
    assert len(timed.latencies_scaled) == timed.attempted


def test_corrupted_service_payloads_raise_failed_ratio(service):
    def corrupt(segment):
        segment.served[:] = [
            dataclasses.replace(s, response=dataclasses.replace(s.response, payload=-1.0))
            if s.request.query is not None and s.request.query.kind == "cost"
            else s
            for s in segment.served
        ]
        return segment

    timed = run_pass(*service, corrupt=corrupt)
    assert timed.failed > 0


def test_typed_service_error_counts_as_failed(service):
    def corrupt(segment):
        first = segment.served[0]
        error = dataclasses.replace(first.response, payload=None, error="QueryFailedError")
        segment.served[0] = dataclasses.replace(first, response=error)
        return segment

    timed = run_pass(*service, corrupt=corrupt)
    assert timed.failed >= 2  # one per corrupted segment
