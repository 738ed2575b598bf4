"""Smoke test of the benchmark suite: every workload at its quick size,
untraced and then traced, in this process."""

import pytest

from .cli import end_to_end, load_spec
from .harness import measure
from .layers import Recorder, self_times
from .workloads import WORKLOADS

SPEC = load_spec()


def _declared(kind):
    return {entry["name"] for entry in SPEC[kind]}


def _quick(name, trace, seed=5):
    workload = WORKLOADS[name](seed, quick=True)
    recorder = Recorder(enabled=trace)
    run = measure(workload, 0, recorder, one_round=True)
    return workload, recorder, run


def test_declared_workloads_exist():
    assert _declared("workloads") == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_quick_run(name):
    plain_workload, _, plain = _quick(name, trace=False)
    traced_workload, recorder, traced = _quick(name, trace=True)

    assert plain.attempted >= 1 and plain.failed == 0
    assert traced.attempted >= 1 and traced.failed == 0
    assert set(end_to_end(plain, [1.0])) == _declared("end_to_end")
    assert set(recorder.per_layer(traced)) == _declared("per_layer")
    # the same seed gives the same operations and the same exact counts
    assert plain_workload.log == traced_workload.log
    assert dict(plain.counts) == dict(traced.counts)
    # self times account for the traced wall time, nothing counted twice
    assert 0.95 <= recorder.coverage(traced.wall) <= 1.0 + 1e-9


def test_self_times_nested_and_overlapping():
    spans = [
        {"id": 0, "name": "root", "t0": 0.0, "t1": 10.0},
        {"id": 1, "name": "child", "t0": 2.0, "t1": 5.0},
        # begin/end spans may overlap without nesting: the later one wins
        {"id": 2, "name": "update", "t0": 6.0, "t1": 9.0},
        {"id": 3, "name": "tx", "t0": 7.0, "t1": 9.5},
    ]
    assert self_times(spans) == {"root": 3.5, "child": 3.0, "update": 1.0,
                                 "tx": 2.5}
