"""Golden pins for the table service's seeded schedule.

``tests/golden/service_runs.json`` holds, for each pinned
:class:`~repro.service.loop.ServiceLoop` run, a sha256 of:

* ``report.to_dict()`` (ticks, commits, rounds, check retries, latency
  percentiles, shard versions);
* ``report.latencies``, every committed request's latency in ticks;
* ``coalescer.trace_jsonl()``, the per-round trace;
* ``sharded.decoded_state()``, the installed ECNs at the end.

The pinned runs are the first three loop seeds of the benchmark suite's
``tenant-service`` workload at seed 1 (100 tenants, 8 shards, churn 2)
and one ``mode="global"`` run at 20 tenants.  A change to the scheduler's
pick sequence, the coalescer or the shard commit path that moves one
tick fails here.  ``tests/golden/service_trace_seed7.jsonl`` covers only
6 tenants and carries no ticks or latencies.  A change that *means* to
move the schedule regenerates the file with::

    PYTHONPATH=src python -m tests.test_service_golden
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.service.loop import ServiceLoop

GOLDEN = Path(__file__).parent / "golden" / "service_runs.json"

#: ``tenant-service`` loop seeds are ``seed * 1_000_003 + run``
RUNS = {
    "sharded-1000003": dict(tenants=100, shards=8, churn=2, seed=1_000_003),
    "sharded-1000004": dict(tenants=100, shards=8, churn=2, seed=1_000_004),
    "sharded-1000005": dict(tenants=100, shards=8, churn=2, seed=1_000_005),
    "global-20": dict(tenants=20, churn=2, seed=1_000_003, mode="global"),
}


def _sha(value) -> str:
    text = value if isinstance(value, str) else json.dumps(value,
                                                           sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def compute_run(config: dict) -> dict:
    loop = ServiceLoop(**config)
    report = loop.run()
    return {"config": config,
            "ticks": report.ticks,
            "report": _sha(report.to_dict()),
            "latencies": _sha(report.latencies),
            "trace": _sha(loop.coalescer.trace_jsonl()),
            "state": _sha(loop.sharded.decoded_state())}


def compute_all() -> dict:
    return {name: compute_run(config) for name, config in RUNS.items()}


@functools.lru_cache(maxsize=None)
def golden_pins() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_service_run_pinned(name):
    assert compute_run(RUNS[name]) == golden_pins()[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_all(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
