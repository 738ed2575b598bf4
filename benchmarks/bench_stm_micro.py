"""Sec. 8.1 micro-benchmark — check-transaction algorithms.

Paper's normalized execution times: MCFI 1, TML 2, RWL 29, Mutex 22.
The *ordering* (MCFI fastest; TML ~2x; the LOCK-based schemes an order
of magnitude worse, with RWL worst) is the reproducible claim; the
absolute lock penalties differ between x86 LOCK-prefixed RMWs and
Python locks (see EXPERIMENTS.md).
"""

import statistics

import pytest

from benchmarks.conftest import compute_artifact, write_artifact
from repro.core.stm_baselines import ALGORITHMS, make_workload


def test_stm_micro_table(benchmark):
    per_round = benchmark.pedantic(compute_artifact, args=("stm",),
                                   rounds=1, iterations=1)
    write_artifact("stm", per_round, pinned=False)
    ratios = {name: statistics.median(values)
              for name, values in per_round.items()}

    assert ratios["MCFI"] == 1.0
    assert 1.0 < ratios["TML"] < 4.0        # paper: 2
    assert ratios["Mutex"] > ratios["TML"]  # locks are much slower
    assert ratios["RWL"] > ratios["Mutex"]  # paper: RWL worst


@pytest.mark.parametrize("algorithm_cls", ALGORITHMS,
                         ids=[cls.name for cls in ALGORITHMS])
def test_check_transaction_speed(benchmark, algorithm_cls):
    """Direct pytest-benchmark timing of each algorithm's fast path."""
    bary, tary = make_workload(n_sites=64, n_targets=1024)
    algorithm = algorithm_cls(64, 1024, bary, tary)
    # a known-permitted pair (ECNs match by construction)
    site, target = 5, 5 % 16

    def checks():
        check = algorithm.check
        for _ in range(1000):
            check(site, target)

    benchmark(checks)
