"""Sec. 8.3 — AIR (Average Indirect-target Reduction) comparison.

Paper's table: binCFI ~0.987-0.992, classic CFI ~0.996-0.999, MCFI the
best of all on both architectures.  The tiny numeric differences hide
orders of magnitude of attack surface — which is why Table 3 is
reported alongside.
"""

from benchmarks.conftest import compute_artifact, write_artifact
from repro.experiments import air_means


def test_air_table(benchmark):
    rows = benchmark.pedantic(compute_artifact, args=("air",),
                              rounds=1, iterations=1)
    write_artifact("air", rows)
    airs = air_means(rows)

    assert airs["MCFI"] >= airs["classic-CFI"] >= airs["binCFI"] \
        >= airs["chunk16"]
    assert airs["MCFI"] > 0.99          # fine-grained
    assert airs["chunk16"] < airs["binCFI"]


def test_air_computation_speed(benchmark):
    from repro.baselines.policies import mcfi_policy
    from repro.experiments import compiled
    from repro.metrics.air import air_of_policy
    program = compiled("gcc", "x64", True)
    policy = mcfi_policy(program.module.aux)
    size = len(program.module.code)
    result = benchmark(lambda: air_of_policy(policy, size))
    assert result.air > 0.9
