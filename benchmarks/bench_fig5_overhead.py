"""Fig. 5 — MCFI execution overhead, no update transactions.

Paper: "the average overhead is around 4-6% on x86-32 and x86-64",
with call-heavy benchmarks (perlbench, gcc) highest and loop-heavy
numeric codes (mcf, lbm, milc) near zero.

The benchmark times one full instrumented VM run of each workload; the
artifact table reports the cycle-model overhead of every selected
benchmark against its uninstrumented twin.
"""

import pytest

from benchmarks.conftest import (FULL, compute_artifact,
                                 selected_benchmarks, write_artifact)
from repro.experiments import compiled
from repro.metrics.overhead import arithmetic_mean_overhead
from repro.runtime.runtime import Runtime


def test_fig5_table(benchmark):
    """Regenerate the Fig. 5 series and persist it."""
    results = benchmark.pedantic(
        compute_artifact, args=("fig5", selected_benchmarks()),
        rounds=1, iterations=1)
    write_artifact("fig5", results, pinned=not FULL)
    flat = {name: result for (name, _), result in results.items()}

    mean = arithmetic_mean_overhead(flat)
    assert 0.0 < mean < 15.0  # paper band: ~5%
    for result in flat.values():
        assert result.overhead_pct >= -0.5


@pytest.mark.parametrize("name", ["perlbench", "libquantum"])
@pytest.mark.parametrize("mcfi", [False, True],
                         ids=["native", "mcfi"])
def test_execution_time(benchmark, name, mcfi):
    """Wall-clock VM execution, native vs instrumented."""
    program = compiled(name, "x64", mcfi)

    def run():
        return Runtime(program).run()

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.ok
    benchmark.extra_info["model_cycles"] = result.cycles
    benchmark.extra_info["instructions"] = result.instructions
