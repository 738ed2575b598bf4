"""Sec. 8.1 — space overhead.

Paper: "MCFI increases the static code size by 17% on the benchmarks.
During runtime it also requires extra memory as large as the code
region to store the Bary and Tary tables."
"""

from benchmarks.conftest import compute_artifact, write_artifact


def test_space_table(benchmark):
    results = benchmark.pedantic(compute_artifact, args=("space",),
                                 rounds=1, iterations=1)
    write_artifact("space", results)
    mean = sum(r.code_increase_pct for r in results.values()) / len(results)

    assert 3.0 < mean < 60.0
    for row in results.values():
        # Tary mirrors the code region one-to-one (4B ID per 4B code)
        assert row.tary_bytes == row.mcfi_code_bytes


def test_link_speed(benchmark):
    """Static linking time of one full workload + libc."""
    from repro.build import build_program
    from repro.workloads.spec import workload
    source = {"libquantum": workload("libquantum").source}
    program = benchmark.pedantic(
        lambda: build_program(source, mcfi=True).program,
        rounds=2, iterations=1)
    assert program.module.size > 0
