"""Table 1 — C1 violations and false-positive elimination.

Always runs over all twelve benchmarks (analysis only, no VM).  The
reproduction matches the paper's rows exactly for the ten benchmarks
with small counts, and at documented scale (1/20, 1/10) for perlbench
and gcc.
"""

from benchmarks.conftest import compute_artifact, write_artifact
from repro.workloads.spec import BENCHMARKS, workload


def test_table1(benchmark):
    reports = benchmark.pedantic(compute_artifact, args=("table1",),
                                 rounds=1, iterations=1)
    write_artifact("table1", reports)
    for name in BENCHMARKS:
        row = reports[name].table1_row()
        spec = workload(name)
        for column in ("VBE", "UC", "DC", "MF", "SU", "NF", "VAE"):
            assert row[column] == spec.expected_table1[column], (
                f"{name}.{column}")


def test_analyzer_speed(benchmark):
    """The analyzer is part of the toolchain; keep it fast."""
    source = workload("perlbench").source

    def analyze():
        from repro.analysis.analyzer import analyze_source
        return analyze_source(source, name="perlbench")

    report = benchmark(analyze)
    assert report.vbe == workload("perlbench").expected_table1["VBE"]
