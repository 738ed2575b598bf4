"""Table 2 — K1/K2 classification of remaining violations.

Paper: five benchmarks retain violations; K1 cases (incompatible
function-pointer initializations) need source fixes only when the
pointer type is actually dispatched through; K2 cases (cast away and
back) never needed fixes.
"""

from benchmarks.conftest import compute_artifact, write_artifact
from repro.workloads.spec import workload


def test_table2(benchmark):
    rows = benchmark.pedantic(compute_artifact, args=("table2",),
                              rounds=1, iterations=1)
    assert set(rows) == {"perlbench", "bzip2", "gcc", "libquantum",
                         "milc"}
    for name, row in rows.items():
        assert row == workload(name).expected_table2
    # gcc has a dead K1 case needing no fix (the paper's 14 cases)
    assert rows["gcc"]["K1"] > rows["gcc"]["K1-fixed"]
    write_artifact("table2", rows)


def test_classification_speed(benchmark):
    from repro.analysis.analyzer import analyze_source
    source = workload("gcc").source
    report = benchmark(lambda: analyze_source(source, name="gcc"))
    assert report.k1 == 3
