"""Workload integration tests: every benchmark compiles, verifies,
and produces identical output native vs MCFI-instrumented.

These are the heaviest tests in the suite (each runs two full VM
executions); the compiled programs are cached session-wide.
"""

import pytest

from repro.analysis.binverify import verify_module
from repro.experiments import compiled, run_once
from repro.workloads.spec import BENCHMARKS, workload


@pytest.mark.parametrize("name", BENCHMARKS)
def test_instrumentation_transparent(name):
    native = run_once(name, "x64", mcfi=False)
    hardened = run_once(name, "x64", mcfi=True)
    assert native.ok, native.fault
    assert hardened.ok, hardened.violation or hardened.fault
    assert native.output == hardened.output
    assert native.exit_code == hardened.exit_code
    assert b"checksum" in native.output


@pytest.mark.parametrize("name", BENCHMARKS)
def test_modules_verify(name):
    report = verify_module(compiled(name, "x64", True).module)
    assert report.ok
    assert report.stats["checked_branches"] > 0
    assert report.stats["checked_branches"] == \
        report.stats["proved_branches"]


def test_x32_matches_x64_output():
    for name in ("bzip2", "libquantum", "milc"):
        assert run_once(name, "x32", True).output == \
            run_once(name, "x64", True).output


def test_registry_contents():
    assert len(BENCHMARKS) == 12
    assert [workload(name).name for name in BENCHMARKS] == list(BENCHMARKS)
    # nine integer + three floating-point, as in the paper
    floats = {"milc", "lbm", "sphinx3"}
    assert floats < set(BENCHMARKS)


def test_workloads_have_paper_references():
    for spec in map(workload, BENCHMARKS):
        assert spec.paper_table1["SLOC"] > 0
        assert spec.paper_table3_x64[0] > 0
        assert spec.scale >= 1


def test_table3_shape():
    """Relative CFG-statistic ordering from the paper's Table 3."""
    from repro.cfg.generator import generate_cfg
    stats = {}
    for name in BENCHMARKS:
        program = compiled(name, "x64", True)
        stats[name] = generate_cfg(program.module.aux).stats()
    # gcc has the most indirect branches and classes; lbm/mcf the least
    assert stats["gcc"]["IBs"] == max(s["IBs"] for s in stats.values())
    assert stats["gcc"]["EQCs"] == max(s["EQCs"] for s in stats.values())
    small = min(stats["lbm"]["IBs"], stats["mcf"]["IBs"])
    assert small <= min(stats[n]["IBs"] for n in ("perlbench", "gcc",
                                                  "gobmk"))
    for name in BENCHMARKS:
        assert 0 < stats[name]["EQCs"] <= stats[name]["IBTs"]


def test_x64_has_fewer_eqcs_than_x32():
    """Tail-call optimization merges return classes (paper Table 3)."""
    from repro.cfg.generator import generate_cfg
    fewer = 0
    for name in ("perlbench", "gcc", "gobmk", "hmmer"):
        eqc32 = generate_cfg(compiled(name, "x32", True).module.aux
                             ).stats()["EQCs"]
        eqc64 = generate_cfg(compiled(name, "x64", True).module.aux
                             ).stats()["EQCs"]
        if eqc64 < eqc32:
            fewer += 1
    assert fewer >= 3
