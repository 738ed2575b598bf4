"""Tests for the experiment harness (small subsets; the benchmarks run
the full sweeps)."""

import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import repro.experiments as ex

ROOT = Path(__file__).resolve().parents[1]


class TestFig5:
    def test_overhead_positive_and_small(self):
        results = ex.fig5_overhead(["libquantum", "gcc"], archs=("x64",))
        for result in results.values():
            assert 0.0 <= result.overhead_pct < 25.0
        assert results[("gcc", "x64")].overhead_pct > \
            results[("libquantum", "x64")].overhead_pct


class TestFig6:
    def test_updates_add_overhead(self):
        fig5 = ex.fig5_overhead(["gcc"], archs=("x64",))[("gcc", "x64")]
        fig6 = ex.fig6_update_overhead(["gcc"], interval=50_000)["gcc"]
        assert fig6.updates >= 2
        assert fig6.mcfi_cycles >= fig5.mcfi_cycles


class TestStmMicro:
    def test_paper_ordering(self):
        ratios = {name: statistics.median(values) for name, values in
                  ex.stm_micro_rounds(iterations=30_000).items()}
        assert ratios["MCFI"] == 1.0
        assert ratios["TML"] > 1.0
        assert ratios["Mutex"] > ratios["TML"]
        assert ratios["RWL"] > ratios["Mutex"]


class TestTables:
    def test_table1_rows(self):
        reports = ex.table1_analysis(["bzip2", "mcf"])
        assert reports["bzip2"].vbe == 27
        assert reports["mcf"].vbe == 0

    def test_table2_only_violating_benchmarks(self):
        rows = ex.table2_analysis(["bzip2", "mcf", "libquantum"])
        assert set(rows) == {"bzip2", "libquantum"}

    def test_table3_stats(self):
        stats = ex.table3_cfg_stats(["libquantum"], archs=("x64",))
        row = stats[("libquantum", "x64")]
        assert row["IBs"] > 0 and row["IBTs"] > 0 and row["EQCs"] > 1


class TestSecurityMetrics:
    def test_air_ordering(self):
        airs = ex.air_comparison(["libquantum"])["libquantum"]
        assert airs["MCFI"] >= airs["classic-CFI"] >= airs["binCFI"]
        assert airs["binCFI"] > airs["chunk16"]

    def test_gadget_elimination(self):
        report = ex.gadget_elimination(["libquantum"])["libquantum"]
        assert report["elimination_pct"] > 90.0

    def test_space_overhead(self):
        result = ex.space_overhead(["libquantum"])["libquantum"]
        assert result.code_increase_pct > 0
        assert result.tary_bytes == result.mcfi_code_bytes

    def test_cfg_generation_is_fast(self):
        # the fastest of three generations, not one sample
        timing, _ = ex.cfg_generation_time(["gcc"], repeats=3)["gcc"]
        assert timing < 2.0  # paper: 150 ms for real gcc


class TestFormatting:
    """The renderers of ``ex.ARTIFACT_TABLE``; the benchmarks pin each
    one to its committed file."""

    def test_format_fig5(self):
        results = ex.fig5_overhead(["libquantum"], archs=("x64",))
        lines = ex.ARTIFACT_TABLE["fig5"].render(results).splitlines()
        assert lines[1].startswith("libquantum") and lines[1].endswith("%")
        assert lines[-1].split() == ["average", lines[1].split()[-1]]

    def test_format_table(self):
        rows = {"gcc": {"K1": 3, "K2": 1, "K1-fixed": 2}}
        assert ex.ARTIFACT_TABLE["table2"].render(rows) == (
            "benchmark      K1   K2  K1-fixed\n"
            "gcc             3    1         2")

    def test_table3_columns_follow_archs(self):
        row = {"IBs": 1, "IBTs": 2, "EQCs": 3}
        text = ex.ARTIFACT_TABLE["table3"].render({("lbm", "x64"): row})
        assert text.splitlines()[:2] == [
            "benchmark     IBs64  IBTs64  EQCs64",
            "lbm               1       2       3"]


class TestArtifactTable:
    def test_every_artifact_has_a_committed_file(self):
        results = ROOT / "benchmarks" / "results"
        for entry in ex.ARTIFACT_TABLE.values():
            assert (results / f"{entry.stem}.txt").is_file(), entry.stem

    def test_workload_import_does_not_load_the_table(self):
        """Every suite workload imports ``repro.workloads.corpus``; the
        artifact table must stay out of that import chain."""
        probe = ("import sys, repro.workloads.corpus; "
                 "print('repro.experiments' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
