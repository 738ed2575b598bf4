"""Tests for the experiment harness (small subsets; the benchmarks run
the full sweeps)."""

import pytest

import repro.experiments as ex


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
        ratios = ex.stm_micro(iterations=30_000)
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
        airs = ex.air_comparison(["libquantum"])
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
        timing = ex.cfg_generation_time(["gcc"], repeats=3)["gcc"]
        assert timing < 2.0  # paper: 150 ms for real gcc


class TestFormatting:
    def test_format_fig5(self):
        results = ex.fig5_overhead(["libquantum"], archs=("x64",))
        text = ex.format_fig5(results)
        assert "libquantum" in text and "%" in text

    def test_format_table(self):
        text = ex.format_table({"a": {"x": 1}}, ["x"], title="T")
        assert "T" in text and "a" in text
