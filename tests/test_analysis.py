"""Tests for the C1/C2 analyzer: per-pattern classification and the
Table 1/2 reproduction over the workloads."""

import pytest

from repro.analysis.analyzer import analyze_source
from repro.workloads import motifs
from repro.workloads.spec import BENCHMARKS, workload

#: Two untagged downcasts (K2) plus the single pairing upcast (UC):
#: developers who "decided those downcasts are safe through code
#: inspection" (perlbench/gcc).
UNTAGGED_DC = """
typedef struct t_ub { void (*f)(int); } t_ub;
typedef struct t_ud { void (*f)(int); long z; } t_ud;
void t_ud_real(int x) { }
void t_udc_run(void) {
    t_ud cc;
    t_ub *bb;
    cc.f = t_ud_real;
    cc.z = 1;
    bb = (t_ub *)&cc;   /* UC pair */
    ((t_ud *)bb)->f(0);   /* K2 untagged downcast */
    ((t_ud *)bb)->f(1);   /* K2 untagged downcast */
}
"""


class TestPatternClassification:
    """Each motif in isolation must classify exactly as intended."""

    @pytest.mark.parametrize("generator,expected", [
        (lambda: motifs.gen_uc("t", 5), {"uc": 5}),
        (lambda: motifs.gen_dc("t", 4), {"dc": 4, "uc": 1}),
        (lambda: motifs.gen_mf("t", 3, n_free=2), {"mf": 5}),
        (lambda: motifs.gen_su("t", 6), {"su": 6}),
        (lambda: motifs.gen_nf("t", 3), {"nf": 3, "k2": 1}),
        (lambda: motifs.gen_k1("t", 2, 1), {"k1": 3}),
        (lambda: motifs.gen_k2("t", 4), {"k2": 4}),
        (lambda: motifs.gen_k2("t", 5), {"k2": 5}),
        (lambda: UNTAGGED_DC, {"k2": 2, "uc": 1}),
    ])
    def test_motif_counts(self, generator, expected):
        report = analyze_source(generator(), name="motif")
        got = {"uc": report.uc, "dc": report.dc, "mf": report.mf,
               "su": report.su, "nf": report.nf, "k1": report.k1,
               "k2": report.k2}
        got = {key: value for key, value in got.items() if value}
        assert got == expected

    def test_k1_fixed_requires_dispatch(self):
        report = analyze_source(motifs.gen_k1("t", 2, 3), name="k1")
        assert report.k1 == 5
        assert report.k1_fixed == 2  # only the dispatched pointer type

    def test_vbe_is_sum_of_all_categories(self):
        source = (motifs.gen_uc("a", 2) + motifs.gen_mf("b", 1) +
                  motifs.gen_su("c", 3))
        report = analyze_source(source, name="sum")
        assert report.vbe == report.uc + report.dc + report.mf + \
            report.su + report.nf + report.vae
        assert report.vae == report.k1 + report.k2

    def test_clean_code_reports_nothing(self):
        report = analyze_source("""
            long f(long x) { return x * 2; }
            int main(void) { return (int)f(21); }
        """, name="clean")
        assert report.vbe == 0

    def test_compatible_fptr_assignment_not_a_violation(self):
        report = analyze_source("""
            long g(long x) { return x; }
            long (*p)(long) = g;
            int main(void) { return (int)p(1); }
        """, name="compat")
        assert report.vbe == 0

    def test_c2_counts_syscall_outside_libc(self):
        report = analyze_source(
            "int main(void) { return (int)__syscall(1, 0, 0, 0); }",
            name="raw")
        assert report.c2 == 1

    def test_c2_exempts_libc(self):
        from repro.analysis.analyzer import Analyzer
        from repro.toolchain import frontend
        checked = frontend(
            "int main(void) { return (int)__syscall(1, 0, 0, 0); }",
            name="libc")
        assert Analyzer(checked).c2_findings() == 0


class TestTable1Reproduction:
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_benchmark_counts_match_expected(self, name):
        spec = workload(name)
        report = analyze_source(spec.source, name=name)
        got = {"VBE": report.vbe, "UC": report.uc, "DC": report.dc,
               "MF": report.mf, "SU": report.su, "NF": report.nf,
               "VAE": report.vae}
        assert got == spec.expected_table1

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_table2_classification(self, name):
        spec = workload(name)
        report = analyze_source(spec.source, name=name)
        got = {"K1": report.k1, "K2": report.k2,
               "K1-fixed": report.k1_fixed}
        assert got == spec.expected_table2

    def test_shape_matches_paper(self):
        """Relative ordering from the paper's Table 1 must hold:
        perlbench and gcc dominate; four benchmarks report zero."""
        reports = {name: analyze_source(workload(name).source, name=name)
                   for name in BENCHMARKS}
        zeros = {name for name, r in reports.items() if r.vbe == 0}
        assert zeros == {"mcf", "gobmk", "sjeng", "lbm"}
        ranked = sorted(reports, key=lambda n: reports[n].vbe,
                        reverse=True)
        assert set(ranked[:2]) == {"perlbench", "gcc"}
        # exactly five benchmarks retain violations after elimination
        remaining = {name for name, r in reports.items() if r.vae > 0}
        assert remaining == {"perlbench", "bzip2", "gcc", "libquantum",
                             "milc"}

    def test_libc_has_violations_like_musl(self):
        """The paper: MUSL had 45 C1 violations (5 K1, 40 K2); simlibc
        deliberately contains a couple of the same shapes."""
        from repro.workloads.libc import LIBC_SOURCE
        report = analyze_source(LIBC_SOURCE, name="libc-check")
        assert report.vbe > 0
        assert report.k2 >= 1  # thread_spawn's fptr-through-long


class TestVariadicFptrCasts:
    """τ(...) ↔ τ(x, ...) casts: still K-candidates (the canonical
    types differ), but ``K1-fixed`` must respect the CFG generator's
    variadic prefix rule — a dispatch the generator admits needs no
    source fix."""

    PREFIX_COMPATIBLE = """
        long vf(long x) { return x + 1; }
        long (*vp)(long, ...) = vf;
        int main(void) { return (int)vp(41); }
    """

    INCOMPATIBLE = """
        long wf(double x) { return 1; }
        long (*wp)(long, ...) = wf;
        int main(void) { return (int)wp(41); }
    """

    def test_prefix_compatible_cast_stays_k1(self):
        report = analyze_source(self.PREFIX_COMPATIBLE, name="prefix")
        assert report.vae == 1 and report.k1 == 1
        assert [c.category for c in report.classified] == ["K1"]

    def test_prefix_compatible_dispatch_needs_no_fix(self):
        report = analyze_source(self.PREFIX_COMPATIBLE, name="prefix")
        assert report.k1_fixed == 0

    def test_incompatible_variadic_dispatch_needs_fix(self):
        report = analyze_source(self.INCOMPATIBLE, name="incompat")
        assert report.k1 == 1 and report.k1_fixed == 1

    def test_undispatched_variadic_cast_needs_no_fix(self):
        source = """
            long vf(long x) { return x + 1; }
            long (*vp)(long, ...) = vf;
            int main(void) { return 0; }
        """
        report = analyze_source(source, name="nodispatch")
        assert report.k1 == 1 and report.k1_fixed == 0

    def test_runtime_agrees_with_k1_fixed(self):
        """The fix claim is grounded: the prefix-compatible dispatch
        runs to completion under MCFI, the incompatible one halts."""
        from repro.build import build_program
        from repro.runtime.runtime import Runtime
        ok = Runtime(build_program(
            {"prefix": self.PREFIX_COMPATIBLE}).program, verify=True).run()
        assert ok.to_dict()["status"] == "ok"
        assert ok.exit_code == 42
        bad = Runtime(build_program(
            {"incompat": self.INCOMPATIBLE}).program, verify=True).run()
        assert bad.to_dict()["status"] == "violation"


class TestAnalysisReportSerialization:
    def test_round_trip_through_dict(self):
        report = analyze_source(workload("perlbench").source,
                                name="perlbench")
        data = report.to_dict()
        assert data["kind"] == "analysis"
        assert data["table1"] == report.table1_row()
        assert data["table2"] == report.table2_row()
        assert len(data["casts"]) == report.vbe
        from repro.analysis.analyzer import AnalysisReport
        clone = AnalysisReport.from_dict(data)
        assert clone.table1_row() == report.table1_row()
        assert clone.table2_row() == report.table2_row()
        assert clone.unit == "perlbench" and clone.c2 == report.c2

    def test_json_stable(self):
        import json
        report = analyze_source(workload("bzip2").source, name="bzip2")
        first = json.dumps(report.to_dict(), sort_keys=True)
        second = json.dumps(
            analyze_source(workload("bzip2").source,
                           name="bzip2").to_dict(), sort_keys=True)
        assert first == second
