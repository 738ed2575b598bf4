"""Differential harness: matrix coverage, findings, determinism.

Tier-1 keeps these cheap: quick generator configs, one or two members,
and the full-matrix case exercised once.  The 500-seed campaign runs
out of band (``python -m repro corpus run gen-deep``).
"""

import dataclasses

import pytest

import repro.build.session as session_mod
import repro.toolchain
from repro.build.session import BuildSession
from repro.workloads.corpus import CorpusConfig, DifferentialHarness, \
    Finding, ProgramReport, SetReport, artifact_digest, load_set_report, \
    render_report, run_set, write_set_report
from repro.workloads.generate import GenConfig, generate
from repro.workloads.spec import BenchmarkSet, register_set
from repro.workloads.spec import _SETS


QUICK_CFG = CorpusConfig()


@pytest.fixture(scope="module")
def smoke_report():
    """One full-matrix member, shared by the assertions below."""
    return DifferentialHarness(QUICK_CFG).run_member("gen1000",
                                                     quick=True)


class TestRunMember:
    def test_clean_member_passes(self, smoke_report):
        assert smoke_report.status == "pass"
        assert smoke_report.findings == []

    def test_full_matrix_covers_all_cells(self, smoke_report):
        # 2 arch x 2 devirt build cells, + incremental and lint axes
        assert smoke_report.cells == 6
        assert set(smoke_report.cycles) == {
            "x64/base", "x64/devirt", "x32/base", "x32/devirt"}
        assert set(smoke_report.tx_checks) == set(smoke_report.cycles)

    def test_indirect_heavy_member_pays_tx_checks(self, smoke_report):
        assert all(v > 0 for v in smoke_report.tx_checks.values())

    def test_fixed_workload_member_resolves(self):
        cfg = dataclasses.replace(
            QUICK_CFG, archs=("x64",), incremental=False,
            reference=False, lint=False)
        report = DifferentialHarness(cfg).run_member("mcf")
        assert report.status == "pass"
        assert report.seed is None

    def test_unknown_member_is_harness_error_not_crash(self):
        report = DifferentialHarness(QUICK_CFG).run_member(
            "no-such-workload")
        assert report.status == "error"
        assert report.findings[0].category == "harness_error"


class TestSharedSessions:
    """One harness serves member after member: each build session
    compiles libc once, and every cell is still the image a cold build
    of the member gives."""

    def test_repeat_members_match_fresh_harness(self, monkeypatch,
                                                smoke_report):
        fresh = {"gen1000": smoke_report.to_dict(),
                 "gen1001": DifferentialHarness(QUICK_CFG).run_member(
                     "gen1001", quick=True).to_dict()}
        compiled = []
        linked = []
        real_compile = session_mod.compile_module_units
        real_build = BuildSession.build

        def spy_compile(mir, *args, **kwargs):
            compiled.append(mir.name)
            return real_compile(mir, *args, **kwargs)

        def spy_build(session, sources):
            result = real_build(session, sources)
            linked.append((session.arch, session.devirtualize,
                           dict(sources), artifact_digest(result.program)))
            return result

        monkeypatch.setattr(session_mod, "compile_module_units",
                            spy_compile)
        monkeypatch.setattr(BuildSession, "build", spy_build)
        harness = DifferentialHarness(QUICK_CFG)
        for run, member in enumerate(("gen1000", "gen1001", "gen1000")):
            compiled.clear()
            report = harness.run_member(member, quick=True)
            assert report.to_dict() == fresh[member]
            # 4 matrix cells + one incremental session per arch
            assert compiled.count("libc") == (6 if run == 0 else 0)
        monkeypatch.undo()

        # 8 builds per member: 4 cells, then a variant and the member
        # again in each arch's incremental session
        assert len(linked) == 24
        cold = {}
        for arch, devirt, sources, digest in linked:
            key = (arch, devirt, tuple(sources.items()))
            if key not in cold:
                cold[key] = artifact_digest(BuildSession(
                    arch=arch, devirtualize=devirt).build(sources).program)
            assert digest == cold[key]

    def test_member_whose_matrix_raises_leaves_nothing_behind(
            self, monkeypatch, smoke_report):
        real_run = repro.toolchain.run_program
        calls = []

        def run_once_failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("injected")
            return real_run(*args, **kwargs)

        monkeypatch.setattr(repro.toolchain, "run_program",
                            run_once_failing)
        harness = DifferentialHarness(QUICK_CFG)
        failed = harness.run_member("gen1000", quick=True)
        assert [f.category for f in failed.findings] == ["harness_error"]
        assert all("gen1000" not in session._modules
                   for session in harness._sessions.values())
        again = harness.run_member("gen1000", quick=True)
        assert again.to_dict() == smoke_report.to_dict()


class TestInjectedDivergence:
    """Tampered expectations must surface as structured findings."""

    def _tampered(self, attr, mutate):
        program = generate(1001, GenConfig.quick())
        expected = program.evaluate()
        tampered = dataclasses.replace(expected,
                                       **{attr: mutate(expected)})
        program.evaluate = lambda: tampered  # type: ignore[assignment]
        return DifferentialHarness(QUICK_CFG).run_program(program)

    def test_wrong_oracle_output_reported(self):
        report = self._tampered(
            "output", lambda e: e.output + b"oops\n")
        assert report.status == "diverged"
        assert any(f.category == "oracle_output"
                   for f in report.findings)

    def test_wrong_oracle_exit_reported(self):
        report = self._tampered(
            "exit_code", lambda e: (e.exit_code + 1) & 0xFF)
        assert report.status == "diverged"
        assert any(f.category == "oracle_exit"
                   for f in report.findings)

    def test_finding_carries_cell_and_detail(self):
        report = self._tampered(
            "output", lambda e: e.output + b"oops\n")
        finding = next(f for f in report.findings
                       if f.category == "oracle_output")
        assert finding.member == "gen1001"
        assert finding.seed == 1001
        assert "/" in finding.cell  # e.g. x64/base/dispatch
        assert finding.expected and finding.actual


class TestSetRuns:
    @pytest.fixture()
    def tiny_set(self):
        name = "test-tiny-set"
        register_set(BenchmarkSet(
            name=name, description="2 quick members", kind="generated",
            members=("gen1000", "gen1001"), seeds=(1000, 1001),
            quick=True))
        yield name
        _SETS.pop(name, None)

    @pytest.fixture()
    def broken_set(self):
        name = "test-broken-set"
        register_set(BenchmarkSet(
            name=name, description="one member cannot resolve",
            kind="fixed", members=("mcf", "no-such-workload")))
        yield name
        _SETS.pop(name, None)

    def test_every_member_reported_in_order(self, tiny_set):
        report = run_set(tiny_set)
        assert [r.member for r in report.reports] == \
            ["gen1000", "gen1001"]
        assert report.ok

    def test_failed_member_keeps_set_complete(self, broken_set):
        cfg = dataclasses.replace(
            QUICK_CFG, archs=("x64",), incremental=False,
            reference=False, lint=False)
        report = run_set(broken_set, config=cfg)
        assert [r.member for r in report.reports] == \
            ["mcf", "no-such-workload"]
        assert not report.ok
        assert report.reports[1].status == "error"
        assert report.by_category() == {"harness_error": 1}

    def test_findings_jsonl_roundtrip_and_determinism(
            self, tiny_set, tmp_path):
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        run_set(tiny_set, out_path=str(path_a))
        run_set(tiny_set, jobs=2, out_path=str(path_b))
        assert path_a.read_bytes() == path_b.read_bytes()
        loaded = load_set_report(str(path_a))
        assert loaded.set_name == tiny_set
        assert [r.member for r in loaded.reports] == \
            ["gen1000", "gen1001"]
        assert loaded.ok

    def test_limit_recorded_as_truncated(self, tiny_set, tmp_path):
        path = tmp_path / "t.jsonl"
        run_set(tiny_set, out_path=str(path), limit=1)
        from repro.infra.results import load_records
        summary = [r for r in load_records(path)
                   if r["kind"] == "set_summary"][0]
        assert summary["truncated"] is True
        assert summary["members"] == 1

    def test_render_report_lists_every_member(self, tiny_set):
        report = run_set(tiny_set)
        text = render_report(report)
        assert "gen1000" in text and "gen1001" in text
        assert "passed: 2" in text


class TestStepBudget:
    def test_budget_dominates_oracle_fuel(self):
        """The VM step budget must admit every program the oracle's
        fuel budget admits (~10 steps/fuel unit, 5x slack) — campaign
        seed 427 needed 3.98M steps and is a legitimate program."""
        assert CorpusConfig().max_steps >= 10 * GenConfig().fuel * 5


class TestGoldenPin:
    def test_golden_prefix_matches_live_run(self, tmp_path):
        """First two gen-smoke members reproduce the pinned golden
        byte-for-byte (the full-set ``cmp`` gate runs in CI)."""
        from pathlib import Path
        golden = Path(__file__).parent / "golden" / \
            "corpus_smoke_findings.jsonl"
        path = tmp_path / "prefix.jsonl"
        run_set("gen-smoke", out_path=str(path), limit=2)
        live = path.read_text().splitlines()
        pinned = golden.read_text().splitlines()
        assert live[0] == pinned[0]
        assert live[1] == pinned[1]


class TestReportShapes:
    def test_program_report_roundtrip(self):
        report = ProgramReport(
            member="gen5", seed=5, status="diverged",
            findings=[Finding("gen5", "arch", "x64-vs-x32", "boom",
                              seed=5, expected="a", actual="b")],
            cells=4, cycles={"x64/base": 10},
            tx_checks={"x64/base": 2}, source_lines=100)
        clone = ProgramReport.from_dict(report.to_dict())
        assert clone == report

    def test_set_report_category_totals(self):
        reports = [
            ProgramReport(member="a", seed=None, status="pass"),
            ProgramReport(
                member="b", seed=None, status="diverged",
                findings=[Finding("b", "dispatch", "c", "d"),
                          Finding("b", "dispatch", "c2", "d2"),
                          Finding("b", "lint", "c3", "d3")]),
        ]
        set_report = SetReport(set_name="s", reports=reports)
        assert not set_report.ok
        assert set_report.by_category() == {"dispatch": 2, "lint": 1}

    def test_write_report_replaces_stale_file(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text("stale\n")
        write_set_report(
            SetReport(set_name="s", reports=[
                ProgramReport(member="a", seed=None, status="pass")]),
            str(path))
        assert "stale" not in path.read_text()
