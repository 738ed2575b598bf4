"""Campaign orchestration: registries, cache-aware builds, the matrix
runner, parallel artifact equivalence and the two CLIs."""

import json
import re
from pathlib import Path

import pytest

import repro.infra.campaign as campaign
from repro.infra.cache import ArtifactCache
from repro.infra.campaign import (build_program, parallel_artifact,
                                  run_campaign, run_result, run_target)
from repro.infra.instances import INSTANCES, expand
from repro.infra.results import (ResultStore, load_records, regenerate,
                                 summarize)
from repro.infra.targets import TARGETS, target
from repro.workloads.spec import BENCHMARKS

COMMITTED = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


@pytest.fixture(autouse=True)
def _isolated_cache_config(monkeypatch):
    """Keep the process-wide cache configuration out of other tests."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    campaign.configure(None)
    yield
    campaign.configure(None)


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


class TestRegistries:
    def test_twelve_workload_targets_plus_libc(self):
        assert set(BENCHMARKS) <= set(TARGETS)
        assert set(TARGETS) == set(BENCHMARKS) | {"libc"}
        assert not TARGETS["libc"].linkable

    def test_workload_targets_link_against_libc(self):
        spec = target("gcc")
        assert spec.modules == ("gcc", "libc")
        sources = spec.sources()
        assert list(sources) == ["gcc", "libc"]

    def test_unknown_target_message(self):
        with pytest.raises(KeyError, match="unknown target"):
            target("nginx")

    def test_instance_matrix(self):
        assert INSTANCES["mcfi-x64"].mcfi
        assert not INSTANCES["native-x32"].mcfi
        assert INSTANCES["bincfi-x64"].policy == "bincfi"
        assert not INSTANCES["bincfi-x64"].executable
        assert [i.name for i in expand(["native-x64", "mcfi-x64"])] == \
            ["native-x64", "mcfi-x64"]

    def test_bare_policy_name_expands_every_arch(self):
        names = [i.name for i in expand(["mcfi"])]
        assert names == ["mcfi-x32", "mcfi-x64"]

    def test_unknown_instance_message(self):
        with pytest.raises(KeyError, match="unknown instance"):
            expand(["tsan-x64"])


class TestCacheAwareBuild:
    def test_build_program_matches_plain_toolchain(self, cache):
        from repro.build import build_program as plain_build
        from repro.workloads.spec import workload
        via_infra = build_program("libquantum", "x64", True, cache=cache)
        plain = plain_build(
            {"libquantum": workload("libquantum").source},
            arch="x64", mcfi=True).program
        assert bytes(via_infra.module.code) == bytes(plain.module.code)
        assert via_infra.entry == plain.entry

    def test_second_build_is_all_hits(self, cache):
        build_program("libquantum", "x64", True, cache=cache)
        before = cache.stats.snapshot()
        build_program("libquantum", "x64", True, cache=cache)
        delta = cache.stats.delta(before)
        assert delta.misses == 0 and delta.hits >= 1

    def test_libc_object_shared_across_targets(self, cache):
        """Instrument once, reuse across programs: the second target
        reuses libc's cached units instead of recompiling them."""
        build_program("libquantum", "x64", True, cache=cache)
        before = cache.stats.snapshot()
        build_program("bzip2", "x64", True, cache=cache)
        delta = cache.stats.delta(before)
        assert delta.hits >= 1  # libc came from the cache

    def test_library_target_not_linkable(self, cache):
        with pytest.raises(ValueError, match="library-only"):
            build_program("libc", "x64", True, cache=cache)

    def test_run_result_memoized(self, cache):
        first = run_result("libquantum", "x64", mcfi=False, cache=cache)
        before = cache.stats.snapshot()
        second = run_result("libquantum", "x64", mcfi=False, cache=cache)
        delta = cache.stats.delta(before)
        assert delta.hits == 1 and delta.misses == 0
        assert second.cycles == first.cycles
        assert second.output == first.output


class TestRunTarget:
    def test_build_and_cfgstats_records(self, cache):
        records = run_target("libquantum", "mcfi-x64", cache=cache,
                             execute=False)
        kinds = [r["kind"] for r in records]
        assert kinds == ["build", "cfgstats"]
        assert records[0]["cache_misses"] > 0
        assert records[1]["IBs"] > 0

    def test_execute_records_cycles(self, cache):
        records = run_target("libquantum", "native-x64", cache=cache,
                             execute=True)
        run_record = next(r for r in records if r["kind"] == "run")
        assert run_record["status"] == "ok"
        assert run_record["cycles"] > 0
        assert run_record["output"].startswith("checksum")

    def test_policy_instance_yields_air(self, cache):
        records = run_target("libquantum", "bincfi-x64", cache=cache)
        policy_record = next(r for r in records if r["kind"] == "policy")
        assert 0.9 < policy_record["air"] <= 1.0


class TestRunCampaign:
    def test_matrix_parallel_with_store(self, tmp_path, cache):
        store = ResultStore(tmp_path / "results.jsonl")
        summary = run_campaign(
            ["libquantum", "bzip2"], ["mcfi-x64"], jobs=2,
            cache_dir=str(cache.root), store=store, execute=False)
        assert summary["cells"] == 2
        assert summary["failures"] == []
        records = store.records()
        kinds = {r["kind"] for r in records}
        assert {"build", "cfgstats", "summary"} <= kinds
        # warm second campaign: everything from the cache
        summary2 = run_campaign(
            ["libquantum", "bzip2"], ["mcfi-x64"], jobs=2,
            cache_dir=str(cache.root), store=store, execute=False)
        assert summary2["cache_misses"] == 0
        assert summary2["cache_hits"] >= 2
        assert summary2["cache_hit_rate"] == 1.0


class TestParallelArtifactEquivalence:
    def test_table1_parallel_equals_serial(self):
        import repro.experiments as ex
        names = ["bzip2", "mcf", "libquantum"]
        serial = ex.table1_analysis(names)
        parallel = parallel_artifact("table1", names, jobs=3)
        assert list(parallel) == list(serial)
        for name in names:
            assert parallel[name].table1_row() == \
                serial[name].table1_row()

    def test_table3_parallel_equals_serial(self, tmp_path, cache):
        import repro.experiments as ex
        campaign.configure(str(cache.root))
        names = ["libquantum", "mcf"]
        store = ResultStore(tmp_path / "results.jsonl")
        parallel = parallel_artifact("table3", names, archs=("x64",),
                                     jobs=2, store=store)
        serial = ex.table3_cfg_stats(names, archs=("x64",))
        assert parallel == serial
        assert list(parallel) == list(serial)  # iteration order too
        artifact_records = [r for r in store.records()
                            if r["kind"] == "artifact"]
        assert len(artifact_records) == 2
        assert all(r["artifact"] == "table3" for r in artifact_records)

    def test_failing_job_surfaces(self):
        with pytest.raises(RuntimeError, match="job"):
            parallel_artifact("table3", ["no-such-benchmark"], jobs=2)

    def test_non_parallel_artifact_rejected(self):
        with pytest.raises(ValueError, match="parallel"):
            parallel_artifact("stm", ["gcc"], jobs=2)


class TestReporters:
    def _seed_records(self, store):
        store.append("run", target="lbm", instance="native-x64",
                     arch="x64", mcfi=False, status="ok",
                     cycles=1000, instructions=900, seconds=0.5)
        store.append("run", target="lbm", instance="mcfi-x64",
                     arch="x64", mcfi=True, status="ok",
                     cycles=1100, instructions=950, seconds=0.5)
        store.append("cfgstats", target="lbm", instance="mcfi-x64",
                     arch="x64", IBs=10, IBTs=20, EQCs=5)
        store.append("cfgstats", target="lbm", instance="mcfi-x32",
                     arch="x32", IBs=11, IBTs=22, EQCs=6)

    def test_render_fig5_format(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        self._seed_records(store)
        regenerate(store.records(), tmp_path / "out")
        text = (tmp_path / "out" / "fig5_overhead_x64.txt").read_text()
        assert text.splitlines() == [
            "benchmark     native cycles  mcfi cycles  overhead",
            "lbm                    1000         1100    10.00%",
            "average                                     10.00%"]

    def test_render_table3_needs_both_archs(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        self._seed_records(store)
        store.append("cfgstats", target="mcf", instance="mcfi-x64",
                     arch="x64", IBs=1, IBTs=2, EQCs=3)
        regenerate(store.records(), tmp_path / "out")
        lines = (tmp_path / "out" / "table3_cfg_stats.txt").read_text() \
            .splitlines()
        assert "IBs32" in lines[0] and "IBs64" in lines[0]
        assert [line.split()[0] for line in lines[1:-2]] == ["lbm"]

    def test_regenerate_writes_artifact_files(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        self._seed_records(store)
        written = regenerate(store.records(), tmp_path / "out")
        names = {p.name for p in written}
        assert names == {"fig5_overhead_x64.txt",
                         "table3_cfg_stats.txt"}

    def test_report_lines_equal_committed(self, tmp_path):
        """``infra report --results-dir`` writes the committed layout:
        each benchmark's line, the header and Table 3's paper line read
        as in ``benchmarks/results``."""
        store = ResultStore(tmp_path / "results.jsonl")
        summary = run_campaign(["perlbench", "lbm"],
                               ["native-x64", "mcfi-x64", "mcfi-x32"],
                               store=store)
        assert summary["failures"] == []
        written = regenerate(store.records(), tmp_path / "out")
        assert {path.name for path in written} == {
            "fig5_overhead_x64.txt", "table3_cfg_stats.txt"}
        for path in written:
            committed = (COMMITTED / path.name).read_text().splitlines()
            lines = path.read_text().splitlines()
            assert lines[0] == committed[0]
            for name in ("perlbench", "lbm"):
                row = [line for line in lines if line.startswith(name)]
                assert row == [line for line in committed
                               if line.startswith(name)]
            paper = [line for line in committed if line.startswith("paper")]
            assert [line for line in lines if line.startswith("paper")] \
                == paper

    def test_summarize_counts(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        self._seed_records(store)
        store.append("build", target="lbm", instance="mcfi-x64",
                     arch="x64", mcfi=True, seconds=0.1,
                     cache_hits=3, cache_misses=1)
        totals = summarize(store.records())
        assert totals["runs"] == 2
        assert totals["cache_hits"] == 3
        assert totals["cache_hit_rate"] == 0.75


class TestCli:
    def test_infra_build_and_report(self, tmp_path, capsys):
        from repro.tools.infra import main
        cache_dir = str(tmp_path / "cache")
        rc = main(["build", "--benchmarks", "libquantum",
                   "--jobs", "2", "--cache-dir", cache_dir])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 matrix cells" in out
        assert "artifact cache" in out

        rc = main(["report", "--cache-dir", cache_dir,
                   "--results-dir", str(tmp_path / "artifacts")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign report" in out
        assert "hit rate" in out

    def test_spec_parallel_stdout_matches_serial(self, tmp_path, capsys):
        """--jobs/--cache-dir must not change what lands on stdout."""
        from repro.tools.spec import main
        argv = ["table1", "table3", "fig5", "--benchmarks", "libquantum",
                "mcf"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "2", "--cache-dir",
                            str(tmp_path / "cache")]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial_out
        assert "[infra]" in captured.err  # summary goes to stderr

    def test_spec_jsonl_written(self, tmp_path):
        from repro.tools.spec import main
        cache_dir = tmp_path / "cache"
        assert main(["table3", "--benchmarks", "libquantum",
                     "--jobs", "2", "--cache-dir", str(cache_dir)]) == 0
        records = load_records(cache_dir / "results.jsonl")
        kinds = [r["kind"] for r in records]
        assert "artifact" in kinds and "summary" in kinds
        summary = records[-1]
        assert summary["kind"] == "summary"
        assert summary["wall_seconds"] > 0

    def test_run_result_cached_run_key_line(self, tmp_path):
        """Warm spec invocation reports a >=90% hit rate (the
        acceptance bar) in its JSONL summary."""
        import repro.experiments as ex
        from repro.tools.spec import main
        cache_dir = tmp_path / "cache"
        argv = ["table3", "--benchmarks", "libquantum", "--jobs", "2",
                "--cache-dir", str(cache_dir)]
        # Drop in-process memos between invocations so each behaves
        # like a freshly started CLI process.
        ex._PROGRAM_CACHE.clear()
        assert main(argv) == 0
        campaign.configure(None)
        ex._PROGRAM_CACHE.clear()
        assert main(argv) == 0
        records = load_records(cache_dir / "results.jsonl")
        summaries = [r for r in records if r["kind"] == "summary"]
        assert len(summaries) == 2
        warm = summaries[-1]
        assert warm["cache_hit_rate"] >= 0.9


_COUNTS = re.compile(r"artifact cache: (\d+) hits / (\d+) misses")


def _reported_counts(cache_dir, capsys):
    """The hits and misses ``infra report`` prints for ``cache_dir``."""
    from repro.tools.infra import main
    assert main(["report", "--cache-dir", str(cache_dir)]) == 0
    return _COUNTS.search(capsys.readouterr().out).groups()


class TestReportCounts:
    """``infra report`` prints the cache counts its store's commands
    printed, each once."""

    def test_store_of_infra_run(self, tmp_path, capsys):
        from repro.tools.infra import main
        cache_dir = tmp_path / "cache"
        assert main(["run", "--benchmarks", "libquantum", "--jobs", "2",
                     "--cache-dir", str(cache_dir)]) == 0
        printed = _COUNTS.search(capsys.readouterr().out).groups()
        assert int(printed[1]) > 0
        assert _reported_counts(cache_dir, capsys) == printed

    def test_store_of_serial_spec(self, tmp_path, capsys):
        """A serial run counts its lookups in its summary record alone;
        a parallel run before it, in that summary and in the records
        it sums.  The report adds the two runs' printed counts."""
        import repro.experiments as ex
        from repro.tools.spec import main
        cache_dir = tmp_path / "cache"
        printed = []
        for jobs in ("2", "1"):
            campaign.configure(None)
            ex._PROGRAM_CACHE.clear()
            assert main(["table3", "--benchmarks", "libquantum", "--jobs",
                         jobs, "--cache-dir", str(cache_dir)]) == 0
            err = capsys.readouterr().err
            printed.append([int(n) for n in _COUNTS.search(err).groups()])
        assert printed[1][0] > 0
        total = tuple(str(a + b) for a, b in zip(*printed))
        assert _reported_counts(cache_dir, capsys) == total
