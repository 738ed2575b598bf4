"""Tests for the redesigned ``repro.build`` surface.

The load-bearing property is *byte identity*: every path through the
incremental toolchain — cold unit-grain link, cache-hit rebuild, pool
compile, mini-frontend incremental rebuild, single-unit splice — must
produce exactly the image the monolithic pipeline (whole-module
codegen + instrument + link) produces.  ``_assert_same_image`` holds
them to that, excluding only the ``__mcfi.*`` internal labels whose
*names* differ between per-function and per-module instrumentation
namespaces (they are unreferenced and never affect bytes).
"""

from __future__ import annotations

import random
import warnings

import pytest

from repro.build import (
    BuildGraph,
    BuildResult,
    BuildSession,
    build_program,
    compile_object,
)
from repro.build.fingerprint import prelude_digest, source_body_key
from repro.build.graph import compile_module_units
from repro.build.link import link_units
from repro.build.source_index import diff_bodies, index_source, stub_source
from repro.build.units import UnitArtifact
from repro.linker.static_linker import link as static_link
from repro.runtime.runtime import Runtime
from repro.workloads.libc import LIBC_SOURCE
from repro.workloads.spec import BENCHMARKS, workload


def _monolithic(sources, arch="x64", allow_unresolved=None):
    """The legacy pipeline: whole-module compiles, instrument-at-link."""
    raws = [compile_object(text, name=name, arch=arch)
            for name, text in sources.items()]
    return static_link(raws, mcfi=True, allow_unresolved=allow_unresolved)


def _with_libc(sources):
    out = dict(sources)
    out.setdefault("libc", LIBC_SOURCE)
    return out


def _public_labels(module):
    return {name: addr for name, addr in module.labels.items()
            if not name.startswith("__mcfi.")}


def _assert_same_image(legacy, fast):
    assert legacy.module.code == fast.module.code
    assert legacy.data.image == fast.data.image
    assert legacy.entry == fast.entry
    assert legacy.module.bary_slots == fast.module.bary_slots
    assert legacy.module.code_ranges == fast.module.code_ranges
    assert legacy.heap_base == fast.heap_base
    assert legacy.parts == fast.parts
    assert legacy.got_slots == fast.got_slots
    assert _public_labels(legacy.module) == _public_labels(fast.module)
    al, af = legacy.module.aux, fast.module.aux
    assert al.functions == af.functions
    assert al.retsites == af.retsites
    assert al.branch_sites == af.branch_sites
    assert al.setjmp_resumes == af.setjmp_resumes
    assert al.direct_calls == af.direct_calls
    assert al.data_ranges == af.data_ranges
    assert al.exports == af.exports
    assert al.imports == af.imports


class TestWorkloadByteIdentity:
    """Cold unit-grain builds reproduce the monolithic images exactly."""

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_workload_matches_monolithic(self, name):
        sources = _with_libc({name: workload(name).source})
        legacy = _monolithic(sources)
        fast = build_program({name: workload(name).source}).program
        _assert_same_image(legacy, fast)

    def test_unit_cache_hit_rebuild_is_identical(self, tmp_path):
        from repro.infra.cache import open_cache
        cache = open_cache(tmp_path / "cache")
        sources = {"lbm": workload("lbm").source}
        first = build_program(sources, cache=cache)
        second = build_program(sources, cache=cache)
        assert second.stats["unit_hits"] == second.stats["units"]
        _assert_same_image(first.program, second.program)


DEAD_STRING_SOURCE = r"""
int shout(int noisy) {
    if (noisy) {
        print_str("alive\n");
        return 1;
    }
    return 0;
    print_str("dead branch string never interned late");
}

int main(void) {
    return shout(1) - 1;
}
"""


class TestRegressions:
    def test_dead_string_pruning_matches_monolithic(self):
        # Lowering interns strings before pruning unreachable blocks;
        # the unit linker must replay intern order, not referenced-ness.
        sources = _with_libc({"t": DEAD_STRING_SOURCE})
        _assert_same_image(_monolithic(sources),
                           build_program({"t": DEAD_STRING_SOURCE}).program)

    def test_prelude_flag_separates_object_keys(self, tmp_path):
        from repro.infra.cache import ArtifactCache
        cache = ArtifactCache(tmp_path / "cache")
        source = "int main(void) { return 4; }"
        with_prelude = cache.object_key(
            "t", "x64", source, prelude=prelude_digest(True))
        without = cache.object_key(
            "t", "x64", source, prelude=prelude_digest(False))
        assert with_prelude != without

    def test_prelude_flag_separates_body_memo_keys(self):
        body = "int f(void) { return 1; }"
        assert (source_body_key("m", "x64", body, True)
                != source_body_key("m", "x64", body, False))

    def test_prelude_flag_never_cross_hits_shared_cache(self, tmp_path):
        from repro.infra.cache import open_cache
        cache = open_cache(tmp_path / "cache")
        source = "int counter; void _start(void) { counter = 7; }"
        first = BuildSession(mcfi=False, with_libc=False, prelude=True,
                             cache=cache).build({"t": source})
        second = BuildSession(mcfi=False, with_libc=False, prelude=False,
                              cache=cache).build({"t": source})
        assert first.stats["object_hits"] == 0
        assert second.stats["object_hits"] == 0
        third = BuildSession(mcfi=False, with_libc=False, prelude=False,
                             cache=cache).build({"t": source})
        assert third.stats["object_hits"] == 1


#: Seeded-random incremental workload: editable function bodies whose
#: exit code the test can predict.
_EDIT_TEMPLATE = """
int f0(int x) {{ return x + {c0}; }}
int f1(int x) {{ return x * {c1}; }}
int f2(int x) {{ return x - {c2}; }}
int f3(int x) {{ return x + {c3} + 1; }}

int main(void) {{
    return (f0(1) + f1(2) + f2(3) + f3(4)) % 100;
}}
"""


def _edit_source(consts):
    return _EDIT_TEMPLATE.format(c0=consts[0], c1=consts[1],
                                 c2=consts[2], c3=consts[3])


def _edit_exit(consts):
    return ((1 + consts[0]) + (2 * consts[1]) + (3 - consts[2])
            + (4 + consts[3] + 1)) % 100


class TestIncrementalProperty:
    def test_random_edits_stay_byte_identical_to_cold(self, tmp_path):
        from repro.infra.cache import open_cache
        rng = random.Random(20140610)
        cache = open_cache(tmp_path / "cache")
        session = BuildSession(cache=cache)
        consts = [1, 2, 3, 4]
        session.build({"prog": _edit_source(consts)})
        for _ in range(6):
            consts[rng.randrange(4)] = rng.randrange(1, 50)
            source = _edit_source(consts)
            result = session.build({"prog": source})
            assert result.kind in ("incremental", "warm")
            cold = build_program({"prog": source}).program
            _assert_same_image(cold, result.program)
            run = Runtime(result.program).run()
            assert run.exit_code == _edit_exit(consts)

    def test_single_edit_splices_in_place(self):
        session = BuildSession()
        consts = [1, 2, 3, 4]
        session.build({"prog": _edit_source(consts)})
        consts[1] = 9
        result = session.build({"prog": _edit_source(consts)})
        assert result.kind == "incremental"
        assert result.stats["spliced"] == 1
        assert result.stats["modules_mini"] == 1

    def test_revert_edit_hits_body_memo(self):
        # cold build, edit (memoizes the edited body), revert (memoizes
        # the original body), then re-edit: that last rebuild must be
        # served entirely from the body memo — no new entries.
        session = BuildSession()
        original = _edit_source([1, 2, 3, 4])
        edited = _edit_source([1, 2, 3, 40])
        session.build({"prog": original})
        session.build({"prog": edited})
        session.build({"prog": original})
        before = set(session._body_memo)
        result = session.build({"prog": edited})
        assert result.kind == "incremental"
        assert set(session._body_memo) == before
        _assert_same_image(build_program({"prog": edited}).program,
                           result.program)

    def test_unchanged_rebuild_is_warm(self):
        session = BuildSession()
        source = _edit_source([1, 2, 3, 4])
        first = session.build({"prog": source})
        second = session.build({"prog": source})
        assert first.kind == "cold"
        assert second.kind == "warm"
        assert second.program is first.program

    def test_structural_edit_falls_back_to_full_rebuild(self):
        session = BuildSession()
        session.build({"prog": _edit_source([1, 2, 3, 4])})
        grown = _edit_source([1, 2, 3, 4]) + "\nint f4(void) { return 0; }\n"
        result = session.build({"prog": grown})
        assert result.kind == "incremental"
        assert result.stats["modules_rebuilt"] == 1
        _assert_same_image(build_program({"prog": grown}).program,
                           result.program)


class _FaultyPool:
    """Wrap a real WorkerPool so every job runs a fault plan first."""

    def __init__(self, inner, plan, attempt_file):
        self.inner = inner
        self.plan = plan
        self.attempt_file = attempt_file

    def map(self, fn, argses):
        from repro.faults.injectors import faulty_job
        return self.inner.map(faulty_job(fn, self.plan, self.attempt_file),
                              argses)


class _TamperedPool:
    """A pool whose workers return corrupted artifacts (truncated code,
    mismatched fingerprint) — the parent-side validation must reject
    every one of them before publishing to the cache."""

    def map(self, fn, argses):
        from repro.infra.pool import JobResult
        results = []
        for index, args in enumerate(argses):
            artifact = fn(*args)
            artifact.code = artifact.code[:3]
            artifact.fingerprint = "deadbeef"
            results.append(JobResult(id=str(index), ok=True, value=artifact))
        return results


def _assert_cache_units_whole(cache):
    units_dir = cache.root / "units"
    for path in units_dir.iterdir():
        fingerprint = path.stem
        artifact = cache.get_unit(fingerprint)
        assert isinstance(artifact, UnitArtifact)
        assert artifact.code
        assert artifact.fingerprint == fingerprint


class TestPoolSafety:
    def test_worker_crash_never_publishes_partial_unit(self, tmp_path):
        from repro.infra.cache import open_cache
        from repro.infra.pool import WorkerPool
        cache = open_cache(tmp_path / "cache")
        pool = _FaultyPool(WorkerPool(workers=2, retries=0),
                           plan="cc", attempt_file=str(tmp_path / "attempts"))
        source = _edit_source([5, 6, 7, 8])
        result = build_program({"prog": source}, cache=cache, pool=pool)
        _assert_same_image(build_program({"prog": source}).program,
                           result.program)
        _assert_cache_units_whole(cache)

    def test_tampered_results_are_rejected(self, tmp_path):
        from repro.infra.cache import open_cache
        cache = open_cache(tmp_path / "cache")
        source = _edit_source([5, 6, 7, 8])
        result = build_program({"prog": source}, cache=cache,
                               pool=_TamperedPool())
        assert result.stats["unit_parallel"] == 0
        _assert_same_image(build_program({"prog": source}).program,
                           result.program)
        _assert_cache_units_whole(cache)
        assert not (cache.root / "units" / "deadbeef.unit").exists()

    def test_pool_compile_is_byte_identical(self, tmp_path):
        from repro.infra.pool import WorkerPool
        from repro.mir.lowering import lower_unit
        from repro.toolchain import frontend
        source = workload("lbm").source
        checked = frontend(source, name="lbm")
        mir = lower_unit(checked)
        libc_checked = frontend(LIBC_SOURCE, name="libc")
        libc, _, _ = compile_module_units(lower_unit(libc_checked),
                                          libc_checked, "x64")
        serial, _, _ = compile_module_units(mir, checked, "x64")
        pooled, _, stats = compile_module_units(
            mir, checked, "x64", pool=WorkerPool(workers=2),
            parallel_threshold=2)
        assert stats["unit_parallel"] > 0
        _assert_same_image(link_units([serial, libc]).program,
                           link_units([pooled, libc]).program)


class TestLegacyShims:
    def test_compile_and_link_still_works(self):
        from repro.toolchain import compile_and_link
        program = compile_and_link({"t": "int main(void) { return 9; }"})
        assert Runtime(program).run().exit_code == 9

    def test_renamed_optimize_kwarg_warns(self):
        from repro.toolchain import compile_and_link, compile_module
        with pytest.warns(DeprecationWarning, match="devirtualize"):
            compile_module("int main(void) { return 0; }", optimize=True)
        with pytest.warns(DeprecationWarning, match="devirtualize"):
            compile_and_link({"t": "int main(void) { return 0; }"},
                             optimize=False)

    def test_default_call_does_not_warn(self):
        from repro.toolchain import compile_and_run, compile_module
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            compile_module("int main(void) { return 0; }")
            result = compile_and_run({"t": "int main(void) { return 2; }"})
        assert result.exit_code == 2

    def test_build_result_round_trips(self):
        result = build_program({"t": "int main(void) { return 0; }"})
        clone = BuildResult.from_dict(result.to_dict())
        assert clone.program is None
        assert clone.kind == result.kind
        assert clone.arch == result.arch
        assert clone.mcfi == result.mcfi
        assert clone.modules == result.modules
        assert clone.stats == result.stats

    def test_devirtualize_matches_monolithic(self):
        source = workload("sjeng").source
        raws = [compile_object(source, name="sjeng", devirtualize=True),
                compile_object(LIBC_SOURCE, name="libc")]
        legacy = static_link(raws, mcfi=True)
        fast = build_program({"sjeng": source}, devirtualize=True).program
        _assert_same_image(legacy, fast)


class TestBuildGraph:
    def test_dirty_set_is_the_edited_function(self):
        from repro.mir.lowering import lower_unit
        from repro.toolchain import frontend

        def graph_of(source):
            checked = frontend(source, name="m")
            return BuildGraph.of(lower_unit(checked), checked, "x64")

        before = graph_of(_edit_source([1, 2, 3, 4]))
        after = graph_of(_edit_source([1, 2, 99, 4]))
        assert after.dirty_against(before) == {"f2"}
        assert after.dirty_against(None) == set(after.fingerprints)

    def test_string_renumbering_keeps_fingerprints(self):
        # Unit fingerprints digest string *content*, not string ids: a
        # new string in an earlier function must not dirty later ones.
        from repro.mir.lowering import lower_unit
        from repro.toolchain import frontend
        a = ('int f(void) { print_str("one"); return 0; }\n'
             'int g(void) { print_str("late"); return 1; }\n'
             'int main(void) { return f() + g(); }\n')
        b = ('int f(void) { print_str("one"); print_str("two"); return 0; }\n'
             'int g(void) { print_str("late"); return 1; }\n'
             'int main(void) { return f() + g(); }\n')

        def graph_of(source):
            checked = frontend(source, name="m")
            return BuildGraph.of(lower_unit(checked), checked, "x64")

        assert graph_of(b).dirty_against(graph_of(a)) == {"f"}


class TestSourceIndex:
    def test_braces_in_comments_and_strings_are_skipped(self):
        source = ('// a } stray { comment\n'
                  'int f(void) { print_str("}{"); return 0; } /* { */\n'
                  'int main(void) { return f(); }\n')
        spans = index_source(source)
        assert [s.name for s in spans if s.kind == "func"] == ["f", "main"]

    def test_global_initializer_braces_are_not_functions(self):
        spans = index_source("int a[2] = {1, 2};\n"
                             "int main(void) { return a[0]; }\n")
        assert [(s.kind, s.name) for s in spans] == [
            ("other", ""), ("func", "main")]

    def test_unbalanced_source_is_unclassifiable(self):
        assert index_source("int main(void) {") is None
        assert index_source("}") is None

    def test_unterminated_comment_and_literals_run_to_the_end(self):
        assert index_source("int f(void) { return 0; } /* { "
                            "int g(void) { return 1; }") is None
        assert index_source('int a; char *s = "{ \\') is None
        assert index_source("int a; int b = '{") is None

    def test_division_before_a_brace_group_is_not_a_head(self):
        spans = index_source("long a = 4 / 2;\nlong b[1] = {a / 1};\n")
        assert [s.kind for s in spans] == ["other", "other"]

    @pytest.mark.parametrize("corpus", ["fixed12", "gen-smoke", "edits"])
    def test_spans_tile_the_source_and_name_every_function(self, corpus):
        from repro.tinyc.parser import parse
        from repro.workloads.corpus import CorpusConfig
        from repro.workloads.generate import generate
        from repro.workloads.spec import benchmark_set
        if corpus == "fixed12":
            sources = [workload(name).source for name in BENCHMARKS]
        elif corpus == "gen-smoke":
            spec = benchmark_set("gen-smoke")
            config = CorpusConfig().gen_config(spec.quick)
            sources = [generate(seed, config).source for seed in spec.seeds]
        else:
            rng = random.Random(20140610)
            consts = [1, 2, 3, 4]
            sources = []
            for _ in range(6):
                consts[rng.randrange(4)] = rng.randrange(1, 50)
                sources.append(_edit_source(consts))
        for source in sources:
            spans = index_source(source)
            text = "".join(span.text for span in spans)
            assert source.startswith(text)
            assert not source[len(text):].strip()
            assert [s.name for s in spans if s.kind == "func"] == \
                [f.name for f in parse(source).funcs]

    def test_diff_bodies_flags_only_body_edits(self):
        old = index_source(_edit_source([1, 2, 3, 4]))
        new = index_source(_edit_source([1, 2, 3, 7]))
        assert diff_bodies(old, new) == {"f3"}
        # A head (signature) edit is structural.
        changed = index_source(_edit_source([1, 2, 3, 4]).replace(
            "int f1(int x)", "long f1(int x)"))
        assert diff_bodies(old, changed) is None

    def test_stub_source_keeps_only_dirty_bodies(self):
        spans = index_source(_edit_source([1, 2, 3, 4]))
        stub = stub_source(spans, {"f2"})
        assert "int f2(int x) { return x - 3; }" in stub
        assert "int f0(int x);" in stub
        assert "int main(void);" in stub


class TestCacheBudget:
    def test_unit_entries_evict_lru_under_budget(self, tmp_path):
        from repro.infra.cache import open_cache
        cache = open_cache(tmp_path / "cache")
        build_program({"lbm": workload("lbm").source}, cache=cache)
        assert cache.entry_count()["units"] > 0
        cache.max_mb = 0.0001
        evicted = cache.trim()
        assert evicted > 0
        assert cache.size_bytes() <= 1024

    def test_infra_cache_cli_stats_and_trim(self, tmp_path, capsys):
        from repro.infra.cache import open_cache
        from repro.tools.infra import main
        cache_dir = str(tmp_path / "cache")
        build_program({"t": "int main(void) { return 0; }"},
                      cache=open_cache(cache_dir))
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "units" in out and "MB on disk" in out
        assert main(["cache", "trim", "--cache-dir", cache_dir,
                     "--cache-max-mb", "0.00001"]) == 0
        assert "evicted" in capsys.readouterr().out
        assert main(["cache", "trim", "--cache-dir", cache_dir]) == 2


class TestBuildCli:
    def test_workload_build_reports_and_hashes(self, capsys):
        from repro.tools.build import main
        assert main(["--workload", "lbm", "--rebuilds", "1",
                     "--hash"]) == 0
        out = capsys.readouterr().out
        assert "cold" in out and "warm" in out
        assert "artifact sha256" in out

    def test_artifact_hash_is_deterministic(self):
        from repro.tools.build import artifact_hash
        source = {"t": "int main(void) { return 1; }"}
        assert (artifact_hash(build_program(source).program)
                == artifact_hash(build_program(source).program))

    def test_source_file_build_runs(self, tmp_path, capsys):
        from repro.tools.build import main
        path = tmp_path / "hello.c"
        path.write_text('int main(void) { print_str("hi"); return 0; }')
        assert main([str(path), "--run"]) == 0
        assert "hi" in capsys.readouterr().out


class TestTenantChurn:
    def test_writeset_template_comes_from_real_cfg(self):
        from repro.service.tenancy import tenant_source, writeset_from_program
        program = build_program({"tenant1": tenant_source(1)}).program
        template = writeset_from_program(program)
        assert template.tary and template.bary and template.checks
        assert template.n_classes > 1
        sites = {site for site, _ in template.bary}
        offsets = {off for off, _ in template.tary}
        assert all(site in sites for site, _ in template.checks)
        assert all(target in offsets for _, target in template.checks)

    def test_session_churn_goes_incremental(self):
        from repro.service.tenancy import churn_compile_latencies
        out = churn_compile_latencies(tenants=1, rounds=3)
        assert len(out["seconds"]) == 3
        assert out["kinds"].get("cold") == 1
        assert (out["kinds"].get("incremental", 0)
                + out["kinds"].get("warm", 0)) == 2

    def test_legacy_churn_stays_cold(self):
        from repro.service.tenancy import churn_compile_latencies
        out = churn_compile_latencies(tenants=1, rounds=2, legacy=True)
        assert out["kinds"] == {"cold": 2}
