"""Tests for the redesigned ``repro.build`` surface.

The load-bearing property is *byte identity*: every path through the
incremental toolchain — cold unit-grain link, cache-hit rebuild,
mini-frontend incremental rebuild, single-unit splice — must produce
exactly the image a cold build produces, and cold builds must match
the link records ``tests/golden/compile_digests.json`` pinned from
the retired whole-module pipeline (codegen + instrument + link per
module).  ``_assert_same_image`` holds two builds to that, excluding
only the ``__mcfi.*`` internal labels whose *names* are generated per
instrumentation namespace (they are unreferenced and never affect
bytes).
"""

from __future__ import annotations

import random
import warnings

import pytest

from repro.build import BuildSession, build_program, compile_object
from repro.build.fingerprint import source_body_key
from repro.build.source_index import diff_bodies, index_source
from repro.errors import TinyCError
from repro.runtime.runtime import Runtime
from repro.toolchain import run_program
from repro.workloads.spec import BENCHMARKS, workload
from tests.test_golden_digests import (
    DEAD_STRING_SOURCE,
    fixed12_program,
    golden_pins,
    link_record,
    unit_fingerprints,
)


def _public_labels(module):
    return {name: addr for name, addr in module.labels.items()
            if not name.startswith("__mcfi.")}


def _assert_same_image(expected, actual):
    assert expected.module.code == actual.module.code
    assert expected.data.image == actual.data.image
    assert expected.entry == actual.entry
    assert expected.module.bary_slots == actual.module.bary_slots
    assert expected.module.code_ranges == actual.module.code_ranges
    assert expected.heap_base == actual.heap_base
    assert expected.parts == actual.parts
    assert expected.got_slots == actual.got_slots
    assert _public_labels(expected.module) == _public_labels(actual.module)
    al, af = expected.module.aux, actual.module.aux
    assert al.functions == af.functions
    assert al.retsites == af.retsites
    assert al.branch_sites == af.branch_sites
    assert al.setjmp_resumes == af.setjmp_resumes
    assert al.direct_calls == af.direct_calls
    assert al.data_ranges == af.data_ranges
    assert al.exports == af.exports
    assert al.imports == af.imports


class TestWorkloadByteIdentity:
    """Cold unit-grain builds reproduce the monolithic link records."""

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_workload_matches_monolithic(self, name):
        assert link_record(fixed12_program(name)) == \
            golden_pins()["link_records"]["x64/mcfi"][name]

    def test_unit_cache_hit_rebuild_is_identical(self, tmp_path):
        from repro.infra.cache import open_cache
        cache = open_cache(tmp_path / "cache")
        sources = {"lbm": workload("lbm").source}
        first = build_program(sources, cache=cache)
        second = build_program(sources, cache=cache)
        assert second.stats["unit_hits"] == second.stats["units"]
        _assert_same_image(first.program, second.program)


class TestRegressions:
    def test_dead_string_pruning_matches_monolithic(self):
        # Lowering interns strings before pruning unreachable blocks;
        # the unit linker must replay intern order, not referenced-ness.
        program = build_program({"t": DEAD_STRING_SOURCE}).program
        assert link_record(program) == \
            golden_pins()["link_records"]["edge"]["dead_string/mcfi"]

    def test_prelude_flag_separates_object_keys(self, tmp_path,
                                                monkeypatch):
        # The program memo is keyed by module sources: the prelude they
        # are compiled against is part of the key.
        import repro.toolchain
        from repro.infra.cache import ArtifactCache
        cache = ArtifactCache(tmp_path / "cache")
        sources = {"t": "int main(void) { return 4; }"}
        before = cache.program_key("x64", True, sources)
        monkeypatch.setattr(repro.toolchain, "BUILTIN_PRELUDE",
                            repro.toolchain.BUILTIN_PRELUDE + "int x;\n")
        assert cache.program_key("x64", True, sources) != before

    def test_prelude_flag_separates_body_memo_keys(self, monkeypatch):
        # The body memo is keyed by body text: the prelude the body is
        # compiled against is part of the key.
        import repro.toolchain
        body = "int f(void) { return 1; }"
        before = source_body_key("m", "x64", body)
        monkeypatch.setattr(repro.toolchain, "BUILTIN_PRELUDE",
                            repro.toolchain.BUILTIN_PRELUDE + "int x;\n")
        assert source_body_key("m", "x64", body) != before


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

    def test_structural_edit_drops_stale_body_memo(self):
        # The edited body of step 2 is memoized while ``b`` sits at
        # offset 8; after the structural edit moves it to 16, editing
        # back to that body must compile against the new declarations.
        def source(fields, body):
            return (f"struct S {{ {fields} }}; struct S g; "
                    f"long f(void) {{ {body} }} "
                    "int main(void) { g.a = 1; g.b = 7; "
                    "print_int(f()); return 0; }")
        session = BuildSession()
        session.build({"prog": source("long a; long b;", "return g.b;")})
        session.build({"prog": source("long a; long b;",
                                      "return g.b + 1;")})
        session.build({"prog": source("long a; long c; long b;",
                                      "return g.b;")})
        final = source("long a; long c; long b;", "return g.b + 1;")
        result = session.build({"prog": final})
        assert result.stats["modules_mini"] == 1
        _assert_same_image(build_program({"prog": final}).program,
                           result.program)
        assert run_program(result.program).output == b"8"

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

    def test_body_edit_compiles_inside_build_units(self):
        from repro import obs
        session = BuildSession()
        session.build({"prog": _edit_source([1, 2, 3, 4])})
        with obs.scoped(seed=0) as state:
            result = session.build({"prog": _edit_source([1, 2, 3, 5])})
            names = [span["name"] for span in state.tracer.spans]
        assert result.stats["spliced"] == 1
        assert names.count("build.units") == 1
        assert names.count("build.mini_frontend") == 1

    def test_body_edit_counts_its_unit_compile(self):
        from repro import obs
        source = "int f(void) { return 1; }\nint main(void) { return f(); }\n"
        session = BuildSession()
        session.build({"prog": source})
        with obs.scoped(seed=0) as state:
            result = session.build({"prog": source.replace("1", "2")})
            counters = state.metrics.snapshot().counters
        assert result.stats["spliced"] == 1
        assert (result.stats["units"], result.stats["unit_hits"],
                result.stats["unit_compiled"]) == (1, 0, 1)
        assert counters["build.unit_compiled"] == 1

    def test_failed_build_never_leaves_a_stale_program(self):
        # The first module's edit is taken before the second fails to
        # parse; reverting the second must still give the edited image.
        a0 = "int fa(void) { return 1; }\n"
        a1 = "int fa(void) { return 2; }\n"
        b0 = "int fa(void);\nint main(void) { return fa(); }\n"
        session = BuildSession()
        session.build({"a": a0, "b": b0})
        with pytest.raises(TinyCError):
            session.build({"a": a1, "b": "int main(void) { return fa( ; }"})
        result = session.build({"a": a1, "b": b0})
        _assert_same_image(build_program({"a": a1, "b": b0}).program,
                           result.program)
        assert Runtime(result.program).run().exit_code == 2


class TestSharedLibc:
    """One session serving programs in turn keeps libc's units."""

    @pytest.mark.parametrize("devirtualize", [False, True])
    @pytest.mark.parametrize("arch", ["x64", "x32"])
    def test_next_program_links_the_session_libc(self, arch, devirtualize,
                                                 monkeypatch):
        import repro.build.session as session_mod
        options = {"arch": arch, "devirtualize": devirtualize}
        session = BuildSession(**options)
        session.build({"a": _edit_source([1, 2, 3, 4])})
        compiled = []
        real_compile = session_mod.compile_module_units

        def spy(mir, *args, **kwargs):
            compiled.append(mir.name)
            return real_compile(mir, *args, **kwargs)

        monkeypatch.setattr(session_mod, "compile_module_units", spy)
        sources = {"b": _edit_source([5, 6, 7, 8])}
        result = session.build(sources)
        assert compiled == ["b"]
        _assert_same_image(BuildSession(**options).build(sources).program,
                           result.program)
        assert Runtime(result.program).run().exit_code == \
            _edit_exit([5, 6, 7, 8])


class TestLegacyShims:
    def test_default_call_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            compile_object("int main(void) { return 0; }")
            result = run_program(build_program(
                {"t": "int main(void) { return 2; }"}).program)
        assert result.exit_code == 2

    def test_devirtualize_matches_monolithic(self):
        program = fixed12_program("sjeng", devirtualize=True)
        assert link_record(program) == \
            golden_pins()["link_records"]["x64/mcfi/devirt"]["sjeng"]


class TestNativeUnits:
    """Native (uninstrumented) builds take the same unit path."""

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_single_function_edit_is_incremental(self, name):
        from benchmarks.suite.workloads import edit_sites, set_literal
        source = workload(name).source
        fn, literals = sorted(edit_sites(source).items())[0]
        index, value = literals[0]
        edited = set_literal(source, fn, index, value + 1)
        session = BuildSession(mcfi=False)
        session.build({name: source})
        result = session.build({name: edited})
        assert result.kind == "incremental"
        assert result.stats["modules_mini"] == 1
        _assert_same_image(
            BuildSession(mcfi=False).build({name: edited}).program,
            result.program)

    def test_native_and_mcfi_units_never_cross_hit(self, tmp_path):
        from repro.infra.cache import open_cache
        from repro.toolchain import frontend
        source = _edit_source([1, 2, 3, 4])
        checked = frontend(source, name="prog")
        mcfi = unit_fingerprints(checked)
        native = unit_fingerprints(checked, mcfi=False)
        assert set(mcfi) == set(native)
        assert not set(mcfi.values()) & set(native.values())

        cache = open_cache(tmp_path / "cache")
        build_program({"prog": source}, cache=cache)
        first = build_program({"prog": source}, mcfi=False, cache=cache)
        assert first.stats["unit_hits"] == 0
        assert Runtime(first.program).run().exit_code == \
            _edit_exit([1, 2, 3, 4])
        second = build_program({"prog": source}, mcfi=False, cache=cache)
        assert second.stats["unit_hits"] == second.stats["units"]
        _assert_same_image(first.program, second.program)


def _dirty(before: str, after: str) -> set:
    """Functions whose unit fingerprint differs between two sources."""
    from repro.toolchain import frontend
    old = unit_fingerprints(frontend(before, name="m"))
    new = unit_fingerprints(frontend(after, name="m"))
    return {fn for fn, fingerprint in new.items()
            if old.get(fn) != fingerprint}


class TestBuildGraph:
    """The dirty set of an edit, read from unit fingerprints."""

    def test_dirty_set_is_the_edited_function(self):
        before = _edit_source([1, 2, 3, 4])
        assert _dirty(before, _edit_source([1, 2, 99, 4])) == {"f2"}
        assert _dirty("", before) == {"f0", "f1", "f2", "f3", "main"}

    def test_string_renumbering_keeps_fingerprints(self):
        # Unit fingerprints digest string *content*, not string ids: a
        # new string in an earlier function must not dirty later ones.
        a = ('int f(void) { print_str("one"); return 0; }\n'
             'int g(void) { print_str("late"); return 1; }\n'
             'int main(void) { return f() + g(); }\n')
        b = ('int f(void) { print_str("one"); print_str("two"); return 0; }\n'
             'int g(void) { print_str("late"); return 1; }\n'
             'int main(void) { return f() + g(); }\n')
        assert _dirty(a, b) == {"f"}


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
        from repro.workloads.corpus import artifact_digest
        source = {"t": "int main(void) { return 1; }"}
        assert (artifact_digest(build_program(source).program)
                == artifact_digest(build_program(source).program))

    def test_source_file_build_runs(self, tmp_path, capsys):
        from repro.tools.build import main
        path = tmp_path / "hello.c"
        path.write_text('int main(void) { print_str("hi"); return 0; }')
        assert main([str(path), "--run"]) == 0
        assert "hi" in capsys.readouterr().out


class TestTenantChurn:
    @staticmethod
    def _kinds(churn, rounds):
        kinds = {}
        for _ in range(rounds):
            kind = churn.churn_once().kind
            kinds[kind] = kinds.get(kind, 0) + 1
        return kinds

    def test_session_churn_goes_incremental(self):
        from repro.service.tenancy import TenantChurn
        kinds = self._kinds(TenantChurn(0), rounds=3)
        assert kinds.get("cold") == 1
        assert kinds.get("incremental", 0) + kinds.get("warm", 0) == 2

    def test_legacy_churn_stays_cold(self):
        from repro.service.tenancy import TenantChurn
        assert self._kinds(TenantChurn(0, legacy=True), rounds=2) == \
            {"cold": 2}
