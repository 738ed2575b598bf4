"""Transactional dlopen and the violation policies.

The acceptance property: a ``dlopen`` failed *mid-load* — at any phase
of the linker protocol, in inline or scheduled mode — leaves the Tary
and Bary tables **byte-identical** to the pre-load snapshot, returns 0
to the program, and the program keeps running.
"""

import pytest

from repro.errors import InjectedFault, LinkError, RuntimeError_
from repro.faults.harness import (
    LOAD_PHASES,
    run_load_scenario,
    snapshot_tables,
)
from repro.faults.plane import FaultPlane
from repro.linker.dynamic_linker import DynamicLinker
from repro.runtime.runtime import Runtime, VIOLATION_POLICIES
from repro.build import build_program, compile_object

MAIN_SOURCE = {"main": """
    int libfn(int x);
    int main(void) {
        long h = dlopen("plugin");
        if (h == 0) { print_str("LOAD-FAILED"); return 99; }
        print_int(libfn(10));
        return 0;
    }
"""}

LIB_SOURCE = "int libfn(int x) { return x * 3 + 1; }"


@pytest.fixture(scope="module")
def artifacts():
    program = build_program(MAIN_SOURCE, mcfi=True,
                            allow_unresolved=["libfn"]).program
    library = compile_object(LIB_SOURCE, name="plugin")
    return program, library


def _runtime_with_plugin(artifacts, plane=None, policy="halt"):
    program, library = artifacts
    runtime = Runtime(program, violation_policy=policy)
    linker = DynamicLinker(runtime, **({} if plane is None else
                                       {"fault_plane": plane}))
    linker.register("plugin", library)
    return runtime, linker


class TestRollbackByteIdentical:
    @pytest.mark.parametrize("phase", LOAD_PHASES)
    def test_inline_mid_load_failure_restores_tables(self, artifacts,
                                                     phase):
        plane = FaultPlane(seed=0).arm(f"dlopen.{phase}")
        runtime, _ = _runtime_with_plugin(artifacts, plane)
        before = snapshot_tables(runtime)
        result = runtime.run()
        after = snapshot_tables(runtime)
        assert after == before, f"tables diverged after {phase} fault"
        assert plane.fired(f"dlopen.{phase}") == 1
        assert result.exit_code == 99
        assert b"LOAD-FAILED" in result.output

    @pytest.mark.parametrize("phase", LOAD_PHASES)
    def test_scheduled_mid_load_failure_restores_tables(self, artifacts,
                                                        phase):
        plane = FaultPlane(seed=0).arm(f"dlopen.{phase}")
        runtime, _ = _runtime_with_plugin(artifacts, plane)
        before = snapshot_tables(runtime)
        result = runtime.run_scheduled(seed=3)
        assert snapshot_tables(runtime) == before
        assert result.exit_code == 99
        assert b"LOAD-FAILED" in result.output

    def test_rollback_restores_linker_state_for_retry(self, artifacts):
        """After a rolled-back load the linker is pristine: the same
        library loads cleanly on the next attempt."""
        plane = FaultPlane(seed=0).arm("dlopen.update", count=1)
        runtime, linker = _runtime_with_plugin(artifacts, plane)
        cursors = (runtime.code_cursor, runtime.data_floor,
                   linker._next_site, linker._next_handle)
        assert linker.dlopen("plugin") == 0      # injected failure
        assert (runtime.code_cursor, runtime.data_floor,
                linker._next_site, linker._next_handle) == cursors
        assert not linker.loaded
        handle = linker.dlopen("plugin")          # plane count exhausted
        assert handle != 0
        assert linker.dlsym(handle, "libfn") != 0

    def test_journal_restores_update_lock(self, artifacts):
        plane = FaultPlane(seed=0).arm("dlopen.update")
        runtime, linker = _runtime_with_plugin(artifacts, plane)
        assert linker.dlopen("plugin") == 0
        assert not runtime.update_lock.held

    def test_journal_phase_log(self, artifacts):
        runtime, linker = _runtime_with_plugin(artifacts)
        assert linker.dlopen("plugin") != 0
        assert linker.last_journal.phases == \
            ["prepare", "cfg", "update", "seal"]
        assert not linker.last_journal.rolled_back


class TestLoadScenarioHarness:
    @pytest.mark.parametrize("phase", LOAD_PHASES)
    def test_every_phase_degrades_cleanly(self, phase):
        record = run_load_scenario(phase, policy="halt", seed=0)
        assert record.outcome == "degraded", record.detail
        assert record.rolled_back is True

    def test_scheduled_variant(self):
        record = run_load_scenario("update", policy="halt", seed=1,
                                   scheduled=True)
        assert record.outcome == "degraded", record.detail
        assert record.rolled_back is True

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError):
            run_load_scenario("warp")


class TestLinkErrorsStillPropagate:
    def test_unresolved_import_rolls_back_then_raises(self, artifacts):
        program, _ = artifacts
        runtime = Runtime(program)
        linker = DynamicLinker(runtime)
        broken = compile_object(
            "int nope(void); int libfn(int x) { return nope(); }",
            name="plugin")
        linker.register("plugin", broken)
        before = snapshot_tables(runtime)
        with pytest.raises(LinkError):
            linker.dlopen("plugin")
        assert snapshot_tables(runtime) == before
        assert not linker.loaded


class TestQuarantineMethod:
    def test_quarantine_zeroes_module_entries(self, artifacts):
        runtime, linker = _runtime_with_plugin(artifacts)
        handle = linker.dlopen("plugin")
        assert handle != 0
        library = linker.loaded[handle]
        module = library.module
        live = [a for a in runtime.id_tables.tary_ecns
                if module.base <= a < module.limit]
        assert live
        assert linker.quarantine(handle) is True
        for address in live:
            assert address not in runtime.id_tables.tary_ecns
            assert runtime.tables.read_tary(address) == 0
        assert library.quarantined
        assert linker.quarantine(handle) is False  # idempotent

    def test_quarantine_unknown_handle(self, artifacts):
        _, linker = _runtime_with_plugin(artifacts)
        assert linker.quarantine(42) is False


class TestViolationPolicies:
    VIOLATING = {"main": """
        void takes_two(long a, long b) { }
        int main(void) {
            void (*f)(long) = (void (*)(long))(void *)takes_two;
            f(1);
            print_str("after");
            return 7;
        }
    """}

    def test_policy_validated(self, artifacts):
        program, _ = artifacts
        with pytest.raises(RuntimeError_):
            Runtime(program, violation_policy="shrug")
        for policy in VIOLATION_POLICIES:
            Runtime(program, violation_policy=policy)

    def test_halt_is_the_default_paper_behaviour(self):
        program = build_program(self.VIOLATING, mcfi=True).program
        result = Runtime(program).run()
        assert result.violation is not None
        assert not result.ok
        assert result.violations == []

    def test_report_policy_records_and_continues(self):
        program = build_program(self.VIOLATING, mcfi=True).program
        result = Runtime(program, violation_policy="report").run()
        # The violating transfer was denied, the thread retired; the
        # run is not itself a fault and carries a structured record.
        assert result.violation is None and result.fault is None
        assert len(result.violations) == 1
        record = result.violations[0]
        assert record.action == "kill-thread"
        assert record.reason
        assert record.to_dict()["action"] == "kill-thread"

    def test_report_policy_in_scheduled_mode_other_threads_continue(
            self):
        source = {"main": """
            long done;
            void victim(long ignored) {
                void (*f)(long, long) = 0;
                long fp[2];
                fp[0] = (long)victim;
                f = (void (*)(long, long))fp[0];
                f(1, 2);
            }
            void worker(long n) {
                long i;
                for (i = 0; i < 20; i++) { done += 1; }
            }
            int main(void) {
                thread_spawn(victim, 0);
                thread_spawn(worker, 0);
                long spin = 0;
                while (done < 20 && spin < 200000) { spin++; }
                print_int(done);
                return 0;
            }
        """}
        program = build_program(source, mcfi=True).program
        result = Runtime(program,
                         violation_policy="report").run_scheduled(seed=2)
        assert result.ok, result.violation or result.fault
        assert result.output == b"20"
        assert len(result.violations) == 1

    def test_quarantine_policy_retires_violating_module(self, artifacts):
        """A loaded library whose code makes a bad transfer is sealed
        and scrubbed; the violation record names it."""
        program = build_program({"main": """
            int libfn(int x);
            int main(void) {
                long h = dlopen("plugin");
                print_int(libfn(3));
                return 0;
            }
        """}, mcfi=True, allow_unresolved=["libfn"]).program
        bad_lib = compile_object("""
            void helper(long a, long b) { }
            int libfn(int x) {
                void (*f)(long) = (void (*)(long))(void *)helper;
                f(1);
                return x;
            }
        """, name="plugin")
        runtime = Runtime(program, violation_policy="quarantine")
        linker = DynamicLinker(runtime)
        linker.register("plugin", bad_lib)
        result = runtime.run()
        assert result.violation is None
        assert result.quarantined == ["plugin"]
        [record] = result.violations
        assert record.action == "quarantine"
        assert record.module == "plugin"
        # The module's table entries are gone: nothing can re-enter it.
        library = next(iter(linker.loaded.values()))
        assert library.quarantined
        module = library.module
        assert not any(module.base <= a < module.limit
                       for a in runtime.id_tables.tary_ecns)


class TestRebuildTables:
    def test_rebuild_repairs_corruption_and_zeroes_strays(self,
                                                          artifacts):
        """Metadata-driven recovery: after arbitrary table damage,
        ``rebuild_tables`` restores a clean, audit-passing assignment
        and zeroes forged strays in untracked words."""
        from repro.core.tables import tary_index

        runtime, linker = _runtime_with_plugin(artifacts)
        handle = linker.dlopen("plugin")
        assert handle != 0
        tables = runtime.id_tables
        memory = tables.memory
        # Corrupt one tracked word and forge one untracked stray.
        tracked = sorted(tables.tary_ecns)[0]
        memory.write_tary(tary_index(tracked),
                          memory.read_tary(tary_index(tracked)) ^ 1)
        stray = max(tables.tary_ecns) + 64
        assert stray not in tables.tary_ecns
        memory.write_tary(tary_index(stray), 0x00000101)
        findings = tables.audit()
        assert findings["tary"]

        swept = linker.rebuild_tables()
        assert swept["entries"] > 0
        assert swept["strays"] >= 1
        assert tables.audit() == {"tary": [], "bary": []}
        assert memory.read_tary(tary_index(stray)) == 0
        # The linker still serves the loaded module afterwards.
        assert linker.dlsym(handle, "libfn") != 0

    def test_rebuild_is_idempotent_on_clean_tables(self, artifacts):
        runtime, linker = _runtime_with_plugin(artifacts)
        assert linker.dlopen("plugin") != 0
        decoded = dict(runtime.id_tables.tary_ecns)
        swept = linker.rebuild_tables()
        assert swept["repaired"] == 0
        assert swept["strays"] == 0
        assert runtime.id_tables.tary_ecns == decoded
        assert runtime.id_tables.audit() == {"tary": [], "bary": []}
