"""Concurrent dlopen/dlclose interleavings under the seeded scheduler.

The regression surface: in scheduled mode an update transaction runs as
a scheduler task, so a second dlopen/dlclose could start a *competing*
republish while the first was still in flight — two journals snapshot
mid-update state, the last transaction to run silently wins, and a
rolled-back load could restore a stale update-lock owner.  The linker
now drains any in-flight update before starting a new load
(``DynamicLinker._drain_pending_updates``), making republishes strictly
serial.

Property under test, across adversarial seeds: concurrent open/close
churn of the same module never leaves a stale decoded-code cache
entry executable, never publishes tables that disagree with the
runtime's CFG, and never wedges the update lock.
"""

import pytest

from repro.linker.dynamic_linker import DynamicLinker
from repro.runtime.runtime import Runtime
from repro.build import build_program, compile_object
from repro.vm.scheduler import Scheduler

LIB_SOURCE = "int libfn(int x) { return x * 3 + 1; }"
OTHER_SOURCE = "int otherfn(int x) { return x - 5; }"

DRIVER_MAIN = {"main": """
    int main(void) { return 0; }
"""}

#: The VM-level scenario: the main thread churns dlopen -> call via
#: PLT -> dlclose while a spinner thread keeps executing indirect
#: branches (check transactions) through every update transaction.
CHURN_MAIN = {"main": """
    int libfn(int x);
    long ticks;
    void spinner(long n) {
        long i;
        for (i = 0; i < n; i++) {
            ticks += classify((int)(i & 7));
            sched_yield();
        }
    }
    int classify(int x) {
        switch (x) {
            case 0: return 1;
            case 1: return 2;
            case 2: return 3;
            default: return 0;
        }
    }
    int main(void) {
        long h;
        int round;
        thread_spawn(spinner, 300);
        for (round = 0; round < 3; round++) {
            h = dlopen("plugin");
            if (h == 0) { return 99; }
            if (libfn(10) != 31) { return 98; }
            if (dlclose(h) != 0) { return 97; }
        }
        return 0;
    }
"""}


def _make(source, *, extra=False):
    program = build_program(source, mcfi=True,
                            allow_unresolved=["libfn"]).program
    runtime = Runtime(program)
    linker = DynamicLinker(runtime)
    linker.register("plugin", compile_object(LIB_SOURCE, name="plugin"))
    if extra:
        linker.register("other",
                        compile_object(OTHER_SOURCE, name="other"))
    return runtime, linker


def _stale_entries(runtime, lo, hi):
    """Cache entries and executable pages inside a closed code range."""
    stale = [a for a in runtime.dispatch_cache.decoded if lo <= a < hi]
    stale += [a for a in runtime.dispatch_cache.closures if lo <= a < hi]
    stale += [a for a, b in runtime.dispatch_cache.blocks.items()
              if b.overlaps(lo, hi)]
    stale += [a for a in range(lo, hi, 0x1000)
              if runtime.memory.is_executable(a)]
    return stale


class TestVmLevelChurn:
    """Open -> execute -> close churn with real check transactions."""

    @pytest.mark.parametrize("seed", [0, 3, 11, 29])
    def test_no_stale_executable_entries_after_churn(self, seed):
        runtime, linker = _make(CHURN_MAIN)
        code_floor = runtime.code_cursor
        result = runtime.run_scheduled(seed=seed, burst=2)
        assert result.ok, result.violation or result.fault
        assert result.exit_code == 0
        # Every plugin instance loaded during the run lived in
        # [code_floor, final cursor) and was closed before exit: the
        # whole band must be sealed and cache-free, and no table entry
        # may point into it.
        assert not linker.loaded
        stale = _stale_entries(runtime, code_floor, runtime.code_cursor)
        assert not stale, [hex(a) for a in stale]
        tables = runtime.id_tables
        assert not [a for a in tables.tary_ecns if a >= code_floor]
        assert not runtime.update_lock.held


class TestDriverLevelInterleaving:
    """Python-driver churn: both drivers race open/close of one module."""

    ROUNDS = 4

    def _driver(self, linker, scheduler, seed, name="plugin"):
        import random
        rng = random.Random(seed)
        for _ in range(self.ROUNDS):
            for _ in range(rng.randrange(4)):
                yield
            handle = linker.dlopen(name)
            for _ in range(rng.randrange(4)):
                yield
            if handle:
                linker.dlclose(handle)

    def _quiescent_ok(self, runtime, linker):
        """Invariants that must hold whenever no update is in flight."""
        if any(task.alive for task in linker._inflight):
            return
        assert not runtime.update_lock.held
        cfg = runtime.cfg
        tables = runtime.id_tables
        assert tables.tary_ecns == cfg.tary_ecns
        assert tables.bary_ecns == cfg.bary_ecns

    def _checker(self, runtime, linker, drivers):
        while any(task.alive for task in drivers):
            self._quiescent_ok(runtime, linker)
            yield

    @pytest.mark.parametrize("seed", range(12))
    def test_same_module_race_stays_serializable(self, seed):
        runtime, linker = _make(DRIVER_MAIN, extra=True)
        scheduler = Scheduler(seed=seed)
        runtime._scheduler = scheduler
        code_floor = runtime.code_cursor
        drivers = [
            scheduler.add_generator(
                self._driver(linker, scheduler, 100 + seed), name="a"),
            scheduler.add_generator(
                self._driver(linker, scheduler, 200 + seed), name="b"),
            scheduler.add_generator(
                self._driver(linker, scheduler, 300 + seed,
                             name="other"), name="c"),
        ]
        scheduler.add_generator(
            self._checker(runtime, linker, drivers), name="check")
        outcome = scheduler.run(max_ticks=500_000)
        assert outcome.fault is None, outcome.describe()
        linker._drain_pending_updates()
        # Fully quiescent now: everything closed, nothing published.
        self._quiescent_ok(runtime, linker)
        assert not linker.loaded
        assert runtime.id_tables.bary_ecns == runtime.cfg.bary_ecns
        stale = _stale_entries(runtime, code_floor, runtime.code_cursor)
        assert not stale, [hex(a) for a in stale]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_double_close_of_drained_handle_is_noop(self, seed):
        """A dlclose racing another dlclose of the same handle: the
        drain completes the first unload, and the second returns -1
        instead of double-unloading."""
        runtime, linker = _make(DRIVER_MAIN)
        scheduler = Scheduler(seed=seed)
        runtime._scheduler = scheduler
        handle = linker.dlopen("plugin")
        assert handle
        linker._drain_pending_updates()

        results = []

        def closer():
            results.append(linker.dlclose(handle))
            yield

        scheduler.add_generator(closer(), name="x")
        scheduler.add_generator(closer(), name="y")
        scheduler.run(max_ticks=100_000)
        linker._drain_pending_updates()
        assert sorted(results) == [-1, 0]
        assert not linker.loaded
        assert not runtime.update_lock.held
