"""Tests for the MCFI runtime: loading, W^X, syscalls, execution."""

import pytest

from repro.errors import CfiViolation, MemoryFault, RuntimeError_, \
    WxViolation
from repro.runtime.runtime import Runtime
from repro.build import build_program
from tests.conftest import run_source


class TestLoading:
    def test_code_pages_sealed(self, demo_runtime):
        module = demo_runtime.program.module
        memory = demo_runtime.memory
        assert memory.is_executable(module.base)
        assert not memory.is_writable(module.base)

    def test_rodata_sealed(self, demo_runtime):
        data = demo_runtime.program.data
        if data.rodata_end:
            assert not demo_runtime.memory.is_writable(data.base)

    def test_bary_slots_patched(self, demo_runtime):
        """Every tload immediate must hold 4 * global site number."""
        module = demo_runtime.program.module
        for site, offset in module.bary_slots.items():
            raw = demo_runtime.memory.host_read(module.base + offset, 4)
            assert int.from_bytes(raw, "little") == 4 * site

    def test_tables_installed(self, demo_runtime):
        stats = demo_runtime.id_tables.stats()
        assert stats["targets"] > 0
        assert stats["branch_sites"] == \
            len(demo_runtime.program.module.aux.branch_sites)

    def test_program_runs(self, demo_runtime):
        result = demo_runtime.run()
        assert result.ok
        assert result.output.startswith(b"demo ")


class TestSyscalls:
    def test_exit_code(self):
        result = run_source("int main(void) { exit(7); return 0; }")
        assert result.exit_code == 7

    def test_write_collects_output(self):
        result = run_source(
            'int main(void) { write(1, "xyz", 3); return 0; }')
        assert result.output == b"xyz"

    def test_sbrk_grows_heap(self):
        result = run_source("""
            int main(void) {
                long a = __syscall(3, 64, 0, 0);
                long b = __syscall(3, 64, 0, 0);
                print_int(b - a);
                return 0;
            }
        """)
        assert result.output == b"64"

    def test_sbrk_exhaustion_returns_minus_one(self):
        result = run_source("""
            int main(void) {
                long r = __syscall(3, 0x40000000, 0, 0);
                print_int(r == -1 ? 1 : 0);
                return 0;
            }
        """)
        assert result.output == b"1"

    def test_time_returns_cycles(self):
        result = run_source("""
            int main(void) {
                long t0 = time_now();
                long t1 = time_now();
                print_int(t1 > t0 ? 1 : 0);
                return 0;
            }
        """)
        assert result.output == b"1"

    def test_unknown_syscall_rejected(self):
        result = run_source(
            "int main(void) { __syscall(999, 0, 0, 0); return 0; }")
        assert isinstance(result.fault, Exception) or not result.ok


class TestWxInvariant:
    def test_mprotect_wx_refused(self):
        source = """
            int main(void) {
                /* PROT_READ|PROT_WRITE|PROT_EXEC = 7 on the heap */
                long r = __syscall(9, 0x1400000, 4096, 7);
                return (int)r;
            }
        """
        result = run_source(source)
        assert isinstance(result.fault, WxViolation)

    def test_mprotect_code_region_refused(self):
        result = run_source("""
            int main(void) {
                long r = __syscall(9, 0x10000, 4096, 3); /* RW on code */
                print_int(r == -1 ? 1 : 0);
                return 0;
            }
        """)
        assert result.output == b"1"

    def test_mprotect_data_exec_refused(self):
        result = run_source("""
            int main(void) {
                long r = __syscall(9, 0x1400000, 4096, 5); /* R+X data */
                print_int(r == -1 ? 1 : 0);
                return 0;
            }
        """)
        assert result.output == b"1"

    def test_data_is_not_executable(self):
        """Jumping into writable data must fault, not execute."""
        result = run_source("""
            long buf[4];
            int main(void) {
                void (*f)(void) = (void (*)(void))(void *)buf;
                f();
                return 0;
            }
        """, mcfi=False)
        assert isinstance(result.fault, MemoryFault)

    def test_mcfi_blocks_data_jump_before_fetch(self):
        # A data-region target is outside the Tary table entirely: the
        # table read faults (the paper's fail-safe %gs segfault) before
        # any fetch from non-executable memory happens.
        result = run_source("""
            long buf[4];
            int main(void) {
                void (*f)(void) = (void (*)(void))(void *)buf;
                f();
                return 0;
            }
        """, mcfi=True)
        assert result.violation is not None or \
            isinstance(result.fault, MemoryFault)
        assert result.exit_code is None  # never completed


class TestThreads:
    SOURCE = """
        long counters[2];
        void worker(long index) {
            long i;
            for (i = 0; i < 50; i++) { counters[index] += 1; }
        }
        int main(void) {
            int t1 = thread_spawn(worker, 0);
            int t2 = thread_spawn(worker, 1);
            long spin = 0;
            while (counters[0] + counters[1] < 100 && spin < 200000) {
                spin++;
            }
            print_int(counters[0] + counters[1]);
            return 0;
        }
    """

    def test_threads_require_scheduled_mode(self):
        program = build_program({"t": self.SOURCE}, mcfi=True).program
        runtime = Runtime(program)
        result = runtime.run()
        assert not result.ok  # thread_spawn raises in fast mode

    def test_threads_run_interleaved(self):
        program = build_program({"t": self.SOURCE}, mcfi=True).program
        runtime = Runtime(program)
        result = runtime.run_scheduled(seed=5, burst=8)
        assert result.ok, result.violation or result.fault
        assert result.output == b"100"

    def test_thread_entry_is_type_checked(self):
        """A thread entry of the wrong type is caught by the CFI check
        in __thread_start's indirect call."""
        source = """
            void bad_entry(long a, long b) { }
            int main(void) {
                thread_spawn((void (*)(long))(void *)bad_entry, 1);
                sched_yield();
                return 0;
            }
        """
        program = build_program({"t": source}, mcfi=True).program
        runtime = Runtime(program)
        result = runtime.run_scheduled(seed=1, burst=4)
        assert result.violation is not None


class TestRunResult:
    def test_cycle_and_instruction_counts(self, demo_program):
        result = Runtime(demo_program).run()
        assert result.instructions > 0
        assert result.cycles > 0

    def test_fresh_runtime_per_run(self, demo_program):
        first = Runtime(demo_program).run()
        second = Runtime(demo_program).run()
        assert first.output == second.output
        assert first.cycles == second.cycles  # fully deterministic


class TestCodeSharing:
    """Paper Sec. 4: "code pages for applications and libraries can be
    shared among processes" because instrumentation is parameterized
    over the ID tables, not over embedded IDs."""

    def test_identical_code_bytes_across_processes(self, demo_program):
        first = Runtime(demo_program)
        second = Runtime(demo_program)
        module = demo_program.module
        code_a = first.memory.host_read(module.base, len(module.code))
        code_b = second.memory.host_read(module.base, len(module.code))
        assert code_a == code_b

    def test_same_code_different_policies(self, demo_program):
        """Two processes run the same bytes under different CFGs: the
        tables differ, the code does not (classic CFI cannot do this —
        its ECNs live in the code bytes)."""
        from repro.baselines.policies import bincfi_policy
        module = demo_program.module
        strict = Runtime(demo_program)
        coarse = Runtime(demo_program)
        policy = bincfi_policy(module.aux)
        coarse.id_tables.install(policy.tary_ecns, policy.bary_ecns)
        assert strict.memory.host_read(module.base, len(module.code)) == \
            coarse.memory.host_read(module.base, len(module.code))
        # and both processes still run the legal program fine
        assert strict.run().ok
        assert coarse.run().ok
        # but their installed policies differ
        assert strict.id_tables.tary_ecns != coarse.id_tables.tary_ecns
