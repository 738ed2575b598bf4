"""Tests for the dynamic linker: the paper's dlopen protocol (Sec. 6)."""

import pytest

from repro.linker.dynamic_linker import DynamicLinker
from repro.runtime.runtime import Runtime
from repro.build import build_program, compile_object
from repro.vm.scheduler import GeneratorTask

MAIN_SOURCE = {"main": """
    int libfn(int x);
    int main(void) {
        long h = dlopen("plugin");
        if (h == 0) { return 99; }
        print_int(libfn(10));          /* via PLT */
        print_char(' ');
        {
            long sym = dlsym(h, "libfn");
            int (*f)(int) = (int (*)(int))sym;
            print_int(f(20));          /* via dlsym'd pointer */
        }
        return 0;
    }
"""}

LIB_SOURCE = "int libfn(int x) { return x * 3 + 1; }"


def make_runtime(verify=False):
    program = build_program(MAIN_SOURCE, mcfi=True,
                            allow_unresolved=["libfn"]).program
    runtime = Runtime(program)
    linker = DynamicLinker(runtime, verify=verify)
    linker.register("plugin", compile_object(LIB_SOURCE, name="plugin"))
    return runtime, linker


class TestDlopen:
    def test_full_protocol_single_threaded(self):
        runtime, _ = make_runtime(verify=True)
        result = runtime.run()
        assert result.ok, result.violation or result.fault
        assert result.output == b"31 61"
        assert result.exit_code == 0

    def test_unknown_library_returns_zero(self):
        runtime, _ = make_runtime()
        runtime.dynamic_linker.registry.clear()
        result = runtime.run()
        assert result.exit_code == 99

    def test_dlopen_idempotent(self):
        runtime, linker = make_runtime()
        first = linker.dlopen("plugin")
        second = linker.dlopen("plugin")
        assert first == second != 0

    def test_library_code_sealed_after_load(self):
        runtime, linker = make_runtime()
        handle = linker.dlopen("plugin")
        module = linker.loaded[handle].module
        assert runtime.memory.is_executable(module.base)
        assert not runtime.memory.is_writable(module.base)

    def test_wrong_arch_library_rejected(self):
        from repro.errors import LinkError
        runtime, linker = make_runtime()
        lib32 = compile_object(LIB_SOURCE, name="lib32", arch="x32")
        with pytest.raises(LinkError):
            linker.register("plugin32", lib32)

    def test_library_with_unresolved_import_rejected(self):
        from repro.errors import LinkError
        runtime, linker = make_runtime()
        bad = compile_object(
            "int nowhere(int); int libfn2(int x) { return nowhere(x); }",
            name="bad")
        linker.register("bad", bad)
        with pytest.raises(LinkError):
            linker.dlopen("bad")

    @pytest.mark.parametrize("source", [
        # collides with the program's main
        "int main(void) { return 7; }",
        # collides with the resident plugin's libfn
        "int libfn(int x) { return x; } int other(int x) { return x; }",
    ])
    def test_symbol_collision_rejected_without_state_change(self, source):
        from repro.errors import LinkError
        runtime, linker = make_runtime()
        assert linker.dlopen("plugin")
        memory = runtime.id_tables.memory
        before = (dict(linker.loaded), dict(linker._by_name),
                  runtime.cfg.stats(), bytes(memory.tary),
                  bytes(memory.bary))
        linker.register("clash", compile_object(source, name="clash"))
        with pytest.raises(LinkError, match="redefines loaded symbols"):
            linker.dlopen("clash")
        after = (dict(linker.loaded), dict(linker._by_name),
                 runtime.cfg.stats(), bytes(memory.tary),
                 bytes(memory.bary))
        assert after == before
        linker.register("fresh", compile_object(
            "int fresh(int x) { return x + 1; }", name="fresh"))
        handle = linker.dlopen("fresh")
        assert handle and linker.dlsym(handle, "fresh")
        assert runtime.cfg.stats()["IBTs"] > before[2]["IBTs"]


class TestCfgUpdate:
    def test_cfg_grows_after_dlopen(self):
        runtime, linker = make_runtime()
        before = runtime.cfg.stats()
        linker.dlopen("plugin")
        after = runtime.cfg.stats()
        assert after["IBs"] > before["IBs"]
        assert after["IBTs"] > before["IBTs"]

    def test_table_version_bumped(self):
        runtime, linker = make_runtime()
        assert runtime.id_tables.version == 0
        linker.dlopen("plugin")
        assert runtime.id_tables.version == 1

    def test_got_rewritten_to_library_entry(self):
        runtime, linker = make_runtime()
        handle = linker.dlopen("plugin")
        got = runtime.program.got_slots["libfn"]
        value = int.from_bytes(runtime.memory.host_read(got, 8), "little")
        assert value == linker.loaded[handle].exports["libfn"]

    def test_dlsym_unknown_symbol_returns_zero(self):
        runtime, linker = make_runtime()
        handle = linker.dlopen("plugin")
        assert linker.dlsym(handle, "missing") == 0
        assert linker.dlsym(999, "libfn") == 0

    def test_library_calls_back_into_program(self):
        """lib -> main-program symbol resolution (libc functions)."""
        sources = {"main": """
            long sum3(long a);
            int main(void) {
                long h = dlopen("plugin");
                long sym = dlsym(h, "sum3");
                long (*f)(long) = (long (*)(long))sym;
                print_int(f(5));
                return 0;
            }
        """}
        program = build_program(sources, mcfi=True,
                                allow_unresolved=["sum3"]).program
        runtime = Runtime(program)
        linker = DynamicLinker(runtime)
        lib = compile_object(
            "long sum3(long a) { print_str(\"lib:\"); return a + 3; }",
            name="plugin")
        linker.register("plugin", lib)
        result = runtime.run()
        assert result.ok, result.violation or result.fault
        assert result.output == b"lib:8"


class TestConcurrentDlopen:
    """The headline scenario: one thread dlopens while others run."""

    SOURCE = {"main": """
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
                case 3: return 4;
                default: return 0;
            }
        }
        int main(void) {
            long h;
            thread_spawn(spinner, 400);
            h = dlopen("plugin");           /* concurrent update */
            if (h == 0) { return 99; }
            print_int(libfn(10));
            return 0;
        }
    """}

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_dlopen_during_execution(self, seed):
        program = build_program(self.SOURCE, mcfi=True,
                                allow_unresolved=["libfn"]).program
        runtime = Runtime(program)
        linker = DynamicLinker(runtime)
        linker.register("plugin", compile_object(LIB_SOURCE,
                                                 name="plugin"))
        result = runtime.run_scheduled(seed=seed, burst=4)
        assert result.ok, result.violation or result.fault
        assert result.output == b"31"
        assert runtime.id_tables.version == 1
