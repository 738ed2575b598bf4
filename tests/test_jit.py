"""Tests for runtime code installation (the JIT scenario) and module
unloading (dlclose) — the paper's future-work directions built out."""

import pytest

from repro.errors import RuntimeError_
from repro.linker.dynamic_linker import DynamicLinker
from repro.runtime.jit import JitEngine
from repro.runtime.runtime import Runtime
from repro.build import build_program, compile_object


def jit_runtime(source):
    program = build_program({"main": source}, mcfi=True).program
    runtime = Runtime(program)
    JitEngine(runtime)
    return runtime


class TestJitInstall:
    def test_guest_compiles_and_calls(self):
        runtime = jit_runtime(r"""
            int main(void) {
                long addr = jit_compile(
                    "long sq(long x) { return x * x; }", "sq");
                long (*f)(long) = (long (*)(long))addr;
                if (addr == 0) { return 1; }
                print_int(f(9));
                return 0;
            }
        """)
        result = runtime.run()
        assert result.ok, result.violation or result.fault
        assert result.output == b"81"
        assert runtime.jit_engine.stats.installs == 1
        assert runtime.id_tables.version == 1

    def test_repeated_installs_bump_versions(self):
        runtime = jit_runtime(r"""
            int main(void) {
                long total = 0;
                int i;
                char *sources[3];
                sources[0] = "long g0(long x) { return x + 1; }";
                sources[1] = "long g1(long x) { return x + 2; }";
                sources[2] = "long g2(long x) { return x + 3; }";
                {
                    char *names[3];
                    names[0] = "g0"; names[1] = "g1"; names[2] = "g2";
                    for (i = 0; i < 3; i++) {
                        long (*f)(long) = (long (*)(long))
                            jit_compile(sources[i], names[i]);
                        total += f(10);
                    }
                }
                print_int(total);
                return 0;
            }
        """)
        result = runtime.run()
        assert result.ok, result.violation or result.fault
        assert result.output == b"36"
        assert runtime.id_tables.version == 3
        assert runtime.jit_engine.stats.installs == 3

    def test_jitted_code_is_type_checked(self):
        """JIT-sprayed code of the wrong type is unreachable: calling a
        freshly installed long(long,long) through a long(long) pointer
        must halt."""
        runtime = jit_runtime(r"""
            int main(void) {
                long addr = jit_compile(
                    "long two(long a, long b) { return a + b; }", "two");
                long (*f)(long) = (long (*)(long))addr;  /* wrong type */
                print_int(f(1));
                return 0;
            }
        """)
        result = runtime.run()
        assert result.violation is not None
        assert "mismatch" in result.violation.reason

    def test_jitted_pages_sealed(self):
        runtime = jit_runtime(r"""
            int main(void) {
                jit_compile("long id1(long x) { return x; }", "id1");
                return 0;
            }
        """)
        assert runtime.run().ok
        library = runtime.dynamic_linker.loaded[1]
        assert runtime.memory.is_executable(library.module.base)
        assert not runtime.memory.is_writable(library.module.base)

    def test_bad_source_returns_zero(self):
        runtime = jit_runtime(r"""
            int main(void) {
                long addr = jit_compile("long broken(", "broken");
                print_int(addr == 0 ? 1 : 0);
                return 0;
            }
        """)
        result = runtime.run()
        assert result.ok and result.output == b"1"

    def test_host_api_and_helper(self):
        program = build_program(
            {"main": "int main(void) { return 0; }"}, mcfi=True).program
        runtime = Runtime(program)
        engine = JitEngine(runtime)
        address = engine.install_function(
            "long triple(long x) { return x * 3; }\n", "triple")
        assert address != 0
        assert engine.stats.compiled_bytes > 0
        assert "triple" in engine.stats.installed_functions
        assert engine.linker.verify

    @pytest.mark.parametrize("verify", [False, True])
    def test_engine_keeps_the_linker_configuration(self, verify):
        # The linker's verify flag governs every later dlopen, not only
        # the engine's: the engine uses the linker as it finds it.
        program = build_program(
            {"main": "int main(void) { return 0; }"}, mcfi=True).program
        runtime = Runtime(program)
        linker = DynamicLinker(runtime, verify=verify)
        engine = JitEngine(runtime)
        assert engine.linker is linker
        assert linker.verify is verify

    def test_non_utf8_source_returns_zero(self):
        runtime = jit_runtime(r"""
            int main(void) {
                char source[40];
                char *text = "long bad(long x) { return x; }";
                int i;
                for (i = 0; text[i] != 0; i++) { source[i] = text[i]; }
                source[i] = 0;
                source[20] = (char)255;
                print_int(jit_compile(source, "bad") == 0 ? 1 : 0);
                return 0;
            }
        """)
        result = runtime.run()
        assert result.ok, result.violation or result.fault
        assert result.output == b"1"
        assert runtime.jit_engine.stats.installs == 0

    def test_jit_without_engine_returns_zero(self):
        program = build_program({"main": r"""
            int main(void) {
                print_int(jit_compile("long x0(long x){return x;}", "x0"));
                return 0;
            }
        """}, mcfi=True).program
        result = Runtime(program).run()
        assert result.ok and result.output == b"0"


class TestDlclose:
    SOURCE = r"""
        int main(void) {
            long h = dlopen("plugin");
            long sym = dlsym(h, "libfn");
            int (*f)(int) = (int (*)(int))sym;
            print_int(f(10));
            print_char(' ');
            print_int(dlclose(h));
            print_char(' ');
            f(10);                      /* stale: must halt */
            print_str("UNREACHABLE");
            return 0;
        }
    """

    def make(self):
        program = build_program({"main": self.SOURCE}, mcfi=True).program
        runtime = Runtime(program)
        linker = DynamicLinker(runtime)
        linker.register("plugin", compile_object(
            "int libfn(int x) { return x * 3 + 1; }", name="plugin"))
        return runtime, linker

    def test_stale_pointer_halts_after_unload(self):
        runtime, _ = self.make()
        result = runtime.run()
        assert result.output == b"31 0 "
        assert result.violation is not None
        assert "not a permitted" in result.violation.reason

    def test_unloaded_pages_not_executable(self):
        runtime, linker = self.make()
        handle = linker.dlopen("plugin")
        base = linker.loaded[handle].module.base
        assert runtime.memory.is_executable(base)
        linker.dlclose(handle)
        assert handle not in linker.loaded
        assert not runtime.memory.is_executable(base)

    def test_policy_shrinks(self):
        runtime, linker = self.make()
        before = runtime.cfg.stats()
        result = runtime.run()
        after = runtime.cfg.stats()
        assert after["IBs"] == before["IBs"]     # lib sites removed again
        assert runtime.id_tables.version == 2    # load + unload

    def test_dlclose_unknown_handle(self):
        runtime, linker = self.make()
        assert linker.dlclose(99) == -1

    def test_reload_after_unload(self):
        runtime, linker = self.make()
        handle = linker.dlopen("plugin")
        assert linker.dlclose(handle) == 0
        # Re-registering under the same name loads a fresh copy.
        linker.register("plugin", compile_object(
            "int libfn(int x) { return x + 1000; }", name="plugin2"))
        handle2 = linker.dlopen("plugin")
        assert handle2 != 0 and handle2 != handle
        assert linker.dlsym(handle2, "libfn") != 0


class TestAbaMitigation:
    def test_counter_tracks_updates(self):
        runtime, linker = TestDlclose().make()
        linker.dlopen("plugin")
        assert runtime.id_tables.updates_since_reset == 1

    def test_guard_fires_at_version_limit(self):
        from repro.core.tables import IdTables
        from repro.core.transactions import UpdateLock, \
            refresh_transaction
        from repro.vm.memory import TableMemory
        tables = IdTables(TableMemory())
        tables.install({0x1000: 1}, {0: 1})
        tables.updates_since_reset = 16382
        with pytest.raises(RuntimeError_, match="quiescence"):
            for _ in refresh_transaction(tables, UpdateLock()).run():
                pass

    def test_syscalls_reset_at_quiescence(self):
        """Every thread passing a syscall resets the ABA counter."""
        runtime, linker = TestDlclose().make()
        result = runtime.run()  # dlopen + dlclose + syscalls afterwards
        # the final write/exit syscalls observed quiescence after the
        # updates, so the counter was reset
        assert runtime.id_tables.updates_since_reset == 0
        assert runtime.id_tables.version == 2  # versions keep advancing
