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

    @pytest.mark.parametrize("call", ["dlopen(name)",
                                      'dlsym(dlopen("plugin"), name)'])
    def test_non_utf8_name_returns_zero(self, call):
        """A name holding a byte that is not UTF-8 cannot name a
        library or a symbol: the call returns 0 instead of raising."""
        program = build_program({"main": f"""
            int main(void) {{
                char name[4];
                name[0] = (char)255;
                name[1] = 0;
                print_int({call} == 0 ? 1 : 0);
                return 0;
            }}
        """}, mcfi=True).program
        runtime = Runtime(program)
        linker = DynamicLinker(runtime)
        linker.register("plugin", compile_object(LIB_SOURCE, name="plugin"))
        result = runtime.run()
        assert result.ok, (result.violation, result.fault)
        assert result.output == b"1"


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


COUNTER_LIB = """
    long lib_counter = 12345;
    long lib_get(void) { return lib_counter; }
"""

IDLE_MAIN = "int main(void) { return 0; }"

_MINUS_ONE = (1 << 64) - 1


def _counter_runtime(main_source, plane=None):
    program = build_program({"main": main_source}, mcfi=True,
                            allow_unresolved=["lib_get"]).program
    runtime = Runtime(program)
    linker = DynamicLinker(runtime, **({} if plane is None else
                                       {"fault_plane": plane}))
    linker.register("plugin", compile_object(COUNTER_LIB, name="plugin"))
    return runtime, linker


def _sbrk(runtime, delta):
    """Issue the sbrk syscall on the main thread; return its result."""
    from repro.vm.syscalls import SYS_SBRK
    cpu = runtime.main_cpu()
    cpu.regs[0] = SYS_SBRK
    cpu.regs[8] = delta & _MINUS_ONE
    runtime.syscall(cpu)
    return cpu.regs[0]


class TestAddressSpace:
    """The runtime owns the layout: the heap grows up from
    ``heap_base``, library data is placed top-down from ``DATA_LIMIT``,
    and neither can reach the other."""

    def test_heap_fill_leaves_library_globals_intact(self):
        runtime, _ = _counter_runtime("""
            long lib_get(void);
            int main(void) {
                long n = 262144;              /* 2 MiB of longs */
                long *block;
                long i;
                if (dlopen("plugin") == 0) { return 99; }
                block = (long *)malloc(n * 8);
                if (block == 0) { return 98; }
                for (i = 0; i < n; i++) { block[i] = 7; }
                print_int(lib_get());
                return 0;
            }
        """)
        result = runtime.run()
        assert result.ok, (result.violation, result.fault)
        assert result.output == b"12345"

    def test_malloc_across_library_data_returns_null(self):
        from repro.vm.memory import DATA_LIMIT
        runtime, _ = _counter_runtime(f"""
            long lib_get(void);
            int main(void) {{
                long top = {DATA_LIMIT};
                long brk;
                if (dlopen("plugin") == 0) {{ return 99; }}
                brk = __syscall(3, 0, 0, 0);  /* sbrk(0): the break */
                /* header included, this asks for the break at top */
                print_int(malloc(top - brk - 16) == 0);
                print_int(malloc(64) != 0);
                print_int(lib_get());
                return 0;
            }}
        """)
        result = runtime.run()
        assert result.ok, (result.violation, result.fault)
        assert result.output == b"1112345"

    def test_sbrk_stops_at_lowest_library_data(self):
        runtime, linker = _counter_runtime(IDLE_MAIN)
        assert linker.dlopen("plugin")
        room = runtime.data_floor - runtime.brk
        assert _sbrk(runtime, room + 1) == _MINUS_ONE
        start = runtime.brk
        assert _sbrk(runtime, room) == start
        assert runtime.brk == runtime.data_floor

    def test_dlopen_without_room_above_the_break_fails_typed(self):
        from repro.errors import RuntimeError_
        from repro.faults.harness import snapshot_tables
        from repro.vm.memory import DATA_LIMIT
        runtime, linker = _counter_runtime(IDLE_MAIN)
        # The heap takes all but half a page of the data region.
        assert _sbrk(runtime, DATA_LIMIT - runtime.brk - 0x800) \
            != _MINUS_ONE
        before = snapshot_tables(runtime)
        layout = (runtime.code_cursor, runtime.data_floor)
        with pytest.raises(RuntimeError_,
                           match="data region exhausted by dlopen"):
            linker.dlopen("plugin")
        assert snapshot_tables(runtime) == before
        assert (runtime.code_cursor, runtime.data_floor) == layout
        assert not linker.loaded

    def test_library_data_placed_top_down(self):
        from repro.vm.memory import DATA_LIMIT, PAGE_SIZE
        runtime, linker = _counter_runtime(IDLE_MAIN)
        linker.register("second", compile_object(
            "long second_counter = 7;\n"
            "long second_get(void) { return second_counter; }",
            name="second"))
        code_cursor = runtime.code_cursor
        first = linker.loaded[linker.dlopen("plugin")]
        second = linker.loaded[linker.dlopen("second")]
        assert first.module.base == code_cursor
        assert first.data_base == DATA_LIMIT - PAGE_SIZE
        assert second.data_base == first.data_base - PAGE_SIZE
        assert runtime.data_floor == second.data_base

    def test_library_without_data_takes_no_data_pages(self):
        from repro.vm.memory import DATA_LIMIT
        runtime, linker = make_runtime()
        assert linker.dlopen("plugin")
        assert runtime.data_floor == DATA_LIMIT

    def test_rolled_back_library_data_returns_to_the_heap(self):
        """A failed load hands its data pages back writable and
        zeroed, rodata included, so the heap can grow into them."""
        from repro.faults.plane import FaultPlane
        from repro.vm.memory import DATA_LIMIT, PAGE_SIZE
        plane = FaultPlane(seed=0).arm("dlopen.update", count=1)
        runtime, linker = _counter_runtime(IDLE_MAIN, plane)
        linker.register("strings", compile_object(
            'long greeting_len(void) { return strlen("hello"); }\n'
            "long greeting_count = 3;", name="strings"))
        assert linker.dlopen("strings") == 0        # injected failure
        assert runtime.data_floor == DATA_LIMIT
        span = 2 * PAGE_SIZE
        low = DATA_LIMIT - span
        assert runtime.memory.host_read(low, span) == bytes(span)
        assert all(runtime.memory.is_writable(page)
                   for page in range(low, DATA_LIMIT, PAGE_SIZE))
        handle = linker.dlopen("strings")           # plane exhausted
        assert linker.loaded[handle].data_base == low


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
