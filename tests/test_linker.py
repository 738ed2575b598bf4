"""Tests for the static linker: separate compilation, layout, PLT."""

import pytest

from repro.build import build_program, compile_object
from repro.errors import LinkError
from repro.linker.static_linker import layout_data
from repro.vm.memory import DATA_BASE, PAGE_SIZE
from tests.conftest import link_objects as link
from tests.test_golden_digests import PLT_SOURCE


def modules(*sources):
    return [compile_object(text, name=f"m{i}")
            for i, text in enumerate(sources)]


MAIN = """
    int helper(int x);
    void exit(int c) { __syscall(1, c, 0, 0); }
    void _start(void) { exit(helper(2)); }
"""
HELPER = "int helper(int x) { return x * 10; }"


class TestSymbolResolution:
    def test_cross_module_calls_resolve(self):
        program = link(modules(MAIN, HELPER), mcfi=True)
        assert "helper" in program.labels
        assert "_start" in program.labels

    def test_unresolved_symbol_rejected(self):
        with pytest.raises(LinkError, match="helper"):
            link(modules(MAIN), mcfi=True)

    def test_duplicate_function_rejected(self):
        with pytest.raises(LinkError, match="helper"):
            link(modules(MAIN, HELPER, HELPER), mcfi=True)

    def test_duplicate_global_rejected(self):
        a = compile_object("long shared;", name="a")
        b = compile_object("long shared; void _start(void) { }", name="b")
        with pytest.raises(LinkError):
            link([a, b], mcfi=True)

    def test_duplicate_global_from_sources_is_named(self):
        # The data layout is where two modules' globals meet.
        with pytest.raises(LinkError, match=r"^duplicate global 'g'$"):
            build_program({"a": "int g; int main(void) { return g; }",
                           "b": "int g;"})

    @pytest.mark.parametrize("arch", ["x64", "x32"])
    def test_static_globals_are_per_module(self, arch):
        """Each module's code, and each module's initializers, reach
        the module's own static ``g``."""
        from repro.toolchain import run_program
        program = build_program({
            "a": "static int g = 3; int *pa = &g; int bump(void);"
                 " int main(void) { *pa = *pa + 1;"
                 " return g * 10 + bump(); }",
            "b": "static int g = 7; int *pb = &g;"
                 " int bump(void) { *pb = *pb + 2; return g; }",
        }, arch=arch).program
        assert run_program(program).exit_code == 49
        assert {"g", "b$g"} <= set(program.data.symbols)

    def test_static_global_yields_to_exported_one(self):
        from repro.toolchain import run_program
        program = build_program({
            "a": "static int g = 3; int other(void);"
                 " int main(void) { return g * 10 + other(); }",
            "b": "int g = 7; int other(void) { return g; }",
        }).program
        assert run_program(program).exit_code == 37
        assert {"a$g", "g"} <= set(program.data.symbols)

    def test_mixed_arch_rejected(self):
        a = compile_object(HELPER, name="a", arch="x64")
        b = compile_object("void _start(void) { }", name="b", arch="x32")
        with pytest.raises(LinkError):
            link([a, b])

    def test_entry_symbol_required(self):
        with pytest.raises(LinkError, match="_start"):
            link(modules(HELPER), mcfi=True)

    def test_empty_link_rejected(self):
        with pytest.raises(LinkError):
            link([])


class TestDataLayout:
    def test_strings_before_globals_page_separated(self):
        raw = compile_object(
            'char *msg = "hello"; long counter = 5; '
            'void _start(void) { }', name="d")
        layout = layout_data([raw])
        string_addr = min(addr for label, addr in layout.symbols.items()
                          if ".str" in label)
        assert string_addr < layout.symbols["counter"]
        assert layout.rodata_end % PAGE_SIZE == 0
        assert layout.symbols["counter"] >= DATA_BASE + layout.rodata_end

    def test_globals_aligned(self):
        raw = compile_object(
            "char c; long l; double d; void _start(void) { }", name="d")
        layout = layout_data([raw])
        for name in ("c", "l", "d"):
            assert layout.symbols[name] % 8 == 0

    def test_data_image_contains_initializers(self):
        program = link(modules(
            'long magic = 0x1122334455667788; void _start(void) { }'),
            mcfi=True)
        offset = program.data.symbols["magic"] - program.data.base
        value = int.from_bytes(program.data.image[offset:offset + 8],
                               "little")
        assert value == 0x1122334455667788

    def test_function_address_in_data(self):
        program = link(modules("""
            void cb(void) { }
            void (*slot)(void) = cb;
            void _start(void) { }
        """), mcfi=True)
        offset = program.data.symbols["slot"] - program.data.base
        value = int.from_bytes(program.data.image[offset:offset + 8],
                               "little")
        assert value == program.labels["cb"]


class TestSeparateInstrumentation:
    def test_sites_renumbered_globally(self):
        program = link(modules(MAIN, HELPER), mcfi=True)
        sites = [s.site for s in program.module.aux.branch_sites]
        assert sites == list(range(len(sites)))

    def test_aux_info_merged(self):
        program = link(modules(MAIN, HELPER), mcfi=True)
        aux = program.module.aux
        assert {"_start", "exit", "helper"} <= set(aux.functions)
        modules_seen = {f.module for f in aux.functions.values()}
        assert len(modules_seen) == 2

    def test_native_mode_skips_instrumentation(self):
        program = link(modules(MAIN, HELPER), mcfi=False)
        assert not program.module.aux.branch_sites or True
        from repro.isa.disasm import sweep_ranges
        from repro.isa.instructions import Op
        module = program.module
        ops = {d.op for d in sweep_ranges(module.code, module.base,
                                          module.code_ranges)}
        assert Op.RET in ops
        assert Op.TLOAD_RI not in ops


class TestPlt:
    MAIN_DYN = PLT_SOURCE

    def test_plt_emitted_for_dynamic_symbols(self):
        program = link(modules(self.MAIN_DYN), mcfi=True,
                       allow_unresolved=["plugin_fn"])
        assert "plugin_fn" in program.labels  # the PLT alias
        assert "plugin_fn" in program.got_slots
        plt_sites = [s for s in program.module.aux.branch_sites
                     if s.kind == "plt"]
        assert len(plt_sites) == 1
        assert plt_sites[0].plt_symbol == "plugin_fn"

    def test_plt_requires_mcfi(self):
        with pytest.raises(LinkError):
            link(modules(self.MAIN_DYN), mcfi=False,
                 allow_unresolved=["plugin_fn"])

    def test_calling_unresolved_plt_is_fail_safe(self):
        """Before dlopen resolves the symbol, a PLT call must halt (the
        GOT holds 0, which has no valid Tary ID)."""
        from repro.runtime.runtime import Runtime
        program = link(modules(self.MAIN_DYN), mcfi=True,
                       allow_unresolved=["plugin_fn"])
        result = Runtime(program).run()
        assert result.violation is not None or result.fault is not None

    def test_got_slots_in_writable_data(self):
        program = link(modules(self.MAIN_DYN), mcfi=True,
                       allow_unresolved=["plugin_fn"])
        got = program.got_slots["plugin_fn"]
        assert got >= program.data.base + program.data.rodata_end


class TestObjectSplit:
    @pytest.mark.parametrize("mcfi", [True, False])
    def test_split_objects_link_like_a_session_build(self, mcfi):
        """A compiled module split into units at its function entries
        links to exactly the image a session builds from its source
        (function pointers, a switch table, setjmp, strings)."""
        from repro.build import build_program
        from repro.workloads.libc import LIBC_SOURCE
        from tests.conftest import DEMO_SOURCE
        from tests.test_golden_digests import image_digest, link_record
        split = link([compile_object(DEMO_SOURCE, name="demo"),
                      compile_object(LIBC_SOURCE, name="libc")], mcfi=mcfi)
        built = build_program({"demo": DEMO_SOURCE}, mcfi=mcfi).program
        assert image_digest(split) == image_digest(built)
        assert link_record(split) == link_record(built)
