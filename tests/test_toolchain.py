"""Tests for the toolchain driver, the spec CLI, and example smoke."""

import pytest

from repro.errors import LinkError, ParseError, TypeError_
from repro.build import build_program, compile_object
from repro.toolchain import frontend, run_program


class TestDriver:
    def test_prelude_injects_libc_declarations(self):
        checked = frontend("int main(void) { print_int(1); return 0; }")
        assert "print_int" in checked.func_sigs

    def test_prelude_can_be_disabled(self):
        with pytest.raises(TypeError_):
            frontend("int main(void) { print_int(1); return 0; }",
                     prelude=False)

    def test_parse_errors_propagate(self):
        with pytest.raises(ParseError):
            compile_object("int main(void) {")

    def test_without_libc_needs_start(self):
        with pytest.raises(LinkError, match="_start"):
            build_program({"t": "int main(void) { return 0; }"},
                          with_libc=False)

    def test_freestanding_program(self):
        source = """
            void _start(void) { __syscall(1, 7, 0, 0); }
        """
        program = build_program({"t": source}, with_libc=False).program
        from repro.runtime.runtime import Runtime
        assert Runtime(program).run().exit_code == 7

    def test_compile_and_run_convenience(self):
        from repro.analysis.binverify import verify_module
        program = build_program({"t": "int main(void) { return 11; }"}
                                ).program
        verify_module(program.module)
        assert run_program(program).exit_code == 11

    def test_arch_validation(self):
        from repro.errors import CodegenError
        with pytest.raises(CodegenError):
            compile_object("int main(void){return 0;}", arch="arm")


class TestSpecCli:
    def test_table1_subset(self, capsys):
        from repro.tools.spec import main
        assert main(["table1", "--benchmarks", "mcf", "lbm"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "Table 1" in out

    def test_stm_artifact(self, capsys):
        from repro.tools.spec import main
        assert main(["stm"]) == 0
        assert "MCFI" in capsys.readouterr().out

    def test_multiple_artifacts(self, capsys):
        from repro.tools.spec import main
        assert main(["table3", "cfggen", "--benchmarks", "libquantum",
                     "--arch", "x64"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out and "CFG generation" in out

    def test_rejects_unknown_artifact(self):
        from repro.tools.spec import main
        with pytest.raises(SystemExit):
            main(["flurb"])


class TestExamplesSmoke:
    """The examples must stay runnable (they are documentation)."""

    def test_quickstart(self, capsys):
        from examples.quickstart import main
        main()
        out = capsys.readouterr().out
        assert "HIJACKED" in out and "blocked the hijack" in out

    def test_separate_compilation(self, capsys):
        from examples.separate_compilation import main
        main()
        out = capsys.readouterr().out
        assert "program A" in out and "program B" in out
        assert "'negate', 'scale'" in out

    def test_jit_example(self, capsys):
        from examples.jit_compiler import main
        main()
        out = capsys.readouterr().out
        assert "JIT installs : 3" in out
        assert "mismatch" in out

    def test_dynamic_linking_example(self, capsys):
        from examples.dynamic_linking import main
        main()
        out = capsys.readouterr().out
        assert "transform(10) = 101" in out
        assert "via dlsym     = 122" in out
        assert "exit code        : 0   ok=True" in out

    def test_porting_workflow_example(self, capsys):
        from examples.porting_workflow import main
        main()
        out = capsys.readouterr().out
        assert "CFI violation" in out
        assert "K1 cases needing fixes = 0" in out
        assert "exit=0 ok=True" in out
