"""Tests for the toolchain driver, the spec CLI, and example smoke."""

from pathlib import Path

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
    """``repro spec`` prints the committed tables of benchmarks/results."""

    @staticmethod
    def committed(stem):
        root = Path(__file__).resolve().parents[1]
        return (root / "benchmarks" / "results" / f"{stem}.txt") \
            .read_text().splitlines()

    def test_table1_subset(self, capsys):
        from repro.tools.spec import main
        assert main(["table1", "--benchmarks", "mcf", "lbm"]) == 0
        lines = capsys.readouterr().out.splitlines()
        committed = self.committed("table1_c1_violations")
        picked = [line for line in committed
                  if line.split()[:1] in (["mcf"], ["lbm"])]
        assert lines == committed[:1] + picked[:2] + committed[13:15] + \
            picked[2:]

    def test_stm_artifact(self, capsys):
        from repro.tools.spec import main
        assert main(["stm"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == self.committed("stm_micro")[:2]
        assert [line.split()[0] for line in lines[2:]] == \
            ["MCFI", "TML", "RWL", "Mutex"]

    def test_multiple_artifacts(self, capsys):
        from repro.tools.spec import main
        assert main(["table3", "cfggen", "--benchmarks", "libquantum",
                     "--arch", "x64"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "benchmark     IBs64  IBTs64  EQCs64"
        assert lines[2:4] == ["", self.committed("table3_cfg_stats")[-1]]
        assert lines[4:6] == ["", self.committed("cfg_generation_time")[0]]
        assert [line.split()[0] for line in (lines[1], lines[6])] == \
            ["libquantum", "libquantum"]

    def test_single_arch_artifact_rejects_two_archs(self, capsys):
        from repro.tools.spec import main
        with pytest.raises(SystemExit) as exc:
            main(["space", "--arch", "x32", "x64"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "space covers one architecture" in captured.err

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
