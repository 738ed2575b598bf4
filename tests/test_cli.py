"""Tests for the umbrella CLI and the obs tool (PR 3)."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.cli import TOOLS, build_parser, main as cli_main, tool_argv
from repro.tools.obs import (DEMO_SUBSYSTEMS, METRIC_CATALOG, SPAN_CATALOG,
                             load_trace, run_demo, subsystem)
from repro.tools.obs import main as obs_main


def _argv_for(argv):
    return tool_argv(build_parser().parse_args(argv))


class TestFlagForwarding:
    def test_spec_gets_jobs_and_cache_dir(self):
        rest = _argv_for(["--jobs", "4", "--cache-dir", "/tmp/c",
                          "spec", "fig5"])
        assert rest == ["fig5", "--jobs", "4", "--cache-dir", "/tmp/c"]

    def test_explicit_tool_flag_wins(self):
        rest = _argv_for(["--jobs", "4", "spec", "fig5",
                          "--jobs", "2"])
        assert rest.count("--jobs") == 1
        assert rest == ["fig5", "--jobs", "2"]

    def test_infra_report_gets_no_jobs(self):
        rest = _argv_for(["--jobs", "4", "--cache-dir", "/tmp/c",
                          "infra", "report"])
        assert "--jobs" not in rest
        assert rest == ["report", "--cache-dir", "/tmp/c"]

    def test_build_gets_cache_dir_but_no_jobs(self):
        rest = _argv_for(["--jobs", "4", "--cache-dir", "/tmp/c",
                          "build", "--workload", "lbm"])
        assert rest == ["--workload", "lbm", "--cache-dir", "/tmp/c"]

    def test_faults_campaign_seed_becomes_seeds(self):
        rest = _argv_for(["--seed", "3", "--jobs", "2",
                          "faults", "campaign"])
        assert rest == ["campaign", "--jobs", "2", "--seeds", "3"]

    def test_faults_report_gets_nothing(self):
        rest = _argv_for(["--seed", "3", "--jobs", "2",
                          "faults", "report"])
        assert rest == ["report"]

    def test_obs_demo_gets_seed_and_out(self):
        rest = _argv_for(["--seed", "5", "--trace", "/tmp/t.jsonl",
                          "obs", "demo"])
        assert rest == ["demo", "--seed", "5", "--out", "/tmp/t.jsonl"]

    def test_passthrough_tools_untouched(self):
        rest = _argv_for(["--jobs", "4", "cc", "prog.c", "--run"])
        assert rest == ["prog.c", "--run"]

    def test_service_subcommands_get_seed(self):
        rest = _argv_for(["--seed", "9", "service", "run",
                          "--tenants", "10"])
        assert rest == ["run", "--tenants", "10", "--seed", "9"]
        rest = _argv_for(["--seed", "9", "service", "scale"])
        assert rest == ["scale", "--seed", "9"]

    def test_every_tool_module_resolves(self):
        import importlib
        for name in TOOLS.values():
            module = importlib.import_module(f"repro.tools.{name}")
            assert callable(module.main)


class TestUmbrellaParity:
    def test_spec_stdout_identical(self, capsys):
        from repro.tools.spec import main as spec_main

        argv = ["table1", "--benchmarks", "libquantum"]
        assert spec_main(argv) == 0
        direct = capsys.readouterr().out
        assert cli_main(["spec"] + argv) == 0
        assert capsys.readouterr().out == direct

    def test_trace_leaves_stdout_unchanged(self, capsys, tmp_path):
        argv = ["spec", "table1", "--benchmarks", "libquantum"]
        assert cli_main(argv) == 0
        untraced = capsys.readouterr().out
        trace_path = tmp_path / "t.jsonl"
        assert cli_main(["--trace", str(trace_path)] + argv) == 0
        captured = capsys.readouterr()
        assert captured.out == untraced
        assert "[obs]" in captured.err
        assert trace_path.exists()

    def test_trace_disabled_after_command(self, tmp_path):
        from repro.obs import OBS

        cli_main(["--trace", str(tmp_path / "t.jsonl"),
                  "spec", "table1", "--benchmarks", "libquantum"])
        assert not OBS.enabled


class TestObsTool:
    @pytest.fixture(scope="class")
    def demo_trace(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("obs") / "demo.jsonl"
        path, covered = run_demo(0, out)
        return out, covered

    def test_demo_covers_six_subsystems(self, demo_trace):
        _, covered = demo_trace
        assert set(DEMO_SUBSYSTEMS) <= set(covered)

    def test_demo_trace_validates(self, demo_trace):
        out, _ = demo_trace
        header, spans, metrics, problems = load_trace(out)
        assert problems == []
        assert header["clock"] == "logical"
        assert header["spans"] == len(spans)
        assert metrics is not None

    def test_report_command(self, demo_trace, capsys):
        out, _ = demo_trace
        assert obs_main(["report", str(out), "--check-schema"]) == 0
        text = capsys.readouterr().out
        assert "subsystems" in text
        assert "linker.dlopen" in text

    def test_check_schema_rejects_drift(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"kind": "trace-header", "version": 99,
                                   "clock": "logical", "seed": 0,
                                   "spans": 0}) + "\n")
        assert obs_main(["report", str(bad), "--check-schema"]) == 1
        assert "schema drift" in capsys.readouterr().err

    def test_check_schema_rejects_missing_header(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"kind": "span", "id": 0, "name": "x",
                                   "t0": 1, "t1": 2}) + "\n")
        assert obs_main(["report", str(bad), "--check-schema"]) == 1

    def test_catalog_lists_names(self, capsys):
        assert obs_main(["catalog"]) == 0
        text = capsys.readouterr().out
        assert "tx.update" in text
        assert "pool.job_seconds" in text

    def test_span_catalog_is_every_span_src_emits(self):
        # Every string-literal name handed to tracer.span/tracer.begin
        # anywhere in src/, and nothing else.
        import ast
        from pathlib import Path

        import repro
        emitted = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                func = getattr(node, "func", None)
                if (isinstance(node, ast.Call)
                        and isinstance(func, ast.Attribute)
                        and func.attr in ("span", "begin")
                        and "tracer" in ast.unparse(func.value)
                        and node.args
                        and isinstance(node.args[0], ast.Constant)):
                    emitted.add(node.args[0].value)
        assert "build.session" in emitted
        assert {name for name, _, _ in SPAN_CATALOG} == emitted

    def test_metric_catalog_is_every_metric_src_emits(self):
        # Every name src/ hands to a registry's counter/gauge/histogram
        # matches a row of the same kind, and every row matches an
        # emission.  A literal name is matched exactly; an f-string,
        # concatenation or conditional is a pattern in which each
        # computed part is one dotted field, as is a row's ``<x>``.
        import ast
        import re
        from pathlib import Path

        import repro

        field = "[^.]+"

        def pattern(node):
            if isinstance(node, ast.Constant):
                return re.escape(node.value)
            if isinstance(node, ast.JoinedStr):
                return "".join(pattern(part) for part in node.values)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                return pattern(node.left) + pattern(node.right)
            if isinstance(node, ast.IfExp):
                return f"(?:{pattern(node.body)}|{pattern(node.orelse)})"
            return field

        emitted = set()   # (kind, pattern, literal name or None)
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                func = getattr(node, "func", None)
                if (isinstance(node, ast.Call)
                        and isinstance(func, ast.Attribute)
                        and func.attr in ("counter", "gauge", "histogram")
                        and "metrics" in ast.unparse(func.value)
                        and node.args):
                    arg = node.args[0]
                    literal = arg.value \
                        if isinstance(arg, ast.Constant) else None
                    emitted.add((func.attr, pattern(arg), literal))

        def matches(emission, row):
            kind, regex, literal = emission
            row_kind, name, _ = row
            row_regex = re.sub(r"<\w+>", field, re.escape(name))
            return kind == row_kind and bool(
                re.fullmatch(regex, name)
                or literal and re.fullmatch(row_regex, literal))

        assert ("counter", r"build\.splices", "build.splices") in emitted
        assert [e for e in emitted
                if not any(matches(e, row) for row in METRIC_CATALOG)] == []
        assert [row for row in METRIC_CATALOG
                if not any(matches(e, row) for e in emitted)] == []

    def test_subsystem_mapping(self):
        assert subsystem("tx.update") == "transactions"
        assert subsystem("linker.dlopen") == "linker"
        assert subsystem("vm.run") == "vm"
