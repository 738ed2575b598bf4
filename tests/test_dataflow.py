"""Tests for repro.analysis.dataflow: CFGs, the fixpoint solver, the
points-to/devirtualization pass, and the lint plane (PR 4)."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.analysis.dataflow import (Baseline, Diagnostic, LintReport,
                                     analyze_function, build_cfg,
                                     deadcode_pass, devirtualize_module,
                                     run_lints, sandbox_store_pass,
                                     solve, sorted_diagnostics,
                                     tracked_locals, uses_nonlocal_flow)
from repro.analysis.dataflow.solver import DataflowProblem
from repro.mir import ir
from repro.mir.lowering import lower_unit
from repro.build import build_program
from repro.build import build_program
from repro.toolchain import frontend, run_program


def lower_source(source: str, name: str = "t") -> ir.MirModule:
    return lower_unit(frontend(source, name=name))


def mir_function(name, blocks, locals=None, n_vregs=32):
    """Hand-build a MirFunction (lowering normalizes away the shapes
    some tests need, e.g. unreachable blocks)."""
    from repro.tinyc.types import FuncType, IntType
    long_t = IntType("long", 8, True)
    return ir.MirFunction(
        name=name, ftype=FuncType(ret=long_t, params=()),
        params=[], locals=dict(locals or {}),
        blocks=blocks, n_vregs=n_vregs)


# ---------------------------------------------------------------------------
# CFG
# ---------------------------------------------------------------------------


class TestBlockCfg:
    def test_diamond_edges_and_rpo(self):
        module = lower_source("""
            long f(long x) {
                long r;
                if (x > 0) { r = 1; } else { r = 2; }
                return r;
            }
            int main(void) { return (int)f(1); }
        """)
        func = next(f for f in module.functions if f.name == "f")
        cfg = build_cfg(func)
        assert cfg.entry == func.blocks[0].label
        assert cfg.rpo[0] == cfg.entry
        # every edge is consistent between successor and predecessor maps
        for label, succs in cfg.successors.items():
            for succ in succs:
                assert label in cfg.predecessors[succ]
        # rpo visits a block only after (some) predecessor, entry first
        positions = {label: i for i, label in enumerate(cfg.rpo)}
        join = [lbl for lbl in cfg.rpo
                if len(cfg.predecessors[lbl]) == 2]
        assert join, "diamond must have a join block"
        assert all(positions[j] > 0 for j in join)
        assert cfg.exits  # the return block

    def test_loop_has_back_edge_and_converges(self):
        module = lower_source("""
            long f(long n) {
                long i; long s; s = 0;
                for (i = 0; i < n; i++) { s = s + i; }
                return s;
            }
            int main(void) { return (int)f(3); }
        """)
        func = next(f for f in module.functions if f.name == "f")
        cfg = build_cfg(func)
        positions = {label: i for i, label in enumerate(cfg.rpo)}
        back = [(a, b) for a, succs in cfg.successors.items()
                for b in succs
                if a in positions and b in positions
                and positions[b] <= positions[a]]
        assert back, "loop must produce a back edge"
        facts = analyze_function(func)
        assert facts.analyzed
        assert facts.iterations >= len(cfg.rpo)

    def test_unreachable_block_detected(self):
        blocks = [
            ir.BasicBlock("entry", [ir.Const(0, 1), ir.Ret(0)]),
            ir.BasicBlock("island", [ir.Jump("entry")]),
        ]
        cfg = build_cfg(mir_function("u", blocks))
        assert cfg.unreachable_blocks() == ["island"]
        assert "island" not in cfg.reachable

    def test_nonlocal_flow_flag(self):
        module = lower_source("""
            long jb[4];
            int main(void) {
                int v = setjmp(jb);
                if (v == 0) { longjmp(jb, 1); }
                return v;
            }
        """)
        main = next(f for f in module.functions if f.name == "main")
        assert uses_nonlocal_flow(main)
        assert not analyze_function(main).analyzed


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


class TestSolver:
    def _linear_cfg(self):
        blocks = [
            ir.BasicBlock("entry", [ir.Jump("mid")]),
            ir.BasicBlock("mid", [ir.Jump("end")]),
            ir.BasicBlock("end", [ir.Ret(None)]),
        ]
        return build_cfg(mir_function("lin", blocks))

    def test_forward_accumulates_along_path(self):
        cfg = self._linear_cfg()
        problem = DataflowProblem(
            direction="forward", boundary=frozenset(),
            join=lambda a, b: a & b,
            transfer=lambda label, block, s: s | {label})
        solution = solve(cfg, problem)
        assert solution.inputs["end"] == {"entry", "mid"}
        assert solution.outputs["end"] == {"entry", "mid", "end"}

    def test_backward_reverses_edges(self):
        cfg = self._linear_cfg()
        problem = DataflowProblem(
            direction="backward", boundary=frozenset(),
            join=lambda a, b: a | b,
            transfer=lambda label, block, s: s | {label})
        solution = solve(cfg, problem)
        # backward: the state at entry's analysis input is the join of
        # everything downstream
        assert solution.inputs["entry"] == {"mid", "end"}

    def test_loop_reaches_fixpoint_with_join(self):
        blocks = [
            ir.BasicBlock("entry", [ir.Const(0, 0),
                                    ir.Jump("head")]),
            ir.BasicBlock("head", [ir.CondBr("lt", 0, 0, "body", "end")]),
            ir.BasicBlock("body", [ir.Jump("head")]),
            ir.BasicBlock("end", [ir.Ret(None)]),
        ]
        cfg = build_cfg(mir_function("loop", blocks))
        problem = DataflowProblem(
            direction="forward", boundary=0,
            join=max, transfer=lambda label, block, s: min(s + 1, 10))
        solution = solve(cfg, problem)
        assert solution.inputs["head"] == 10  # saturated, terminated
        assert solution.outputs["end"] == 10

    def test_rejects_unknown_direction(self):
        with pytest.raises(ValueError):
            DataflowProblem(direction="sideways", boundary=None,
                            join=max, transfer=lambda l, b, s: s)


# ---------------------------------------------------------------------------
# Abstract interpretation
# ---------------------------------------------------------------------------


FPTR_SOURCE = """
long inc(long x) { return x + 1; }
long dec(long x) { return x - 1; }
long twice(long x) { return x * 2; }

long pick(long sel) {
    long (*fp)(long);
    if (sel) { fp = inc; } else { fp = dec; }
    return fp(10);
}

long fixed(void) {
    long (*fp)(long);
    fp = twice;
    return fp(21);
}

int main(void) { return (int)(pick(1) + fixed()); }
"""


class TestAbsint:
    def test_tracked_local_excludes_escaping(self):
        module = lower_source("""
            long deref(long *p) { return *p; }
            long f(void) {
                long a; long b;
                a = 1;
                b = deref(&a);
                return b;
            }
            int main(void) { return (int)f(); }
        """)
        func = next(f for f in module.functions if f.name == "f")
        tracked = tracked_locals(func)
        base_names = {name.split("$")[0] for name in tracked}
        assert "a" not in base_names   # address passed to a call
        assert "b" in base_names

    @staticmethod
    def _site_targets(module, function):
        """Proven callee sets of one function's indirect calls."""
        return [site.targets for site in devirtualize_module(module).sites
                if site.function == function]

    def test_singleton_resolution_through_local(self):
        module = lower_source(FPTR_SOURCE)
        assert self._site_targets(module, "fixed") == [("twice",)]

    def test_branch_join_widens_to_pair(self):
        module = lower_source(FPTR_SOURCE)
        assert self._site_targets(module, "pick") == [("dec", "inc")]

    def test_call_kills_global_not_tracked_local(self):
        module = lower_source("""
            long (*gp)(long);
            long id(long x) { return x; }
            long f(void) {
                long (*lp)(long);
                gp = id;
                lp = id;
                id(0);
                return lp(1) + gp(2);
            }
            int main(void) { return (int)f(); }
        """)
        resolutions = self._site_targets(module, "f")
        assert len(resolutions) == 2
        # the tracked local survives the direct call, the global does not
        assert ("id",) in resolutions
        assert None in resolutions


# ---------------------------------------------------------------------------
# Points-to / devirtualization
# ---------------------------------------------------------------------------


class TestDevirtualize:
    def test_singleton_becomes_direct_call(self):
        module = lower_source(FPTR_SOURCE)
        report = devirtualize_module(module)
        assert len(report.devirtualized) >= 1
        fixed = next(f for f in module.functions if f.name == "fixed")
        callinds = [inst for block in fixed.blocks
                    for inst in block.instrs
                    if isinstance(inst, ir.CallInd)]
        assert callinds == []
        calls = [inst for block in fixed.blocks for inst in block.instrs
                 if isinstance(inst, ir.Call) and inst.callee == "twice"]
        assert calls

    def test_pair_becomes_hint_not_call(self):
        module = lower_source(FPTR_SOURCE)
        devirtualize_module(module)
        pick = next(f for f in module.functions if f.name == "pick")
        callinds = [inst for block in pick.blocks
                    for inst in block.instrs
                    if isinstance(inst, ir.CallInd)]
        assert len(callinds) == 1
        assert callinds[0].targets_hint == ("dec", "inc")

    def test_funcaddr_untouched_so_tary_is_stable(self):
        module = lower_source(FPTR_SOURCE)
        before = sorted(inst.name for f in module.functions
                        for b in f.blocks for inst in b.instrs
                        if isinstance(inst, ir.FuncAddr))
        devirtualize_module(module)
        after = sorted(inst.name for f in module.functions
                       for b in f.blocks for inst in b.instrs
                       if isinstance(inst, ir.FuncAddr))
        assert before == after

    def test_report_serializes(self):
        module = lower_source(FPTR_SOURCE)
        report = devirtualize_module(module)
        data = report.to_dict()
        assert data["kind"] == "pointsto"
        assert data["devirtualized"] == len(report.devirtualized)
        json.dumps(data)  # JSON-safe

    def test_optimized_build_runs_byte_identically(self):
        sources = {"t": FPTR_SOURCE}
        base = build_program(sources, mcfi=True).program
        opt = build_program(sources, devirtualize=True).program
        from repro.analysis.binverify import verify_module
        verify_module(opt.module)  # still verifies after rewriting
        res_base = run_program(base)
        res_opt = run_program(opt)
        assert res_base.output == res_opt.output
        assert res_base.exit_code == res_opt.exit_code
        # the devirtualized site no longer pays a check transaction
        assert res_opt.tx_checks < res_base.tx_checks

    def test_hint_narrows_generator_targets(self):
        """The ptargets hint must shrink the icall site's target set
        in the generated CFG without adding anything."""
        from repro.cfg.generator import generate_cfg
        sources = {"t": FPTR_SOURCE}
        base = build_program(sources, mcfi=True).program
        opt = build_program(sources, devirtualize=True).program

        def icall_target_sets(program):
            aux = program.module.aux
            cfg = generate_cfg(aux)
            out = {}
            for site in aux.branch_sites:
                if site.kind in ("icall", "tail") and site.fn == "pick":
                    out[site.site] = frozenset(cfg.branch_targets[site.site])
            return out

        base_sets = icall_target_sets(base)
        opt_sets = icall_target_sets(opt)
        assert base_sets and opt_sets
        # same pointer signature matches inc/dec/twice... in the base
        # build; the hint narrows it to exactly {inc, dec}
        entries = {name: opt.module.aux.functions[name].entry
                   for name in ("inc", "dec", "twice")}
        narrowed = set(opt_sets.values()).pop()
        assert entries["twice"] not in narrowed
        assert {entries["inc"], entries["dec"]} <= narrowed
        assert narrowed < set(base_sets.values()).pop()

    @pytest.mark.parametrize("name", ["bzip2", "libquantum", "milc"])
    def test_workloads_devirtualize_at_least_one_site(self, name):
        from repro.workloads.spec import workload
        module = lower_source(workload(name).source, name=name)
        report = devirtualize_module(module)
        assert len(report.devirtualized) >= 1


# ---------------------------------------------------------------------------
# Lints
# ---------------------------------------------------------------------------


class TestLints:
    def test_seeded_unmasked_store_flags_mcfi003(self):
        module = lower_source("""
            void poke(void) { *(long *)4096 = 7; }
            int main(void) { poke(); return 0; }
        """, name="seeded")
        report = run_lints(module)
        assert [d.code for d in report.diagnostics] == ["MCFI003"]
        assert report.errors

    def test_store_through_function_address_flags_mcfi004(self):
        blocks = [ir.BasicBlock("entry", [
            ir.FuncAddr(0, "victim"),
            ir.Const(1, 0),
            ir.Store(addr=0, src=1, width=8),
            ir.Ret(None),
        ])]
        func = mir_function("writer", blocks)
        module = ir.MirModule(name="m4", functions=[func])
        diags = sandbox_store_pass(module)
        assert [d.code for d in diags] == ["MCFI004"]
        assert "victim" in diags[0].message

    def test_unreachable_block_flags_mcfi001(self):
        blocks = [
            ir.BasicBlock("entry", [ir.Ret(None)]),
            ir.BasicBlock("orphan", [ir.Jump("entry")]),
        ]
        module = ir.MirModule(name="m1",
                              functions=[mir_function("f", blocks)])
        diags = deadcode_pass(module)
        assert [d.code for d in diags] == ["MCFI001"]
        assert diags[0].block == "orphan"

    def test_unused_pure_def_flags_mcfi002(self):
        blocks = [ir.BasicBlock("entry", [
            ir.Const(0, 42),      # never used
            ir.Const(1, 7),
            ir.Ret(1),
        ])]
        module = ir.MirModule(name="m2",
                              functions=[mir_function("f", blocks)])
        diags = deadcode_pass(module)
        assert [(d.code, d.index) for d in diags] == [("MCFI002", 0)]

    def test_infinite_loop_stays_silent(self):
        """Blocks that never reach an exit have no liveness fixpoint;
        the lint must not under-approximate and report there."""
        blocks = [
            ir.BasicBlock("entry", [ir.Const(0, 1), ir.Jump("spin")]),
            ir.BasicBlock("spin", [ir.Jump("spin")]),
        ]
        module = ir.MirModule(name="m3",
                              functions=[mir_function("f", blocks)])
        assert [d.code for d in deadcode_pass(module)] == []

    def test_clean_workload_is_clean(self):
        from repro.workloads.spec import workload
        module = lower_source(workload("mcf").source, name="mcf")
        report = run_lints(module)
        assert report.diagnostics == []
        assert set(report.pass_counts) == {"deadcode", "sandbox-store"}

    def test_lint_output_is_deterministic_under_trace(self):
        source = """
            void poke(void) { *(long *)4096 = 7; }
            int main(void) { poke(); return 0; }
        """
        runs = []
        for _ in range(2):
            with obs.scoped(seed=7):
                report = run_lints(lower_source(source, name="det"))
            runs.append(json.dumps(report.to_dict(), sort_keys=True))
        assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Diagnostics + baseline
# ---------------------------------------------------------------------------


class TestDiagnostics:
    DIAG = Diagnostic(code="MCFI003", unit="u", function="f",
                      block="entry", index=2, message="m")

    def test_fingerprint_and_severity(self):
        assert self.DIAG.fingerprint == "MCFI003@u:f:entry:2"
        assert self.DIAG.severity == "error"
        assert "MCFI003" in self.DIAG.render()

    def test_round_trip(self):
        clone = Diagnostic.from_dict(self.DIAG.to_dict())
        assert clone == self.DIAG
        assert clone.to_dict()["kind"] == "diagnostic"

    def test_stable_ordering(self):
        d1 = Diagnostic("MCFI002", "u", "f", "b", 3, "x")
        d2 = Diagnostic("MCFI001", "u", "f", "b", 1, "y")
        d3 = Diagnostic("MCFI003", "a", "z", "b", 9, "z")
        assert sorted_diagnostics([d1, d2, d3]) == \
            sorted_diagnostics([d3, d1, d2]) == [d3, d2, d1]

    def test_lint_report_round_trip(self):
        report = LintReport(unit="u", diagnostics=[self.DIAG],
                            pass_counts={"deadcode": 0,
                                         "sandbox-store": 1})
        clone = LintReport.from_dict(report.to_dict())
        assert clone.unit == "u"
        assert clone.diagnostics == [self.DIAG]
        assert clone.pass_counts == report.pass_counts

    def test_baseline_diff_and_suppression(self, tmp_path):
        baseline = Baseline()
        baseline.record("u", [self.DIAG])
        fresh = Diagnostic("MCFI001", "u", "g", "b", 0, "new")
        new, fixed = baseline.diff("u", [self.DIAG, fresh])
        assert new == [fresh]          # the baselined one is suppressed
        assert fixed == []
        new, fixed = baseline.diff("u", [])
        assert new == []
        assert fixed == [self.DIAG.fingerprint]

        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert loaded.workloads == baseline.workloads

    def test_baseline_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "workloads": {}}')
        with pytest.raises(ValueError):
            Baseline.load(path)
