"""Lint passes over MIR, built on the dataflow engine.

Three passes, each wrapped in an obs span so ``--trace`` shows where
lint time goes:

* :func:`deadcode_pass` — MCFI001 (unreachable blocks, from the block
  CFG) and MCFI002 (pure definitions whose result is provably never
  used, from a *backward* liveness fixpoint);
* :func:`sandbox_store_pass` — MCFI003/MCFI004: stores whose address
  provably has no data-pointer provenance (a bare integer, or a code
  pointer).  Such stores can never be derived from a maskable sandbox
  base, so they would either trap or corrupt the low 4 GB after the
  instrumentation masks them — the source-locatable complement of the
  binary verifier's write-sandboxing check;
* :func:`run_lints` — the driver producing one sorted, deterministic
  :class:`~repro.analysis.dataflow.diagnostics.LintReport` per module.

Functions using setjmp/longjmp are skipped by the value-sensitive
passes (their flow cannot be summarized by the block CFG); unreachable
-block linting is purely structural and still applies.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from repro.analysis.dataflow.absint import FunctionFacts, _vreg_def, \
    _vreg_uses, analyze_function
from repro.analysis.dataflow.cfg import build_cfg
from repro.analysis.dataflow.diagnostics import Diagnostic, LintReport, \
    sorted_diagnostics
from repro.analysis.dataflow.solver import DataflowProblem, solve
from repro.mir import ir
from repro.obs import OBS

#: instruction types with no side effect: dead when their dst is dead
_PURE_DEFS = (ir.Const, ir.ConstStr, ir.GlobalAddr, ir.FuncAddr,
              ir.LocalAddr, ir.Copy, ir.BinOp, ir.UnOp, ir.Cmp,
              ir.IntToFloat, ir.FloatToInt, ir.Load)


def _function_facts(module: ir.MirModule,
                    facts: Optional[Dict[str, FunctionFacts]] = None,
                    ) -> Dict[str, FunctionFacts]:
    if facts is None:
        facts = {func.name: analyze_function(func)
                 for func in module.functions}
    return facts


# ---------------------------------------------------------------------------
# MCFI001 / MCFI002
# ---------------------------------------------------------------------------


def _live_in(func: ir.MirFunction) -> Dict[str, FrozenSet[int]]:
    """Backward liveness: vregs live at each reachable block's *end*."""
    cfg = build_cfg(func)

    def transfer(label: str, block: ir.BasicBlock,
                 live: FrozenSet[int]) -> FrozenSet[int]:
        current = set(live)
        for inst in reversed(block.instrs):
            dst = _vreg_def(inst)
            if dst is not None:
                current.discard(dst)
            current.update(_vreg_uses(inst))
        return frozenset(current)

    problem = DataflowProblem(
        direction="backward", boundary=frozenset(),
        join=lambda a, b: a | b, transfer=transfer)
    solution = solve(cfg, problem)
    # ``inputs`` of a backward problem are the states at block *end*.
    return dict(solution.inputs)


def deadcode_pass(module: ir.MirModule) -> List[Diagnostic]:
    """MCFI001 unreachable blocks + MCFI002 unused pure definitions."""
    diags: List[Diagnostic] = []
    for func in module.functions:
        cfg = build_cfg(func)
        for label in cfg.unreachable_blocks():
            block = cfg.blocks[label]
            diags.append(Diagnostic(
                code="MCFI001", unit=module.name, function=func.name,
                block=label, index=0,
                message=f"block {label!r} is unreachable from entry "
                        f"({len(block.instrs)} instruction(s))"))
        live_out = _live_in(func)
        for label in cfg.rpo:
            if label not in live_out:
                # No path from this block to any exit (an infinite
                # loop): the backward fixpoint never reached it, so
                # stay silent rather than under-approximate liveness.
                continue
            live = set(live_out[label])
            block = cfg.blocks[label]
            for index in range(len(block.instrs) - 1, -1, -1):
                inst = block.instrs[index]
                dst = _vreg_def(inst)
                dead = (dst is not None and dst not in live
                        and isinstance(inst, _PURE_DEFS))
                if dst is not None:
                    live.discard(dst)
                live.update(_vreg_uses(inst))
                if dead:
                    diags.append(Diagnostic(
                        code="MCFI002", unit=module.name,
                        function=func.name, block=label, index=index,
                        message=f"result v{dst} of "
                                f"{type(inst).__name__} is never used"))
    return diags


# ---------------------------------------------------------------------------
# MCFI003 / MCFI004
# ---------------------------------------------------------------------------


def sandbox_store_pass(module: ir.MirModule,
                       facts: Optional[Dict[str, FunctionFacts]] = None,
                       ) -> List[Diagnostic]:
    """Flag stores whose address cannot come from a maskable base."""
    facts = _function_facts(module, facts)
    diags: List[Diagnostic] = []
    for func in module.functions:
        func_facts = facts[func.name]
        if not func_facts.analyzed:
            continue
        for label in func_facts.cfg.rpo:
            for index, inst, state in func_facts.walk(label):
                if not isinstance(inst, ir.Store):
                    continue
                value = state.reg(inst.addr)
                if value.kind == "int":
                    diags.append(Diagnostic(
                        code="MCFI003", unit=module.name,
                        function=func.name, block=label, index=index,
                        message=f"store address v{inst.addr} is a bare "
                                f"integer: not derived from any global, "
                                f"local or heap pointer"))
                elif value.kind == "funcs":
                    names = ", ".join(sorted(value.names))
                    diags.append(Diagnostic(
                        code="MCFI004", unit=module.name,
                        function=func.name, block=label, index=index,
                        message=f"store address v{inst.addr} is the "
                                f"address of function(s) {names}: writes "
                                f"into code are never maskable"))
    return diags


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

#: pass name -> callable(module, facts) in stable execution order
LINT_PASSES = (
    ("deadcode", lambda module, facts: deadcode_pass(module)),
    ("sandbox-store", sandbox_store_pass),
)


def run_lints(module: ir.MirModule) -> LintReport:
    """Run every lint pass over one MIR module; deterministic output."""
    with OBS.tracer.span("dataflow.lint", module=module.name) as span:
        facts = _function_facts(module)
        report = LintReport(unit=module.name)
        for name, lint in LINT_PASSES:
            with OBS.tracer.span(f"dataflow.lint.{name}",
                                 module=module.name) as pass_span:
                found = lint(module, facts)
                pass_span.set(findings=len(found))
            report.pass_counts[name] = len(found)
            report.diagnostics.extend(found)
        report.diagnostics = sorted_diagnostics(report.diagnostics)
        span.set(findings=len(report.diagnostics),
                 errors=len(report.errors))
        if OBS.enabled:
            OBS.metrics.counter("dataflow.lint.findings").inc(
                len(report.diagnostics))
        return report
