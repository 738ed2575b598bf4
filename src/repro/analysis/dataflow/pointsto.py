"""Function-pointer points-to resolution and devirtualization.

Built on the abstract interpreter in
:mod:`repro.analysis.dataflow.absint`: for every indirect call the
pass asks what the pointer may hold at that program point.

* A **singleton** set whose member is a module-local function with a
  type-compatible signature turns the ``CallInd`` into a direct
  :class:`~repro.mir.ir.Call` — the MCFI check transaction disappears
  from that site (fewer dynamic TxChecks) and the return site gains a
  named callee.  The ``FuncAddr`` that took the function's address is
  untouched, so the address-taken set — and with it the Tary table —
  is unchanged.
* A **small set** (or a singleton that cannot be safely rewritten)
  becomes a ``targets_hint`` on the ``CallInd``.  The hint rides the
  pipeline into the auxiliary info, where the CFG generator intersects
  it with the type-matched target set, splitting equivalence classes.

Rewrites preserve MCFI semantics exactly: a singleton is only
devirtualized when the CFG generator would have allowed the transfer
(``signatures_match``); otherwise the indirect call — and its halting
check — stays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.dataflow.absint import (
    FUNCS,
    FunctionFacts,
    analyze_function,
)
from repro.mir import ir
from repro.obs import OBS
from repro.tinyc.types import FuncSig, signatures_match

#: hints larger than this are dropped (they would split no classes in
#: practice and bloat the auxiliary info)
MAX_HINT = 8


@dataclass(frozen=True)
class CallSite:
    """One indirect call with its resolution."""

    function: str
    block: str
    index: int
    targets: Optional[Tuple[str, ...]]   # sorted names, or None (unknown)
    devirtualized: bool = False
    hinted: bool = False


@dataclass
class PointsToReport:
    """Module-level outcome of the points-to pass."""

    module: str
    sites: List[CallSite] = field(default_factory=list)

    KIND = "pointsto"

    @property
    def indirect_calls(self) -> int:
        return len(self.sites)

    @property
    def resolved(self) -> List[CallSite]:
        return [s for s in self.sites if s.targets is not None]

    @property
    def devirtualized(self) -> List[CallSite]:
        return [s for s in self.sites if s.devirtualized]

    @property
    def hinted(self) -> List[CallSite]:
        return [s for s in self.sites if s.hinted]

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.KIND,
            "module": self.module,
            "indirect_calls": self.indirect_calls,
            "resolved": len(self.resolved),
            "devirtualized": len(self.devirtualized),
            "hinted": len(self.hinted),
            "sites": [{
                "function": s.function, "block": s.block,
                "index": s.index,
                "targets": list(s.targets) if s.targets is not None
                else None,
                "devirtualized": s.devirtualized, "hinted": s.hinted,
            } for s in self.sites],
        }


def resolve_module(module: ir.MirModule) -> Dict[str, FunctionFacts]:
    """Run the abstract interpreter over every function of a module."""
    return {func.name: analyze_function(func)
            for func in module.functions}


def _module_sigs(module: ir.MirModule) -> Dict[str, FuncSig]:
    return {func.name: FuncSig.of(func.ftype)
            for func in module.functions}


def devirtualize_module(module: ir.MirModule) -> PointsToReport:
    """Apply points-to results to a module's MIR, in place.

    Returns the per-site report; the module is modified only where a
    rewrite or hint is proven sound.
    """
    with OBS.tracer.span("dataflow.pointsto", module=module.name) as span:
        report = _devirtualize(module)
        span.set(indirect_calls=report.indirect_calls,
                 devirtualized=len(report.devirtualized),
                 hinted=len(report.hinted))
        if OBS.enabled:
            metrics = OBS.metrics
            metrics.counter("dataflow.pointsto.sites").inc(
                report.indirect_calls)
            metrics.counter("dataflow.pointsto.devirtualized").inc(
                len(report.devirtualized))
            metrics.counter("dataflow.pointsto.hinted").inc(
                len(report.hinted))
        return report


def _devirtualize(module: ir.MirModule) -> PointsToReport:
    facts = resolve_module(module)
    sigs = _module_sigs(module)
    report = PointsToReport(module=module.name)

    for func in module.functions:
        func_facts = facts[func.name]
        for block in func.blocks:
            # Collect first: rewriting must not disturb the walk.
            indirect = [(i, inst) for i, inst in enumerate(block.instrs)
                        if isinstance(inst, ir.CallInd)]
            if not indirect:
                continue
            resolutions = {}
            if func_facts.analyzed:
                wanted = {i for i, _ in indirect}
                for position, inst, state in func_facts.walk(block.label):
                    if position in wanted:
                        value = state.reg(inst.pointer)
                        if value.kind == FUNCS:
                            resolutions[position] = value.names
            for index, inst in indirect:
                names = resolutions.get(index)
                if names is None or not names:
                    report.sites.append(CallSite(
                        function=func.name, block=block.label,
                        index=index, targets=None))
                    continue
                targets = tuple(sorted(names))
                single = targets[0] if len(targets) == 1 else None
                callee_sig = sigs.get(single) if single else None
                if single is not None and callee_sig is not None and \
                        signatures_match(inst.sig, callee_sig):
                    block.instrs[index] = ir.Call(
                        dst=inst.dst, callee=single,
                        args=list(inst.args), tail=inst.tail)
                    report.sites.append(CallSite(
                        function=func.name, block=block.label,
                        index=index, targets=targets,
                        devirtualized=True))
                elif len(targets) <= MAX_HINT:
                    inst.targets_hint = targets
                    report.sites.append(CallSite(
                        function=func.name, block=block.label,
                        index=index, targets=targets, hinted=True))
                else:
                    report.sites.append(CallSite(
                        function=func.name, block=block.label,
                        index=index, targets=targets))
    return report
