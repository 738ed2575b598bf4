"""Execution tracing and dynamic policy-conformance checking.

Two facilities built on a step-hook around :class:`~repro.vm.cpu.CPU`:

* :class:`BranchTracer` records every control transfer (kind, source,
  target) — the raw material for coverage-style analyses and debugging.
* :class:`ConformanceChecker` asserts, for every *indirect* transfer a
  hardened program actually performs, that the generated CFG permits it
  (``Cfg.permits``).  This is the ground-truth link between the two
  halves of the system: the instruction-level enforcement (check
  transactions against ID tables) and the declarative policy (the
  type-matching CFG).  If instrumentation, table installation, and CFG
  generation agree, a legal run produces zero conformance errors; any
  divergence is a bug in one of them, not in the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cfg.generator import Cfg
from repro.isa.instructions import SPECS, Op
from repro.vm.cpu import CPU

#: opcode byte -> event kind of every unconditional transfer
_KIND = {int(op): spec.mnemonic + "*" * (spec.is_indirect and not spec.is_ret)
         for op, spec in SPECS.items() if spec.is_branch and not spec.is_cond}
_INDIRECT = frozenset(op for op in _KIND if SPECS[op].is_indirect)


@dataclass(frozen=True)
class BranchEvent:
    """One executed control transfer."""

    kind: str          # 'ret' | 'jmp*' | 'call*' | 'call' | 'jmp'
    source: int        # address of the branch instruction
    target: int        # where control actually went


class BranchTracer:
    """Wraps a CPU's step to record executed branches.

    ``indirect_only`` keeps the trace small for long runs.  The hook
    costs one decoded-cache probe per instruction; use only in
    tests/tools.
    """

    def __init__(self, cpu: CPU, indirect_only: bool = True,
                 limit: int = 1_000_000) -> None:
        self.cpu = cpu
        self.events: List[BranchEvent] = []
        self.indirect_only = indirect_only
        self.limit = limit
        # Remember whether the CPU already carried an instance-level
        # step hook: detach() must restore that exact state.  Leaving
        # a stray instance attribute behind would permanently force
        # run() off the basic-block fast path (it detects hooks via
        # ``"step" in cpu.__dict__``).
        self._had_instance_step = "step" in cpu.__dict__
        self._original_step = cpu.step
        cpu.step = self._traced_step  # type: ignore[method-assign]

    def _traced_step(self) -> None:
        cpu = self.cpu
        rip = cpu.rip
        entry = cpu.decoded.get(rip)
        if entry is None:
            self._original_step()
            # the fetch populated the cache; re-inspect for the record
            entry = cpu.decoded.get(rip)
            if entry is None:
                return
            op = entry[0]
            if self._wanted(op) and len(self.events) < self.limit:
                self.events.append(BranchEvent(_KIND[op], rip, cpu.rip))
            return
        op = entry[0]
        self._original_step()
        if self._wanted(op) and len(self.events) < self.limit:
            self.events.append(BranchEvent(_KIND[op], rip, cpu.rip))

    def _wanted(self, op: int) -> bool:
        return op in (_INDIRECT if self.indirect_only else _KIND)

    def detach(self) -> None:
        if self._had_instance_step:
            self.cpu.step = self._original_step  # type: ignore[method-assign]
        else:
            # Drop our hook entirely so the class method shows through
            # again and run() may resume block dispatch.
            try:
                del self.cpu.step
            except AttributeError:
                pass

    def summary(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out


class ConformanceChecker:
    """Checks every executed indirect transfer against a :class:`Cfg`.

    Requires the loader's site numbering to recover which branch site a
    given ``jmp *%rcx`` belongs to; since the check transaction embeds
    the Bary index right before the branch, we instead check the
    *address-level* policy: the target must be a permitted target of
    *some* class, and — when ``site_of`` is provided — of the branch's
    own class.
    """

    def __init__(self, cpu: CPU, cfg: Cfg,
                 site_of: Optional[Dict[int, int]] = None) -> None:
        self.cfg = cfg
        self.site_of = site_of or {}
        self.violations: List[BranchEvent] = []
        self.checked = 0
        self.tracer = BranchTracer(cpu, indirect_only=True)

    def verify_trace(self) -> int:
        """Validate all recorded events; returns how many were checked."""
        tary = self.cfg.tary_ecns
        for event in self.tracer.events:
            self.checked += 1
            if event.target not in tary:
                self.violations.append(event)
                continue
            site = self.site_of.get(event.source)
            if site is not None and not self.cfg.permits(site,
                                                         event.target):
                self.violations.append(event)
        return self.checked

    @property
    def conformant(self) -> bool:
        return not self.violations


def site_map(module) -> Dict[int, int]:
    """Map each indirect-branch *instruction address* to its site number.

    Reconstructed by disassembling the module: the ``tload rdi, imm``
    of each check transaction names the site (``imm = 4 * site`` after
    loader patching; pre-patching the module's ``bary_slots`` give the
    same association), and the following ``jmp*``/``call*`` is the
    branch instruction.
    """
    from repro.isa.disasm import sweep_ranges
    instrs = sweep_ranges(module.code, module.base, module.code_ranges)
    offsets_to_site = {offset: site
                       for site, offset in module.bary_slots.items()}
    out: Dict[int, int] = {}
    current_site: Optional[int] = None
    for decoded in instrs:
        if decoded.op == Op.TLOAD_RI:
            # the imm field sits right after opcode+reg bytes
            field_offset = decoded.address - module.base + 2
            site = offsets_to_site.get(field_offset)
            if site is not None:
                current_site = site
        elif decoded.spec.is_indirect and not decoded.spec.is_ret:
            if current_site is not None:
                out[decoded.address] = current_site
    return out
