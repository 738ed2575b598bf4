"""Seeded miscompile injection and the verifier-evasion campaign (PR 9).

The binary verifier (:mod:`repro.analysis.binverify`) claims to remove
the rewriter from the TCB.  This module attacks that claim: each
injector models one way a buggy or malicious toolchain stage could
emit plausible-looking machine code that violates the CFI contract,
and :func:`evasion_campaign` measures whether the trust boundary
holds.  Every cell is classified into exactly one outcome:

* ``rejected``  — the verifier refused the mutated module (good);
* ``contained`` — the verifier accepted it, but the runtime trapped
  the divergence (CFI check, sandbox mask, memory fault) — the
  defense-in-depth layer below the verifier held;
* ``benign``    — accepted, and the run is bit-identical to the clean
  run (the mutation was semantics-preserving, e.g. flipping a Bary
  immediate the loader overwrites, or high table-word bits the
  ``movzx32`` mask discards);
* ``undetected``— accepted, divergent, and untrapped.  **The one
  inadmissible outcome**; the CI gate requires zero of these.

All randomness flows from ``random.Random(f"{workload}:{injector}:
{seed}")`` so every cell replays bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.binverify import (
    analyze_image,
    analyze_module,
    image_of_module,
)
from repro.errors import ReproError
from repro.isa.disasm import DecodedInstr, sweep_ranges
from repro.isa.instructions import Op
from repro.isa.registers import Reg
from repro.obs import OBS

OUTCOMES = ("rejected", "contained", "benign", "undetected",
            "inapplicable")


@dataclass
class MutationContext:
    """Everything an injector may inspect, computed once per workload."""

    module: object                  # McfiModule
    decoded: List[DecodedInstr]
    check_spans: List[Tuple[int, int]]
    aux_targets: frozenset
    label_addrs: frozenset
    boundaries: frozenset

    @classmethod
    def of(cls, module) -> "MutationContext":
        image = image_of_module(module)
        decoded = sweep_ranges(image.code, image.base, image.code_ranges)
        report = analyze_image(image, decoded)
        if not report.ok:
            raise ReproError(
                f"clean module {module.name} does not verify; "
                f"campaign baseline is broken: {report.first_error()}")
        return cls(module=module, decoded=decoded,
                   check_spans=list(report.check_spans),
                   aux_targets=image.aux_targets,
                   label_addrs=image.label_addrs,
                   boundaries=frozenset(d.address for d in decoded))

    def offset(self, address: int) -> int:
        return address - self.module.base


#: injector(ctx, rng) -> (mutated_code, detail) | None when no site fits
Injector = Callable[[MutationContext, random.Random],
                    Optional[Tuple[bytes, str]]]


def check_flip(ctx: MutationContext, rng: random.Random):
    """Flip one bit somewhere inside a random intact check transaction.

    Models a single-event upset (or an off-by-one patch) landing in
    the Fig. 4 sequence itself.  Flips inside the Bary-slot immediate
    are benign — the loader re-patches those words at install time.
    """
    if not ctx.check_spans:
        return None
    start, end = rng.choice(ctx.check_spans)
    address = rng.randrange(start, end)
    bit = rng.randrange(8)
    code = bytearray(ctx.module.code)
    code[ctx.offset(address)] ^= 1 << bit
    return bytes(code), f"bit {bit} of {address:#x} in span {start:#x}"


def check_splice(ctx: MutationContext, rng: random.Random):
    """NOP out one whole instruction of a check transaction.

    Models a rewriter that "optimised away" part of the sequence —
    including the ``movzx32`` mask immediately before the span, which
    is what makes the checked register's ID well-formed.
    """
    if not ctx.check_spans:
        return None
    start, end = rng.choice(ctx.check_spans)
    candidates = [d for d in ctx.decoded if start <= d.address < end]
    before = [d for d in ctx.decoded
              if d.end == start and d.op == Op.MOVZX32]
    candidates.extend(before)
    victim = rng.choice(candidates)
    code = bytearray(ctx.module.code)
    off = ctx.offset(victim.address)
    code[off:off + victim.length] = bytes([Op.NOP]) * victim.length
    return bytes(code), (f"spliced {victim.spec.mnemonic} at "
                         f"{victim.address:#x} out of span {start:#x}")


def mask_strip(ctx: MutationContext, rng: random.Random):
    """Remove one ``movzx32`` sandbox mask (two NOPs in its place).

    A store whose base register loses its mask can reach the table and
    code regions — exactly what MCFI006 exists to prove impossible.
    Prefers non-``%rcx`` masks (store-base masks) so the surviving
    check transactions stay intact and only the store discipline is
    violated.
    """
    masks = [d for d in ctx.decoded if d.op == Op.MOVZX32]
    if not masks:
        return None
    preferred = [d for d in masks if d.operands[0]
                 not in (Reg.RCX, Reg.RSP, Reg.RBP)]
    victim = rng.choice(preferred or masks)
    code = bytearray(ctx.module.code)
    off = ctx.offset(victim.address)
    code[off:off + victim.length] = bytes([Op.NOP]) * victim.length
    return bytes(code), (f"stripped movzx32 "
                         f"{Reg(victim.operands[0])!s} at "
                         f"{victim.address:#x}")


def reloc_skew(ctx: MutationContext, rng: random.Random):
    """Skew one direct branch/call relocation by a few bytes.

    Models a linker applying a relocation against the wrong anchor.
    Re-rolls while the skewed target happens to land on another
    declared label: such a skew is a *semantic* miscompile outside any
    CFI verifier's contract (the target is still a legitimate entry),
    so the injector only emits skews the target discipline must catch.
    """
    directs = [d for d in ctx.decoded
               if d.spec.is_branch and not d.spec.is_indirect]
    if not directs:
        return None
    for _ in range(64):
        victim = rng.choice(directs)
        delta = rng.choice((-3, -2, -1, 1, 2, 3, 5))
        target = victim.target + delta
        if target in ctx.label_addrs and target in ctx.boundaries:
            continue
        off = ctx.offset(victim.address) + 1
        code = bytearray(ctx.module.code)
        rel = int.from_bytes(code[off:off + 4], "little", signed=True)
        code[off:off + 4] = (rel + delta).to_bytes(4, "little",
                                                   signed=True)
        return bytes(code), (f"skewed {victim.spec.mnemonic} at "
                             f"{victim.address:#x} by {delta:+d} to "
                             f"{target:#x}")
    return None


def align_break(ctx: MutationContext, rng: random.Random):
    """Turn an alignment-pad NOP before a declared target into the
    first byte of a multi-byte instruction.

    The declared indirect-branch target stops being an instruction
    boundary: complete disassembly (or the boundary discipline) must
    reject the module, because a runtime jump there would execute
    bytes the verifier never saw as an instruction.
    """
    pads = [d for d in ctx.decoded
            if d.op == Op.NOP and d.length == 1
            and d.end in ctx.aux_targets]
    if not pads:
        return None
    victim = rng.choice(pads)
    code = bytearray(ctx.module.code)
    # MOV_RI's first byte: the decoder now swallows the declared
    # target (and 8 immediate bytes) into one bogus instruction.
    code[ctx.offset(victim.address)] = Op.MOV_RI
    return bytes(code), (f"pad NOP at {victim.address:#x} before "
                         f"target {victim.end:#x} became a mov opcode")


def table_high_flip(ctx: MutationContext, rng: random.Random):
    """Flip a high bit (32..63) of one jump-table data word.

    The upper half of a stored target word is dead under the
    ``movzx32`` load mask, so this mutation is semantics-preserving:
    the expected classification is *benign*, documenting exactly why
    the mask instruction exists.
    """
    ranges = list(ctx.module.aux.data_ranges)
    if not ranges:
        return None
    start, end = rng.choice(ranges)
    words = (end - start) // 8
    if words <= 0:
        return None
    word = start + 8 * rng.randrange(words)
    bit = 32 + rng.randrange(32)
    code = bytearray(ctx.module.code)
    off = ctx.offset(word) + bit // 8
    code[off] ^= 1 << (bit % 8)
    return bytes(code), f"bit {bit} of table word at {word:#x}"


MISCOMPILE_INJECTORS: Dict[str, Injector] = {
    "check_flip": check_flip,
    "check_splice": check_splice,
    "mask_strip": mask_strip,
    "reloc_skew": reloc_skew,
    "align_break": align_break,
    "table_high_flip": table_high_flip,
}


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------

@dataclass
class EvasionCell:
    """One (workload, injector, seed) campaign cell."""

    workload: str
    injector: str
    seed: int
    outcome: str
    detail: str = ""
    diagnostic: str = ""   # first verifier code when rejected
    trap: str = ""         # trapping exception type when contained

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclass
class EvasionReport:
    """Campaign result: the detection-rate table plus every cell."""

    arch: str
    cells: List[EvasionCell] = field(default_factory=list)

    @property
    def undetected(self) -> List[EvasionCell]:
        return [c for c in self.cells if c.outcome == "undetected"]

    @property
    def ok(self) -> bool:
        return not self.undetected

    def counts(self, injector: Optional[str] = None) -> Dict[str, int]:
        out = {outcome: 0 for outcome in OUTCOMES}
        for cell in self.cells:
            if injector is None or cell.injector == injector:
                out[cell.outcome] += 1
        return out

    def detection_rate(self, injector: Optional[str] = None) -> float:
        """detected / unsafe, where benign mutations are not unsafe."""
        counts = self.counts(injector)
        unsafe = (counts["rejected"] + counts["contained"]
                  + counts["undetected"])
        if not unsafe:
            return 1.0
        return (counts["rejected"] + counts["contained"]) / unsafe

    def to_dict(self) -> Dict[str, object]:
        return {"kind": "verify-evasion", "arch": self.arch,
                "ok": self.ok,
                "summary": self.counts(),
                "cells": [cell.to_dict() for cell in self.cells]}

    def render(self) -> str:
        lines = [f"{'injector':16s} {'cells':>6s} {'rejected':>9s} "
                 f"{'contained':>10s} {'benign':>7s} {'undet':>6s} "
                 f"{'n/a':>4s} {'detect':>7s}"]
        names = sorted({cell.injector for cell in self.cells})
        for name in names + [None]:
            counts = self.counts(name)
            total = sum(counts.values())
            lines.append(
                f"{name or 'total':16s} {total:6d} "
                f"{counts['rejected']:9d} {counts['contained']:10d} "
                f"{counts['benign']:7d} {counts['undetected']:6d} "
                f"{counts['inapplicable']:4d} "
                f"{100 * self.detection_rate(name):6.1f}%")
        lines.append("")
        lines.append(f"undetected unsafe mutations: "
                     f"{len(self.undetected)}"
                     + ("" if self.ok else "  <-- GATE FAILURE"))
        for cell in self.undetected:
            lines.append(f"  {cell.workload}/{cell.injector}"
                         f"#{cell.seed}: {cell.detail}")
        return "\n".join(lines)


def _classify(program, module, clean_fn, max_steps: int) -> EvasionCell:
    """Verdict + differential oracle for one mutated module.

    ``clean_fn`` lazily produces the memoized reference run — it is
    only invoked when a mutation survives the verifier.
    """
    from repro.runtime.runtime import Runtime

    cell = EvasionCell(workload=module.name, injector="", seed=0,
                       outcome="undetected")
    report = analyze_module(module)
    if not report.ok:
        cell.outcome = "rejected"
        first = report.errors[0]
        cell.diagnostic = first.code
        return cell

    clean = clean_fn()
    mutated_program = dataclasses.replace(program, module=module)
    try:
        result = Runtime(mutated_program).run(max_steps=max_steps)
    except ReproError as exc:        # load-time trap (e.g. W^X, layout)
        cell.outcome = "contained"
        cell.trap = type(exc).__name__
        return cell
    trapped = result.violation or result.fault
    if trapped is not None and "step limit" not in str(trapped):
        cell.outcome = "contained"
        cell.trap = type(trapped).__name__
    elif trapped is None and result.output == clean.output \
            and result.exit_code == clean.exit_code:
        cell.outcome = "benign"
    else:
        cell.outcome = "undetected"
    return cell


def evasion_campaign(workloads: Optional[Sequence[str]] = None,
                     injectors: Optional[Sequence[str]] = None,
                     seeds: Sequence[int] = (0, 1, 2),
                     arch: str = "x64",
                     max_steps: int = 60_000_000) -> EvasionReport:
    """Run the full workload x injector x seed matrix.

    Clean baselines (the verified module and its reference run) are
    computed once per workload; the reference execution is only paid
    for workloads where at least one mutation survives the verifier.
    """
    from repro.experiments import compiled
    from repro.runtime.runtime import Runtime

    if workloads is None:
        from repro.workloads.spec import BENCHMARKS
        workloads = BENCHMARKS
    if injectors is None:
        injectors = list(MISCOMPILE_INJECTORS)

    report = EvasionReport(arch=arch)
    with OBS.tracer.span("faults.evasion_campaign", arch=arch,
                         workloads=len(workloads),
                         injectors=len(injectors)) as span:
        for name in workloads:
            program = compiled(name, arch, True)
            ctx = MutationContext.of(program.module)
            baseline: List = []

            def clean_fn(program=program, baseline=baseline):
                if not baseline:
                    baseline.append(
                        Runtime(program).run(max_steps=max_steps))
                return baseline[0]

            for injector in injectors:
                fn = MISCOMPILE_INJECTORS[injector]
                for seed in seeds:
                    rng = random.Random(f"{name}:{injector}:{seed}")
                    mutation = fn(ctx, rng)
                    if mutation is None:
                        report.cells.append(EvasionCell(
                            workload=name, injector=injector, seed=seed,
                            outcome="inapplicable"))
                        continue
                    code, detail = mutation
                    module = dataclasses.replace(program.module,
                                                 code=code)
                    cell = _classify(program, module, clean_fn,
                                     max_steps)
                    cell.injector, cell.seed = injector, seed
                    cell.detail = detail
                    report.cells.append(cell)
                    OBS.metrics.counter(
                        f"faults.evasion.{cell.outcome}").inc()
        span.set(cells=len(report.cells),
                 undetected=len(report.undetected), ok=report.ok)
    return report
