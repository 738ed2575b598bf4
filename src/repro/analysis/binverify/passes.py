"""The verification passes: solve, then prove MCFI005–008.

One :func:`analyze_image` run is:

1. complete disassembly of the image's code ranges (failure → MCFI007);
2. CFG reconstruction + check-transaction recognition
   (:mod:`~repro.analysis.binverify.bincfg`), each block carrying its
   composed register-fact effect;
3. the forward abstract interpretation via the *unmodified* MIR
   worklist solver (:mod:`repro.analysis.dataflow.solver`), one
   ``(state & keep) | gen`` per block;
4. a linear re-walk of every reachable block that moves the int state
   forward through :data:`~repro.analysis.binverify.absint.EFFECT`
   and dispatches on a role table by opcode byte, asserting the
   properties instruction by instruction:

   * indirect branch / ``ret`` with the operand not CHECKED → MCFI005,
   * store base (x64, non-frame) not MASKED → MCFI006,
   * direct branch/call target off-boundary or undeclared, or a block
     running off the decoded range → MCFI007;

5. global discipline — declared-target alignment, Bary-slot/tload
   correspondence, transaction count vs. declared sites → MCFI008.

Everything reachability-dependent is proved over the root-reachable
region only: under CFI, runtime indirect targets ⊆ Tary entries ⊆
roots, so unreachable padding can never execute (disassembly itself
stays complete).  Transaction *accounting* (MCFI008) is structural and
reachability-independent, matching the paper's verifier.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.binverify.absint import (
    CHECKED_SHIFT,
    EFFECT,
    fact,
    make_problem,
)
from repro.analysis.binverify.bincfg import BinBlock, build_cfg
from repro.analysis.binverify.image import (
    ImageSpec,
    image_of_module,
    image_of_unit,
)
from repro.analysis.binverify.report import VerifyReport
from repro.analysis.dataflow.diagnostics import (
    Diagnostic,
    sorted_diagnostics,
)
from repro.analysis.dataflow.solver import solve
from repro.errors import (
    EncodingError,
    UnitVerificationError,
    VerificationError,
)
from repro.isa.disasm import DecodedInstr, sweep_ranges
from repro.isa.instructions import Op, SPECS
from repro.isa.registers import Reg
from repro.module.module import McfiModule
from repro.obs import OBS

_FACT = {0: "unknown", 1: "masked but unchecked", 2: "checked"}

#: what the re-walk proves at an instruction, by opcode byte
_RET, _INDIRECT, _STORE, _DIRECT = 1, 2, 3, 4
_ROLE: List[int] = [0] * 256
for _op, _spec in SPECS.items():
    if _spec.is_branch:
        _ROLE[_op] = (_RET if _spec.is_ret else _INDIRECT) \
            if _spec.is_indirect else _DIRECT
    elif _spec.store:
        _ROLE[_op] = _STORE
#: arch -> role table: stores are proved on x64 only
_ROLES = {"x64": _ROLE,
          "x32": [0 if role == _STORE else role for role in _ROLE]}

_FRAME_BASES = (Reg.RSP, Reg.RBP)


class _Emitter:
    """Collects diagnostics with stable locations."""

    def __init__(self, image: ImageSpec) -> None:
        self.image = image
        self.diagnostics: List[Diagnostic] = []

    def emit(self, code: str, address: int, block, index: int,
             message: str) -> None:
        if isinstance(block, int):
            block = f"{block:#x}"
        self.diagnostics.append(Diagnostic(
            code=code, unit=self.image.name,
            function=self.image.function_at(address),
            block=block, index=index,
            message=f"{message} (at {address:#x})"))


def analyze_image(image: ImageSpec,
                  decoded: Optional[List[DecodedInstr]] = None,
                  ) -> VerifyReport:
    """Run the full analysis over one image; never raises.

    ``decoded`` is the image's sweep, when the caller already holds it
    (``sweep_ranges`` over the image's code ranges); it is not swept
    again.
    """
    with OBS.tracer.span("binverify.image", module=image.name,
                         arch=image.arch, grain="unit" if image.partial
                         else "module") as span:
        report = _analyze(image, decoded)
        span.set(ok=report.ok,
                 diagnostics=len(report.diagnostics),
                 checked=report.stats.get("checked_branches", 0),
                 instructions=report.stats["instructions"])
    OBS.metrics.counter(
        "binverify.accepted" if report.ok else "binverify.rejected").inc()
    return report


def _analyze(image: ImageSpec,
             decoded: Optional[List[DecodedInstr]]) -> VerifyReport:
    report = VerifyReport(module=image.name, arch=image.arch,
                          grain="unit" if image.partial else "module")
    out = _Emitter(image)

    try:
        if decoded is None:
            decoded = sweep_ranges(image.code, image.base,
                                   image.code_ranges)
    except EncodingError as exc:
        out.emit("MCFI007", image.base, "-", 0,
                 f"image does not disassemble completely: {exc}")
        report.diagnostics = sorted_diagnostics(out.diagnostics)
        report.ok = False
        report.stats = {"instructions": 0, "checked_branches": 0,
                        "targets": len(image.aux_targets)}
        return report

    cfg = build_cfg(image, decoded)
    solution = solve(cfg, make_problem())
    inputs = solution.inputs

    reachable = [label for label in cfg.rpo
                 if label in inputs
                 and isinstance(cfg.blocks[label], BinBlock)
                 and label != cfg.entry]

    broken_fall = {guard.fallthrough: guard.reason
                   for guard in cfg.guards if not guard.intact}
    roles = _ROLES[image.arch]
    holes = image.rel32_holes
    boundaries = cfg.boundaries
    base, limit = image.base, image.limit

    proved_branches = 0
    proved_stores = 0
    direct_targets = 0
    cross_module = 0

    for label in reachable:
        block: BinBlock = cfg.blocks[label]
        state = inputs[label]
        for index, (address, codec, operands) in enumerate(block.instrs):
            opcode = codec.opcode
            role = roles[opcode]
            if not role:
                pass
            elif role == _STORE:
                base_reg = operands[0]
                if state >> base_reg & 1 or base_reg in _FRAME_BASES:
                    proved_stores += 1
                else:
                    out.emit("MCFI006", address, label, index,
                             f"unsandboxed store via {Reg(base_reg)!s} "
                             f"(base not provably masked) could reach "
                             f"table or code regions")
            elif role == _DIRECT:
                if address + 1 not in holes:
                    target = address + codec.length + operands[0]
                    if not base <= target < limit:
                        cross_module += 1
                    elif target not in boundaries:
                        out.emit("MCFI007", address, label, index,
                                 f"direct branch target {target:#x} is "
                                 f"not a decoded instruction boundary")
                    elif target not in image.label_addrs:
                        out.emit("MCFI007", address, label, index,
                                 f"direct branch target {target:#x} is "
                                 f"not a declared label")
                    else:
                        direct_targets += 1
            elif role == _INDIRECT:
                reg = operands[0]
                if state >> (CHECKED_SHIFT + reg) & 1:
                    proved_branches += 1
                    report.verdicts[address] = "proved"
                else:
                    held = _FACT[fact(state, reg)]
                    reason = (f"indirect branch via {Reg(reg)!s} not "
                              f"dominated by an intact check "
                              f"transaction ({held})")
                    extra = broken_fall.get(block.start)
                    if extra:
                        reason += f"; nearest guard broken: {extra}"
                    out.emit("MCFI005", address, label, index, reason)
                    report.verdicts[address] = held
            else:  # _RET
                out.emit("MCFI005", address, label, index,
                         "bare ret (returns must be rewritten into "
                         "checked jumps)")
                report.verdicts[address] = "bare ret"

            effect = EFFECT[opcode]
            if len(effect) > 2:
                effect = effect[operands[0]]
            state = (state & effect[0]) | effect[1]

        if block.falls_off:
            out.emit("MCFI007", block.instrs[-1][0], label,
                     len(block.instrs) - 1,
                     "execution falls off the decoded code range")

    # -- global discipline (MCFI008) --------------------------------------
    if image.alignment_known:
        for address in image.aux_targets:
            if address % 4:
                out.emit("MCFI008", address, "-", 0,
                         "declared indirect-branch target is not "
                         "4-byte aligned")
            elif image.contains(address) \
                    and address not in cfg.boundaries:
                out.emit("MCFI008", address, "-", 0,
                         "declared indirect-branch target is not an "
                         "instruction boundary")

    intact = [guard for guard in cfg.guards if guard.intact]
    intact_fields = sorted(guard.bary_field for guard in intact)
    declared_fields = sorted(image.bary_fields)
    for field_addr in declared_fields:
        at = boundaries.get(field_addr - 2)
        if at is None or decoded[at][1].op != Op.TLOAD_RI:
            out.emit("MCFI008", field_addr, "-", 0,
                     "patched Bary slot is not the immediate of a "
                     "tload instruction")
    if len(declared_fields) != image.n_sites:
        out.emit("MCFI008", image.base, "-", 0,
                 f"{image.n_sites} declared branch sites but "
                 f"{len(declared_fields)} patched Bary slots")
    if len(intact) != image.n_sites:
        out.emit("MCFI008", image.base, "-", 0,
                 f"{image.n_sites} declared branch sites but "
                 f"{len(intact)} intact check transactions found")
    elif intact_fields != declared_fields:
        out.emit("MCFI008", image.base, "-", 0,
                 "intact check transactions do not read the declared "
                 "Bary slots")

    report.check_spans = sorted(guard.span for guard in intact)
    report.diagnostics = sorted_diagnostics(out.diagnostics)
    report.ok = not report.errors
    report.stats = {
        "instructions": len(decoded),
        "blocks": sum(1 for b in cfg.blocks.values()
                      if isinstance(b, BinBlock)) - 1,
        "reachable_blocks": len(reachable),
        "checked_branches": len(intact),
        "proved_branches": proved_branches,
        "proved_stores": proved_stores,
        "direct_targets": direct_targets,
        "cross_module": cross_module,
        "targets": len(image.aux_targets),
        "iterations": solution.iterations,
    }
    return report


def analyze_module(module: McfiModule) -> VerifyReport:
    """Verify one linked module; returns the report (never raises)."""
    report = analyze_image(image_of_module(module))
    # keep the legacy 'targets' meaning: functions + return sites
    report.stats["targets"] = (len(module.aux.functions)
                               + len(module.aux.retsites))
    return report


def verify_module(module: McfiModule) -> VerifyReport:
    """Gate one linked module; raises
    :class:`~repro.errors.VerificationError` on rejection.

    This is what removes the rewriter from the TCB: a module from an
    untrusted toolchain is accepted only if it verifies.
    """
    report = analyze_module(module)
    if not report.ok:
        raise VerificationError(f"{module.name}: {report.first_error()}")
    return report


def verify_unit(artifact, arch: str = "x64",
                module: str = "") -> VerifyReport:
    """Gate one compilation unit; raises
    :class:`~repro.errors.UnitVerificationError` on rejection.

    This runs before an artifact is published to the shared build
    cache: a pool worker (or a poisoned cache) cannot land code that
    merely *looks* plausible — the unit must prove its own check
    transactions, masks and alignment.
    """
    report = analyze_image(image_of_unit(artifact, arch=arch))
    if not report.ok:
        where = f"{module}:{artifact.fn}" if module else artifact.fn
        raise UnitVerificationError(
            f"unit {where} failed binary verification: "
            f"{report.first_error()}",
            unit=artifact.fn, report=report)
    return report
