"""The modular MCFI verifier (paper Sec. 7).

"The verifier takes an MCFI module, disassembles the module, and checks
whether indirect branches are instrumented as required, memory writes
stay in the sandbox (so that the tables are protected), and no-ops are
inserted to make indirect-branch targets aligned.  The auxiliary type
information in an MCFI module enables the complete disassembly of the
module.  The verifier removes the rewriter [from] the trusted computing
base."

Since PR 9 the checks are *proofs*, not adjacency pattern matches:
:mod:`repro.analysis.binverify` reconstructs a binary-level CFG from
the decoded instruction boundaries and runs an abstract interpreter
(the MIR worklist solver over a per-register fact lattice) that
establishes, for the reachable portion of the image:

1. **complete disassembly** of every code range (jump tables excluded
   per the auxiliary data ranges) — MCFI007 on failure;
2. **dominating check transactions** — every reachable indirect branch
   (and the absence of any bare ``ret``) is dominated by an intact
   Fig. 4 check sequence with no clobber of the checked register in
   between — MCFI005;
3. **sandboxed writes** — on x64, every reachable store's base is
   provably masked — MCFI006;
4. **target + table discipline** — direct branches land on declared
   decoded boundaries, aux targets are 4-byte aligned, and the patched
   Bary slots correspond one-to-one with the intact transactions —
   MCFI007/MCFI008.

This module stays the raising surface the loader and linker call:
:func:`verify_module` returns a
:class:`~repro.analysis.binverify.VerifyReport` and raises
:class:`~repro.errors.VerificationError` on the first diagnostic.
"""

from __future__ import annotations

from typing import List

from repro.analysis.binverify import VerifyReport, analyze_module
from repro.errors import EncodingError, VerificationError
from repro.isa.disasm import DecodedInstr, sweep_ranges
from repro.module.module import McfiModule

__all__ = ["disassemble_module", "verify_module", "VerifyReport"]


def disassemble_module(module: McfiModule) -> List[DecodedInstr]:
    """Completely disassemble the module's code ranges (check 1)."""
    try:
        return sweep_ranges(module.code, module.base, module.code_ranges)
    except EncodingError as exc:
        raise VerificationError(
            f"{module.name}: module does not disassemble completely: {exc}"
        ) from exc


def verify_module(module: McfiModule) -> VerifyReport:
    """Run the binary verifier; raise on any rejection.

    This is what removes the rewriter from the TCB: a module from an
    untrusted toolchain is accepted only if it verifies.
    """
    report = analyze_module(module)
    if not report.ok:
        raise VerificationError(f"{module.name}: {report.first_error()}")
    return report
