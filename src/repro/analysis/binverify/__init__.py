"""``repro.analysis.binverify`` — the binary-level CFI verifier.

The modular verifier the paper puts between an *untrusted* toolchain
and the trusted loader (Sec. 7), rebuilt as a static analysis instead
of a pattern matcher: the module (or one compilation unit) is
disassembled, a binary-level CFG is reconstructed from the decoded
instruction boundaries, and an abstract interpreter over a per-register
fact lattice, held as the bits of one int, *proves* the four safety
properties.  The module's code ranges are read through
:func:`repro.isa.disasm.sweep_ranges`, the one sweep, whose records
carry the decoded fields and no
:class:`~repro.isa.instructions.Instruction`:

* **MCFI005** — every reachable indirect branch is dominated by an
  intact Fig. 4 check transaction, with no clobber of the checked
  register between the transaction and the branch (bare ``ret`` is the
  degenerate case);
* **MCFI006** — every reachable store goes through a sandbox-masked
  base register (x64), so no write can reach the tables or code;
* **MCFI007** — complete disassembly, and every reachable direct
  branch/call lands on a decoded instruction boundary that is a
  declared label (no overlapping-decode escape);
* **MCFI008** — table discipline: aux targets 4-byte aligned on
  boundaries, every Bary immediate patched by the loader belongs to a
  ``tload`` in an intact transaction, transaction count matches the
  declared sites.

Entry points: :func:`analyze_module` / :func:`analyze_image` return a
:class:`VerifyReport`; the two gates raise on rejection:
:func:`verify_module` for a linked module (the loader's and
``dlopen``'s, :class:`~repro.errors.VerificationError`) and
:func:`verify_unit` for a single
:class:`~repro.build.units.UnitArtifact`
(:class:`~repro.errors.UnitVerificationError`).
"""

from repro.analysis.binverify.image import (
    ImageSpec,
    image_of_module,
    image_of_unit,
)
from repro.analysis.binverify.passes import (
    analyze_image,
    analyze_module,
    verify_module,
    verify_unit,
)
from repro.analysis.binverify.report import VerifyReport

__all__ = [
    "ImageSpec", "image_of_module", "image_of_unit",
    "analyze_image", "analyze_module", "verify_module", "verify_unit",
    "VerifyReport",
]
