"""ROP gadget scanner (the paper's rp++ analogue, Sec. 8.3).

A gadget is a short instruction sequence ending in an indirect control
transfer (``ret``, ``jmp *r``, ``call *r``) that decodes starting at
*any* byte offset of the code image — including offsets in the middle
of real instructions, which variable-length encoding makes possible.

The paper measures "gadget elimination": the fraction of the original
binary's gadgets that are unusable in the MCFI-hardened binary.  Under
MCFI a gadget can only be entered through an indirect branch, and every
indirect branch verifies its target against the Tary table, so the
usable gadget starts are exactly the permitted indirect-branch targets
(4-byte-aligned addresses with a valid ID).  We therefore report:

* ``all gadgets`` — every decodable gadget start (what rp++ counts on
  an unprotected binary);
* ``reachable gadgets`` — gadget starts that are permitted targets
  under the installed CFI policy.

The elimination rate is ``1 - reachable/all`` measured on the hardened
image (the paper reports ~96.9%/95.8% on x86-32/64).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple

from repro.isa.disasm import try_decode_at
from repro.isa.instructions import SPECS

#: Opcodes that terminate a gadget: the indirect branches.
GADGET_ENDS = frozenset(op for op, spec in SPECS.items() if spec.is_indirect)

#: Maximum instructions in a gadget (rp++'s typical depth).
DEFAULT_DEPTH = 5


@dataclass(frozen=True)
class Gadget:
    """One gadget: its start address and decoded mnemonic sequence."""

    address: int
    text: Tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.text)

    def __str__(self) -> str:
        return f"{self.address:#x}: " + " ; ".join(self.text)


def gadget_at(code: bytes, offset: int,
              depth: int = DEFAULT_DEPTH) -> Optional[Tuple[str, ...]]:
    """Try to decode a gadget starting at ``offset``.

    Returns the mnemonic tuple if a sequence of at most ``depth``
    instructions ending in an indirect branch decodes here.
    """
    text: List[str] = []
    cursor = offset
    for _ in range(depth):
        decoded = try_decode_at(code, cursor)
        if decoded is None:
            return None
        instr, length = decoded
        text.append(str(instr))
        if instr.op in GADGET_ENDS:
            return tuple(text)
        spec = instr.spec
        if spec.is_branch:
            return None  # direct branches break the gadget
        cursor += length
        if cursor > len(code):
            return None
    return None


def find_gadgets(code: bytes, base: int = 0,
                 depth: int = DEFAULT_DEPTH) -> List[Gadget]:
    """Scan every byte offset of ``code`` for gadgets."""
    out: List[Gadget] = []
    for offset in range(len(code)):
        text = gadget_at(code, offset, depth=depth)
        if text is not None:
            out.append(Gadget(address=base + offset, text=text))
    return out


def unique_gadgets(gadgets: Iterable[Gadget]) -> Set[Tuple[str, ...]]:
    """Deduplicate gadgets by instruction content (rp++'s 'unique')."""
    return {g.text for g in gadgets}


def reachable_gadgets(gadgets: Iterable[Gadget],
                      permitted_targets: Set[int]) -> List[Gadget]:
    """Gadgets whose start address is a permitted indirect-branch target."""
    return [g for g in gadgets if g.address in permitted_targets]


@dataclass
class GadgetReport:
    """Gadget statistics for one program image."""

    total_starts: int
    unique_total: int
    reachable_starts: int
    unique_reachable: int

    @property
    def elimination_rate(self) -> float:
        if self.unique_total == 0:
            return 0.0
        return 1.0 - self.unique_reachable / self.unique_total


def analyze_image(code: bytes, base: int,
                  permitted_targets: Optional[Set[int]] = None,
                  depth: int = DEFAULT_DEPTH) -> GadgetReport:
    """Full gadget analysis of one code image.

    Without ``permitted_targets`` (an unprotected binary) every gadget
    is reachable.
    """
    gadgets = find_gadgets(code, base=base, depth=depth)
    if permitted_targets is None:
        reachable = gadgets
    else:
        reachable = reachable_gadgets(gadgets, permitted_targets)
    return GadgetReport(
        total_starts=len(gadgets),
        unique_total=len(unique_gadgets(gadgets)),
        reachable_starts=len(reachable),
        unique_reachable=len(unique_gadgets(reachable)),
    )
