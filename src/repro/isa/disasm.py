"""The SimISA disassembler: one sweep over declared code ranges.

:func:`sweep_ranges` is the only sweep; the modular verifier
(:mod:`repro.analysis.binverify`) and every other disassembly read its
:class:`DecodedInstr` records.  Each record is built from
:func:`~repro.isa.encoding.decode_fields` and holds the address, the
opcode's :class:`~repro.isa.instructions.Codec` and the operands; an
:class:`~repro.isa.instructions.Instruction` is made only on demand,
by :attr:`DecodedInstr.instr`, for printing.  :func:`try_decode_at` is
the ROP gadget scanner's primitive.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import EncodingError
from repro.isa.encoding import decode, decode_fields
from repro.isa.instructions import Codec, Instruction, Op, OpSpec


class DecodedInstr(NamedTuple):
    """One decoded instruction, tagged with its absolute address."""

    address: int
    codec: Codec
    operands: Tuple[int, ...]

    @property
    def op(self) -> Op:
        return self.codec.op

    @property
    def spec(self) -> OpSpec:
        return self.codec.spec

    @property
    def length(self) -> int:
        return self.codec.length

    @property
    def end(self) -> int:
        return self.address + self.codec.length

    @property
    def target(self) -> int:
        """Absolute target of a direct branch or call."""
        return self.address + self.codec.length + self.operands[0]

    @property
    def instr(self) -> Instruction:
        """The instruction as an :class:`Instruction` (built per call)."""
        return Instruction(self.codec.op, self.operands)


def sweep_ranges(code: bytes, base: int,
                 ranges: List[Tuple[int, int]]) -> List[DecodedInstr]:
    """Disassemble only the given ``[start, end)`` address ranges.

    MCFI modules interleave code with read-only data (jump tables); the
    auxiliary information tells the verifier which ranges are code.
    Raises :class:`EncodingError` if any byte fails to decode or a
    range does not end on an instruction boundary: a well-formed MCFI
    module must disassemble completely.
    """
    out: List[DecodedInstr] = []
    for start, end in ranges:
        offset = start - base
        limit = end - base
        while offset < limit:
            codec, operands = decode_fields(code, offset)
            out.append(DecodedInstr(base + offset, codec, operands))
            offset += codec.length
        if offset != limit:
            raise EncodingError(
                f"code range [{start:#x},{end:#x}) does not end on an "
                f"instruction boundary")
    return out


def try_decode_at(code: bytes, offset: int) -> Optional[Tuple[Instruction, int]]:
    """Decode at an arbitrary offset; return None if undecodable.

    This is the gadget scanner's primitive: unlike :func:`sweep_ranges`,
    decoding may start in the middle of a real instruction.
    """
    try:
        return decode(code, offset)
    except EncodingError:
        return None


def format_instr(decoded: DecodedInstr,
                 labels: Optional[Dict[int, str]] = None) -> str:
    """Render one instruction as ``address: text`` with label annotation."""
    spec = decoded.spec
    if spec.is_branch and not spec.is_indirect:
        target = decoded.target
        name = labels.get(target) if labels else None
        suffix = f" <{name}>" if name else ""
        text = f"{spec.mnemonic} {target:#x}{suffix}"
    else:
        text = str(decoded.instr)
    return f"{decoded.address:#010x}: {text}"
