"""Byte-exact encoder/decoder for SimISA instructions.

The encoding is deliberately simple but *variable length* (1 to 10
bytes): one opcode byte followed by operand bytes, little-endian.  The
decoder validates opcode bytes and register numbers, so — exactly as on
x86 — an arbitrary byte offset into the code image may or may not decode,
and a byte sequence can decode differently depending on where decoding
starts.  The ROP gadget scanner and the paper's "gadgets starting in the
middle of an instruction" discussion rely on this property.

:func:`decode_fields` is the one decoder core: every check (opcode
byte, truncation, register bytes) lives there, and it returns the
opcode's :class:`~repro.isa.instructions.Codec` and the operands.
:func:`decode` builds an :class:`Instruction` from it; the VM's fetch
(:meth:`repro.vm.cpu.CPU._fetch_decode`) builds its decoded-entry
tuple from it, reading straight from the executable page; and the one
sweep, :func:`repro.isa.disasm.sweep_ranges`, builds its records from
it without an :class:`Instruction`.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import EncodingError
from repro.isa.instructions import (
    CODEC_BY_BYTE,
    Codec,
    Instruction,
    OperandKind,
    codec_of,
)
from repro.isa.registers import NUM_REGS


def encode(instr: Instruction) -> bytes:
    """Encode one instruction to bytes.

    Raises :class:`EncodingError` if an operand does not fit its field.
    """
    codec = codec_of(instr.op)
    return bytes((codec.opcode,)) + codec.struct.pack(
        *codec.check(instr.operands))


def decode_fields(code: bytes, offset: int = 0
                  ) -> Tuple[Codec, Tuple[int, ...]]:
    """Validate the instruction at ``offset`` in ``code``.

    Returns ``(codec, operands)``; the instruction is ``codec.length``
    bytes long.  ``code`` is any bytes-like object.  Raises
    :class:`EncodingError` if the bytes at ``offset`` are not a valid
    instruction (bad opcode, bad register byte, or truncated operands).
    """
    if offset >= len(code):
        raise EncodingError("decode past end of code")
    opcode = code[offset]
    codec = CODEC_BY_BYTE[opcode]
    if codec is None:
        raise EncodingError(f"invalid opcode byte {opcode:#04x}")
    if offset + codec.length > len(code):
        _raise_truncated(codec, code, offset)
    operands = codec.struct.unpack_from(code, offset + 1)
    for index in codec.reg_fields:
        if operands[index] >= NUM_REGS:
            raise EncodingError(f"bad register byte {operands[index]:#04x}")
    return codec, operands


def decode(code: bytes, offset: int = 0) -> Tuple[Instruction, int]:
    """Decode one instruction at ``offset`` in ``code``.

    Returns ``(instruction, length)``.  Raises :class:`EncodingError` if
    the bytes at ``offset`` are not a valid instruction (see
    :func:`decode_fields`).
    """
    codec, operands = decode_fields(code, offset)
    return Instruction(codec.op, operands), codec.length


def _raise_truncated(codec, code: bytes, offset: int) -> None:
    """Raise the first error a field-by-field read of a truncated
    instruction meets: a bad register byte before the cut, or the cut."""
    for kind, field_offset, _, _, mask, _, _ in codec.fields:
        pos = offset + field_offset
        if pos + mask.bit_length() // 8 > len(code):
            break
        if kind is OperandKind.REG and code[pos] >= NUM_REGS:
            raise EncodingError(f"bad register byte {code[pos]:#04x}")
    raise EncodingError("truncated instruction")

