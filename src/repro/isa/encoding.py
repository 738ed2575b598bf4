"""Byte-exact encoder/decoder for SimISA instructions.

The encoding is deliberately simple but *variable length* (1 to 10
bytes): one opcode byte followed by operand bytes, little-endian.  The
decoder validates opcode bytes and register numbers, so — exactly as on
x86 — an arbitrary byte offset into the code image may or may not decode,
and a byte sequence can decode differently depending on where decoding
starts.  The ROP gadget scanner and the paper's "gadgets starting in the
middle of an instruction" discussion rely on this property.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.errors import EncodingError
from repro.isa.instructions import (
    CODEC_BY_BYTE,
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


def encode_all(instrs: List[Instruction]) -> bytes:
    """Encode a sequence of instructions to a contiguous byte string."""
    return b"".join(encode(i) for i in instrs)


def decode(code: bytes, offset: int = 0) -> Tuple[Instruction, int]:
    """Decode one instruction at ``offset`` in ``code``.

    Returns ``(instruction, length)``.  Raises :class:`EncodingError` if
    the bytes at ``offset`` are not a valid instruction (bad opcode, bad
    register byte, or truncated operands).
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


def decode_stream(code: bytes, offset: int = 0,
                  limit: int | None = None) -> Iterator[Tuple[int, Instruction]]:
    """Decode instructions sequentially starting at ``offset``.

    Yields ``(offset, instruction)`` pairs.  Stops at ``limit`` (an offset
    bound) or the end of ``code``; raises :class:`EncodingError` on the
    first undecodable byte, as a linear-sweep disassembler would.
    """
    end = len(code) if limit is None else min(limit, len(code))
    while offset < end:
        instr, length = decode(code, offset)
        yield offset, instr
        offset += length
