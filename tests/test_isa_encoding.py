"""Tests for SimISA instruction encoding/decoding."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import EncodingError
from repro.isa.disasm import sweep_ranges
from repro.isa.encoding import decode, encode
from repro.isa.instructions import (
    Instruction,
    MAX_INSTRUCTION_LENGTH,
    Op,
    OperandKind,
    SPECS,
    codec_of,
)
from repro.isa.registers import NUM_REGS


def _operand_strategy(kind: OperandKind):
    if kind is OperandKind.REG:
        return st.integers(min_value=0, max_value=NUM_REGS - 1)
    if kind is OperandKind.IMM8:
        return st.integers(min_value=0, max_value=255)
    if kind in (OperandKind.IMM32, OperandKind.REL32):
        return st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)
    return st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


@st.composite
def instructions(draw):
    op = draw(st.sampled_from(sorted(SPECS, key=int)))
    operands = tuple(draw(_operand_strategy(kind))
                     for kind in SPECS[op].operands)
    return Instruction(op, operands)


class TestRoundTrip:
    @given(instructions())
    def test_encode_decode_roundtrip(self, instr):
        raw = encode(instr)
        decoded, length = decode(raw)
        assert length == len(raw) == instr.length
        assert decoded.op == instr.op
        # Immediates may normalize sign, but re-encoding must agree.
        assert encode(decoded) == raw

    @given(st.lists(instructions(), min_size=1, max_size=20))
    def test_stream_roundtrip(self, instrs):
        raw = b"".join(encode(instr) for instr in instrs)
        decoded = sweep_ranges(raw, 0, [(0, len(raw))])
        assert len(decoded) == len(instrs)
        offset = 0
        for instr, original in zip(decoded, instrs):
            assert instr.address == offset
            assert instr.op == original.op
            offset += instr.length

    def test_lengths_are_static(self):
        for op in SPECS:
            operands = tuple(0 for _ in SPECS[op].operands)
            assert len(encode(Instruction(op, operands))) == \
                codec_of(op).length

    def test_max_length_constant(self):
        assert MAX_INSTRUCTION_LENGTH == max(
            codec_of(op).length for op in SPECS)


class TestErrors:
    def test_bad_opcode_byte(self):
        with pytest.raises(EncodingError):
            decode(b"\xff\x00\x00")

    def test_bad_register_byte(self):
        raw = bytearray(encode(Instruction(Op.MOV_RR, (0, 1))))
        raw[1] = 200  # invalid register number
        with pytest.raises(EncodingError):
            decode(bytes(raw))

    def test_truncated_instruction(self):
        raw = encode(Instruction(Op.MOV_RI, (0, 123456789)))
        with pytest.raises(EncodingError):
            decode(raw[:-1])

    def test_decode_past_end(self):
        with pytest.raises(EncodingError):
            decode(b"", 0)

    def test_operand_out_of_range(self):
        with pytest.raises(EncodingError):
            encode(Instruction(Op.ADD_RI, (0, 1 << 40)))
        with pytest.raises(EncodingError):
            encode(Instruction(Op.MOV_RR, (0, 99)))

    def test_wrong_operand_count(self):
        with pytest.raises(EncodingError):
            Instruction(Op.MOV_RR, (0,))


class TestVariableLength:
    """Variable-length encoding is load-bearing for the reproduction."""

    def test_lengths_vary(self):
        lengths = {codec_of(op).length for op in SPECS}
        assert len(lengths) >= 4, "encoding should be variable length"

    def test_mid_instruction_decode_differs(self):
        # A MOV_RI whose immediate contains a valid opcode byte decodes
        # differently when started mid-instruction.
        instr = Instruction(Op.MOV_RI, (0, int(Op.RET)))
        raw = encode(instr)
        inner, _ = decode(raw, 2)
        assert inner.op == Op.RET

    def test_branch_target_resolution(self):
        instr = Instruction(Op.JMP, (10,))
        raw = encode(instr)
        [decoded] = sweep_ranges(raw, 100, [(100, 100 + len(raw))])
        assert decoded.target == 100 + instr.length + 10
