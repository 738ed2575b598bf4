"""Tests for the two-pass symbolic assembler."""

import pytest

from repro.errors import AssemblerError
from repro.isa.assembler import (
    Align,
    AlignEnd,
    AsmInstr,
    BarySlot,
    Data,
    DataWord,
    Label,
    LabelRef,
    Mark,
    assemble,
)
from repro.isa.encoding import decode
from repro.isa.instructions import Op
from repro.isa.registers import Reg


class TestLabels:
    def test_forward_and_backward_references(self):
        items = [
            Label("start"),
            AsmInstr(Op.JMP, (LabelRef("end"),)),
            Label("mid"),
            AsmInstr(Op.NOP, ()),
            AsmInstr(Op.JMP, (LabelRef("start"),)),
            Label("end"),
            AsmInstr(Op.HLT, ()),
        ]
        out = assemble(items, base=0x1000)
        assert out.labels["start"] == 0x1000
        jmp, length = decode(out.code, 0)
        assert 0x1000 + length + jmp.operands[0] == out.labels["end"]

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble([Label("a"), Label("a")])

    def test_undefined_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble([AsmInstr(Op.JMP, (LabelRef("nowhere"),))])

    def test_extern_labels_resolve(self):
        items = [AsmInstr(Op.MOV_RI, (Reg.RAX, LabelRef("g")))]
        out = assemble(items, base=0, extern={"g": 0x123456})
        instr, _ = decode(out.code, 0)
        assert instr.operands[1] == 0x123456

    def test_local_shadows_extern(self):
        items = [Label("f"), AsmInstr(Op.MOV_RI, (Reg.RAX, LabelRef("f")))]
        out = assemble(items, base=0x2000, extern={"f": 0x9999})
        instr, _ = decode(out.code, 0)
        assert instr.operands[1] == 0x2000


class TestAlignment:
    def test_align_pads_with_nops(self):
        items = [AsmInstr(Op.HLT, ()), Align(4), Label("target"),
                 AsmInstr(Op.NOP, ())]
        out = assemble(items, base=0)
        assert out.labels["target"] % 4 == 0
        assert out.labels["target"] == 4  # HLT is 1 byte + 3 NOPs
        assert out.code[1:4] == bytes([int(Op.NOP)] * 3)

    def test_align_end_aligns_instruction_end(self):
        # The call's END (= the return site) must be 4-byte aligned.
        items = [AsmInstr(Op.HLT, ()), AlignEnd(4),
                 AsmInstr(Op.CALL, (LabelRef("f"),)),
                 Mark("retsite", None),
                 Label("f"), AsmInstr(Op.HLT, ())]
        out = assemble(items, base=0)
        retsite = out.marks_of("retsite")[0][1]
        assert retsite % 4 == 0

    def test_align_end_without_instruction_rejected(self):
        with pytest.raises(AssemblerError):
            assemble([AlignEnd(4)])

    def test_already_aligned_needs_no_padding(self):
        items = [Align(4), Label("t"), AsmInstr(Op.NOP, ())]
        out = assemble(items, base=0x1000)
        assert out.labels["t"] == 0x1000
        assert len(out.code) == 1


class TestBarySlots:
    def test_slot_offsets_recorded(self):
        items = [AsmInstr(Op.NOP, ()),
                 AsmInstr(Op.TLOAD_RI, (Reg.RDI, BarySlot(7)))]
        out = assemble(items, base=0x1000)
        # NOP(1) + opcode(1) + reg(1) -> immediate at offset 3
        assert out.bary_slots == {7: 3}
        # placeholder encodes as zero
        assert out.code[3:7] == b"\x00\x00\x00\x00"

    def test_slot_in_wrong_operand_rejected(self):
        with pytest.raises(AssemblerError):
            assemble([AsmInstr(Op.MOV_RI, (Reg.RAX, BarySlot(0)))])


class TestDataAndMarks:
    def test_data_words_with_label_relocs(self):
        items = [Label("table"), DataWord(LabelRef("case0")),
                 DataWord(0xdeadbeef), Label("case0"),
                 AsmInstr(Op.HLT, ())]
        out = assemble(items, base=0x4000)
        word0 = int.from_bytes(out.code[0:8], "little")
        word1 = int.from_bytes(out.code[8:16], "little")
        assert word0 == out.labels["case0"]
        assert word1 == 0xdeadbeef

    def test_marks_bind_to_next_item_address(self):
        items = [AsmInstr(Op.NOP, ()), Mark("here", "x"),
                 AsmInstr(Op.HLT, ())]
        out = assemble(items, base=0x100)
        assert out.marks_of("here") == [("x", 0x101)]

    def test_mark_after_align_sees_padded_address(self):
        items = [AsmInstr(Op.HLT, ()), Align(8), Mark("entry", None),
                 Label("f"), AsmInstr(Op.NOP, ())]
        out = assemble(items, base=0)
        assert out.marks_of("entry")[0][1] == 8
        assert out.labels["f"] == 8

    def test_raw_data_payload(self):
        items = [Data(b"hello\x00"), Label("after"), AsmInstr(Op.NOP, ())]
        out = assemble(items, base=0)
        assert out.code[:6] == b"hello\x00"
        assert out.labels["after"] == 6
