"""SimISA instruction set definition.

SimISA is a variable-length-encoded virtual instruction set modelled on
x86-64.  Variable-length encoding is essential to this reproduction: it
is what makes the paper's 4-byte alignment no-ops meaningful, lets the
modular verifier do real disassembly, and lets the ROP gadget scanner
find gadgets that start in the *middle* of an instruction.

Each opcode has:

* a one-byte opcode value,
* an operand signature (a tuple of operand kinds, see :data:`OperandKind`),
* a cycle cost used by the VM's deterministic cycle model,
* flags describing its control-flow role (used by the verifier, the CFG
  generator and the gadget scanner), and
* its effects: the registers and memory it writes, the one statement
  of them that every other per-opcode table is derived from.

The MCFI-specific instructions mirror the paper's Figure 4 sequence:

* ``TLOAD_RI r, imm`` — ``movl %gs:imm, r``: read a 4-byte ID from the
  table segment at a constant index (Bary reads; the index is patched in
  by the loader).
* ``TLOAD_RR r1, r2`` — ``movl %gs:(r2), r1``: read a 4-byte ID from the
  table segment at a register-supplied address (Tary reads).
* ``TESTB1 r`` — ``testb $1, %sil``-style check of an ID's low
  reserved bit.
* ``CMPW_RR r1, r2`` — compare the low 16 bits of two IDs (the version
  halves; see the ID encoding in :mod:`repro.core.idencoding`).
* ``MOVZX32 r`` — ``movl %ecx, %ecx``: clear the upper 32 bits, which
  both sandboxes addresses into ``[0, 4GB)`` and is the paper's x86-64
  write-sandboxing primitive.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Tuple

from repro.errors import EncodingError
from repro.isa.registers import NUM_REGS, Reg


class OperandKind(enum.Enum):
    """Kinds of instruction operands and their encoded byte widths."""

    REG = "reg"      # 1 byte: register number
    IMM8 = "imm8"    # 1 byte: unsigned 8-bit immediate
    IMM32 = "imm32"  # 4 bytes: signed 32-bit immediate (little endian)
    IMM64 = "imm64"  # 8 bytes: signed 64-bit immediate (little endian)
    REL32 = "rel32"  # 4 bytes: signed 32-bit PC-relative displacement


class Op(enum.IntEnum):
    """SimISA opcodes.  Values are the first byte of the encoding."""

    NOP = 0x01
    HLT = 0x02
    SYSCALL = 0x03

    MOV_RR = 0x10
    MOV_RI = 0x11
    MOVZX32 = 0x12
    LEA = 0x13          # dst = base + disp32

    ADD_RR = 0x20
    ADD_RI = 0x21
    SUB_RR = 0x22
    SUB_RI = 0x23
    IMUL_RR = 0x24
    IDIV_RR = 0x25      # dst = dst / src (signed, trunc toward zero)
    IMOD_RR = 0x26      # dst = dst % src
    AND_RR = 0x27
    AND_RI = 0x28
    OR_RR = 0x29
    OR_RI = 0x2A
    XOR_RR = 0x2B
    XOR_RI = 0x2C
    SHL_RI = 0x2D
    SHR_RI = 0x2E
    SHL_RR = 0x2F
    SHR_RR = 0x30
    NEG = 0x31
    NOT = 0x32

    CMP_RR = 0x38
    CMP_RI = 0x39
    TEST_RR = 0x3A
    TEST_RI = 0x3B
    CMPW_RR = 0x3C      # compare low 16 bits (ID version comparison)
    TESTB1 = 0x3D       # ZF = ((reg & 1) == 0) (ID validity check)

    LOAD8 = 0x40        # dst = zx(mem8[base + disp32])
    LOAD32 = 0x41       # dst = zx(mem32[base + disp32])
    LOAD64 = 0x42       # dst = mem64[base + disp32]
    STORE8 = 0x43       # mem8[base + disp32] = src (low byte)
    STORE32 = 0x44      # mem32[base + disp32] = src (low 4 bytes)
    STORE64 = 0x45      # mem64[base + disp32] = src
    LOAD16 = 0x46       # dst = zx(mem16[base + disp32])
    STORE16 = 0x47      # mem16[base + disp32] = src (low 2 bytes)

    SAR_RI = 0x34       # arithmetic (sign-preserving) shift right
    SAR_RR = 0x35

    PUSH = 0x48
    POP = 0x49

    CALL = 0x50         # direct call, rel32
    CALL_R = 0x51       # indirect call via register
    JMP = 0x52          # direct jump, rel32
    JMP_R = 0x53        # indirect jump via register
    RET = 0x54

    JE = 0x58
    JNE = 0x59
    JL = 0x5A
    JLE = 0x5B
    JG = 0x5C
    JGE = 0x5D
    JB = 0x5E           # unsigned below
    JAE = 0x5F          # unsigned above-or-equal

    TLOAD_RI = 0x60     # dst32 = table[imm32]   (Bary read)
    TLOAD_RR = 0x61     # dst32 = table[src]     (Tary read)

    FADD_RR = 0x70      # IEEE-754 double ops; registers hold raw bits
    FSUB_RR = 0x71
    FMUL_RR = 0x72
    FDIV_RR = 0x73
    FCMP_RR = 0x74
    CVTSI2F = 0x75      # reg = bits(float(signed reg))
    CVTF2SI = 0x76      # reg = int(trunc(float_bits(reg)))


@dataclass(frozen=True)
class OpSpec:
    """Static description of one opcode."""

    mnemonic: str
    operands: Tuple[OperandKind, ...]
    cost: int
    is_branch: bool = False        # transfers control
    is_indirect: bool = False      # indirect branch (ret / call_r / jmp_r)
    is_cond: bool = False          # conditional branch
    is_call: bool = False
    is_ret: bool = False
    traps: bool = False            # its runtime handler reads the whole state
    writes: Tuple[int, ...] = ()   # indices of the register operands it writes
    writes_sp: bool = False        # writes RSP implicitly
    load: int = 0                  # bytes it loads from ``[base + disp32]``
    store: int = 0                 # bytes it stores to ``[base + disp32]``
    #: stores where no operand points: push, call, a syscall's handler
    implicit_store: bool = False


R = OperandKind.REG
I8 = OperandKind.IMM8
I32 = OperandKind.IMM32
I64 = OperandKind.IMM64
REL = OperandKind.REL32

W0 = (0,)  # writes its first operand

SPECS: dict[Op, OpSpec] = {
    # Alignment no-ops and the movzx32 sandbox masks issue in
    # spare superscalar slots (Sec. 8.1 discusses why the
    # instrumentation is nearly free on a real CPU); the cycle
    # model charges them nothing.  The two table loads of a
    # check transaction execute in parallel with no mutual
    # dependency ("confirmed by our micro-benchmarks").
    Op.NOP: OpSpec("nop", (), 0),
    Op.HLT: OpSpec("hlt", (), 1, traps=True),
    Op.SYSCALL: OpSpec("syscall", (), 50, traps=True, implicit_store=True),

    Op.MOV_RR: OpSpec("mov", (R, R), 1, writes=W0),
    Op.MOV_RI: OpSpec("mov", (R, I64), 1, writes=W0),
    Op.MOVZX32: OpSpec("movzx32", (R,), 0, writes=W0),
    Op.LEA: OpSpec("lea", (R, R, I32), 1, writes=W0),

    Op.ADD_RR: OpSpec("add", (R, R), 1, writes=W0),
    Op.ADD_RI: OpSpec("add", (R, I32), 1, writes=W0),
    Op.SUB_RR: OpSpec("sub", (R, R), 1, writes=W0),
    Op.SUB_RI: OpSpec("sub", (R, I32), 1, writes=W0),
    Op.IMUL_RR: OpSpec("imul", (R, R), 3, writes=W0),
    Op.IDIV_RR: OpSpec("idiv", (R, R), 10, writes=W0),
    Op.IMOD_RR: OpSpec("imod", (R, R), 10, writes=W0),
    Op.AND_RR: OpSpec("and", (R, R), 1, writes=W0),
    Op.AND_RI: OpSpec("and", (R, I32), 1, writes=W0),
    Op.OR_RR: OpSpec("or", (R, R), 1, writes=W0),
    Op.OR_RI: OpSpec("or", (R, I32), 1, writes=W0),
    Op.XOR_RR: OpSpec("xor", (R, R), 1, writes=W0),
    Op.XOR_RI: OpSpec("xor", (R, I32), 1, writes=W0),
    Op.SHL_RI: OpSpec("shl", (R, I8), 1, writes=W0),
    Op.SHR_RI: OpSpec("shr", (R, I8), 1, writes=W0),
    Op.SHL_RR: OpSpec("shl", (R, R), 1, writes=W0),
    Op.SHR_RR: OpSpec("shr", (R, R), 1, writes=W0),
    Op.NEG: OpSpec("neg", (R,), 1, writes=W0),
    Op.NOT: OpSpec("not", (R,), 1, writes=W0),

    Op.CMP_RR: OpSpec("cmp", (R, R), 1),
    Op.CMP_RI: OpSpec("cmp", (R, I32), 1),
    Op.TEST_RR: OpSpec("test", (R, R), 1),
    Op.TEST_RI: OpSpec("test", (R, I32), 1),
    Op.CMPW_RR: OpSpec("cmpw", (R, R), 1),
    Op.TESTB1: OpSpec("testb1", (R,), 1),

    Op.LOAD8: OpSpec("load8", (R, R, I32), 2, writes=W0, load=1),
    Op.LOAD32: OpSpec("load32", (R, R, I32), 2, writes=W0, load=4),
    Op.LOAD64: OpSpec("load64", (R, R, I32), 2, writes=W0, load=8),
    Op.STORE8: OpSpec("store8", (R, I32, R), 2, store=1),
    Op.STORE32: OpSpec("store32", (R, I32, R), 2, store=4),
    Op.STORE64: OpSpec("store64", (R, I32, R), 2, store=8),
    Op.LOAD16: OpSpec("load16", (R, R, I32), 2, writes=W0, load=2),
    Op.STORE16: OpSpec("store16", (R, I32, R), 2, store=2),
    Op.SAR_RI: OpSpec("sar", (R, I8), 1, writes=W0),
    Op.SAR_RR: OpSpec("sar", (R, R), 1, writes=W0),

    Op.PUSH: OpSpec("push", (R,), 2, writes_sp=True, implicit_store=True),
    Op.POP: OpSpec("pop", (R,), 2, writes=W0, writes_sp=True),

    Op.CALL: OpSpec("call", (REL,), 3, is_branch=True, is_call=True,
                    writes_sp=True, implicit_store=True),
    # Register-indirect transfers cost more than returns: a real
    # ``ret`` is return-address-stack predicted, while ``jmp/call *r``
    # is mispredict-prone.  MCFI's rewritten return (pop + checked
    # ``jmp *rcx``) pays this, which is part of its measured overhead.
    Op.CALL_R: OpSpec("call", (R,), 4, is_branch=True, is_call=True,
                      is_indirect=True, writes_sp=True, implicit_store=True),
    Op.JMP: OpSpec("jmp", (REL,), 1, is_branch=True),
    Op.JMP_R: OpSpec("jmp", (R,), 4, is_branch=True, is_indirect=True),
    Op.RET: OpSpec("ret", (), 2, is_branch=True, is_indirect=True,
                   is_ret=True, writes_sp=True),

    Op.JE: OpSpec("je", (REL,), 1, is_branch=True, is_cond=True),
    Op.JNE: OpSpec("jne", (REL,), 1, is_branch=True, is_cond=True),
    Op.JL: OpSpec("jl", (REL,), 1, is_branch=True, is_cond=True),
    Op.JLE: OpSpec("jle", (REL,), 1, is_branch=True, is_cond=True),
    Op.JG: OpSpec("jg", (REL,), 1, is_branch=True, is_cond=True),
    Op.JGE: OpSpec("jge", (REL,), 1, is_branch=True, is_cond=True),
    Op.JB: OpSpec("jb", (REL,), 1, is_branch=True, is_cond=True),
    Op.JAE: OpSpec("jae", (REL,), 1, is_branch=True, is_cond=True),

    Op.TLOAD_RI: OpSpec("tload", (R, I32), 2, writes=W0),
    Op.TLOAD_RR: OpSpec("tload", (R, R), 2, writes=W0),

    Op.FADD_RR: OpSpec("fadd", (R, R), 3, writes=W0),
    Op.FSUB_RR: OpSpec("fsub", (R, R), 3, writes=W0),
    Op.FMUL_RR: OpSpec("fmul", (R, R), 3, writes=W0),
    Op.FDIV_RR: OpSpec("fdiv", (R, R), 10, writes=W0),
    Op.FCMP_RR: OpSpec("fcmp", (R, R), 3),
    Op.CVTSI2F: OpSpec("cvtsi2f", (R,), 2, writes=W0),
    Op.CVTF2SI: OpSpec("cvtf2si", (R,), 2, writes=W0),
}


#: Per operand kind: (struct format, low bound, high bound (exclusive),
#: encode-error template).  Immediates accept both their signed and
#: unsigned readings; the decoder reads them back sign-extended.
_FIELD = {
    OperandKind.REG: ("B", 0, NUM_REGS, "bad register number {}"),
    OperandKind.IMM8: ("B", 0, 1 << 8, "imm8 out of range: {}"),
    OperandKind.IMM32: ("i", -(1 << 31), 1 << 32, "imm32 out of range: {}"),
    OperandKind.REL32: ("i", -(1 << 31), 1 << 32, "imm32 out of range: {}"),
    OperandKind.IMM64: ("q", -(1 << 63), 1 << 64, "imm64 out of range: {}"),
}


class Codec:
    """Everything the encoder, decoder and assembler need about one
    opcode, computed once from its :class:`OpSpec`.

    ``struct`` covers the operand fields that follow the opcode byte
    (immediates signed).  ``fields`` holds one ``(kind, offset, low,
    high, mask, half, error)`` tuple per operand: ``offset`` is the
    field's byte offset from the opcode byte, ``[low, high)`` the
    accepted values, and ``((value + half) & mask) - half`` folds an
    accepted value into the range ``struct`` packs.
    """

    __slots__ = ("op", "opcode", "spec", "length", "arity", "fields",
                 "struct", "reg_fields")

    def __init__(self, op: Op, spec: OpSpec) -> None:
        self.op = op
        self.opcode = int(op)
        self.spec = spec
        self.arity = len(spec.operands)
        fields = []
        offset = 1
        for kind in spec.operands:
            fmt, low, high, error = _FIELD[kind]
            width = struct.calcsize("<" + fmt)
            half = (1 << 8 * width - 1) if fmt in "iq" else 0
            fields.append((kind, offset, low, high, (1 << 8 * width) - 1,
                           half, error))
            offset += width
        self.length = offset
        self.fields = tuple(fields)
        self.struct = struct.Struct(
            "<" + "".join(_FIELD[kind][0] for kind in spec.operands))
        self.reg_fields = tuple(index for index, kind
                                in enumerate(spec.operands)
                                if kind is OperandKind.REG)

    def check(self, values) -> list:
        """Range-check operand ``values``; return them folded for
        :attr:`struct`."""
        if len(values) != self.arity:
            raise EncodingError(
                f"{self.spec.mnemonic}: expected {self.arity} operands, "
                f"got {len(values)}")
        out = []
        for (_, _, low, high, mask, half, error), value in zip(self.fields,
                                                                values):
            if not low <= value < high:
                raise EncodingError(error.format(value))
            out.append(((value + half) & mask) - half)
        return out


#: The codec table: opcode -> :class:`Codec`.
CODECS: dict[Op, Codec] = {op: Codec(op, spec) for op, spec in SPECS.items()}

#: The same table indexed by opcode byte (``None`` for invalid bytes).
CODEC_BY_BYTE: list = [CODECS.get(byte) for byte in range(256)]


def codec_of(op: Op) -> Codec:
    """The :class:`Codec` of ``op``; :class:`EncodingError` if unknown."""
    codec = CODECS.get(op)
    if codec is None:
        raise EncodingError(f"unknown opcode {op!r}")
    return codec


#: Maximum encoded instruction length (used by the decoder and scanner).
MAX_INSTRUCTION_LENGTH = max(codec.length for codec in CODECS.values())

#: Opcodes that end a decoded basic block in the VM's dispatch plane
#: (:mod:`repro.vm.dispatch`): every control transfer plus the two
#: instructions whose execution leaves the straight-line path by
#: raising or by re-entering the trusted runtime.  Stored as plain ints
#: because the dispatch plane indexes by the opcode byte.
BLOCK_TERMINATORS = frozenset(
    int(op) for op, spec in SPECS.items() if spec.is_branch or spec.traps)


@dataclass(frozen=True)
class Instruction:
    """A decoded (or to-be-encoded) SimISA instruction.

    ``operands`` holds integers: register numbers for REG operands and
    immediate values for the rest.  PC-relative displacements are stored
    as the raw signed displacement (target = address + length + disp).
    """

    op: Op
    operands: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        spec = SPECS.get(self.op)
        if spec is None:
            raise EncodingError(f"unknown opcode {self.op!r}")
        if len(self.operands) != len(spec.operands):
            raise EncodingError(
                f"{spec.mnemonic}: expected {len(spec.operands)} operands, "
                f"got {len(self.operands)}")

    @property
    def spec(self) -> OpSpec:
        return SPECS[self.op]

    @property
    def length(self) -> int:
        return CODECS[self.op].length

    @property
    def cost(self) -> int:
        return self.spec.cost

    def __str__(self) -> str:
        spec = self.spec
        parts = []
        for kind, value in zip(spec.operands, self.operands):
            if kind is OperandKind.REG:
                parts.append(str(Reg(value)))
            elif kind is OperandKind.REL32:
                parts.append(f".{value:+d}")
            else:
                parts.append(f"${value:#x}" if abs(value) > 9 else f"${value}")
        return f"{spec.mnemonic} " + ", ".join(parts) if parts else spec.mnemonic
