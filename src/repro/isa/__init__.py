"""SimISA: the virtual instruction set targeted by this reproduction.

A variable-length-encoded, x86-64-flavoured ISA with direct and indirect
calls/jumps, returns, and the MCFI table-access instructions.  See
:mod:`repro.isa.instructions` for the instruction set and
:mod:`repro.isa.assembler` for the symbolic assembly layer that code
generation and MCFI instrumentation operate on.
"""

from repro.isa.registers import (
    ARG_REGS,
    CALLEE_SAVED,
    MCFI_SCRATCH,
    NUM_REGS,
    RET_REG,
    Reg,
)
from repro.isa.instructions import (
    Instruction,
    MAX_INSTRUCTION_LENGTH,
    Op,
    OpSpec,
    OperandKind,
    SPECS,
    instruction_length,
)
from repro.isa.encoding import decode, encode, encode_all
from repro.isa.assembler import (
    Align,
    AlignEnd,
    AsmInstr,
    Assembled,
    BarySlot,
    Data,
    DataWord,
    Label,
    LabelRef,
    Mark,
    assemble,
)
from repro.isa.disasm import (
    DecodedInstr,
    format_instr,
    sweep_ranges,
    try_decode_at,
)

__all__ = [
    "ARG_REGS", "CALLEE_SAVED", "MCFI_SCRATCH", "NUM_REGS", "RET_REG", "Reg",
    "Instruction", "MAX_INSTRUCTION_LENGTH", "Op", "OpSpec", "OperandKind",
    "SPECS", "instruction_length",
    "decode", "encode", "encode_all",
    "Align", "AlignEnd", "AsmInstr", "Assembled", "BarySlot", "Data",
    "DataWord", "Label", "LabelRef", "Mark", "assemble",
    "DecodedInstr", "format_instr", "sweep_ranges", "try_decode_at",
]
