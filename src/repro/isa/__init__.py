"""SimISA: the virtual instruction set targeted by this reproduction.

A variable-length-encoded, x86-64-flavoured ISA with direct and indirect
calls/jumps, returns, and the MCFI table-access instructions.  See
:mod:`repro.isa.instructions` for the instruction set and
:mod:`repro.isa.assembler` for the symbolic assembly layer that code
generation and MCFI instrumentation operate on.
"""

from repro.isa.registers import ARG_REGS, NUM_REGS, Reg
from repro.isa.instructions import (
    Instruction,
    MAX_INSTRUCTION_LENGTH,
    Op,
    OpSpec,
    OperandKind,
    SPECS,
)
from repro.isa.encoding import decode, encode
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
    "ARG_REGS", "NUM_REGS", "Reg",
    "Instruction", "MAX_INSTRUCTION_LENGTH", "Op", "OpSpec", "OperandKind",
    "SPECS",
    "decode", "encode",
    "Align", "AlignEnd", "AsmInstr", "Assembled", "BarySlot", "Data",
    "DataWord", "Label", "LabelRef", "Mark", "assemble",
    "DecodedInstr", "format_instr", "sweep_ranges", "try_decode_at",
]
