"""Register file definition for SimISA.

SimISA models an x86-64-flavoured register set: sixteen 64-bit general
purpose registers with the familiar names.  Registers are identified by
small integers so they encode as a single byte in machine code.

The MCFI check sequence (:mod:`repro.core.instrument`) uses three
scratch registers, mirroring the paper's modified LLVM backend which
reserves registers for the check transactions: ``rdi`` and ``rsi`` hold
the branch ID and target ID during a ``TxCheck``, and ``rcx`` holds the
branch target.  Code generated by :mod:`repro.mir.codegen` therefore
never allocates ``rdi``, ``rsi`` or ``rcx`` across an indirect branch.
"""

from __future__ import annotations

import enum


class Reg(enum.IntEnum):
    """General-purpose 64-bit registers, one byte each in the encoding."""

    RAX = 0
    RCX = 1
    RDX = 2
    RBX = 3
    RSP = 4
    RBP = 5
    RSI = 6
    RDI = 7
    R8 = 8
    R9 = 9
    R10 = 10
    R11 = 11
    R12 = 12
    R13 = 13
    R14 = 14
    R15 = 15

    def __str__(self) -> str:  # pragma: no cover - trivial
        return "%" + self.name.lower()


#: Number of general-purpose registers.
NUM_REGS = 16

#: Registers used to pass the first arguments of a call, in order.
ARG_REGS = (Reg.R8, Reg.R9, Reg.R10, Reg.R11)
