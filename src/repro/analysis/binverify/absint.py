"""The register-fact abstract domain and transfer function.

Per register, three facts ordered ``TOP < MASKED < CHECKED``:

* ``TOP`` — nothing known (any value, any provenance);
* ``MASKED`` — the register was sandbox-masked (``movzx32``) and not
  written since: its value lies in ``[0, 4GB)``, so stores through it
  cannot reach the tables or code and Tary reads through it are
  in-segment;
* ``CHECKED`` — additionally, an intact check transaction compared
  ``Tary[reg]`` against the branch's Bary ID on every path since the
  mask: the register may be the operand of an indirect branch.

The join at control-flow confluences is the pointwise minimum, states
are immutable 16-tuples, and bottom is the solver's built-in "not yet
reached".  ``CHECKED`` is deliberately fragile: it survives only
alignment ``nop``s (the AlignEnd padding between a guard and its
``call *rcx``) — any other instruction demotes it to ``MASKED``, which
is exactly the paper's "no instruction between the check transaction
and the branch" discipline, while a clobber of the register itself
drops it to ``TOP``.
"""

from __future__ import annotations

from typing import Tuple

from repro.analysis.dataflow.solver import DataflowProblem
from repro.isa.disasm import DecodedInstr
from repro.isa.instructions import Op, OperandKind, SPECS
from repro.isa.registers import NUM_REGS

TOP, MASKED, CHECKED = 0, 1, 2

State = Tuple[int, ...]

STATE_TOP: State = (TOP,) * NUM_REGS

#: stores read their base operand; compares/tests only set flags
_NO_REG_WRITE = frozenset({
    Op.CMP_RR, Op.CMP_RI, Op.TEST_RR, Op.TEST_RI, Op.CMPW_RR, Op.TESTB1,
    Op.STORE8, Op.STORE16, Op.STORE32, Op.STORE64,
})

#: opcodes whose first operand is a register they (may) write
_WRITES_FIRST = frozenset(
    op for op, spec in SPECS.items()
    if spec.operands and spec.operands[0] is OperandKind.REG
    and op not in _NO_REG_WRITE and op != Op.MOVZX32)

#: control leaves the image or enters the trusted runtime: every
#: register fact dies (callee / kernel may clobber anything)
_KILLS_ALL = frozenset({Op.CALL, Op.CALL_R, Op.SYSCALL})


def join(a: State, b: State) -> State:
    if a == b:
        return a
    return tuple(map(min, a, b))


def step(state: State, decoded: DecodedInstr) -> State:
    """State after executing one instruction."""
    op = decoded.op
    if op == Op.NOP:
        return state
    if CHECKED in state:
        state = tuple(MASKED if fact == CHECKED else fact
                      for fact in state)
    if op == Op.MOVZX32:
        reg = decoded.operands[0]
        if state[reg] == MASKED:
            return state
        return state[:reg] + (MASKED,) + state[reg + 1:]
    if op in _KILLS_ALL:
        return STATE_TOP
    if op in _WRITES_FIRST:
        reg = decoded.operands[0]
        if state[reg] != TOP:
            return state[:reg] + (TOP,) + state[reg + 1:]
    return state


def make_problem() -> DataflowProblem:
    """The forward problem; transfer dispatches on block kind."""
    from repro.analysis.binverify.bincfg import EdgeBlock

    def transfer(_label: str, block, state: State) -> State:
        if isinstance(block, EdgeBlock):
            guard = block.guard
            if state[guard.reg] >= MASKED:
                return (state[:guard.reg] + (CHECKED,)
                        + state[guard.reg + 1:])
            return state
        out = state
        for decoded in block.instrs:
            out = step(out, decoded)
        return out

    return DataflowProblem(direction="forward", boundary=STATE_TOP,
                           join=join, transfer=transfer)
