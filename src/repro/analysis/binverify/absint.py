"""The register-fact abstract domain and its transfer, as bits of one int.

Per register, three facts ordered ``TOP < MASKED < CHECKED``:

* ``TOP`` — nothing known (any value, any provenance);
* ``MASKED`` — the register was sandbox-masked (``movzx32``) and not
  written since: its value lies in ``[0, 4GB)``, so stores through it
  cannot reach the tables or code and Tary reads through it are
  in-segment;
* ``CHECKED`` — additionally, an intact check transaction compared
  ``Tary[reg]`` against the branch's Bary ID on every path since the
  mask: the register may be the operand of an indirect branch.

A state is one int: bit ``r`` says register ``r`` is at least MASKED,
bit ``CHECKED_SHIFT + r`` that it is CHECKED, so TOP/MASKED/CHECKED
are ``00``/``01``/``11``.  The join at control-flow confluences (the
pointwise minimum) is then ``&``, state equality is int equality, and
bottom is the solver's built-in "not yet reached".

Every instruction's effect has the form ``(state & keep) | gen``.
:data:`EFFECT` gives it per opcode byte: a ``(keep, gen)`` pair, or,
for an opcode that writes or masks its first register operand, a
16-tuple of pairs indexed by that register.  Effects compose in the
same form, so :func:`summarize` folds a whole block into one pair and
the solver's transfer costs O(1) per block.  ``CHECKED`` is
deliberately fragile: it survives only alignment ``nop``s (the
AlignEnd padding between a guard and its ``call *rcx``) — any other
instruction demotes it to ``MASKED``, which is exactly the paper's "no
instruction between the check transaction and the branch" discipline,
while a clobber of the register itself drops it to ``TOP``.
"""

from __future__ import annotations

from operator import and_
from typing import Iterable, List, Tuple

from repro.analysis.dataflow.solver import DataflowProblem
from repro.isa.instructions import Op, OperandKind, SPECS
from repro.isa.registers import NUM_REGS

#: bit ``CHECKED_SHIFT + r`` of a state: register ``r`` is CHECKED
CHECKED_SHIFT = NUM_REGS

STATE_TOP = 0

#: keep mask that keeps every fact (a ``nop``)
KEEP_ALL = (1 << 2 * NUM_REGS) - 1
#: keep mask that demotes every CHECKED fact to MASKED
KEEP_MASKED = (1 << NUM_REGS) - 1

#: stores read their base operand; compares/tests only set flags
_NO_REG_WRITE = frozenset({
    Op.CMP_RR, Op.CMP_RI, Op.TEST_RR, Op.TEST_RI, Op.CMPW_RR, Op.TESTB1,
    Op.STORE8, Op.STORE16, Op.STORE32, Op.STORE64,
})

#: control leaves the image or enters the trusted runtime: every
#: register fact dies (callee / kernel may clobber anything)
_KILLS_ALL = frozenset({Op.CALL, Op.CALL_R, Op.SYSCALL})


def _effect(op: Op):
    spec = SPECS[op]
    if op == Op.NOP:
        return KEEP_ALL, 0
    if op in _KILLS_ALL:
        return 0, 0
    if op == Op.MOVZX32:
        return tuple((KEEP_MASKED, 1 << reg) for reg in range(NUM_REGS))
    if spec.operands and spec.operands[0] is OperandKind.REG \
            and op not in _NO_REG_WRITE:
        return tuple((KEEP_MASKED & ~(1 << reg), 0)
                     for reg in range(NUM_REGS))
    return KEEP_MASKED, 0


#: opcode byte -> ``(keep, gen)``, or a 16-tuple of them indexed by the
#: first (register) operand; ``None`` for bytes that are no opcode
EFFECT: List = [None] * 256
for _op in SPECS:
    EFFECT[int(_op)] = _effect(_op)


def summarize(instrs: Iterable) -> Tuple[int, int]:
    """The ``(keep, gen)`` effect of a run of swept records."""
    keep, gen = KEEP_ALL, 0
    for _address, codec, operands in instrs:
        effect = EFFECT[codec.opcode]
        if len(effect) > 2:
            effect = effect[operands[0]]
        step_keep = effect[0]
        keep &= step_keep
        gen = (gen & step_keep) | effect[1]
    return keep, gen


def fact(state: int, reg: int) -> int:
    """Register ``reg``'s fact in ``state``: 0 TOP, 1 MASKED, 2 CHECKED."""
    return (state >> reg & 1) + (state >> (CHECKED_SHIFT + reg) & 1)


def make_problem() -> DataflowProblem:
    """The forward problem: each block carries its composed effect and,
    on an intact guard's edge, the register the guard checks."""

    def transfer(_label, block, state: int) -> int:
        state = (state & block.keep) | block.gen
        return state | (state & block.checks) << CHECKED_SHIFT

    return DataflowProblem(direction="forward", boundary=STATE_TOP,
                           join=and_, transfer=transfer)
