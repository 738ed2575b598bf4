"""Abstract interpretation of MIR: function-pointer and provenance facts.

One flow-sensitive forward analysis computes, per program point, an
abstract value for every virtual register plus the contents of
*tracked* memory cells:

* **Locals** are tracked when their address provably never escapes the
  direct ``LocalAddr`` → ``Load``/``Store`` pattern (the escape
  pre-pass below).  A tracked local behaves like an unaliasable cell —
  the same assumption compilers make for non-escaping allocas.
* **Globals** are tracked optimistically between calls: a direct
  8-byte store through ``GlobalAddr`` records the stored value, and
  any call, syscall, or store through an unknown pointer kills every
  global fact (another module, thread, or aliased pointer may have
  written them).

The value lattice (top to bottom)::

        TOP  (anything)
       /   |    \\
    FUNCS  INT   PTR/ADDR     -- join of unequal kinds is TOP
       \\   |    /
        (bottom = absence of a state; never materialized)

* ``FUNCS{f, ...}`` — a code pointer to one of the named functions;
* ``INT`` — a value with *no* pointer provenance (constants,
  arithmetic over INTs, comparison results);
* ``ADDR(space, name)`` — the address of exactly one known cell
  (a local slot, a global, or a string blob);
* ``PTR`` — some legitimate data pointer (address arithmetic,
  unknown loads stay ``TOP`` instead: they may hold anything).

Function-pointer sets are capped at :data:`MAX_FUNCS` members; larger
unions widen to ``TOP``.  Functions using setjmp/longjmp are not
analyzed (see :func:`~repro.analysis.dataflow.cfg.uses_nonlocal_flow`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.dataflow.cfg import BlockCfg, build_cfg, \
    uses_nonlocal_flow
from repro.analysis.dataflow.solver import DataflowProblem, solve
from repro.mir import ir

#: function-pointer sets larger than this widen to TOP
MAX_FUNCS = 8

# value kinds
TOP = "top"
INT = "int"
PTR = "ptr"
ADDR = "addr"
FUNCS = "funcs"


@dataclass(frozen=True)
class Value:
    """One abstract value; construct via the helpers below."""

    kind: str
    names: frozenset = frozenset()   # FUNCS members
    space: str = ""                  # ADDR: 'local' | 'global' | 'str'
    name: str = ""                   # ADDR: cell name


VAL_TOP = Value(TOP)
VAL_INT = Value(INT)
VAL_PTR = Value(PTR)


def funcs(*names: str) -> Value:
    return Value(FUNCS, names=frozenset(names))


def addr(space: str, name: str) -> Value:
    return Value(ADDR, space=space, name=name)


def join_values(a: Value, b: Value) -> Value:
    if a == b:
        return a
    if a.kind == FUNCS and b.kind == FUNCS:
        merged = a.names | b.names
        if len(merged) <= MAX_FUNCS:
            return Value(FUNCS, names=merged)
        return VAL_TOP
    pointerish = (PTR, ADDR)
    if a.kind in pointerish and b.kind in pointerish:
        return VAL_PTR
    return VAL_TOP


# ---------------------------------------------------------------------------
# Abstract state: vregs + tracked locals + optimistic global facts.
# Only non-TOP entries are stored, so two states are equal iff their
# dicts are equal and the join is a key-wise intersection.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbsState:
    regs: Tuple[Tuple[int, Value], ...]
    locals: Tuple[Tuple[str, Value], ...]
    globals: Tuple[Tuple[str, Value], ...]


class _MutState:
    """Mutable working copy used inside transfer functions."""

    __slots__ = ("regs", "locals", "globals")

    def __init__(self, state: AbsState) -> None:
        self.regs: Dict[int, Value] = dict(state.regs)
        self.locals: Dict[str, Value] = dict(state.locals)
        self.globals: Dict[str, Value] = dict(state.globals)

    def freeze(self) -> AbsState:
        return AbsState(
            regs=tuple(sorted(self.regs.items())),
            locals=tuple(sorted(self.locals.items())),
            globals=tuple(sorted(self.globals.items())))

    # -- accessors ---------------------------------------------------------

    def reg(self, vreg: int) -> Value:
        return self.regs.get(vreg, VAL_TOP)

    def set_reg(self, vreg: int, value: Value) -> None:
        if value.kind == TOP:
            self.regs.pop(vreg, None)
        else:
            self.regs[vreg] = value

    def set_local(self, name: str, value: Value) -> None:
        if value.kind == TOP:
            self.locals.pop(name, None)
        else:
            self.locals[name] = value

    def set_global(self, name: str, value: Value) -> None:
        if value.kind == TOP:
            self.globals.pop(name, None)
        else:
            self.globals[name] = value

    def kill_globals(self) -> None:
        self.globals.clear()


def _join_maps(a, b):
    out = {}
    b_map = dict(b)
    for key, value in a:
        other = b_map.get(key)
        if other is None:
            continue
        joined = join_values(value, other)
        if joined.kind != TOP:
            out[key] = joined
    return tuple(sorted(out.items()))


def join_states(a: AbsState, b: AbsState) -> AbsState:
    return AbsState(regs=_join_maps(a.regs, b.regs),
                    locals=_join_maps(a.locals, b.locals),
                    globals=_join_maps(a.globals, b.globals))


# ---------------------------------------------------------------------------
# Escape pre-pass
# ---------------------------------------------------------------------------


def _vreg_uses(inst: ir.Inst) -> List[int]:
    """Virtual registers an instruction reads (not defines)."""
    if isinstance(inst, ir.Copy):
        return [inst.src]
    if isinstance(inst, ir.Load):
        return [inst.addr]
    if isinstance(inst, ir.Store):
        return [inst.addr, inst.src]
    if isinstance(inst, (ir.BinOp, ir.Cmp)):
        return [inst.left, inst.right]
    if isinstance(inst, ir.UnOp):
        return [inst.src]
    if isinstance(inst, (ir.IntToFloat, ir.FloatToInt)):
        return [inst.src]
    if isinstance(inst, ir.Call):
        return list(inst.args)
    if isinstance(inst, ir.CallInd):
        return [inst.pointer] + list(inst.args)
    if isinstance(inst, ir.Syscall):
        return list(inst.args)
    if isinstance(inst, ir.SetjmpInst):
        return [inst.buf]
    if isinstance(inst, ir.LongjmpInst):
        return [inst.buf, inst.value]
    if isinstance(inst, ir.CondBr):
        return [inst.left, inst.right]
    if isinstance(inst, ir.SwitchBr):
        return [inst.value]
    if isinstance(inst, ir.Ret):
        return [] if inst.value is None else [inst.value]
    return []


def _vreg_def(inst: ir.Inst) -> Optional[int]:
    """The virtual register an instruction defines, if any."""
    dst = getattr(inst, "dst", None)
    return dst if isinstance(dst, int) else None


def tracked_locals(func: ir.MirFunction) -> frozenset:
    """Locals whose address never escapes direct load/store use.

    A local is tracked iff every vreg holding its address (a) is
    defined *only* by ``LocalAddr`` of that same local and (b) is used
    *only* as the address operand of ``Load``/``Store``.
    """
    addr_vregs: Dict[int, str] = {}     # vreg -> the single local, or ''
    escaped = set()
    for block in func.blocks:
        for inst in block.instrs:
            if isinstance(inst, ir.LocalAddr):
                prior = addr_vregs.get(inst.dst)
                if prior is not None and prior != inst.local:
                    escaped.add(prior)
                    escaped.add(inst.local)
                addr_vregs[inst.dst] = inst.local
    for block in func.blocks:
        for inst in block.instrs:
            dst = _vreg_def(inst)
            if dst is not None and dst in addr_vregs and \
                    not isinstance(inst, ir.LocalAddr):
                escaped.add(addr_vregs[dst])
            for vreg in _vreg_uses(inst):
                if vreg not in addr_vregs:
                    continue
                ok = (isinstance(inst, ir.Load) and vreg == inst.addr) or \
                    (isinstance(inst, ir.Store) and vreg == inst.addr
                     and vreg != inst.src)
                if not ok:
                    escaped.add(addr_vregs[vreg])
    return frozenset(set(func.locals) - escaped)


# ---------------------------------------------------------------------------
# Transfer function + per-function analysis driver
# ---------------------------------------------------------------------------


def _transfer_inst(inst: ir.Inst, state: _MutState,
                   tracked: frozenset) -> None:
    if isinstance(inst, ir.Const):
        state.set_reg(inst.dst, VAL_INT)
    elif isinstance(inst, ir.ConstStr):
        state.set_reg(inst.dst, addr("str", str(inst.sid)))
    elif isinstance(inst, ir.GlobalAddr):
        state.set_reg(inst.dst, addr("global", inst.name))
    elif isinstance(inst, ir.FuncAddr):
        state.set_reg(inst.dst, funcs(inst.name))
    elif isinstance(inst, ir.LocalAddr):
        state.set_reg(inst.dst, addr("local", inst.local))
    elif isinstance(inst, ir.Copy):
        state.set_reg(inst.dst, state.reg(inst.src))
    elif isinstance(inst, ir.Load):
        source = state.reg(inst.addr)
        loaded = VAL_TOP
        if inst.width == 8 and source.kind == ADDR:
            if source.space == "local" and source.name in tracked:
                loaded = state.locals.get(source.name, VAL_TOP)
            elif source.space == "global":
                loaded = state.globals.get(source.name, VAL_TOP)
        state.set_reg(inst.dst, loaded)
    elif isinstance(inst, ir.Store):
        target = state.reg(inst.addr)
        stored = state.reg(inst.src) if inst.width == 8 else VAL_TOP
        if target.kind == ADDR and target.space == "local":
            if target.name in tracked:
                state.set_local(target.name, stored)
        elif target.kind == ADDR and target.space == "global":
            state.set_global(target.name, stored)
        elif target.kind == ADDR:
            pass                      # a string blob: aliases nothing we track
        else:
            # Store through an arbitrary pointer: any global may have
            # been written.  Tracked locals survive — their address was
            # never computed, so no legitimate pointer reaches them.
            state.kill_globals()
    elif isinstance(inst, ir.BinOp):
        left, right = state.reg(inst.left), state.reg(inst.right)
        kinds = {left.kind, right.kind}
        if kinds == {INT}:
            state.set_reg(inst.dst, VAL_INT)
        elif inst.op in ("add", "sub") and kinds <= {INT, PTR, ADDR} \
                and kinds != {INT}:
            state.set_reg(inst.dst, VAL_PTR)
        else:
            state.set_reg(inst.dst, VAL_TOP)
    elif isinstance(inst, ir.UnOp):
        source = state.reg(inst.src)
        state.set_reg(inst.dst,
                      VAL_INT if source.kind == INT else VAL_TOP)
    elif isinstance(inst, ir.Cmp):
        state.set_reg(inst.dst, VAL_INT)
    elif isinstance(inst, (ir.IntToFloat, ir.FloatToInt)):
        state.set_reg(inst.dst, VAL_INT)
    elif isinstance(inst, (ir.Call, ir.CallInd, ir.Syscall)):
        state.kill_globals()
        dst = _vreg_def(inst)
        if dst is not None:
            state.set_reg(dst, VAL_TOP)
    elif isinstance(inst, ir.SetjmpInst):
        state.set_reg(inst.dst, VAL_INT)
    # LongjmpInst and terminators leave the state unchanged.


@dataclass
class FunctionFacts:
    """Fixpoint facts for one function.

    ``block_in`` maps reachable block labels to the abstract state at
    block entry; :meth:`walk` replays the transfer function through a
    block, yielding the state *before* each instruction.  ``analyzed``
    is False for setjmp/longjmp functions, whose maps stay empty.
    """

    func: ir.MirFunction
    cfg: BlockCfg
    tracked: frozenset
    analyzed: bool
    block_in: Dict[str, AbsState] = field(default_factory=dict)
    iterations: int = 0

    def walk(self, label: str) -> Iterator[Tuple[int, ir.Inst, _MutState]]:
        """Yield ``(index, inst, state-before-inst)`` through a block."""
        entry_state = self.block_in.get(label)
        if entry_state is None:
            return
        state = _MutState(entry_state)
        for index, inst in enumerate(self.cfg.blocks[label].instrs):
            yield index, inst, state
            _transfer_inst(inst, state, self.tracked)


def analyze_function(func: ir.MirFunction) -> FunctionFacts:
    """Run the fixpoint for one function (skipping setjmp users)."""
    cfg = build_cfg(func)
    if uses_nonlocal_flow(func):
        return FunctionFacts(func=func, cfg=cfg, tracked=frozenset(),
                             analyzed=False)
    tracked = tracked_locals(func)

    def transfer(label: str, block: ir.BasicBlock,
                 state: AbsState) -> AbsState:
        working = _MutState(state)
        for inst in block.instrs:
            _transfer_inst(inst, working, tracked)
        return working.freeze()

    empty = AbsState(regs=(), locals=(), globals=())
    problem = DataflowProblem(direction="forward", boundary=empty,
                              join=join_states, transfer=transfer)
    solution = solve(cfg, problem)
    return FunctionFacts(func=func, cfg=cfg, tracked=tracked,
                         analyzed=True, block_in=solution.inputs,
                         iterations=solution.iterations)
