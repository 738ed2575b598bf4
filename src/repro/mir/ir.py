"""MIR: the machine-independent middle IR between TinyC and SimISA.

MIR is deliberately simple: functions are lists of basic blocks;
instructions operate on virtual registers (plain integers); variables
live in stack slots, so there are no phi nodes.  The design mirrors the
role of LLVM's machine-dependent representation in the paper's
toolchain: it is the level at which the three MCFI passes operate
(scratch-register reservation is implicit — code generation never uses
``rcx``/``rsi``/``rdi`` — and type information is threaded through call
instructions so it can be dumped as auxiliary module info).

Call sites carry their *canonical function-pointer signature*
(:class:`~repro.tinyc.types.FuncSig`); this is the type information the
CFG generator matches against address-taken function signatures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.tinyc.types import FuncSig, FuncType, Type

VReg = int


@dataclass
class Inst:
    """Base class for MIR instructions."""


# -- values -------------------------------------------------------------------

@dataclass
class Const(Inst):
    dst: VReg
    value: int            # integers and raw double bits


@dataclass
class ConstStr(Inst):
    dst: VReg
    sid: int              # index into MirModule.strings


@dataclass
class GlobalAddr(Inst):
    dst: VReg
    name: str


@dataclass
class FuncAddr(Inst):
    """Materialize a function's address (the address-taken case)."""

    dst: VReg
    name: str


@dataclass
class LocalAddr(Inst):
    dst: VReg
    local: str


@dataclass
class Copy(Inst):
    dst: VReg
    src: VReg


# -- memory ---------------------------------------------------------------------

@dataclass
class Load(Inst):
    dst: VReg
    addr: VReg
    width: int            # 1, 2, 4 or 8
    signed: bool = False  # sign-extend after load


@dataclass
class Store(Inst):
    addr: VReg
    src: VReg
    width: int


# -- arithmetic -------------------------------------------------------------------
# Operator names are the keys of codegen's ``_INT_BINOP``,
# ``_FLOAT_BINOP`` and ``_CMP_JCC`` tables.


@dataclass
class BinOp(Inst):
    dst: VReg
    op: str
    left: VReg
    right: VReg


@dataclass
class UnOp(Inst):
    dst: VReg
    op: str               # 'neg' | 'not' | 'lognot' | 'fneg'
    src: VReg


@dataclass
class Cmp(Inst):
    """Value-producing comparison (0/1)."""

    dst: VReg
    op: str
    left: VReg
    right: VReg


@dataclass
class IntToFloat(Inst):
    dst: VReg
    src: VReg


@dataclass
class FloatToInt(Inst):
    dst: VReg
    src: VReg


# -- calls ------------------------------------------------------------------------

@dataclass
class Call(Inst):
    dst: Optional[VReg]
    callee: str
    args: List[VReg]
    tail: bool = False    # candidate for tail-call optimization


@dataclass
class CallInd(Inst):
    """Indirect call through a function pointer of signature ``sig``.

    ``targets_hint`` is an optional statically proven over-approximation
    of the pointer's possible callees (function names), produced by the
    points-to pass in :mod:`repro.analysis.dataflow`.  Empty means
    unknown; a non-empty hint lets the CFG generator intersect the
    type-matched target set with the hint, splitting equivalence
    classes.  Hints never *add* targets — the generator falls back to
    pure type matching whenever the intersection would be empty.
    """

    dst: Optional[VReg]
    pointer: VReg
    args: List[VReg]
    sig: FuncSig = None   # type: ignore[assignment]
    tail: bool = False
    targets_hint: Tuple[str, ...] = ()


@dataclass
class Syscall(Inst):
    dst: VReg
    args: List[VReg]      # number + up to 3 arguments


@dataclass
class SetjmpInst(Inst):
    dst: VReg
    buf: VReg


@dataclass
class LongjmpInst(Inst):
    buf: VReg
    value: VReg


# -- terminators ----------------------------------------------------------------

@dataclass
class Jump(Inst):
    target: str


@dataclass
class CondBr(Inst):
    op: str               # a key of codegen's _CMP_JCC
    left: VReg
    right: VReg
    then_block: str
    else_block: str


@dataclass
class SwitchBr(Inst):
    """Dense jump-table dispatch (becomes an indirect jump)."""

    value: VReg
    low: int
    targets: List[str]    # one label per value in [low, low+len)
    default: str


@dataclass
class Ret(Inst):
    value: Optional[VReg] = None


TERMINATORS = (Jump, CondBr, SwitchBr, Ret)


@dataclass
class BasicBlock:
    label: str
    instrs: List[Inst] = field(default_factory=list)

    @property
    def terminator(self) -> Optional[Inst]:
        if self.instrs and isinstance(self.instrs[-1], TERMINATORS):
            return self.instrs[-1]
        return None

    @property
    def terminated(self) -> bool:
        return self.terminator is not None


@dataclass
class MirFunction:
    name: str
    ftype: FuncType
    params: List[str]                       # unique local names
    locals: Dict[str, Type] = field(default_factory=dict)
    blocks: List[BasicBlock] = field(default_factory=list)
    n_vregs: int = 0
    is_static: bool = False

    def block(self, label: str) -> BasicBlock:
        for candidate in self.blocks:
            if candidate.label == label:
                return candidate
        raise KeyError(label)

    def validate(self) -> None:
        """Cheap structural invariants (every block terminated, labels
        resolve); used by tests and by the pipeline in debug mode."""
        labels = {block.label for block in self.blocks}
        if len(labels) != len(self.blocks):
            raise ValueError(f"{self.name}: duplicate block labels")
        for block in self.blocks:
            if not block.terminated:
                raise ValueError(
                    f"{self.name}:{block.label} lacks a terminator")
            for inst in block.instrs[:-1]:
                if isinstance(inst, TERMINATORS):
                    raise ValueError(
                        f"{self.name}:{block.label} has a terminator "
                        f"mid-block")
            term = block.terminator
            refs: Tuple[str, ...] = ()
            if isinstance(term, Jump):
                refs = (term.target,)
            elif isinstance(term, CondBr):
                refs = (term.then_block, term.else_block)
            elif isinstance(term, SwitchBr):
                refs = tuple(term.targets) + (term.default,)
            for ref in refs:
                if ref not in labels:
                    raise ValueError(
                        f"{self.name}:{block.label} references unknown "
                        f"block {ref!r}")


@dataclass
class GlobalData:
    """One global variable's layout: scalar words plus relocations.

    ``words`` are ``(offset, width, value)`` stores into the zeroed
    global; ``relocs`` are ``(offset, kind, symbol)`` 8-byte address
    slots filled at link/load time — ``kind`` is ``'func'`` (a function
    address: the address-taken-in-data case), ``'global'`` (another
    global's address) or ``'str'`` (a string blob id).  A static global
    has internal linkage: the link renames it when another module
    defines the same name.
    """

    name: str
    ctype: Type
    size: int
    words: List[Tuple[int, int, int]] = field(default_factory=list)
    relocs: List[Tuple[int, str, object]] = field(default_factory=list)
    is_static: bool = False


@dataclass
class MirModule:
    """All MIR functions of one translation unit plus its data."""

    name: str
    functions: List[MirFunction] = field(default_factory=list)
    globals: Dict[str, GlobalData] = field(default_factory=dict)
    #: deduplicated string literals: id -> bytes (NUL-terminated)
    strings: Dict[int, bytes] = field(default_factory=dict)
    #: per-scope ordered string references recorded during lowering
    #: ('' = global initializers, else the function name).  Replaying
    #: these lists in scope order through a fresh interner reproduces
    #: the ``strings`` numbering exactly, which is how the incremental
    #: build renumbers the string table after a single-function edit.
    intern_refs: Dict[str, List[bytes]] = field(default_factory=dict)

    def function(self, name: str) -> MirFunction:
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(name)
