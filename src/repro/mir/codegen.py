"""Code generation: MIR -> symbolic SimISA assembly.

The generated assembly is *pre-instrumentation*: every indirect control
transfer is a pseudo-item (:class:`PseudoReturn`,
:class:`PseudoIndirectCall`, :class:`PseudoIndirectJump`) that a later
pass lowers — :func:`repro.core.instrument.instrument_items` expands
them into MCFI check transactions, while
:func:`repro.core.instrument.lower_native` produces the uninstrumented
baseline the Fig. 5 overhead is measured against.

Register conventions (see :mod:`repro.isa.registers`):

* ``rax``/``rdx``/``rbx`` are the code generator's scratch registers;
* ``rcx``/``rsi``/``rdi`` are *reserved* for MCFI check transactions —
  the paper's "reserve scratch registers" LLVM pass; codegen only uses
  ``rcx`` to hold an indirect-branch target, which is exactly where the
  check sequence expects it;
* arguments in ``r8-r11``, extra arguments on the stack; result in
  ``rax``; virtual registers and locals live in the frame.

Architecture modes:

* ``x64`` performs tail-call optimization (``return f(...)`` becomes a
  jump), which reduces equivalence-class counts exactly as the paper
  observes on x86-64 (Table 3);
* ``x32`` does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import CodegenError
from repro.isa.assembler import AsmInstr, Data, DataWord, Item, Label, \
    LabelRef, Mark
from repro.isa.instructions import SPECS, Op
from repro.isa.registers import ARG_REGS, Reg
from repro.mir import ir
from repro.tinyc.typecheck import CheckedUnit
from repro.tinyc.types import FuncSig

# ---------------------------------------------------------------------------
# Pseudo items: indirect control transfers awaiting instrumentation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PseudoReturn:
    """A function return (x86 ``ret``), to be expanded by a CFI pass."""

    fn: str


@dataclass(frozen=True)
class PseudoIndirectCall:
    """``call *reg`` through a pointer of canonical signature ``sig``.

    ``ptargets`` carries the points-to pass's proven callee names (see
    :class:`repro.mir.ir.CallInd`); empty means no static refinement.
    """

    fn: str
    reg: Reg
    sig: FuncSig
    ptargets: Tuple[str, ...] = ()


@dataclass(frozen=True)
class PseudoIndirectJump:
    """``jmp *reg``: a switch table, indirect tail call, or longjmp.

    ``kind`` is 'switch' (targets = case labels), 'tail' (sig set) or
    'longjmp' (targets the setjmp-resume equivalence class).
    ``ptargets`` refines 'tail' sites exactly as for indirect calls.
    """

    fn: str
    reg: Reg
    kind: str
    sig: Optional[FuncSig] = None
    targets: Tuple[str, ...] = ()
    ptargets: Tuple[str, ...] = ()


RawItem = Union[Item, PseudoReturn, PseudoIndirectCall, PseudoIndirectJump]


@dataclass
class FunctionMeta:
    """Per-function facts carried into the module's auxiliary info."""

    name: str
    sig: FuncSig
    address_taken: bool
    exported: bool
    entry_label: str = ""
    module: str = ""


@dataclass
class RawModule:
    """Codegen output for one translation unit, before instrumentation."""

    name: str
    arch: str
    items: List[RawItem]
    functions: Dict[str, FunctionMeta]
    #: global name -> GlobalData (laid out in the data region by the linker)
    globals: Dict[str, ir.GlobalData]
    #: string blob label -> bytes
    strings: Dict[str, bytes]
    #: names of functions referenced but not defined here (imports)
    imports: List[str] = field(default_factory=list)
    #: direct call edges (caller, callee, is_tail) for the call graph
    direct_calls: List[Tuple[str, str, bool]] = field(default_factory=list)
    uses_setjmp: bool = False
    #: names whose address this module takes (may include imports —
    #: taking the address of another module's function must mark it
    #: address-taken in the *merged* CFG)
    taken_names: set = field(default_factory=set)


_WIDTH_LOAD = {spec.load: op for op, spec in SPECS.items() if spec.load}
_WIDTH_STORE = {spec.store: op for op, spec in SPECS.items() if spec.store}

_INT_BINOP = {
    "add": Op.ADD_RR, "sub": Op.SUB_RR, "mul": Op.IMUL_RR,
    "div": Op.IDIV_RR, "mod": Op.IMOD_RR, "and": Op.AND_RR,
    "or": Op.OR_RR, "xor": Op.XOR_RR, "shl": Op.SHL_RR, "shr": Op.SHR_RR,
    "sar": Op.SAR_RR,
}
_FLOAT_BINOP = {"fadd": Op.FADD_RR, "fsub": Op.FSUB_RR,
                "fmul": Op.FMUL_RR, "fdiv": Op.FDIV_RR}

#: MIR compare op -> (conditional jump, float compare?, swap operands?)
_CMP_JCC = {
    "eq": (Op.JE, False, False), "ne": (Op.JNE, False, False),
    "lt": (Op.JL, False, False), "le": (Op.JLE, False, False),
    "gt": (Op.JG, False, False), "ge": (Op.JGE, False, False),
    "ult": (Op.JB, False, False), "ule": (Op.JAE, False, True),
    "ugt": (Op.JB, False, True), "uge": (Op.JAE, False, False),
    "feq": (Op.JE, True, False), "fne": (Op.JNE, True, False),
    "flt": (Op.JL, True, False), "fle": (Op.JLE, True, False),
    "fgt": (Op.JL, True, True), "fge": (Op.JLE, True, True),
}

_RAX, _RDX, _RBX, _RCX = Reg.RAX, Reg.RDX, Reg.RBX, Reg.RCX


class FunctionCodegen:
    """Emits one MIR function as symbolic assembly."""

    def __init__(self, func: ir.MirFunction, unit_name: str,
                 arch: str) -> None:
        self.func = func
        self.unit = unit_name
        self.arch = arch
        self.items: List[RawItem] = []
        self._local_offsets: Dict[str, int] = {}
        self._vreg_base = 0
        self.frame_size = 0
        self._label_counter = 0
        self.direct_calls: List[Tuple[str, str, bool]] = []
        self.referenced: set = set()
        self._emitted_tail = False
        self._layout_frame()

    # -- frame ----------------------------------------------------------------

    def _layout_frame(self) -> None:
        offset = 0
        for name, ctype in self.func.locals.items():
            size = max(8, (ctype.size + 7) & ~7)
            offset += size
            self._local_offsets[name] = -offset
        self._vreg_base = offset
        offset += 8 * self.func.n_vregs
        self.frame_size = (offset + 15) & ~15

    def _vreg_offset(self, vreg: ir.VReg) -> int:
        return -(self._vreg_base + 8 * (vreg + 1))

    # -- emission helpers ---------------------------------------------------------

    def emit(self, op: Op, *operands) -> None:
        self.items.append(AsmInstr(op, tuple(operands)))

    def load_vreg(self, reg: Reg, vreg: ir.VReg) -> None:
        self.emit(Op.LOAD64, reg, Reg.RBP, self._vreg_offset(vreg))

    def store_vreg(self, vreg: ir.VReg, reg: Reg) -> None:
        self.emit(Op.STORE64, Reg.RBP, self._vreg_offset(vreg), reg)

    def block_label(self, block: str) -> str:
        return f"{self.func.name}.{block}"

    def fresh_label(self, hint: str) -> str:
        self._label_counter += 1
        return f"{self.func.name}.{hint}{self._label_counter}"

    # -- driver -----------------------------------------------------------------

    def generate(self) -> List[RawItem]:
        func = self.func
        self.items.append(Label(func.name))
        self.items.append(Mark("func_entry", func.name))
        self.emit(Op.PUSH, Reg.RBP)
        self.emit(Op.MOV_RR, Reg.RBP, Reg.RSP)
        if self.frame_size:
            self.emit(Op.SUB_RI, Reg.RSP, self.frame_size)
        for index, pname in enumerate(func.params):
            offset = self._local_offsets[pname]
            if index < len(ARG_REGS):
                self.emit(Op.STORE64, Reg.RBP, offset, ARG_REGS[index])
            else:
                stack_offset = 16 + 8 * (index - len(ARG_REGS))
                self.emit(Op.LOAD64, _RAX, Reg.RBP, stack_offset)
                self.emit(Op.STORE64, Reg.RBP, offset, _RAX)
        if func.blocks and func.blocks[0].label != "entry":
            raise CodegenError(f"{func.name}: first block must be entry")
        self._jump_tables: List[Tuple[str, Tuple[str, ...]]] = []
        for block in func.blocks:
            self.items.append(Label(self.block_label(block.label)))
            for inst in block.instrs:
                self._emit_inst(inst)
        for table_label, targets in self._jump_tables:
            self.items.append(Mark("jt_start", table_label))
            self.items.append(Label(table_label))
            for target in targets:
                self.items.append(DataWord(LabelRef(target)))
            self.items.append(Mark("jt_end", table_label))
        return self.items

    # -- instruction selection ------------------------------------------------------

    def _emit_inst(self, inst: ir.Inst) -> None:
        handler = getattr(self, "_gen_" + type(inst).__name__.lower(), None)
        if handler is None:
            raise CodegenError(f"no codegen for {type(inst).__name__}")
        handler(inst)

    def _gen_const(self, inst: ir.Const) -> None:
        self.emit(Op.MOV_RI, _RAX, inst.value)
        self.store_vreg(inst.dst, _RAX)

    def _gen_conststr(self, inst: ir.ConstStr) -> None:
        self.emit(Op.MOV_RI, _RAX, LabelRef(f"{self.unit}.str{inst.sid}"))
        self.store_vreg(inst.dst, _RAX)

    def _gen_globaladdr(self, inst: ir.GlobalAddr) -> None:
        self.emit(Op.MOV_RI, _RAX, LabelRef(inst.name))
        self.store_vreg(inst.dst, _RAX)

    def _gen_funcaddr(self, inst: ir.FuncAddr) -> None:
        self.referenced.add(inst.name)
        self.emit(Op.MOV_RI, _RAX, LabelRef(inst.name))
        self.store_vreg(inst.dst, _RAX)

    def _gen_localaddr(self, inst: ir.LocalAddr) -> None:
        self.emit(Op.LEA, _RAX, Reg.RBP, self._local_offsets[inst.local])
        self.store_vreg(inst.dst, _RAX)

    def _gen_copy(self, inst: ir.Copy) -> None:
        self.load_vreg(_RAX, inst.src)
        self.store_vreg(inst.dst, _RAX)

    def _gen_load(self, inst: ir.Load) -> None:
        self.load_vreg(_RBX, inst.addr)
        self.emit(_WIDTH_LOAD[inst.width], _RAX, _RBX, 0)
        if inst.signed and inst.width < 8:
            shift = 64 - 8 * inst.width
            self.emit(Op.SHL_RI, _RAX, shift)
            self.emit(Op.SAR_RI, _RAX, shift)
        self.store_vreg(inst.dst, _RAX)

    def _gen_store(self, inst: ir.Store) -> None:
        self.load_vreg(_RBX, inst.addr)
        self.load_vreg(_RAX, inst.src)
        self.emit(_WIDTH_STORE[inst.width], _RBX, 0, _RAX)

    def _gen_binop(self, inst: ir.BinOp) -> None:
        self.load_vreg(_RAX, inst.left)
        self.load_vreg(_RDX, inst.right)
        opcode = _INT_BINOP.get(inst.op) or _FLOAT_BINOP.get(inst.op)
        if opcode is None:
            raise CodegenError(f"unknown binop {inst.op!r}")
        self.emit(opcode, _RAX, _RDX)
        self.store_vreg(inst.dst, _RAX)

    def _gen_unop(self, inst: ir.UnOp) -> None:
        self.load_vreg(_RAX, inst.src)
        if inst.op == "neg":
            self.emit(Op.NEG, _RAX)
        elif inst.op == "not":
            self.emit(Op.NOT, _RAX)
        elif inst.op == "fneg":
            self.emit(Op.MOV_RI, _RDX, -(1 << 63))
            self.emit(Op.XOR_RR, _RAX, _RDX)
        else:
            raise CodegenError(f"unknown unop {inst.op!r}")
        self.store_vreg(inst.dst, _RAX)

    def _gen_cmp(self, inst: ir.Cmp) -> None:
        jcc, is_float, swap = _CMP_JCC[inst.op]
        left, right = (inst.right, inst.left) if swap else (inst.left,
                                                            inst.right)
        self.load_vreg(_RAX, left)
        self.load_vreg(_RDX, right)
        self.emit(Op.FCMP_RR if is_float else Op.CMP_RR, _RAX, _RDX)
        true_label = self.fresh_label("cmp.t")
        end_label = self.fresh_label("cmp.e")
        self.emit(jcc, LabelRef(true_label))
        self.emit(Op.MOV_RI, _RAX, 0)
        self.emit(Op.JMP, LabelRef(end_label))
        self.items.append(Label(true_label))
        self.emit(Op.MOV_RI, _RAX, 1)
        self.items.append(Label(end_label))
        self.store_vreg(inst.dst, _RAX)

    def _gen_inttofloat(self, inst: ir.IntToFloat) -> None:
        self.load_vreg(_RAX, inst.src)
        self.emit(Op.CVTSI2F, _RAX)
        self.store_vreg(inst.dst, _RAX)

    def _gen_floattoint(self, inst: ir.FloatToInt) -> None:
        self.load_vreg(_RAX, inst.src)
        self.emit(Op.CVTF2SI, _RAX)
        self.store_vreg(inst.dst, _RAX)

    # -- calls ------------------------------------------------------------------

    def _marshal_args(self, args: Sequence[ir.VReg]) -> int:
        """Load register args; push stack args (reverse). Returns #pushed."""
        stack_args = args[len(ARG_REGS):]
        for vreg in reversed(stack_args):
            self.load_vreg(_RAX, vreg)
            self.emit(Op.PUSH, _RAX)
        for index, vreg in enumerate(args[:len(ARG_REGS)]):
            self.load_vreg(ARG_REGS[index], vreg)
        return len(stack_args)

    def _gen_call(self, inst: ir.Call) -> None:
        self.referenced.add(inst.callee)
        is_tail = inst.tail and self.arch == "x64"
        self.direct_calls.append((self.func.name, inst.callee, is_tail))
        if is_tail:
            self._marshal_args(inst.args)
            self._emit_epilogue_body()
            self.emit(Op.JMP, LabelRef(inst.callee))
            self._emitted_tail = True  # the trailing Ret is dead code
            return
        pushed = self._marshal_args(inst.args)
        self.emit(Op.CALL, LabelRef(inst.callee))
        self.items.append(Mark("retsite", (self.func.name, inst.callee)))
        if pushed:
            self.emit(Op.ADD_RI, Reg.RSP, 8 * pushed)
        if inst.dst is not None:
            self.store_vreg(inst.dst, _RAX)

    def _gen_callind(self, inst: ir.CallInd) -> None:
        if inst.tail and self.arch == "x64":
            self._marshal_args(inst.args)
            self.load_vreg(_RCX, inst.pointer)  # before the frame drops
            self._emit_epilogue_body()
            self.items.append(PseudoIndirectJump(
                fn=self.func.name, reg=_RCX, kind="tail", sig=inst.sig,
                ptargets=tuple(inst.targets_hint)))
            self._emitted_tail = True  # the trailing Ret is dead code
            return
        pushed = self._marshal_args(inst.args)
        self.load_vreg(_RCX, inst.pointer)
        self.items.append(PseudoIndirectCall(
            fn=self.func.name, reg=_RCX, sig=inst.sig,
            ptargets=tuple(inst.targets_hint)))
        self.items.append(Mark("retsite", (self.func.name, None)))
        if pushed:
            self.emit(Op.ADD_RI, Reg.RSP, 8 * pushed)
        if inst.dst is not None:
            self.store_vreg(inst.dst, _RAX)

    def _gen_syscall(self, inst: ir.Syscall) -> None:
        number, *args = inst.args
        self.load_vreg(_RAX, number)
        for reg, vreg in zip((Reg.R8, Reg.R9, Reg.R10), args):
            self.load_vreg(reg, vreg)
        self.emit(Op.SYSCALL)
        self.store_vreg(inst.dst, _RAX)

    def _gen_setjmpinst(self, inst: ir.SetjmpInst) -> None:
        resume = self.fresh_label("setjmp.resume")
        self.load_vreg(_RBX, inst.buf)
        self.emit(Op.MOV_RI, _RAX, LabelRef(resume))
        self.emit(Op.STORE64, _RBX, 0, _RAX)
        self.emit(Op.STORE64, _RBX, 8, Reg.RSP)
        self.emit(Op.STORE64, _RBX, 16, Reg.RBP)
        self.emit(Op.MOV_RI, _RAX, 0)
        # Fall through to the resume point; longjmp arrives with the
        # return value already in rax.
        self.items.append(Mark("setjmp_resume", resume))
        self.items.append(Label(resume))
        self.store_vreg(inst.dst, _RAX)

    def _gen_longjmpinst(self, inst: ir.LongjmpInst) -> None:
        self.load_vreg(_RBX, inst.buf)
        self.load_vreg(_RAX, inst.value)
        self.emit(Op.LOAD64, Reg.RSP, _RBX, 8)
        self.emit(Op.LOAD64, Reg.RBP, _RBX, 16)
        self.emit(Op.LOAD64, _RCX, _RBX, 0)
        self.items.append(PseudoIndirectJump(
            fn=self.func.name, reg=_RCX, kind="longjmp"))

    # -- terminators -----------------------------------------------------------------

    def _gen_jump(self, inst: ir.Jump) -> None:
        self.emit(Op.JMP, LabelRef(self.block_label(inst.target)))

    def _gen_condbr(self, inst: ir.CondBr) -> None:
        jcc, is_float, swap = _CMP_JCC[inst.op]
        left, right = (inst.right, inst.left) if swap else (inst.left,
                                                            inst.right)
        self.load_vreg(_RAX, left)
        self.load_vreg(_RDX, right)
        self.emit(Op.FCMP_RR if is_float else Op.CMP_RR, _RAX, _RDX)
        self.emit(jcc, LabelRef(self.block_label(inst.then_block)))
        self.emit(Op.JMP, LabelRef(self.block_label(inst.else_block)))

    def _gen_switchbr(self, inst: ir.SwitchBr) -> None:
        table_label = self.fresh_label("jt")
        targets = tuple(self.block_label(t) for t in inst.targets)
        default = self.block_label(inst.default)
        self.load_vreg(_RAX, inst.value)
        self.emit(Op.CMP_RI, _RAX, inst.low)
        self.emit(Op.JL, LabelRef(default))
        self.emit(Op.CMP_RI, _RAX, inst.low + len(inst.targets) - 1)
        self.emit(Op.JG, LabelRef(default))
        if inst.low:
            self.emit(Op.SUB_RI, _RAX, inst.low)
        self.emit(Op.SHL_RI, _RAX, 3)
        self.emit(Op.MOV_RI, _RBX, LabelRef(table_label))
        self.emit(Op.ADD_RR, _RBX, _RAX)
        self.emit(Op.LOAD64, _RCX, _RBX, 0)
        self._jump_tables.append((table_label, targets))
        self.items.append(PseudoIndirectJump(
            fn=self.func.name, reg=_RCX, kind="switch", targets=targets))

    def _emit_epilogue_body(self) -> None:
        self.emit(Op.MOV_RR, Reg.RSP, Reg.RBP)
        self.emit(Op.POP, Reg.RBP)

    def _gen_ret(self, inst: ir.Ret) -> None:
        if self._emitted_tail:
            # The preceding tail call already left the function; do not
            # emit an unreachable epilogue + return.
            self._emitted_tail = False
            return
        if inst.value is not None:
            self.load_vreg(_RAX, inst.value)
        self._emit_epilogue_body()
        self.items.append(PseudoReturn(fn=self.func.name))


def generate(module: ir.MirModule, checked: CheckedUnit,
             arch: str = "x64") -> RawModule:
    """Generate symbolic assembly + metadata for one translation unit."""
    if arch not in ("x64", "x32"):
        raise CodegenError(f"unknown arch {arch!r}")
    items: List[RawItem] = []
    functions: Dict[str, FunctionMeta] = {}
    direct_calls: List[Tuple[str, str, bool]] = []
    referenced: set = set()
    for func in module.functions:
        codegen = FunctionCodegen(func, module.name, arch)
        items.extend(codegen.generate())
        direct_calls.extend(codegen.direct_calls)
        referenced |= codegen.referenced
        functions[func.name] = FunctionMeta(
            name=func.name, sig=FuncSig.of(func.ftype),
            address_taken=func.name in checked.address_taken,
            exported=not func.is_static, entry_label=func.name,
            module=module.name)

    strings = {f"{module.name}.str{sid}": blob
               for sid, blob in module.strings.items()}
    # Functions referenced in global initializers are address-taken too.
    for data in module.globals.values():
        for _, kind, symbol in data.relocs:
            if kind == "func":
                referenced.add(symbol)
                checked.address_taken.add(symbol)
                if symbol in functions:
                    functions[symbol].address_taken = True

    defined = set(functions)
    imports = sorted(name for name in referenced if name not in defined)
    return RawModule(
        name=module.name, arch=arch, items=items, functions=functions,
        globals=dict(module.globals), strings=strings, imports=imports,
        direct_calls=direct_calls, uses_setjmp=checked.uses_setjmp,
        taken_names=set(checked.address_taken))
