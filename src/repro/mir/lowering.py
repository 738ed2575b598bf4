"""Lowering: checked TinyC AST -> MIR.

Variables live in stack slots; every expression lowers to a fresh
virtual register.  Virtual registers may be written from several basic
blocks (codegen gives each a slot), which keeps short-circuit and
conditional expressions simple — no phi nodes.

MCFI-relevant lowering decisions:

* ``switch`` statements become :class:`~repro.mir.ir.SwitchBr` (a dense
  jump table, i.e. an *intraprocedural indirect jump*) when the case
  range is dense enough, matching how LLVM compiles switches; sparse
  switches fall back to compare chains.
* ``return f(...)`` marks the call as a tail-call candidate; codegen
  turns it into a jump in x64 mode (LLVM's tail-call optimization),
  which is why the paper observes fewer equivalence classes on x86-64.
* indirect calls carry the canonical :class:`FuncSig` of the pointer —
  the auxiliary type information of the module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import CodegenError
from repro.mir import ir
from repro.tinyc import ast
from repro.tinyc.typecheck import CheckedFunction, CheckedUnit, INTRINSICS
from repro.tinyc.types import (
    ArrayType,
    FloatType,
    FuncSig,
    FuncType,
    IntType,
    PointerType,
    StructType,
    Type,
    decay,
    is_pointer,
)

_PACK_BITS = __import__("struct").Struct("<d")


def _double_bits(value: float) -> int:
    return int.from_bytes(_PACK_BITS.pack(value), "little")


def _is_float(ctype: Optional[Type]) -> bool:
    return isinstance(decay(ctype) if ctype else None, FloatType)


def _mem_width(ctype: Type) -> int:
    size = decay(ctype).size
    if size in (1, 2, 4, 8):
        return size
    return 8


def _is_aggregate(ctype: Type) -> bool:
    return isinstance(ctype, (ArrayType, StructType))


def _elem_size(ctype: Type) -> int:
    """Pointee size for pointer arithmetic scaling."""
    pointee = decay(ctype).pointee
    size = pointee.size
    return size if size > 0 else 1


class FunctionLowerer:
    """Lowers one checked function to a :class:`MirFunction`."""

    def __init__(self, checked: CheckedFunction, module: "ModuleLowerer") -> None:
        self.checked = checked
        self.module = module
        self.mir = ir.MirFunction(
            name=checked.name, ftype=checked.ftype,
            params=list(checked.param_names),
            locals=dict(checked.locals), is_static=checked.is_static)
        self.current: Optional[ir.BasicBlock] = None
        self._label_counter = 0
        self._break_stack: List[str] = []
        self._continue_stack: List[str] = []

    # -- plumbing --------------------------------------------------------------

    def vreg(self) -> ir.VReg:
        self.mir.n_vregs += 1
        return self.mir.n_vregs - 1

    def new_label(self, hint: str) -> str:
        self._label_counter += 1
        return f"{hint}.{self._label_counter}"

    def start_block(self, label: str) -> None:
        block = ir.BasicBlock(label=label)
        self.mir.blocks.append(block)
        self.current = block

    def emit(self, inst: ir.Inst) -> None:
        if self.current is None or self.current.terminated:
            # Unreachable code (e.g. after return): emit into a dead block.
            self.start_block(self.new_label("dead"))
        self.current.instrs.append(inst)

    def const(self, value: int) -> ir.VReg:
        dst = self.vreg()
        self.emit(ir.Const(dst=dst, value=value))
        return dst

    # -- driver -----------------------------------------------------------------

    def lower(self) -> ir.MirFunction:
        self.start_block("entry")
        self.lower_stmt(self.checked.body)
        if not self.current.terminated:
            self.emit(ir.Ret(value=None))
        self._prune_unreachable()
        self._mark_tail_calls()
        self.mir.validate()
        return self.mir

    def _prune_unreachable(self) -> None:
        """Drop blocks no terminator can reach (switch joins where every
        case returns, code after ``return``): they would survive into
        the binary as dead bytes otherwise."""
        succs = {}
        for block in self.mir.blocks:
            term = block.terminator
            if isinstance(term, ir.Jump):
                succs[block.label] = (term.target,)
            elif isinstance(term, ir.CondBr):
                succs[block.label] = (term.then_block, term.else_block)
            elif isinstance(term, ir.SwitchBr):
                succs[block.label] = tuple(term.targets) + (term.default,)
            else:
                succs[block.label] = ()
        reachable = {"entry"}
        frontier = ["entry"]
        while frontier:
            for succ in succs.get(frontier.pop(), ()):
                if succ not in reachable:
                    reachable.add(succ)
                    frontier.append(succ)
        self.mir.blocks = [block for block in self.mir.blocks
                           if block.label in reachable]

    def _mark_tail_calls(self) -> None:
        """Mark ``call; ret`` pairs as tail-call candidates.

        Only calls whose arguments all fit in registers qualify (no
        stack-argument cleanup may be pending when we jump).
        """
        from repro.isa.registers import ARG_REGS
        for block in self.mir.blocks:
            if len(block.instrs) < 2:
                continue
            last = block.instrs[-1]
            prev = block.instrs[-2]
            if not isinstance(last, ir.Ret):
                continue
            if isinstance(prev, (ir.Call, ir.CallInd)) and \
                    len(prev.args) <= len(ARG_REGS):
                returns_value = last.value is not None
                produces_value = prev.dst is not None
                if returns_value == produces_value and \
                        (not returns_value or last.value == prev.dst):
                    prev.tail = True

    # -- statements ----------------------------------------------------------------

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            for inner in stmt.stmts:
                self.lower_stmt(inner)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._discard(stmt.expr)
        elif isinstance(stmt, ast.DeclStmt):
            if stmt.init is not None:
                value = self.rvalue(stmt.init)
                addr = self.vreg()
                self.emit(ir.LocalAddr(dst=addr, local=stmt.name))
                self.emit(ir.Store(addr=addr, src=value,
                                   width=_mem_width(stmt.ctype)))
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._lower_do(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Return):
            value = self.rvalue(stmt.value) if stmt.value is not None else None
            self.emit(ir.Ret(value=value))
        elif isinstance(stmt, ast.Break):
            if not self._break_stack:
                raise CodegenError("break outside loop/switch")
            self.emit(ir.Jump(target=self._break_stack[-1]))
        elif isinstance(stmt, ast.Continue):
            if not self._continue_stack:
                raise CodegenError("continue outside loop")
            self.emit(ir.Jump(target=self._continue_stack[-1]))
        elif isinstance(stmt, ast.Switch):
            self._lower_switch(stmt)
        else:
            raise CodegenError(f"cannot lower {type(stmt).__name__}")

    def _lower_if(self, stmt: ast.If) -> None:
        then_label = self.new_label("if.then")
        else_label = self.new_label("if.else") if stmt.other else None
        end_label = self.new_label("if.end")
        self.lower_cond(stmt.cond, then_label, else_label or end_label)
        self.start_block(then_label)
        self.lower_stmt(stmt.then)
        if not self.current.terminated:
            self.emit(ir.Jump(target=end_label))
        if else_label is not None:
            self.start_block(else_label)
            self.lower_stmt(stmt.other)
            if not self.current.terminated:
                self.emit(ir.Jump(target=end_label))
        self.start_block(end_label)

    def _lower_while(self, stmt: ast.While) -> None:
        head = self.new_label("while.head")
        body = self.new_label("while.body")
        end = self.new_label("while.end")
        self.emit(ir.Jump(target=head))
        self.start_block(head)
        self.lower_cond(stmt.cond, body, end)
        self.start_block(body)
        self._break_stack.append(end)
        self._continue_stack.append(head)
        self.lower_stmt(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        if not self.current.terminated:
            self.emit(ir.Jump(target=head))
        self.start_block(end)

    def _lower_do(self, stmt: ast.DoWhile) -> None:
        body = self.new_label("do.body")
        head = self.new_label("do.cond")
        end = self.new_label("do.end")
        self.emit(ir.Jump(target=body))
        self.start_block(body)
        self._break_stack.append(end)
        self._continue_stack.append(head)
        self.lower_stmt(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        if not self.current.terminated:
            self.emit(ir.Jump(target=head))
        self.start_block(head)
        self.lower_cond(stmt.cond, body, end)
        self.start_block(end)

    def _lower_for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        head = self.new_label("for.head")
        body = self.new_label("for.body")
        step = self.new_label("for.step")
        end = self.new_label("for.end")
        self.emit(ir.Jump(target=head))
        self.start_block(head)
        if stmt.cond is not None:
            self.lower_cond(stmt.cond, body, end)
        else:
            self.emit(ir.Jump(target=body))
        self.start_block(body)
        self._break_stack.append(end)
        self._continue_stack.append(step)
        self.lower_stmt(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        if not self.current.terminated:
            self.emit(ir.Jump(target=step))
        self.start_block(step)
        if stmt.step is not None:
            self.rvalue(stmt.step)
        self.emit(ir.Jump(target=head))
        self.start_block(end)

    #: Build a jump table when the value range is at most this multiple of
    #: the case count (LLVM uses a similar density heuristic).
    _TABLE_DENSITY = 4
    _TABLE_MIN_CASES = 3

    def _lower_switch(self, stmt: ast.Switch) -> None:
        value = self.rvalue(stmt.expr)
        end = self.new_label("switch.end")
        case_labels: List[Tuple[Optional[int], str]] = []
        default_label = end
        for case in stmt.cases:
            label = self.new_label(
                "case.default" if case.value is None else
                f"case.{case.value}")
            case_labels.append((case.value, label))
            if case.value is None:
                default_label = label

        values = [v for v, _ in case_labels if v is not None]
        if len(values) >= self._TABLE_MIN_CASES:
            low, high = min(values), max(values)
            span = high - low + 1
            dense = span <= self._TABLE_DENSITY * len(values) + 8
        else:
            dense = False

        if dense:
            table: Dict[int, str] = {v: l for v, l in case_labels
                                     if v is not None}
            targets = [table.get(low + i, default_label)
                       for i in range(span)]
            self.emit(ir.SwitchBr(value=value, low=low, targets=targets,
                                  default=default_label))
        else:
            # Sparse: compare chain.
            for case_value, label in case_labels:
                if case_value is None:
                    continue
                check_next = self.new_label("case.next")
                constant = self.const(case_value)
                self.emit(ir.CondBr(op="eq", left=value, right=constant,
                                    then_block=label, else_block=check_next))
                self.start_block(check_next)
            self.emit(ir.Jump(target=default_label))

        # Case bodies fall through to the next case, as in C.
        self._break_stack.append(end)
        for index, (case, (_, label)) in enumerate(zip(stmt.cases,
                                                       case_labels)):
            self.start_block(label)
            for inner in case.stmts:
                self.lower_stmt(inner)
            if not self.current.terminated:
                if index + 1 < len(case_labels):
                    self.emit(ir.Jump(target=case_labels[index + 1][1]))
                else:
                    self.emit(ir.Jump(target=end))
        self._break_stack.pop()
        self.start_block(end)

    # -- conditions ---------------------------------------------------------------

    _CMP_MAP = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le",
                ">": "gt", ">=": "ge"}
    _CMP_UNSIGNED = {"lt": "ult", "le": "ule", "gt": "ugt", "ge": "uge"}
    _CMP_FLOAT = {"eq": "feq", "ne": "fne", "lt": "flt", "le": "fle",
                  "gt": "fgt", "ge": "fge"}

    def _cmp_op(self, op: str, left: ast.Expr, right: ast.Expr) -> str:
        mir_op = self._CMP_MAP[op]
        if _is_float(left.ctype) or _is_float(right.ctype):
            return self._CMP_FLOAT[mir_op]
        if mir_op in self._CMP_UNSIGNED and self._unsigned_cmp(left, right):
            return self._CMP_UNSIGNED[mir_op]
        return mir_op

    @staticmethod
    def _unsigned_cmp(left: ast.Expr, right: ast.Expr) -> bool:
        for side in (left, right):
            ctype = decay(side.ctype)
            if is_pointer(ctype):
                return True
            if isinstance(ctype, IntType) and not ctype.signed:
                return True
        return False

    def lower_cond(self, expr: ast.Expr, then_label: str,
                   else_label: str) -> None:
        """Lower a boolean context with fused compares and short-circuit."""
        if isinstance(expr, ast.Binary) and expr.op in self._CMP_MAP:
            left = self.rvalue(expr.left)
            right = self.rvalue(expr.right)
            self.emit(ir.CondBr(
                op=self._cmp_op(expr.op, expr.left, expr.right),
                left=left, right=right,
                then_block=then_label, else_block=else_label))
            return
        if isinstance(expr, ast.Binary) and expr.op == "&&":
            middle = self.new_label("and.rhs")
            self.lower_cond(expr.left, middle, else_label)
            self.start_block(middle)
            self.lower_cond(expr.right, then_label, else_label)
            return
        if isinstance(expr, ast.Binary) and expr.op == "||":
            middle = self.new_label("or.rhs")
            self.lower_cond(expr.left, then_label, middle)
            self.start_block(middle)
            self.lower_cond(expr.right, then_label, else_label)
            return
        if isinstance(expr, ast.Unary) and expr.op == "!":
            self.lower_cond(expr.operand, else_label, then_label)
            return
        value = self.rvalue(expr)
        zero = self.const(0)
        op = "fne" if _is_float(expr.ctype) else "ne"
        self.emit(ir.CondBr(op=op, left=value, right=zero,
                            then_block=then_label, else_block=else_label))

    # -- expressions -----------------------------------------------------------------

    def rvalue(self, expr: ast.Expr) -> ir.VReg:
        if isinstance(expr, ast.IntLit):
            return self.const(expr.value)
        if isinstance(expr, ast.FloatLit):
            return self.const(_double_bits(expr.value))
        if isinstance(expr, ast.StrLit):
            dst = self.vreg()
            self.emit(ir.ConstStr(dst=dst, sid=self.module.intern_string(
                expr.value)))
            return dst
        if isinstance(expr, ast.SizeofType):
            return self.const(max(expr.query.size, 1)
                              if expr.query is not None else 8)
        if isinstance(expr, ast.Ident):
            return self._rvalue_ident(expr)
        if isinstance(expr, ast.Unary):
            return self._rvalue_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._rvalue_binary(expr)
        if isinstance(expr, ast.Assign):
            return self._rvalue_assign(expr)
        if isinstance(expr, ast.Cond):
            return self._rvalue_cond(expr)
        if isinstance(expr, ast.Call):
            return self._rvalue_call(expr)
        if isinstance(expr, (ast.Index, ast.Member)):
            return self._load_lvalue(expr)
        if isinstance(expr, ast.Cast):
            return self._rvalue_cast(expr)
        if isinstance(expr, ast.Comma):
            self._discard(expr.left)
            return self.rvalue(expr.right)
        raise CodegenError(f"cannot lower expression {type(expr).__name__}")

    def _discard(self, expr: ast.Expr) -> None:
        """Lower an expression for effect only (statement or comma LHS).

        Calls get no filler result register — a trailing ``f();`` in a
        void function stays adjacent to the return so tail-call marking
        can fire, and a discarded void call materializes no dummy zero.
        """
        if isinstance(expr, ast.Call) and \
                expr.direct_name not in INTRINSICS:
            self._emit_call(expr)
        else:
            self.rvalue(expr)

    def _rvalue_ident(self, expr: ast.Ident) -> ir.VReg:
        if expr.binding == "func":
            dst = self.vreg()
            self.emit(ir.FuncAddr(dst=dst, name=expr.name))
            return dst
        if _is_aggregate(expr.ctype):
            return self.lvalue(expr)  # arrays/structs decay to addresses
        return self._load_lvalue(expr)

    def _load_lvalue(self, expr: ast.Expr) -> ir.VReg:
        if _is_aggregate(expr.ctype):
            return self.lvalue(expr)
        addr = self.lvalue(expr)
        dst = self.vreg()
        ctype = decay(expr.ctype)
        signed = isinstance(ctype, IntType) and ctype.signed
        self.emit(ir.Load(dst=dst, addr=addr, width=_mem_width(expr.ctype),
                          signed=signed))
        return dst

    def lvalue(self, expr: ast.Expr) -> ir.VReg:
        """Lower an lvalue to its address."""
        if isinstance(expr, ast.Ident):
            dst = self.vreg()
            if expr.binding in ("local", "param"):
                self.emit(ir.LocalAddr(dst=dst, local=expr.name))
            elif expr.binding == "global":
                self.emit(ir.GlobalAddr(dst=dst, name=expr.name))
            else:
                raise CodegenError(f"not an lvalue: function {expr.name}")
            return dst
        if isinstance(expr, ast.Unary) and expr.op == "*":
            return self.rvalue(expr.operand)
        if isinstance(expr, ast.Index):
            base = self.rvalue(expr.base)
            index = self.rvalue(expr.index)
            scale = self.const(_elem_size(expr.base.ctype))
            offset = self.vreg()
            self.emit(ir.BinOp(dst=offset, op="mul", left=index, right=scale))
            addr = self.vreg()
            self.emit(ir.BinOp(dst=addr, op="add", left=base, right=offset))
            return addr
        if isinstance(expr, ast.Member):
            if expr.arrow:
                base = self.rvalue(expr.base)
                struct = decay(expr.base.ctype).pointee
            else:
                base = self.lvalue(expr.base)
                struct = expr.base.ctype
            if not isinstance(struct, StructType):
                raise CodegenError("member access on non-struct")
            offset_value = struct.field_offset(expr.name)
            if offset_value is None:
                raise CodegenError(f"no field {expr.name}")
            if offset_value == 0:
                return base
            offset = self.const(offset_value)
            addr = self.vreg()
            self.emit(ir.BinOp(dst=addr, op="add", left=base, right=offset))
            return addr
        if isinstance(expr, ast.Cast):
            # Lvalue casts appear via the checker only for pointers.
            return self.lvalue(expr.operand)
        raise CodegenError(
            f"cannot take address of {type(expr).__name__}")

    def _rvalue_unary(self, expr: ast.Unary) -> ir.VReg:
        op = expr.op
        if op == "&":
            operand = expr.operand
            if isinstance(operand, ast.Ident) and operand.binding == "func":
                dst = self.vreg()
                self.emit(ir.FuncAddr(dst=dst, name=operand.name))
                return dst
            return self.lvalue(operand)
        if op == "*":
            return self._load_lvalue(expr)
        if op in ("++", "--"):
            return self._rvalue_incdec(expr)
        src = self.rvalue(expr.operand)
        dst = self.vreg()
        if op == "-":
            self.emit(ir.UnOp(dst=dst, op="fneg" if _is_float(expr.ctype)
                              else "neg", src=src))
        elif op == "~":
            self.emit(ir.UnOp(dst=dst, op="not", src=src))
        elif op == "!":
            zero = self.const(0)
            cmp_op = "feq" if _is_float(expr.operand.ctype) else "eq"
            self.emit(ir.Cmp(dst=dst, op=cmp_op, left=src, right=zero))
        else:
            raise CodegenError(f"cannot lower unary {op!r}")
        return dst

    def _rvalue_incdec(self, expr: ast.Unary) -> ir.VReg:
        target = expr.operand
        addr = self.lvalue(target)
        old = self.vreg()
        ctype = decay(target.ctype)
        width = _mem_width(target.ctype)
        signed = isinstance(ctype, IntType) and ctype.signed
        self.emit(ir.Load(dst=old, addr=addr, width=width, signed=signed))
        step = _elem_size(target.ctype) if is_pointer(ctype) else 1
        delta = self.const(step)
        new = self.vreg()
        self.emit(ir.BinOp(dst=new, op="add" if expr.op == "++" else "sub",
                           left=old, right=delta))
        self.emit(ir.Store(addr=addr, src=new, width=width))
        return old if expr.postfix else new

    _BIN_MAP = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod",
                "&": "and", "|": "or", "^": "xor", "<<": "shl"}
    _FLOAT_BIN = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}

    def _rvalue_binary(self, expr: ast.Binary) -> ir.VReg:
        op = expr.op
        if op in self._CMP_MAP:
            left = self.rvalue(expr.left)
            right = self.rvalue(expr.right)
            dst = self.vreg()
            self.emit(ir.Cmp(dst=dst,
                             op=self._cmp_op(op, expr.left, expr.right),
                             left=left, right=right))
            return dst
        if op in ("&&", "||"):
            return self._rvalue_shortcircuit(expr)
        if _is_float(expr.ctype) and op in self._FLOAT_BIN:
            left = self.rvalue(expr.left)
            right = self.rvalue(expr.right)
            dst = self.vreg()
            self.emit(ir.BinOp(dst=dst, op=self._FLOAT_BIN[op], left=left,
                               right=right))
            return dst
        if op == ">>":
            left = self.rvalue(expr.left)
            right = self.rvalue(expr.right)
            dst = self.vreg()
            ltype = decay(expr.left.ctype)
            shift = "sar" if (isinstance(ltype, IntType) and ltype.signed) \
                else "shr"
            self.emit(ir.BinOp(dst=dst, op=shift, left=left, right=right))
            return dst
        # Pointer arithmetic scaling.
        ltype = decay(expr.left.ctype)
        rtype = decay(expr.right.ctype)
        if op in ("+", "-") and is_pointer(ltype) and not is_pointer(rtype):
            base = self.rvalue(expr.left)
            index = self.rvalue(expr.right)
            scaled = self._scale(index, _elem_size(expr.left.ctype))
            dst = self.vreg()
            self.emit(ir.BinOp(dst=dst, op=self._BIN_MAP[op], left=base,
                               right=scaled))
            return dst
        if op == "+" and is_pointer(rtype):
            base = self.rvalue(expr.right)
            index = self.rvalue(expr.left)
            scaled = self._scale(index, _elem_size(expr.right.ctype))
            dst = self.vreg()
            self.emit(ir.BinOp(dst=dst, op="add", left=base, right=scaled))
            return dst
        if op == "-" and is_pointer(ltype) and is_pointer(rtype):
            left = self.rvalue(expr.left)
            right = self.rvalue(expr.right)
            diff = self.vreg()
            self.emit(ir.BinOp(dst=diff, op="sub", left=left, right=right))
            size = _elem_size(expr.left.ctype)
            if size == 1:
                return diff
            scale = self.const(size)
            dst = self.vreg()
            self.emit(ir.BinOp(dst=dst, op="div", left=diff, right=scale))
            return dst
        left = self.rvalue(expr.left)
        right = self.rvalue(expr.right)
        dst = self.vreg()
        self.emit(ir.BinOp(dst=dst, op=self._BIN_MAP[op], left=left,
                           right=right))
        return dst

    def _scale(self, index: ir.VReg, size: int) -> ir.VReg:
        if size == 1:
            return index
        scale = self.const(size)
        scaled = self.vreg()
        self.emit(ir.BinOp(dst=scaled, op="mul", left=index, right=scale))
        return scaled

    def _rvalue_shortcircuit(self, expr: ast.Binary) -> ir.VReg:
        result = self.vreg()
        true_label = self.new_label("bool.true")
        false_label = self.new_label("bool.false")
        end_label = self.new_label("bool.end")
        self.lower_cond(expr, true_label, false_label)
        self.start_block(true_label)
        self.emit(ir.Const(dst=result, value=1))
        self.emit(ir.Jump(target=end_label))
        self.start_block(false_label)
        self.emit(ir.Const(dst=result, value=0))
        self.emit(ir.Jump(target=end_label))
        self.start_block(end_label)
        return result

    def _rvalue_assign(self, expr: ast.Assign) -> ir.VReg:
        addr = self.lvalue(expr.target)
        width = _mem_width(expr.target.ctype)
        if expr.op == "=":
            value = self.rvalue(expr.value)
            self.emit(ir.Store(addr=addr, src=value, width=width))
            return value
        # Compound assignment: load, operate, store.
        base_op = expr.op[:-1]
        ctype = decay(expr.target.ctype)
        signed = isinstance(ctype, IntType) and ctype.signed
        old = self.vreg()
        self.emit(ir.Load(dst=old, addr=addr, width=width, signed=signed))
        rhs = self.rvalue(expr.value)
        if is_pointer(ctype) and base_op in ("+", "-"):
            rhs = self._scale(rhs, _elem_size(expr.target.ctype))
        dst = self.vreg()
        if _is_float(expr.target.ctype) and base_op in self._FLOAT_BIN:
            mir_op = self._FLOAT_BIN[base_op]
        elif base_op == ">>":
            mir_op = "sar" if signed else "shr"
        else:
            mir_op = self._BIN_MAP[base_op]
        self.emit(ir.BinOp(dst=dst, op=mir_op, left=old, right=rhs))
        self.emit(ir.Store(addr=addr, src=dst, width=width))
        return dst

    def _rvalue_cond(self, expr: ast.Cond) -> ir.VReg:
        result = self.vreg()
        then_label = self.new_label("sel.then")
        else_label = self.new_label("sel.else")
        end_label = self.new_label("sel.end")
        self.lower_cond(expr.cond, then_label, else_label)
        self.start_block(then_label)
        then_value = self.rvalue(expr.then)
        self.emit(ir.Copy(dst=result, src=then_value))
        self.emit(ir.Jump(target=end_label))
        self.start_block(else_label)
        else_value = self.rvalue(expr.other)
        self.emit(ir.Copy(dst=result, src=else_value))
        self.emit(ir.Jump(target=end_label))
        self.start_block(end_label)
        return result

    def _emit_call(self, expr: ast.Call):
        """Emit a call; returns its result vreg or None for void.

        Evaluation is strictly left-to-right, callee designator
        included: ``tab[i](f())`` must read ``i`` *before* ``f()``
        runs.  Lowering the pointer after the arguments miscompiled
        exactly that shape when an argument mutated state the callee
        expression read (corpus seeds 14/99, PR 10).
        """
        from repro.tinyc.types import VoidType
        pointer = None
        if expr.direct_name is None:
            pointer = self.rvalue(expr.callee)
        args = [self.rvalue(arg) for arg in expr.args]
        returns_value = not isinstance(expr.ctype, VoidType)
        dst = self.vreg() if returns_value else None
        if expr.direct_name is not None:
            self.emit(ir.Call(dst=dst, callee=expr.direct_name, args=args))
        else:
            self.emit(ir.CallInd(dst=dst, pointer=pointer, args=args,
                                 sig=FuncSig.of(expr.callee_type)))
        return dst

    def _rvalue_call(self, expr: ast.Call) -> ir.VReg:
        if expr.direct_name in INTRINSICS:
            return self._lower_intrinsic(expr)
        dst = self._emit_call(expr)
        if dst is None:
            dst = self.const(0)  # a void call used as a value
        return dst

    def _lower_intrinsic(self, expr: ast.Call) -> ir.VReg:
        name = expr.direct_name
        if name == "__syscall":
            args = [self.rvalue(arg) for arg in expr.args]
            while len(args) < 4:
                args.append(self.const(0))
            dst = self.vreg()
            self.emit(ir.Syscall(dst=dst, args=args[:4]))
            return dst
        if name == "setjmp":
            buf = self.rvalue(expr.args[0])
            dst = self.vreg()
            self.emit(ir.SetjmpInst(dst=dst, buf=buf))
            return dst
        if name == "longjmp":
            buf = self.rvalue(expr.args[0])
            value = self.rvalue(expr.args[1])
            self.emit(ir.LongjmpInst(buf=buf, value=value))
            return self.const(0)
        raise CodegenError(f"unknown intrinsic {name!r}")

    def _rvalue_cast(self, expr: ast.Cast) -> ir.VReg:
        source = expr.operand
        value = self.rvalue(source)
        src_type = decay(source.ctype)
        dst_type = decay(expr.target_type)
        src_float = isinstance(src_type, FloatType)
        dst_float = isinstance(dst_type, FloatType)
        if src_float and not dst_float:
            dst = self.vreg()
            self.emit(ir.FloatToInt(dst=dst, src=value))
            return dst
        if dst_float and not src_float:
            dst = self.vreg()
            self.emit(ir.IntToFloat(dst=dst, src=value))
            return dst
        if isinstance(dst_type, IntType) and dst_type.size < 8:
            return self._truncate(value, dst_type)
        return value  # pointer casts and same-width conversions

    def _truncate(self, value: ir.VReg, target: IntType) -> ir.VReg:
        """C narrowing semantics: keep the low bytes, then extend."""
        shift = self.const(64 - 8 * target.size)
        shifted = self.vreg()
        self.emit(ir.BinOp(dst=shifted, op="shl", left=value, right=shift))
        out = self.vreg()
        self.emit(ir.BinOp(dst=out, op="sar" if target.signed else "shr",
                           left=shifted, right=shift))
        return out


class ModuleLowerer:
    """Lowers a checked unit to a :class:`MirModule`."""

    def __init__(self, checked: CheckedUnit) -> None:
        self.checked = checked
        self.module = ir.MirModule(name=checked.name)
        self._string_ids: Dict[bytes, int] = {}
        self._refs: List[bytes] = []
        self._refs_seen: set = set()

    def _begin_scope(self, scope: str) -> None:
        self._refs = self.module.intern_refs.setdefault(scope, [])
        self._refs_seen = set(self._refs)

    def intern_string(self, data: bytes) -> int:
        terminated = data + b"\x00"
        if terminated not in self._refs_seen:
            self._refs_seen.add(terminated)
            self._refs.append(terminated)
        if terminated not in self._string_ids:
            sid = len(self._string_ids)
            self._string_ids[terminated] = sid
            self.module.strings[sid] = terminated
        return self._string_ids[terminated]

    def lower(self) -> ir.MirModule:
        self._begin_scope("")
        for var in self.checked.globals:
            self.module.globals[var.name] = self._lower_global(var)
        for checked_func in self.checked.functions.values():
            self._begin_scope(checked_func.name)
            lowered = FunctionLowerer(checked_func, self).lower()
            self.module.functions.append(lowered)
        return self.module

    def _lower_global(self, var: ast.GlobalVar) -> ir.GlobalData:
        size = max(var.ctype.size, 8)
        data = ir.GlobalData(name=var.name, ctype=var.ctype, size=size,
                             is_static=var.is_static)
        if var.init is not None:
            self._fill_init(data, var.init, var.ctype, 0)
        return data

    def _fill_init(self, data: ir.GlobalData, init, ctype: Type,
                   offset: int) -> None:
        if isinstance(init, list):
            if isinstance(ctype, ArrayType):
                stride = ctype.element.size
                for index, item in enumerate(init):
                    self._fill_init(data, item, ctype.element,
                                    offset + index * stride)
                return
            if isinstance(ctype, StructType):
                for item, (fname, ftype) in zip(init, ctype.fields):
                    field_offset = ctype.field_offset(fname)
                    self._fill_init(data, item, ftype,
                                    offset + field_offset)
                return
            raise CodegenError("brace initializer for scalar global")
        self._fill_scalar(data, init, ctype, offset)

    def _fill_scalar(self, data: ir.GlobalData, expr: ast.Expr,
                     ctype: Type, offset: int) -> None:
        expr = self._strip_casts(expr)
        width = _mem_width(ctype)
        if isinstance(expr, ast.IntLit):
            data.words.append((offset, width, expr.value))
        elif isinstance(expr, ast.FloatLit):
            data.words.append((offset, 8, _double_bits(expr.value)))
        elif isinstance(expr, ast.StrLit):
            data.relocs.append((offset, "str",
                                self.intern_string(expr.value)))
        elif isinstance(expr, ast.Ident) and expr.binding == "func":
            data.relocs.append((offset, "func", expr.name))
        elif isinstance(expr, ast.Ident) and expr.binding == "global":
            data.relocs.append((offset, "global", expr.name))
        elif isinstance(expr, ast.Unary) and expr.op == "&":
            inner = expr.operand
            if isinstance(inner, ast.Ident) and inner.binding == "global":
                data.relocs.append((offset, "global", inner.name))
            elif isinstance(inner, ast.Ident) and inner.binding == "func":
                data.relocs.append((offset, "func", inner.name))
            else:
                raise CodegenError("unsupported global initializer")
        elif isinstance(expr, ast.Unary) and expr.op == "-" and \
                isinstance(expr.operand, ast.IntLit):
            data.words.append((offset, width, -expr.operand.value))
        else:
            raise CodegenError(
                f"unsupported global initializer {type(expr).__name__}")

    @staticmethod
    def _strip_casts(expr: ast.Expr) -> ast.Expr:
        while isinstance(expr, ast.Cast):
            expr = expr.operand
        return expr


def lower_unit(checked: CheckedUnit) -> ir.MirModule:
    """Lower a checked translation unit to MIR.

    Same stack discipline as parse/check: the expression trees those
    stages accepted can be deep, so lowering raises the recursion
    limit with them and reports exhaustion as a diagnostic.
    """
    import sys
    limit = sys.getrecursionlimit()
    if limit < 20000:
        sys.setrecursionlimit(20000)
    try:
        return ModuleLowerer(checked).lower()
    except RecursionError:
        raise CodegenError("program nesting too deep") from None
    finally:
        sys.setrecursionlimit(limit)
