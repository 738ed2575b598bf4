"""TinyC type checker and semantic-fact collector.

Beyond validating the program, the checker produces everything the rest
of the MCFI toolchain consumes:

* every expression gets a ``ctype``;
* every type conversion — explicit or implicit — becomes a
  :class:`~repro.tinyc.ast.Cast` node, and conversions *involving
  function-pointer types* are recorded as :class:`CastRecord` with the
  context the C1 analyzer's false-positive elimination needs (Sec. 6);
* functions are recorded with canonical signatures and an
  ``address_taken`` flag (a function name used anywhere other than as
  the callee of a direct call takes its address — LLVM's rule, which
  the paper's CFG generation relies on);
* call sites are recorded (direct callee, or the function-pointer type
  of an indirect call) for call-graph construction;
* locals are renamed to flat unique names, so MIR lowering is
  scope-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import TypeError_
from repro.tinyc import ast
from repro.tinyc.types import (
    ArrayType,
    CHAR,
    CHAR_PTR,
    DOUBLE,
    FloatType,
    FuncSig,
    FuncType,
    INT,
    IntType,
    LONG,
    PointerType,
    StructType,
    Type,
    ULONG,
    VOID,
    canonical,
    contains_function_pointer,
    decay,
    is_arith,
    is_function_pointer,
    is_integer,
    is_pointer,
    is_scalar,
)
from repro.tinyc.symbols import SymbolTable

#: Functions treated as allocators for the MF (malloc/free) elimination.
ALLOCATORS = frozenset(["malloc", "calloc", "realloc"])
DEALLOCATORS = frozenset(["free"])

#: Compiler intrinsics; they get special code generation.
INTRINSICS = frozenset(["setjmp", "longjmp", "__syscall"])


@dataclass
class CastRecord:
    """One type conversion involving function-pointer types.

    The flags capture the syntactic context used by the analyzer's
    UC/DC/MF/SU/NF eliminations and K1/K2 classification.
    """

    line: int
    src: Type
    dst: Type
    explicit: bool
    unit: str = ""
    function: str = ""                 # enclosing function, "" at top level
    operand_func: Optional[str] = None  # casting (the address of) function f
    operand_zero: bool = False          # casting the literal 0 / NULL
    via_alloc: bool = False             # cast of a malloc/calloc/realloc result
    via_free: bool = False              # implicit cast at a free() argument
    member_nonfptr: bool = False        # result only used to read a non-fptr field
    assign_to_fptr: bool = False        # value stored into a function pointer


@dataclass
class CallRecord:
    """One call site, as the CFG generator will see it."""

    caller: str
    line: int
    direct: Optional[str]              # callee name for direct calls
    sig: Optional[FuncSig]             # pointer signature for indirect calls


@dataclass
class CheckedFunction:
    name: str
    ftype: FuncType
    param_names: List[str]             # unique (renamed) parameter names
    locals: List[Tuple[str, Type]]     # unique name -> type (params included)
    body: ast.Block
    is_static: bool = False
    #: function names whose address *this* body takes (per-function view
    #: of the unit-level ``address_taken`` set; incremental rebuilds merge
    #: these instead of re-deriving the flat set)
    takes: Set[str] = field(default_factory=set)
    uses_setjmp: bool = False


@dataclass
class CheckedUnit:
    """The checker's output for one translation unit."""

    name: str
    unit: ast.TranslationUnit
    functions: Dict[str, CheckedFunction] = field(default_factory=dict)
    func_sigs: Dict[str, FuncSig] = field(default_factory=dict)
    func_types: Dict[str, FuncType] = field(default_factory=dict)
    address_taken: Set[str] = field(default_factory=set)
    #: addresses taken outside any function body (global initializers)
    global_takes: Set[str] = field(default_factory=set)
    calls: List[CallRecord] = field(default_factory=list)
    casts: List[CastRecord] = field(default_factory=list)
    globals: List[ast.GlobalVar] = field(default_factory=list)
    uses_setjmp: bool = False


class Checker:
    def __init__(self, unit: ast.TranslationUnit) -> None:
        self.unit = unit
        self.out = CheckedUnit(name=unit.name, unit=unit)
        self.symbols = SymbolTable()
        self.current_function: Optional[CheckedFunction] = None
        self._cast_records: Dict[int, CastRecord] = {}

    # -- driver ---------------------------------------------------------------

    def check(self) -> CheckedUnit:
        # Register all function signatures first (mutual recursion).
        for decl in self.unit.decls:
            self._register_function(decl.name, decl.ftype)
        for func in self.unit.funcs:
            self._register_function(func.name, func.ftype)
        for var in self.unit.globals:
            ctype = var.ctype
            self.symbols.declare(var.name, ctype, "global", var.line)
            self.out.globals.append(var)
        for var in self.unit.globals:
            if var.init is not None:
                var.init = self._check_initializer(var.init, var.ctype,
                                                   var.line)
        for func in self.unit.funcs:
            self._check_function(func)
        return self.out

    def _register_function(self, name: str, ftype: FuncType) -> None:
        existing = self.out.func_types.get(name)
        if existing is not None and canonical(existing) != canonical(ftype):
            raise TypeError_(f"conflicting declarations of {name!r}")
        self.out.func_types[name] = ftype
        self.out.func_sigs[name] = FuncSig.of(ftype)
        if self.symbols.lookup(name) is None:
            self.symbols.declare(name, ftype, "func")

    def _check_function(self, func: ast.FuncDef) -> None:
        checked = CheckedFunction(name=func.name, ftype=func.ftype,
                                  param_names=[], locals=[], body=func.body,
                                  is_static=func.is_static)
        self.out.functions[func.name] = checked
        self.current_function = checked
        self.symbols.push()
        for pname, ptype in zip(func.param_names, func.ftype.params):
            symbol = self.symbols.declare(pname, ptype, "param", func.line)
            checked.param_names.append(symbol.unique)
            checked.locals.append((symbol.unique, ptype))
        self._check_stmt(func.body)
        self.symbols.pop()
        self.current_function = None

    # -- statements -------------------------------------------------------------

    def _check_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self.symbols.push()
            for index, inner in enumerate(stmt.stmts):
                if isinstance(inner, ast.DeclStmt):
                    self._check_decl(inner)
                else:
                    self._check_stmt(inner)
            self.symbols.pop()
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                stmt.expr = self._check_expr(stmt.expr)
        elif isinstance(stmt, ast.DeclStmt):
            self._check_decl(stmt)
        elif isinstance(stmt, ast.If):
            stmt.cond = self._check_scalar(stmt.cond)
            self._check_stmt(stmt.then)
            if stmt.other is not None:
                self._check_stmt(stmt.other)
        elif isinstance(stmt, ast.While):
            stmt.cond = self._check_scalar(stmt.cond)
            self._check_stmt(stmt.body)
        elif isinstance(stmt, ast.DoWhile):
            self._check_stmt(stmt.body)
            stmt.cond = self._check_scalar(stmt.cond)
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self._check_stmt(stmt.init)
            if stmt.cond is not None:
                stmt.cond = self._check_scalar(stmt.cond)
            if stmt.step is not None:
                stmt.step = self._check_expr(stmt.step)
            self._check_stmt(stmt.body)
        elif isinstance(stmt, ast.Return):
            ret = self.current_function.ftype.ret
            if stmt.value is not None:
                if isinstance(ret, type(VOID)):
                    raise TypeError_("return with value in void function",
                                     stmt.line)
                stmt.value = self._coerce(self._check_expr(stmt.value), ret,
                                          context="return")
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            pass
        elif isinstance(stmt, ast.Switch):
            stmt.expr = self._check_expr(stmt.expr)
            if not is_integer(stmt.expr.ctype):
                raise TypeError_("switch requires an integer", stmt.line)
            seen_values = set()
            defaults = 0
            for case in stmt.cases:
                if case.value is None:
                    defaults += 1
                    if defaults > 1:
                        raise TypeError_("duplicate default label",
                                         stmt.line)
                elif case.value in seen_values:
                    raise TypeError_(
                        f"duplicate case label {case.value}", stmt.line)
                else:
                    seen_values.add(case.value)
            self.symbols.push()
            for case in stmt.cases:
                for inner in case.stmts:
                    self._check_stmt(inner)
            self.symbols.pop()
        else:
            raise TypeError_(f"unhandled statement {type(stmt).__name__}",
                             stmt.line)

    def _check_decl(self, decl: ast.DeclStmt) -> None:
        symbol = self.symbols.declare(decl.name, decl.ctype, "local",
                                      decl.line)
        decl.name = symbol.unique
        self.current_function.locals.append((symbol.unique, decl.ctype))
        if decl.init is not None:
            decl.init = self._coerce(self._check_expr(decl.init), decl.ctype,
                                     context="init")

    def _check_initializer(self, init, ctype: Type, line: int):
        if isinstance(init, list):
            if isinstance(ctype, ArrayType):
                if len(init) > ctype.length:
                    raise TypeError_(
                        f"too many initializers for {ctype} "
                        f"({len(init)} > {ctype.length})", line)
                return [self._check_initializer(item, ctype.element, line)
                        for item in init]
            if isinstance(ctype, StructType):
                if len(init) > len(ctype.fields):
                    raise TypeError_("too many initializers", line)
                return [self._check_initializer(item, ftype, line)
                        for item, (_, ftype) in zip(init, ctype.fields)]
            raise TypeError_("brace initializer for scalar", line)
        return self._coerce(self._check_expr(init), ctype, context="init")

    # -- expressions --------------------------------------------------------------

    def _check_scalar(self, expr: ast.Expr) -> ast.Expr:
        expr = self._check_expr(expr)
        if not is_scalar(expr.ctype):
            raise TypeError_("condition must be scalar", expr.line)
        return expr

    def _check_expr(self, expr: ast.Expr) -> ast.Expr:
        method = getattr(self, "_check_" + type(expr).__name__.lower(), None)
        if method is None:
            raise TypeError_(f"unhandled expression {type(expr).__name__}",
                             expr.line)
        return method(expr)

    def _check_intlit(self, expr: ast.IntLit) -> ast.Expr:
        expr.ctype = LONG if abs(expr.value) > 0x7FFFFFFF else INT
        return expr

    def _check_floatlit(self, expr: ast.FloatLit) -> ast.Expr:
        expr.ctype = DOUBLE
        return expr

    def _check_strlit(self, expr: ast.StrLit) -> ast.Expr:
        expr.ctype = CHAR_PTR
        return expr

    def _check_ident(self, expr: ast.Ident) -> ast.Expr:
        symbol = self.symbols.lookup(expr.name)
        if symbol is None:
            raise TypeError_(f"undeclared identifier {expr.name!r}",
                             expr.line)
        expr.binding = symbol.kind
        expr.ctype = symbol.ctype
        if symbol.kind in ("local", "param"):
            expr.name = symbol.unique
        if symbol.kind == "func":
            # Using a function name in a value position takes its
            # address; the direct-call case overrides this in _check_call.
            self.out.address_taken.add(expr.name)
            if self.current_function is not None:
                self.current_function.takes.add(expr.name)
            else:
                self.out.global_takes.add(expr.name)
            expr.ctype = PointerType(symbol.ctype)
        return expr

    def _check_unary(self, expr: ast.Unary) -> ast.Expr:
        if expr.op == "&":
            operand = expr.operand
            if isinstance(operand, ast.Ident):
                operand = self._check_ident(operand)
                expr.operand = operand
                if operand.binding == "func":
                    expr.ctype = operand.ctype  # already pointer-to-func
                    return expr
                expr.ctype = PointerType(operand.ctype)
                return expr
            operand = self._check_expr(operand)
            expr.operand = operand
            if not self._is_lvalue(operand):
                raise TypeError_("cannot take address of rvalue", expr.line)
            expr.ctype = PointerType(operand.ctype)
            return expr
        operand = self._check_expr(expr.operand)
        expr.operand = operand
        ctype = decay(operand.ctype)
        if expr.op == "*":
            if isinstance(ctype, PointerType):
                expr.ctype = ctype.pointee
                return expr
            raise TypeError_("dereference of non-pointer", expr.line)
        if expr.op == "!":
            expr.ctype = INT
            return expr
        if expr.op == "-":
            if not is_arith(ctype):
                raise TypeError_("unary - needs arithmetic type", expr.line)
            expr.ctype = ctype
            return expr
        if expr.op == "~":
            if not is_integer(ctype):
                raise TypeError_("~ needs an integer", expr.line)
            expr.ctype = ctype
            return expr
        if expr.op in ("++", "--"):
            if not self._is_lvalue(operand):
                raise TypeError_(f"{expr.op} needs an lvalue", expr.line)
            if not (is_integer(ctype) or is_pointer(ctype)):
                raise TypeError_(f"{expr.op} needs integer or pointer",
                                 expr.line)
            expr.ctype = ctype
            return expr
        raise TypeError_(f"unhandled unary {expr.op!r}", expr.line)

    def _check_binary(self, expr: ast.Binary) -> ast.Expr:
        left = self._check_expr(expr.left)
        right = self._check_expr(expr.right)
        ltype = decay(left.ctype)
        rtype = decay(right.ctype)
        op = expr.op
        if op in ("&&", "||"):
            expr.ctype = INT
        elif op in ("==", "!=", "<", "<=", ">", ">="):
            if isinstance(ltype, FloatType) != isinstance(rtype, FloatType):
                left, right = self._unify_arith(left, right)
            expr.ctype = INT
        elif op in ("%", "<<", ">>", "&", "|", "^"):
            if not (is_integer(ltype) and is_integer(rtype)):
                raise TypeError_(f"{op} needs integers", expr.line)
            expr.ctype = ltype
        elif op in ("+", "-"):
            if is_pointer(ltype) and is_integer(rtype):
                expr.ctype = ltype
            elif is_integer(ltype) and is_pointer(rtype) and op == "+":
                expr.ctype = rtype
            elif is_pointer(ltype) and is_pointer(rtype) and op == "-":
                expr.ctype = LONG
            elif is_arith(ltype) and is_arith(rtype):
                left, right = self._unify_arith(left, right)
                expr.ctype = decay(left.ctype)
            else:
                raise TypeError_(f"bad operands to {op}", expr.line)
        elif op in ("*", "/"):
            if not (is_arith(ltype) and is_arith(rtype)):
                raise TypeError_(f"{op} needs arithmetic types", expr.line)
            left, right = self._unify_arith(left, right)
            expr.ctype = decay(left.ctype)
        else:
            raise TypeError_(f"unhandled binary {op!r}", expr.line)
        expr.left = left
        expr.right = right
        return expr

    def _unify_arith(self, left: ast.Expr,
                     right: ast.Expr) -> Tuple[ast.Expr, ast.Expr]:
        ltype = decay(left.ctype)
        rtype = decay(right.ctype)
        if isinstance(ltype, FloatType) and not isinstance(rtype, FloatType):
            right = self._implicit_cast(right, DOUBLE)
        elif isinstance(rtype, FloatType) and not isinstance(ltype,
                                                             FloatType):
            left = self._implicit_cast(left, DOUBLE)
        return left, right

    def _check_assign(self, expr: ast.Assign) -> ast.Expr:
        target = self._check_expr(expr.target)
        if not self._is_lvalue(target):
            raise TypeError_("assignment to rvalue", expr.line)
        value = self._check_expr(expr.value)
        if expr.op == "=":
            value = self._coerce(value, target.ctype, context="assign")
        else:
            # Compound assignment: operands must be arithmetic/pointer.
            base_op = expr.op[:-1]
            if is_pointer(decay(target.ctype)) and base_op in ("+", "-"):
                pass
            elif not (is_arith(decay(target.ctype))
                      and is_arith(decay(value.ctype))):
                raise TypeError_(f"bad compound assignment {expr.op}",
                                 expr.line)
            if isinstance(decay(target.ctype), FloatType) and \
                    not isinstance(decay(value.ctype), FloatType):
                value = self._implicit_cast(value, DOUBLE)
        expr.target = target
        expr.value = value
        expr.ctype = target.ctype
        return expr

    def _check_cond(self, expr: ast.Cond) -> ast.Expr:
        expr.cond = self._check_scalar(expr.cond)
        then = self._check_expr(expr.then)
        other = self._check_expr(expr.other)
        ttype = decay(then.ctype)
        otype = decay(other.ctype)
        if isinstance(ttype, FloatType) != isinstance(otype, FloatType):
            then, other = self._unify_arith(then, other)
        elif canonical(ttype) != canonical(otype) and \
                is_pointer(ttype) and is_pointer(otype):
            other = self._implicit_cast(other, ttype)
        expr.then = then
        expr.other = other
        expr.ctype = decay(then.ctype)
        return expr

    def _check_call(self, expr: ast.Call) -> ast.Expr:
        callee = expr.callee
        direct_name: Optional[str] = None
        # Strip &/* wrappers: (&f)(...) and (*fp)(...) normalize away.
        stripped = callee
        while isinstance(stripped, ast.Unary) and stripped.op in ("&", "*"):
            stripped = stripped.operand
        if isinstance(stripped, ast.Ident):
            symbol = self.symbols.lookup(stripped.name)
            if symbol is not None and symbol.kind == "func" and \
                    stripped is callee:
                direct_name = stripped.name
        if direct_name is not None:
            ftype = self.symbols.lookup(direct_name).ctype
            stripped.binding = "func"
            stripped.ctype = PointerType(ftype)
        else:
            callee = self._check_expr(callee)
            expr.callee = callee
            ctype = decay(callee.ctype)
            if is_function_pointer(ctype):
                ftype = ctype.pointee
            elif isinstance(ctype, FuncType):
                ftype = ctype
            else:
                raise TypeError_("call of non-function", expr.line)
        if not isinstance(ftype, FuncType):
            raise TypeError_("call of non-function", expr.line)

        if len(expr.args) < len(ftype.params) or \
                (len(expr.args) > len(ftype.params) and not ftype.variadic):
            raise TypeError_(
                f"wrong number of arguments ({len(expr.args)} for "
                f"{len(ftype.params)})", expr.line)
        new_args = []
        for index, arg in enumerate(expr.args):
            arg = self._check_expr(arg)
            if index < len(ftype.params):
                context = "arg"
                if direct_name in DEALLOCATORS:
                    context = "free-arg"
                arg = self._coerce(arg, ftype.params[index], context=context)
            else:
                arg = self._promote_vararg(arg)
            new_args.append(arg)
        expr.args = new_args
        expr.direct_name = direct_name
        expr.callee_type = ftype
        expr.ctype = ftype.ret if not isinstance(ftype.ret, type(VOID)) \
            else VOID
        caller = self.current_function.name if self.current_function else ""
        if direct_name is not None:
            if direct_name not in INTRINSICS:
                self.out.calls.append(CallRecord(
                    caller=caller, line=expr.line, direct=direct_name,
                    sig=None))
            if direct_name == "setjmp":
                self.out.uses_setjmp = True
                if self.current_function is not None:
                    self.current_function.uses_setjmp = True
        else:
            self.out.calls.append(CallRecord(
                caller=caller, line=expr.line, direct=None,
                sig=FuncSig.of(ftype)))
        return expr

    def _promote_vararg(self, arg: ast.Expr) -> ast.Expr:
        ctype = decay(arg.ctype)
        if isinstance(ctype, IntType) and ctype.size < 8:
            return arg  # 64-bit registers already
        return arg

    def _check_index(self, expr: ast.Index) -> ast.Expr:
        base = self._check_expr(expr.base)
        index = self._check_expr(expr.index)
        btype = decay(base.ctype)
        if not isinstance(btype, PointerType):
            raise TypeError_("subscript of non-pointer", expr.line)
        if not is_integer(decay(index.ctype)):
            raise TypeError_("subscript index must be integer", expr.line)
        expr.base = base
        expr.index = index
        expr.ctype = btype.pointee
        return expr

    def _check_member(self, expr: ast.Member) -> ast.Expr:
        base = self._check_expr(expr.base)
        btype = decay(base.ctype)
        if expr.arrow:
            if not isinstance(btype, PointerType) or \
                    not isinstance(btype.pointee, StructType):
                raise TypeError_("-> on non-struct-pointer", expr.line)
            struct = btype.pointee
        else:
            if not isinstance(base.ctype, StructType):
                raise TypeError_(". on non-struct", expr.line)
            struct = base.ctype
        ftype = struct.field_type(expr.name)
        if ftype is None:
            raise TypeError_(f"no field {expr.name!r} in {struct}", expr.line)
        expr.base = base
        expr.ctype = ftype
        # NF elimination hook: a cast whose result is only used to read a
        # field that contains no function pointer is a false positive.
        inner = base
        if expr.arrow and isinstance(inner, ast.Cast):
            record = self._cast_records.get(id(inner))
            if record is not None and \
                    not contains_function_pointer(ftype):
                record.member_nonfptr = True
        return expr

    def _check_cast(self, expr: ast.Cast) -> ast.Expr:
        operand = self._check_expr(expr.operand)
        expr.operand = operand
        expr.ctype = expr.target_type
        self._record_cast(expr, operand, expr.target_type, explicit=True)
        return expr

    def _check_sizeoftype(self, expr: ast.SizeofType) -> ast.Expr:
        if expr.query is None:
            operand = self._check_expr(expr.operand)
            expr.operand = operand
            expr.query = operand.ctype
        expr.ctype = ULONG
        return expr

    def _check_comma(self, expr: ast.Comma) -> ast.Expr:
        expr.left = self._check_expr(expr.left)
        expr.right = self._check_expr(expr.right)
        expr.ctype = expr.right.ctype
        return expr

    # -- conversions ------------------------------------------------------------

    def _is_lvalue(self, expr: ast.Expr) -> bool:
        if isinstance(expr, ast.Ident):
            return expr.binding in ("local", "param", "global")
        if isinstance(expr, (ast.Index, ast.Member)):
            return True
        if isinstance(expr, ast.Unary) and expr.op == "*":
            return True
        return False

    def _coerce(self, expr: ast.Expr, target: Type,
                context: str = "assign") -> ast.Expr:
        """Insert an implicit cast if ``expr`` needs conversion to ``target``."""
        source = decay(expr.ctype)
        if canonical(source) == canonical(target):
            return expr
        if isinstance(target, FloatType) and is_integer(source):
            return self._implicit_cast(expr, DOUBLE, context)
        if is_integer(target) and isinstance(source, FloatType):
            return self._implicit_cast(expr, target, context)
        if is_integer(target) and is_integer(source):
            return self._implicit_cast(expr, target, context)
        if is_pointer(target) and is_pointer(source):
            return self._implicit_cast(expr, target, context)
        if is_pointer(target) and is_integer(source):
            return self._implicit_cast(expr, target, context)
        if is_integer(target) and is_pointer(source):
            return self._implicit_cast(expr, target, context)
        raise TypeError_(
            f"cannot convert {expr.ctype} to {target}", expr.line)

    def _implicit_cast(self, expr: ast.Expr, target: Type,
                       context: str = "") -> ast.Expr:
        cast = ast.Cast(line=expr.line, target_type=target, operand=expr,
                        explicit=False)
        cast.ctype = target
        self._record_cast(cast, expr, target, explicit=False,
                          context=context)
        return cast

    def _record_cast(self, cast: ast.Cast, operand: ast.Expr, target: Type,
                     explicit: bool, context: str = "") -> None:
        source = decay(operand.ctype) if operand.ctype else VOID
        if canonical(source) == canonical(target):
            return
        if not (contains_function_pointer(source)
                or contains_function_pointer(target)):
            return
        record = CastRecord(
            line=cast.line, src=source, dst=target, explicit=explicit,
            unit=self.unit.name,
            function=self.current_function.name if self.current_function
            else "")
        operand_core = operand
        if isinstance(operand_core, ast.Unary) and operand_core.op == "&":
            operand_core = operand_core.operand
        if isinstance(operand_core, ast.Ident) and \
                operand_core.binding == "func":
            record.operand_func = operand_core.name
        if isinstance(operand_core, ast.IntLit) and operand_core.value == 0:
            record.operand_zero = True
        if isinstance(operand_core, ast.Call) and \
                operand_core.direct_name in ALLOCATORS:
            record.via_alloc = True
        if context == "free-arg":
            record.via_free = True
        if context in ("assign", "init", "arg", "return") and \
                is_function_pointer(target):
            record.assign_to_fptr = True
        self.out.casts.append(record)
        self._cast_records[id(cast)] = record


def check(unit: ast.TranslationUnit) -> CheckedUnit:
    """Type-check a translation unit and collect semantic facts.

    Mirrors :func:`repro.tinyc.parser.parse`'s stack discipline: the
    checker recurses over expression trees the parser was allowed to
    build deep, so raise the limit the same way — and degrade to a
    clean diagnostic (never a ``RecursionError`` traceback) on inputs
    deep enough to exhaust even that.
    """
    import sys
    limit = sys.getrecursionlimit()
    if limit < 20000:
        sys.setrecursionlimit(20000)
    try:
        return Checker(unit).check()
    except RecursionError:
        raise TypeError_("program nesting too deep") from None
    finally:
        sys.setrecursionlimit(limit)
