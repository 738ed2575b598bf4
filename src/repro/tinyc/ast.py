"""TinyC abstract syntax tree.

Nodes are plain dataclasses.  Expression nodes gain a ``ctype``
attribute during type checking; the checker also *inserts* implicit
:class:`Cast` nodes (marked ``explicit=False``) so that every type
conversion in the program — explicit or implicit — is visible to the
C1/C2 analyzer as a cast node, mirroring how "LLVM's internal
representation makes all type casts explicit" (Sec. 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.tinyc.types import FuncType, Type


@dataclass
class Node:
    line: int = 0


# -- expressions -------------------------------------------------------------

@dataclass
class Expr(Node):
    ctype: Optional[Type] = None


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class FloatLit(Expr):
    value: float = 0.0


@dataclass
class StrLit(Expr):
    value: bytes = b""


@dataclass
class Ident(Expr):
    name: str = ""
    #: filled by the type checker: 'local' | 'param' | 'global' | 'func'
    binding: str = ""


@dataclass
class Unary(Expr):
    op: str = ""                      # - ! ~ * & ++ -- (pre)
    operand: Optional[Expr] = None
    postfix: bool = False


@dataclass
class Binary(Expr):
    op: str = ""                      # + - * / % << >> < <= > >= == != & | ^ && ||
    left: Optional[Expr] = None
    right: Optional[Expr] = None


@dataclass
class Assign(Expr):
    op: str = "="                     # = += -= *= /= %= &= |= ^= <<= >>=
    target: Optional[Expr] = None
    value: Optional[Expr] = None


@dataclass
class Cond(Expr):
    cond: Optional[Expr] = None
    then: Optional[Expr] = None
    other: Optional[Expr] = None


@dataclass
class Call(Expr):
    callee: Optional[Expr] = None
    args: List[Expr] = field(default_factory=list)
    #: filled by the checker: function name for direct calls, else None
    direct_name: Optional[str] = None
    #: canonical signature of the callee function/pointer type
    callee_type: Optional[FuncType] = None


@dataclass
class Index(Expr):
    base: Optional[Expr] = None
    index: Optional[Expr] = None


@dataclass
class Member(Expr):
    base: Optional[Expr] = None
    name: str = ""
    arrow: bool = False


@dataclass
class Cast(Expr):
    target_type: Optional[Type] = None
    operand: Optional[Expr] = None
    explicit: bool = True


@dataclass
class SizeofType(Expr):
    query: Optional[Type] = None
    #: for ``sizeof expr`` the checker fills ``query`` from this operand
    operand: Optional[Expr] = None


@dataclass
class Comma(Expr):
    left: Optional[Expr] = None
    right: Optional[Expr] = None


# -- statements --------------------------------------------------------------

@dataclass
class Stmt(Node):
    pass


@dataclass
class Block(Stmt):
    stmts: List[Stmt] = field(default_factory=list)


@dataclass
class ExprStmt(Stmt):
    expr: Optional[Expr] = None


@dataclass
class DeclStmt(Stmt):
    """A local variable declaration (possibly with an initializer)."""

    name: str = ""
    ctype: Optional[Type] = None
    init: Optional[Expr] = None


@dataclass
class If(Stmt):
    cond: Optional[Expr] = None
    then: Optional[Stmt] = None
    other: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Optional[Expr] = None
    body: Optional[Stmt] = None


@dataclass
class DoWhile(Stmt):
    body: Optional[Stmt] = None
    cond: Optional[Expr] = None


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None       # ExprStmt or DeclStmt or None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Optional[Stmt] = None


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class SwitchCase(Node):
    """One case arm.  ``value`` is None for ``default``."""

    value: Optional[int] = None
    stmts: List[Stmt] = field(default_factory=list)


@dataclass
class Switch(Stmt):
    expr: Optional[Expr] = None
    cases: List[SwitchCase] = field(default_factory=list)


# -- declarations -------------------------------------------------------------

@dataclass
class FuncDef(Node):
    name: str = ""
    ftype: Optional[FuncType] = None
    param_names: List[str] = field(default_factory=list)
    body: Optional[Block] = None
    is_static: bool = False


@dataclass
class FuncDecl(Node):
    """A prototype (possibly of a function defined in another module)."""

    name: str = ""
    ftype: Optional[FuncType] = None


@dataclass
class GlobalVar(Node):
    name: str = ""
    ctype: Optional[Type] = None
    init: Optional[object] = None     # Expr, or list (brace initializer)
    is_extern: bool = False


@dataclass
class TranslationUnit(Node):
    name: str = "unit"
    funcs: List[FuncDef] = field(default_factory=list)
    decls: List[FuncDecl] = field(default_factory=list)
    globals: List[GlobalVar] = field(default_factory=list)
    #: a function body defines a type (see ``Parser._define_type``).
    #: The parser resolves typedef names and enum constants as it goes,
    #: so such a module's bodies cannot be re-checked one at a time
    #: against its interface (:class:`repro.toolchain.ModuleInterface`).
    local_types: bool = False

    def function(self, name: str) -> Optional[FuncDef]:
        for func in self.funcs:
            if func.name == name:
                return func
        return None


def walk_expr(expr: Optional[Expr]):
    """Yield ``expr`` and all sub-expressions, pre-order."""
    if expr is None:
        return
    yield expr
    children: Tuple = ()
    if isinstance(expr, Unary):
        children = (expr.operand,)
    elif isinstance(expr, Binary):
        children = (expr.left, expr.right)
    elif isinstance(expr, Assign):
        children = (expr.target, expr.value)
    elif isinstance(expr, Cond):
        children = (expr.cond, expr.then, expr.other)
    elif isinstance(expr, Call):
        children = (expr.callee, *expr.args)
    elif isinstance(expr, Index):
        children = (expr.base, expr.index)
    elif isinstance(expr, Member):
        children = (expr.base,)
    elif isinstance(expr, Cast):
        children = (expr.operand,)
    elif isinstance(expr, Comma):
        children = (expr.left, expr.right)
    for child in children:
        yield from walk_expr(child)


def walk_stmts(stmt: Optional[Stmt]):
    """Yield ``stmt`` and all nested statements, pre-order."""
    if stmt is None:
        return
    yield stmt
    if isinstance(stmt, Block):
        for inner in stmt.stmts:
            yield from walk_stmts(inner)
    elif isinstance(stmt, If):
        yield from walk_stmts(stmt.then)
        yield from walk_stmts(stmt.other)
    elif isinstance(stmt, While):
        yield from walk_stmts(stmt.body)
    elif isinstance(stmt, DoWhile):
        yield from walk_stmts(stmt.body)
    elif isinstance(stmt, For):
        yield from walk_stmts(stmt.init)
        yield from walk_stmts(stmt.body)
    elif isinstance(stmt, Switch):
        for case in stmt.cases:
            for inner in case.stmts:
                yield from walk_stmts(inner)


def stmt_exprs(stmt: Stmt):
    """Yield the top-level expressions appearing directly in ``stmt``."""
    if isinstance(stmt, ExprStmt) and stmt.expr is not None:
        yield stmt.expr
    elif isinstance(stmt, DeclStmt) and stmt.init is not None:
        yield stmt.init
    elif isinstance(stmt, If) and stmt.cond is not None:
        yield stmt.cond
    elif isinstance(stmt, (While, DoWhile)) and stmt.cond is not None:
        yield stmt.cond
    elif isinstance(stmt, For):
        for expr in (stmt.cond, stmt.step):
            if expr is not None:
                yield expr
    elif isinstance(stmt, Return) and stmt.value is not None:
        yield stmt.value
    elif isinstance(stmt, Switch) and stmt.expr is not None:
        yield stmt.expr
