"""Seeded property-based TinyC program generator with a built-in oracle.

Every generated program carries two independent semantics:

* ``render()`` — the TinyC source text fed to the real pipeline
  (frontend -> MIR -> codegen -> link -> VM), and
* ``evaluate()`` — a direct AST interpretation that computes the
  expected stdout bytes and exit code without touching the compiler.

The pair is the differential-testing contract: any disagreement
between the oracle and a VM run, or between two pipeline
configurations, is a finding (see :mod:`repro.workloads.corpus`).

The generator only emits programs whose behaviour is fully defined
under the repo's VM semantics, which the evaluator mirrors exactly:

* all arithmetic is 64-bit two's-complement (``wrap64``);
* shift counts are masked ``& 63`` (the VM defines oversize shifts);
* ``/`` and ``%`` truncate toward zero; divisors are forced odd with
  ``| 1`` so they are never zero; ``LONG_MIN / -1`` wraps;
* comparisons are unsigned iff an operand is statically unsigned;
* narrow stores truncate, narrow loads sign- or zero-extend;
* ``print_int`` mirrors the libc routine byte for byte (including the
  ``LONG_MIN`` edge case, which prints a bare ``-``);
* process exit codes are the low 8 bits of ``main``'s return value.

Hazards the generator avoids by construction (each is a knob so a
future PR can turn them into deliberate probes): division by zero,
out-of-bounds accesses (indices are masked to power-of-two bounds),
unbounded loops (fresh counters the body never writes), calls inside
array-index/divisor subexpressions (evaluation-order freedom), and
floating point (not needed for the ISSUE-10 matrix).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "GenConfig",
    "GenProgram",
    "OracleResult",
    "OracleError",
    "generate",
    "wrap64",
    "format_print_int",
]

MASK64 = (1 << 64) - 1
_SIGN = 1 << 63


def wrap64(value: int) -> int:
    """Wrap a Python int to signed 64-bit two's complement."""
    return ((value + _SIGN) & MASK64) - _SIGN


def u64(value: int) -> int:
    return value & MASK64


#: ctype name -> (byte width, signed)
CTYPES: Dict[str, Tuple[int, bool]] = {
    "long": (8, True),
    "int": (4, True),
    "short": (2, True),
    "char": (1, True),
    "unsigned long": (8, False),
    "unsigned int": (4, False),
    "unsigned short": (2, False),
    "unsigned char": (1, False),
}

#: narrow types usable for cast chains and narrow variables
NARROW_TYPES = ("int", "short", "char",
                "unsigned int", "unsigned short", "unsigned char")


def extend(value: int, ctype: str) -> int:
    """Truncate ``value`` to ``ctype``'s width, then extend as a load
    of that width would (sign-extend signed, zero-extend unsigned)."""
    width, signed = CTYPES[ctype]
    bits = 8 * width
    low = value & ((1 << bits) - 1)
    if signed and low & (1 << (bits - 1)):
        low -= 1 << bits
    return low


def format_print_int(value: int) -> bytes:
    """Byte-exact model of the libc ``print_int`` routine."""
    value = wrap64(value)
    neg = value < 0
    if neg:
        value = wrap64(-value)
    digits = b""
    if value == 0:
        digits = b"0"
    while value > 0:
        digits = bytes([ord("0") + value % 10]) + digits
        value //= 10
    if neg:
        digits = b"-" + digits
    return digits


def _c_divide(a: int, b: int, mod: bool) -> int:
    """The VM's division: truncation toward zero, 64-bit wrap."""
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    if mod:
        return wrap64(a - wrap64(q * b))
    return wrap64(q)


# ---------------------------------------------------------------------------
# Oracle machinery
# ---------------------------------------------------------------------------

class OracleError(Exception):
    """The oracle could not evaluate the program (generator bug)."""


class _Return(Exception):
    def __init__(self, value: int):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


@dataclass(frozen=True)
class FnVal:
    """A function designator used as a value (fn-ptr tables, casts)."""

    name: str


@dataclass(frozen=True)
class StrVal:
    """A string literal's address used as a value (``char *`` global)."""

    name: str


@dataclass
class OracleResult:
    output: bytes
    exit_code: int


class Env:
    """One dynamic frame: parameter/local bindings of the active call."""

    def __init__(self) -> None:
        self.values: Dict[str, object] = {}
        self.types: Dict[str, str] = {}

    def declare(self, name: str, ctype: str, value: object) -> None:
        self.types[name] = ctype
        self.values[name] = self._store(name, ctype, value)

    def assign(self, name: str, value: object) -> None:
        self.values[name] = self._store(name, self.types[name], value)

    def _store(self, name: str, ctype: str, value: object) -> object:
        if isinstance(value, (FnVal, StrVal)):
            return value
        if ctype not in CTYPES:       # pointer-typed local: keep as-is
            return value
        return extend(int(value), ctype)

    def load(self, name: str) -> object:
        return self.values[name]


class Oracle:
    """Direct evaluator over the generated AST."""

    def __init__(self, program: "GenProgram", fuel: int = 2_000_000):
        self.program = program
        self.funcs = {f.name: f for f in program.funcs}
        self.fuel = fuel
        self.out = bytearray()
        self.globals: Dict[str, bytearray] = {}
        self.global_meta: Dict[str, "GenGlobal"] = {}
        self.global_ptrs: Dict[str, object] = {}
        for glob in program.globals:
            self.global_meta[glob.name] = glob
            if glob.kind in ("scalar", "array", "buffer"):
                self.globals[glob.name] = bytearray(glob.byte_size())
                glob.init_bytes(self.globals[glob.name])
            elif glob.kind == "string":
                self.global_ptrs[glob.name] = StrVal(glob.name)
            elif glob.kind == "fptr_table":
                self.global_ptrs[glob.name] = [
                    FnVal(n) for n in glob.fn_names]

    # -- memory ------------------------------------------------------

    def _mem(self, name: str) -> bytearray:
        return self.globals[name]

    def load(self, name: str, offset: int, ctype: str) -> int:
        width, signed = CTYPES[ctype]
        mem = self._mem(name)
        if offset < 0 or offset + width > len(mem):
            raise OracleError(
                f"oracle OOB load {name}+{offset} width {width}")
        raw = int.from_bytes(mem[offset:offset + width], "little")
        if signed and raw & (1 << (8 * width - 1)):
            raw -= 1 << (8 * width)
        return raw

    def store(self, name: str, offset: int, ctype: str,
              value: int) -> None:
        width, _ = CTYPES[ctype]
        mem = self._mem(name)
        if offset < 0 or offset + width > len(mem):
            raise OracleError(
                f"oracle OOB store {name}+{offset} width {width}")
        mem[offset:offset + width] = (u64(value) &
                                      ((1 << (8 * width)) - 1)
                                      ).to_bytes(width, "little")

    def string_byte(self, name: str, index: int) -> int:
        text = self.global_meta[name].text
        data = text.encode("ascii") + b"\x00"
        if index < 0 or index >= len(data):
            raise OracleError(f"oracle OOB string read {name}[{index}]")
        return data[index]

    # -- execution ---------------------------------------------------

    def burn(self, amount: int = 1) -> None:
        self.fuel -= amount
        if self.fuel <= 0:
            raise OracleError("oracle fuel exhausted")

    def call(self, name: str, args: Sequence[object]) -> int:
        self.burn(4)
        fn = self.funcs.get(name)
        if fn is None:
            raise OracleError(f"oracle call to unknown function {name}")
        return fn.invoke(self, args)

    def run(self) -> OracleResult:
        code = self.call("main", [])
        return OracleResult(bytes(self.out), int(code) & 0xFF)


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------

@dataclass
class Expr:
    """Base: every expression renders to TinyC and evaluates to a
    64-bit signed value (or an FnVal/StrVal for pointer shapes)."""

    def render(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def evaluate(self, oracle: Oracle, env: Env) -> object:
        raise NotImplementedError  # pragma: no cover - abstract

    def subexprs(self) -> List["Expr"]:
        return []

    def is_unsigned(self) -> bool:
        """Whether this expression's *static* C type is unsigned.

        The VM holds every value in a full 64-bit register; the static
        type only selects ``sar`` vs ``shr`` for ``>>`` and signed vs
        unsigned comparisons — exactly what the oracle needs to know.
        The propagation mirrors the typechecker: ``% << >> & | ^``
        take the left type verbatim, ``+ - * /`` take the left type
        after (float-only) unification, casts impose their target, and
        comparisons/logicals are ``int``.
        """
        return False


@dataclass
class Lit(Expr):
    value: int

    def render(self) -> str:
        if self.value < 0:
            return f"(-({-self.value}))"
        return str(self.value)

    def evaluate(self, oracle: Oracle, env: Env) -> int:
        oracle.burn()
        return self.value


@dataclass
class LocalRef(Expr):
    name: str
    ctype: str = "long"

    def render(self) -> str:
        return self.name

    def evaluate(self, oracle: Oracle, env: Env) -> object:
        oracle.burn()
        return env.load(self.name)

    def is_unsigned(self) -> bool:
        return self.ctype in CTYPES and not CTYPES[self.ctype][1]


@dataclass
class GlobalRef(Expr):
    name: str
    ctype: str

    def render(self) -> str:
        return self.name

    def evaluate(self, oracle: Oracle, env: Env) -> object:
        oracle.burn()
        if self.name in oracle.global_ptrs:
            return oracle.global_ptrs[self.name]
        return oracle.load(self.name, 0, self.ctype)

    def is_unsigned(self) -> bool:
        return self.ctype in CTYPES and not CTYPES[self.ctype][1]


@dataclass
class Index(Expr):
    """``name[(idx) & mask]`` over a global array of ``elem_ctype``."""

    name: str
    elem_ctype: str
    mask: int
    idx: Expr

    def render(self) -> str:
        return f"{self.name}[({self.idx.render()}) & {self.mask}]"

    def _offset(self, oracle: Oracle, env: Env) -> int:
        idx = u64(int(self.idx.evaluate(oracle, env))) & self.mask
        return idx * CTYPES[self.elem_ctype][0]

    def evaluate(self, oracle: Oracle, env: Env) -> int:
        oracle.burn()
        return oracle.load(self.name, self._offset(oracle, env),
                           self.elem_ctype)

    def subexprs(self) -> List[Expr]:
        return [self.idx]

    def is_unsigned(self) -> bool:
        return not CTYPES[self.elem_ctype][1]


@dataclass
class StrIndex(Expr):
    """``gs[(idx) & mask]`` — byte read from a string global."""

    name: str
    mask: int
    idx: Expr

    def render(self) -> str:
        return f"{self.name}[({self.idx.render()}) & {self.mask}]"

    def evaluate(self, oracle: Oracle, env: Env) -> int:
        oracle.burn()
        index = u64(int(self.idx.evaluate(oracle, env))) & self.mask
        return extend(oracle.string_byte(self.name, index), "char")

    def subexprs(self) -> List[Expr]:
        return [self.idx]


@dataclass
class MemAccess(Expr):
    """``*(T *)(buf + ((off) & mask))`` — possibly page-straddling,
    possibly unaligned load from a char buffer global."""

    buf: str
    ctype: str
    mask: int
    off: Expr

    def render(self) -> str:
        return (f"(*({self.ctype} *)({self.buf} + "
                f"(({self.off.render()}) & {self.mask})))")

    def offset(self, oracle: Oracle, env: Env) -> int:
        return u64(int(self.off.evaluate(oracle, env))) & self.mask

    def evaluate(self, oracle: Oracle, env: Env) -> int:
        oracle.burn()
        return oracle.load(self.buf, self.offset(oracle, env),
                           self.ctype)

    def subexprs(self) -> List[Expr]:
        return [self.off]

    def is_unsigned(self) -> bool:
        return not CTYPES[self.ctype][1]


_BIN_EVAL: Dict[str, Callable[[int, int], int]] = {
    "+": lambda a, b: wrap64(a + b),
    "-": lambda a, b: wrap64(a - b),
    "*": lambda a, b: wrap64(a * b),
    "&": lambda a, b: wrap64(u64(a) & u64(b)),
    "|": lambda a, b: wrap64(u64(a) | u64(b)),
    "^": lambda a, b: wrap64(u64(a) ^ u64(b)),
}


@dataclass
class Bin(Expr):
    op: str
    a: Expr
    b: Expr

    def render(self) -> str:
        return f"(({self.a.render()}) {self.op} ({self.b.render()}))"

    def evaluate(self, oracle: Oracle, env: Env) -> int:
        oracle.burn()
        left = int(self.a.evaluate(oracle, env))
        right = int(self.b.evaluate(oracle, env))
        return _BIN_EVAL[self.op](left, right)

    def subexprs(self) -> List[Expr]:
        return [self.a, self.b]

    def is_unsigned(self) -> bool:
        return self.a.is_unsigned()


@dataclass
class Shift(Expr):
    """``<<`` or ``>>``; ``unsigned`` selects shr over sar for ``>>``
    by casting the left operand. Counts are masked ``& 63`` (VM).
    An organically unsigned left operand also selects shr — the
    evaluator honors the static type either way."""

    op: str
    a: Expr
    b: Expr
    unsigned: bool = False

    def render(self) -> str:
        left = f"({self.a.render()})"
        if self.unsigned:
            left = f"((unsigned long){left})"
        return f"({left} {self.op} ({self.b.render()}))"

    def evaluate(self, oracle: Oracle, env: Env) -> int:
        oracle.burn()
        left = int(self.a.evaluate(oracle, env))
        count = u64(int(self.b.evaluate(oracle, env))) & 63
        if self.op == "<<":
            return wrap64(u64(left) << count)
        if self.unsigned or self.a.is_unsigned():
            return wrap64(u64(left) >> count)
        return wrap64(left >> count)

    def subexprs(self) -> List[Expr]:
        return [self.a, self.b]

    def is_unsigned(self) -> bool:
        return self.unsigned or self.a.is_unsigned()


@dataclass
class SafeDiv(Expr):
    """``/`` or ``%`` with an odd (hence nonzero) divisor."""

    op: str
    a: Expr
    b: Expr

    def render(self) -> str:
        return (f"(({self.a.render()}) {self.op} "
                f"(({self.b.render()}) | 1))")

    def evaluate(self, oracle: Oracle, env: Env) -> int:
        oracle.burn()
        left = int(self.a.evaluate(oracle, env))
        right = wrap64(u64(int(self.b.evaluate(oracle, env))) | 1)
        return _c_divide(left, right, self.op == "%")

    def subexprs(self) -> List[Expr]:
        return [self.a, self.b]

    def is_unsigned(self) -> bool:
        return self.a.is_unsigned()


@dataclass
class Cmp(Expr):
    op: str
    a: Expr
    b: Expr
    unsigned: bool = False

    def render(self) -> str:
        if self.unsigned:
            return (f"(((unsigned long)({self.a.render()})) {self.op} "
                    f"((unsigned long)({self.b.render()})))")
        return f"(({self.a.render()}) {self.op} ({self.b.render()}))"

    def evaluate(self, oracle: Oracle, env: Env) -> int:
        oracle.burn()
        left = int(self.a.evaluate(oracle, env))
        right = int(self.b.evaluate(oracle, env))
        effective = (self.unsigned or self.a.is_unsigned()
                     or self.b.is_unsigned())
        if effective and self.op in ("<", "<=", ">", ">="):
            left, right = u64(left), u64(right)
        ops: Dict[str, Callable[[int, int], bool]] = {
            "<": lambda x, y: x < y, "<=": lambda x, y: x <= y,
            ">": lambda x, y: x > y, ">=": lambda x, y: x >= y,
            "==": lambda x, y: x == y, "!=": lambda x, y: x != y,
        }
        return 1 if ops[self.op](left, right) else 0

    def subexprs(self) -> List[Expr]:
        return [self.a, self.b]


@dataclass
class Logical(Expr):
    """Short-circuit ``&&`` / ``||``; result is 0 or 1."""

    op: str
    a: Expr
    b: Expr

    def render(self) -> str:
        return f"(({self.a.render()}) {self.op} ({self.b.render()}))"

    def evaluate(self, oracle: Oracle, env: Env) -> int:
        oracle.burn()
        left = int(self.a.evaluate(oracle, env))
        if self.op == "&&":
            if left == 0:
                return 0
            return 1 if int(self.b.evaluate(oracle, env)) != 0 else 0
        if left != 0:
            return 1
        return 1 if int(self.b.evaluate(oracle, env)) != 0 else 0

    def subexprs(self) -> List[Expr]:
        return [self.a, self.b]


@dataclass
class Unary(Expr):
    op: str  # "-", "~", "!"
    a: Expr

    def render(self) -> str:
        return f"({self.op}({self.a.render()}))"

    def evaluate(self, oracle: Oracle, env: Env) -> int:
        oracle.burn()
        value = int(self.a.evaluate(oracle, env))
        if self.op == "-":
            return wrap64(-value)
        if self.op == "~":
            return wrap64(~value)
        return 1 if value == 0 else 0

    def subexprs(self) -> List[Expr]:
        return [self.a]

    def is_unsigned(self) -> bool:
        return self.op != "!" and self.a.is_unsigned()


@dataclass
class Ternary(Expr):
    cond: Expr
    a: Expr
    b: Expr

    def render(self) -> str:
        return (f"(({self.cond.render()}) ? ({self.a.render()}) "
                f": ({self.b.render()}))")

    def evaluate(self, oracle: Oracle, env: Env) -> int:
        oracle.burn()
        if int(self.cond.evaluate(oracle, env)) != 0:
            return int(self.a.evaluate(oracle, env))
        return int(self.b.evaluate(oracle, env))

    def subexprs(self) -> List[Expr]:
        return [self.cond, self.a, self.b]

    def is_unsigned(self) -> bool:
        return self.a.is_unsigned()


@dataclass
class CastExpr(Expr):
    """``(T)(E)`` for integer T: truncate then extend."""

    ctype: str
    a: Expr

    def render(self) -> str:
        return f"(({self.ctype})({self.a.render()}))"

    def evaluate(self, oracle: Oracle, env: Env) -> int:
        oracle.burn()
        return extend(int(self.a.evaluate(oracle, env)), self.ctype)

    def subexprs(self) -> List[Expr]:
        return [self.a]

    def is_unsigned(self) -> bool:
        return not CTYPES[self.ctype][1]


@dataclass
class FnAddr(Expr):
    """``(long)fname`` — a code address as an opaque nonzero value.

    The oracle never knows the numeric address, so FnAddr values only
    appear inside :class:`FnPredicate`, which reduces them to facts
    that are layout-independent (nonzero-ness, same-function equality).
    """

    fname: str

    def render(self) -> str:
        return f"((long){self.fname})"

    def evaluate(self, oracle: Oracle, env: Env) -> FnVal:
        oracle.burn()
        return FnVal(self.fname)


@dataclass
class FnPredicate(Expr):
    """Layout-independent predicate over one or two code addresses:
    ``((long)f != 0)`` or ``((long)f == (long)g)``."""

    op: str  # "!=0" | "==" | "!="
    a: FnAddr
    b: Optional[FnAddr] = None

    def render(self) -> str:
        if self.op == "!=0":
            return f"({self.a.render()} != 0)"
        return f"({self.a.render()} {self.op} {self.b.render()})"

    def evaluate(self, oracle: Oracle, env: Env) -> int:
        oracle.burn()
        if self.op == "!=0":
            return 1
        same = self.a.fname == self.b.fname
        return int(same if self.op == "==" else not same)


@dataclass
class Call(Expr):
    """Direct call ``fname(args...)``."""

    fname: str
    args: List[Expr] = field(default_factory=list)

    def render(self) -> str:
        rendered = ", ".join(a.render() for a in self.args)
        return f"{self.fname}({rendered})"

    def evaluate(self, oracle: Oracle, env: Env) -> int:
        values = [a.evaluate(oracle, env) for a in self.args]
        return oracle.call(self.fname, values)

    def subexprs(self) -> List[Expr]:
        return list(self.args)


@dataclass
class TableCall(Expr):
    """Indirect call through a global fn-ptr table:
    ``tab[(idx) & mask](args...)`` — the MCFI-checked edge."""

    table: str
    mask: int
    idx: Expr
    args: List[Expr] = field(default_factory=list)

    def render(self) -> str:
        rendered = ", ".join(a.render() for a in self.args)
        return (f"{self.table}[({self.idx.render()}) & {self.mask}]"
                f"({rendered})")

    def evaluate(self, oracle: Oracle, env: Env) -> int:
        index = u64(int(self.idx.evaluate(oracle, env))) & self.mask
        table = oracle.global_ptrs[self.table]
        target = table[index]
        values = [a.evaluate(oracle, env) for a in self.args]
        return oracle.call(target.name, values)

    def subexprs(self) -> List[Expr]:
        return [self.idx] + list(self.args)


@dataclass
class PtrParamCall(Expr):
    """Call through a fn-ptr *parameter*: ``f(args...)`` where ``f``
    is a pointer-typed local bound at the call site (cast chains that
    stay signature-compatible)."""

    pname: str
    args: List[Expr] = field(default_factory=list)

    def render(self) -> str:
        rendered = ", ".join(a.render() for a in self.args)
        return f"{self.pname}({rendered})"

    def evaluate(self, oracle: Oracle, env: Env) -> int:
        target = env.load(self.pname)
        if not isinstance(target, FnVal):
            raise OracleError(f"{self.pname} is not a function value")
        values = [a.evaluate(oracle, env) for a in self.args]
        return oracle.call(target.name, values)

    def subexprs(self) -> List[Expr]:
        return list(self.args)


@dataclass
class FnName(Expr):
    """A bare function designator (argument to a fn-ptr parameter)."""

    fname: str

    def render(self) -> str:
        return self.fname

    def evaluate(self, oracle: Oracle, env: Env) -> FnVal:
        oracle.burn()
        return FnVal(self.fname)


# ---------------------------------------------------------------------------
# Statement nodes
# ---------------------------------------------------------------------------

@dataclass
class Stmt:
    def render(self, indent: int) -> List[str]:  # pragma: no cover
        raise NotImplementedError

    def execute(self, oracle: Oracle, env: Env) -> None:
        raise NotImplementedError  # pragma: no cover

    def blocks(self) -> List[List["Stmt"]]:
        """Nested statement lists, for the minimizer."""
        return []


def _render_block(stmts: Sequence[Stmt], indent: int) -> List[str]:
    lines: List[str] = []
    for stmt in stmts:
        lines.extend(stmt.render(indent))
    return lines


def _exec_block(stmts: Sequence[Stmt], oracle: Oracle,
                env: Env) -> None:
    for stmt in stmts:
        stmt.execute(oracle, env)


@dataclass
class DeclStmt(Stmt):
    name: str
    ctype: str
    init: Expr

    def render(self, indent: int) -> List[str]:
        pad = "    " * indent
        return [f"{pad}{self.ctype} {self.name} = "
                f"{self.init.render()};"]

    def execute(self, oracle: Oracle, env: Env) -> None:
        oracle.burn()
        env.declare(self.name, self.ctype,
                    self.init.evaluate(oracle, env))


@dataclass
class AssignStmt(Stmt):
    """Assignment (simple or compound) to a local, global scalar,
    array element, or buffer byte range."""

    target: Expr  # LocalRef | GlobalRef | Index | MemAccess
    op: str       # "=", "+=", "-=", "^=", "&=", "|="
    value: Expr

    def render(self, indent: int) -> List[str]:
        pad = "    " * indent
        return [f"{pad}{self.target.render()} {self.op} "
                f"{self.value.render()};"]

    def execute(self, oracle: Oracle, env: Env) -> None:
        oracle.burn()
        target = self.target
        if isinstance(target, LocalRef):
            if self.op == "=":
                env.assign(target.name,
                           self.value.evaluate(oracle, env))
            else:
                old = int(env.load(target.name))
                rhs = int(self.value.evaluate(oracle, env))
                env.assign(target.name, self._combine(old, rhs))
            return
        if isinstance(target, GlobalRef):
            ctype = target.ctype
            if self.op == "=":
                new = int(self.value.evaluate(oracle, env))
            else:
                old = oracle.load(target.name, 0, ctype)
                new = self._combine(
                    old, int(self.value.evaluate(oracle, env)))
            oracle.store(target.name, 0, ctype, new)
            return
        if isinstance(target, Index):
            offset = target._offset(oracle, env)
            ctype = target.elem_ctype
            if self.op == "=":
                new = int(self.value.evaluate(oracle, env))
            else:
                old = oracle.load(target.name, offset, ctype)
                new = self._combine(
                    old, int(self.value.evaluate(oracle, env)))
            oracle.store(target.name, offset, ctype, new)
            return
        if isinstance(target, MemAccess):
            offset = target.offset(oracle, env)
            ctype = target.ctype
            if self.op == "=":
                new = int(self.value.evaluate(oracle, env))
            else:
                old = oracle.load(target.buf, offset, ctype)
                new = self._combine(
                    old, int(self.value.evaluate(oracle, env)))
            oracle.store(target.buf, offset, ctype, new)
            return
        raise OracleError(f"unsupported assign target {target!r}")

    def _combine(self, old: int, rhs: int) -> int:
        op = self.op[0]
        if op in _BIN_EVAL:
            return _BIN_EVAL[op](old, rhs)
        raise OracleError(f"unsupported compound op {self.op}")


@dataclass
class ExprStmt(Stmt):
    expr: Expr

    def render(self, indent: int) -> List[str]:
        pad = "    " * indent
        return [f"{pad}{self.expr.render()};"]

    def execute(self, oracle: Oracle, env: Env) -> None:
        oracle.burn()
        self.expr.evaluate(oracle, env)


@dataclass
class IfStmt(Stmt):
    cond: Expr
    then: List[Stmt]
    els: Optional[List[Stmt]] = None

    def render(self, indent: int) -> List[str]:
        pad = "    " * indent
        lines = [f"{pad}if ({self.cond.render()}) {{"]
        lines.extend(_render_block(self.then, indent + 1))
        if self.els is not None:
            lines.append(f"{pad}}} else {{")
            lines.extend(_render_block(self.els, indent + 1))
        lines.append(f"{pad}}}")
        return lines

    def execute(self, oracle: Oracle, env: Env) -> None:
        oracle.burn()
        if int(self.cond.evaluate(oracle, env)) != 0:
            _exec_block(self.then, oracle, env)
        elif self.els is not None:
            _exec_block(self.els, oracle, env)

    def blocks(self) -> List[List[Stmt]]:
        out = [self.then]
        if self.els is not None:
            out.append(self.els)
        return out


@dataclass
class ForStmt(Stmt):
    """``for (v = 0; v < count; v = v + 1)`` over a pre-declared
    counter the body never writes — guaranteed termination."""

    var: str
    count: int
    body: List[Stmt]

    def render(self, indent: int) -> List[str]:
        pad = "    " * indent
        lines = [f"{pad}for ({self.var} = 0; {self.var} < "
                 f"{self.count}; {self.var} = {self.var} + 1) {{"]
        lines.extend(_render_block(self.body, indent + 1))
        lines.append(f"{pad}}}")
        return lines

    def execute(self, oracle: Oracle, env: Env) -> None:
        env.assign(self.var, 0)
        while int(env.load(self.var)) < self.count:
            oracle.burn()
            try:
                _exec_block(self.body, oracle, env)
            except _Break:
                break
            except _Continue:
                pass
            env.assign(self.var, int(env.load(self.var)) + 1)

    def blocks(self) -> List[List[Stmt]]:
        return [self.body]


@dataclass
class WhileStmt(Stmt):
    """``while (v > 0) { v = v - 1; body }`` — counter pre-declared,
    decremented first so ``continue`` cannot loop forever."""

    var: str
    count: int
    body: List[Stmt]
    do_while: bool = False

    def render(self, indent: int) -> List[str]:
        pad = "    " * indent
        inner = "    " * (indent + 1)
        if self.do_while:
            lines = [f"{pad}{self.var} = {self.count};",
                     f"{pad}do {{",
                     f"{inner}{self.var} = {self.var} - 1;"]
            lines.extend(_render_block(self.body, indent + 1))
            lines.append(f"{pad}}} while ({self.var} > 0);")
            return lines
        lines = [f"{pad}{self.var} = {self.count};",
                 f"{pad}while ({self.var} > 0) {{",
                 f"{inner}{self.var} = {self.var} - 1;"]
        lines.extend(_render_block(self.body, indent + 1))
        lines.append(f"{pad}}}")
        return lines

    def execute(self, oracle: Oracle, env: Env) -> None:
        env.assign(self.var, self.count)
        first = True
        while True:
            count = int(env.load(self.var))
            if self.do_while and first:
                first = False
            elif count <= 0:
                break
            oracle.burn()
            env.assign(self.var, count - 1)
            try:
                _exec_block(self.body, oracle, env)
            except _Break:
                break
            except _Continue:
                continue
            if self.do_while and int(env.load(self.var)) <= 0:
                break

    def blocks(self) -> List[List[Stmt]]:
        return [self.body]


@dataclass
class BreakStmt(Stmt):
    def render(self, indent: int) -> List[str]:
        return ["    " * indent + "break;"]

    def execute(self, oracle: Oracle, env: Env) -> None:
        oracle.burn()
        raise _Break()


@dataclass
class ContinueStmt(Stmt):
    def render(self, indent: int) -> List[str]:
        return ["    " * indent + "continue;"]

    def execute(self, oracle: Oracle, env: Env) -> None:
        oracle.burn()
        raise _Continue()


@dataclass
class SwitchCase:
    value: int
    body: List[Stmt]
    falls_through: bool = False


@dataclass
class SwitchStmt(Stmt):
    """``switch ((scrut) & mask)`` with optional fallthrough runs and
    an optional default. Dense value sets trigger the jump-table
    lowering (an MCFI-checked indirect jump); sparse sets take the
    compare chain. ``break``/``continue`` never appear inside case
    bodies (only the structural case-terminating ``break``)."""

    scrut: Expr
    mask: int
    cases: List[SwitchCase]
    default: Optional[List[Stmt]] = None

    def render(self, indent: int) -> List[str]:
        pad = "    " * indent
        inner = "    " * (indent + 1)
        lines = [f"{pad}switch (({self.scrut.render()}) & "
                 f"{self.mask}) {{"]
        for case in self.cases:
            lines.append(f"{pad}case {case.value}:")
            lines.extend(_render_block(case.body, indent + 1))
            if not case.falls_through:
                lines.append(f"{inner}break;")
        if self.default is not None:
            lines.append(f"{pad}default:")
            lines.extend(_render_block(self.default, indent + 1))
            lines.append(f"{inner}break;")
        lines.append(f"{pad}}}")
        return lines

    def execute(self, oracle: Oracle, env: Env) -> None:
        oracle.burn()
        scrut = u64(int(self.scrut.evaluate(oracle, env))) & self.mask
        start = None
        for i, case in enumerate(self.cases):
            if case.value == scrut:
                start = i
                break
        if start is None:
            if self.default is not None:
                _exec_block(self.default, oracle, env)
            return
        for case in self.cases[start:]:
            _exec_block(case.body, oracle, env)
            if not case.falls_through:
                return
        if self.default is not None:
            _exec_block(self.default, oracle, env)

    def blocks(self) -> List[List[Stmt]]:
        out = [case.body for case in self.cases]
        if self.default is not None:
            out.append(self.default)
        return out


@dataclass
class ReturnStmt(Stmt):
    value: Expr

    def render(self, indent: int) -> List[str]:
        return ["    " * indent + f"return {self.value.render()};"]

    def execute(self, oracle: Oracle, env: Env) -> None:
        oracle.burn()
        raise _Return(int(self.value.evaluate(oracle, env)))


@dataclass
class PrintIntStmt(Stmt):
    value: Expr

    def render(self, indent: int) -> List[str]:
        pad = "    " * indent
        return [f"{pad}print_int({self.value.render()}); "
                f"print_char(10);"]

    def execute(self, oracle: Oracle, env: Env) -> None:
        oracle.burn()
        value = int(self.value.evaluate(oracle, env))
        oracle.out.extend(format_print_int(value))
        oracle.out.append(10)


@dataclass
class PrintStrStmt(Stmt):
    gname: str

    def render(self, indent: int) -> List[str]:
        pad = "    " * indent
        return [f"{pad}print_str({self.gname}); print_char(10);"]

    def execute(self, oracle: Oracle, env: Env) -> None:
        oracle.burn()
        text = oracle.global_meta[self.gname].text
        oracle.out.extend(text.encode("ascii"))
        oracle.out.append(10)


# ---------------------------------------------------------------------------
# Globals
# ---------------------------------------------------------------------------

@dataclass
class GenGlobal:
    """One global definition.

    kind ∈ {scalar, array, buffer, string, fptr_table}:

    * scalar: ``<ctype> name = <const>;``
    * array: ``<ctype> name[length] = {..};`` (length a power of two)
    * buffer: ``char name[size];`` (zero, page-straddling playground)
    * string: ``char *name = "text";`` (len(text) a power of two)
    * fptr_table: ``long (*name[k])(long, long) = {f, g, ...};``
    """

    name: str
    kind: str
    ctype: str = "long"
    length: int = 0
    init: Tuple[int, ...] = ()
    text: str = ""
    fn_names: Tuple[str, ...] = ()

    def byte_size(self) -> int:
        if self.kind == "scalar":
            return CTYPES[self.ctype][0]
        if self.kind == "array":
            return self.length * CTYPES[self.ctype][0]
        if self.kind == "buffer":
            return self.length
        raise OracleError(f"{self.name}: no byte image")

    def init_bytes(self, mem: bytearray) -> None:
        if self.kind == "scalar":
            width = CTYPES[self.ctype][0]
            value = self.init[0] if self.init else 0
            mem[0:width] = (u64(value) & ((1 << (8 * width)) - 1)
                            ).to_bytes(width, "little")
        elif self.kind == "array":
            width = CTYPES[self.ctype][0]
            for i, value in enumerate(self.init):
                mem[i * width:(i + 1) * width] = (
                    u64(value) & ((1 << (8 * width)) - 1)
                ).to_bytes(width, "little")

    def render(self) -> List[str]:
        if self.kind == "scalar":
            value = self.init[0] if self.init else 0
            lit = str(value) if value >= 0 else f"(-({-value}))"
            return [f"{self.ctype} {self.name} = {lit};"]
        if self.kind == "array":
            items = ", ".join(
                str(v) if v >= 0 else f"(-({-v}))" for v in self.init)
            return [f"{self.ctype} {self.name}[{self.length}] = "
                    f"{{{items}}};"]
        if self.kind == "buffer":
            return [f"char {self.name}[{self.length}];"]
        if self.kind == "string":
            return [f'char *{self.name} = "{self.text}";']
        if self.kind == "fptr_table":
            names = ", ".join(self.fn_names)
            return [f"long (*{self.name}[{len(self.fn_names)}])"
                    f"(long, long) = {{{names}}};"]
        raise OracleError(f"unknown global kind {self.kind}")


# ---------------------------------------------------------------------------
# Functions
# ---------------------------------------------------------------------------

@dataclass
class GenFunc:
    """``long name(params...) { locals; body }``.

    ``ptr_params`` marks parameters typed ``long (*)(long, long)``;
    ``variadic`` appends ``...`` to the parameter list (extra
    arguments are evaluated by callers and ignored by the body, which
    only ever touches the named parameters)."""

    name: str
    params: List[str] = field(default_factory=list)
    ptr_params: List[str] = field(default_factory=list)
    locals_: List[Tuple[str, str]] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)
    variadic: bool = False
    ret_type: str = "long"
    #: recursive shapes are called with bounded literal depths only;
    #: they never enter fn-ptr tables or pointer-parameter pools
    #: (an attacker-controlled 64-bit argument would unbound them)
    recursive: bool = False

    def signature(self) -> str:
        parts = [f"long {p}" for p in self.params]
        parts += [f"long (*{p})(long, long)" for p in self.ptr_params]
        if self.variadic:
            parts.append("...")
        rendered = ", ".join(parts) if parts else "void"
        return f"{self.ret_type} {self.name}({rendered})"

    def render(self) -> List[str]:
        lines = [f"{self.signature()} {{"]
        for name, ctype in self.locals_:
            lines.append(f"    {ctype} {name} = 0;")
        lines.extend(_render_block(self.body, 1))
        lines.append("    return 0;")
        lines.append("}")
        return lines

    def invoke(self, oracle: Oracle, args: Sequence[object]) -> int:
        env = Env()
        names = self.params + self.ptr_params
        for name, value in zip(names, args):
            if name in self.ptr_params:
                env.declare(name, "fnptr", value)
            else:
                env.declare(name, "long", int(value))
        for name, ctype in self.locals_:
            env.declare(name, ctype, 0)
        try:
            _exec_block(self.body, oracle, env)
        except _Return as ret:
            return ret.value
        return 0


@dataclass
class SetjmpFunc(GenFunc):
    """The fixed setjmp/longjmp template (semantics known exactly):

    .. code-block:: c

        long name(long a) {
            long t = 0;
            long r = setjmp(jb);
            t = t + r * 10 + (<step> evaluated this iteration);
            if (r < K) { longjmp(jb, r + 1); }
            return t;
        }

    Locals live in stack slots, so ``t`` accumulates across the K+1
    passes. ``step`` is pure in ``a`` and globals (which the template
    never writes), so the oracle evaluates it once per pass.
    """

    jb_name: str = "jb"
    hops: int = 2
    step: Expr = field(default_factory=lambda: Lit(1))

    def render(self) -> List[str]:
        return [
            f"long {self.name}(long a) {{",
            "    long t = 0;",
            "    long r = 0;",
            f"    r = setjmp({self.jb_name});",
            f"    t = t + r * 10 + ({self.step.render()});",
            f"    if (r < {self.hops}) {{ "
            f"longjmp({self.jb_name}, r + 1); }}",
            "    return t;",
            "}",
        ]

    def invoke(self, oracle: Oracle, args: Sequence[object]) -> int:
        env = Env()
        env.declare("a", "long", int(args[0]) if args else 0)
        total = 0
        for hop in range(self.hops + 1):
            oracle.burn(4)
            step = int(self.step.evaluate(oracle, env))
            total = wrap64(total + wrap64(hop * 10) + step)
        return total


# ---------------------------------------------------------------------------
# Program container
# ---------------------------------------------------------------------------

@dataclass
class GenConfig:
    """Grammar knobs. All sizes are upper bounds; the rng picks
    within them. Every knob is honored deterministically for a given
    seed, so (seed, config) identifies a program byte-for-byte."""

    n_leaf: int = 4           #: pure arithmetic helpers
    n_mid: int = 3            #: helpers with loops/switch/global writes
    max_stmts: int = 5        #: statements per generated block
    max_depth: int = 3        #: expression tree depth
    max_block_depth: int = 2  #: nested control-flow depth
    loop_max: int = 6         #: max trip count per loop
    main_actions: int = 8     #: print/call statements in main
    fuel: int = 400_000       #: oracle evaluation budget

    fptr: bool = True         #: fn-ptr tables + indirect calls
    ptr_param: bool = True    #: fn-ptr parameters (compatible chains)
    fn_casts: bool = True     #: incompatible cast chains (never called)
    variadic: bool = True     #: variadic definitions + calls
    recursion: bool = True    #: self/mutual recursion, tail shapes
    setjmp: bool = True       #: the setjmp/longjmp template
    straddle: bool = True     #: unaligned page-straddling buffer ops
    strings: bool = True      #: string globals, print_str, byte reads
    switch: bool = True       #: dense + sparse switch statements
    narrow: bool = True       #: narrow-typed locals/globals/casts

    @classmethod
    def quick(cls) -> "GenConfig":
        return cls(n_leaf=3, n_mid=2, max_stmts=4, max_depth=2,
                   loop_max=4, main_actions=6)


@dataclass
class GenProgram:
    seed: int
    config: GenConfig
    globals: List[GenGlobal]
    funcs: List[GenFunc]

    _source: Optional[str] = None

    @property
    def name(self) -> str:
        return f"gen{self.seed}"

    def render(self) -> str:
        if self._source is None:
            lines: List[str] = [
                f"/* generated: seed={self.seed} */",
            ]
            for glob in self.globals:
                lines.extend(glob.render())
            lines.append("")
            for fn in self.funcs:
                lines.extend(fn.render())
                lines.append("")
            self._source = "\n".join(lines).rstrip() + "\n"
        return self._source

    @property
    def source(self) -> str:
        return self.render()

    def line_count(self) -> int:
        return len(self.source.splitlines())

    def evaluate(self) -> OracleResult:
        return Oracle(self, fuel=self.config.fuel).run()

    def edit_variant(self) -> "GenProgram":
        """A single-edit sibling for the incremental-rebuild axis: the
        first non-main function gets ``^ 0`` appended to its returns,
        changing that unit's MIR while keeping behaviour identical."""
        import copy
        other = copy.deepcopy(self)
        other._source = None
        for fn in other.funcs:
            if fn.name == "main" or isinstance(fn, SetjmpFunc):
                continue
            edited = False
            for stmt in _walk_stmts(fn.body):
                if isinstance(stmt, ReturnStmt):
                    stmt.value = Bin("^", stmt.value, Lit(0))
                    edited = True
            if edited:
                return other
        # no candidate: edit main's first print instead
        for stmt in _walk_stmts(other.funcs[-1].body):
            if isinstance(stmt, (PrintIntStmt, ReturnStmt)):
                stmt.value = Bin("^", stmt.value, Lit(0))
                return other
        return other

    def invalidate(self) -> None:
        """Drop the render cache (after structural mutation)."""
        self._source = None


def _walk_stmts(stmts: Sequence[Stmt]):
    for stmt in stmts:
        yield stmt
        for block in stmt.blocks():
            yield from _walk_stmts(block)


# ---------------------------------------------------------------------------
# The generator proper
# ---------------------------------------------------------------------------

class _Gen:
    """One seeded generation run. All randomness flows through one
    ``random.Random(seed)`` so equal seeds give equal programs."""

    def __init__(self, seed: int, config: GenConfig):
        self.rng = random.Random(seed)
        self.seed = seed
        self.cfg = config
        self.globals: List[GenGlobal] = []
        self.funcs: List[GenFunc] = []
        self.scalars: List[GenGlobal] = []
        self.arrays: List[GenGlobal] = []
        self.strings: List[GenGlobal] = []
        self.buffer: Optional[GenGlobal] = None
        self.tables: List[GenGlobal] = []
        self._uid = 0

    # -- small helpers -----------------------------------------------

    def uid(self, prefix: str) -> str:
        self._uid += 1
        return f"{prefix}{self._uid}"

    def lit(self) -> Lit:
        r = self.rng
        kind = r.randrange(5)
        if kind == 0:
            return Lit(r.randrange(0, 16))
        if kind == 1:
            return Lit(r.randrange(0, 256))
        if kind == 2:
            return Lit(r.choice([1, 2, 3, 5, 7, 10, 63, 64, 100,
                                 255, 256, 4095, 65535]))
        if kind == 3:
            return Lit(r.randrange(0, 1 << 31))
        return Lit(r.randrange(0, 1 << 15))

    # -- expressions -------------------------------------------------

    def expr(self, depth: int, scope: List[Tuple[str, str]],
             pure: bool, callees: List[GenFunc]) -> Expr:
        """A value expression. ``scope`` is [(name, ctype)] of
        readable locals; ``pure`` forbids calls (evaluation-order and
        side-effect freedom for index/divisor positions)."""
        r = self.rng
        if depth <= 0:
            return self.leaf_expr(scope)
        choices: List[str] = ["bin", "bin", "shift", "cmp", "unary",
                              "ternary", "leaf", "logic"]
        if self.cfg.narrow:
            choices.append("cast")
        choices.append("div")
        if self.arrays:
            choices.append("index")
        if self.strings and self.cfg.strings:
            choices.append("strindex")
        if self.buffer is not None and self.cfg.straddle:
            choices.append("mem")
        if not pure and callees:
            choices += ["call", "call"]
        if not pure and self.tables and self.cfg.fptr:
            choices.append("tablecall")
        kind = r.choice(choices)
        sub = depth - 1
        if kind == "leaf":
            return self.leaf_expr(scope)
        if kind == "bin":
            op = r.choice(["+", "-", "*", "&", "|", "^"])
            return Bin(op, self.expr(sub, scope, pure, callees),
                       self.expr(sub, scope, pure, callees))
        if kind == "shift":
            op = r.choice(["<<", ">>"])
            unsigned = op == ">>" and r.random() < 0.4
            return Shift(op, self.expr(sub, scope, pure, callees),
                         self.expr(sub, scope, pure, callees),
                         unsigned)
        if kind == "div":
            return SafeDiv(r.choice(["/", "%"]),
                           self.expr(sub, scope, pure, callees),
                           self.expr(sub, scope, True, []))
        if kind == "cmp":
            return Cmp(r.choice(["<", "<=", ">", ">=", "==", "!="]),
                       self.expr(sub, scope, pure, callees),
                       self.expr(sub, scope, pure, callees),
                       unsigned=r.random() < 0.3)
        if kind == "logic":
            return Logical(r.choice(["&&", "||"]),
                           self.expr(sub, scope, pure, callees),
                           self.expr(sub, scope, pure, callees))
        if kind == "unary":
            return Unary(r.choice(["-", "~", "!"]),
                         self.expr(sub, scope, pure, callees))
        if kind == "ternary":
            return Ternary(self.expr(sub, scope, pure, callees),
                           self.expr(sub, scope, pure, callees),
                           self.expr(sub, scope, pure, callees))
        if kind == "cast":
            chain = self.expr(sub, scope, pure, callees)
            for _ in range(r.randrange(1, 3)):
                chain = CastExpr(r.choice(NARROW_TYPES), chain)
            return chain
        if kind == "index":
            arr = r.choice(self.arrays)
            return Index(arr.name, arr.ctype, arr.length - 1,
                         self.expr(sub, scope, True, []))
        if kind == "strindex":
            gs = r.choice(self.strings)
            return StrIndex(gs.name, len(gs.text) - 1,
                            self.expr(sub, scope, True, []))
        if kind == "mem":
            return MemAccess(self.buffer.name,
                             r.choice(["long", "int", "short",
                                       "char"]),
                             self.buffer.length - 65,
                             self.expr(sub, scope, True, []))
        if kind == "call":
            fn = r.choice(callees)
            return self.call_to(fn, sub, scope, callees)
        if kind == "tablecall":
            table = r.choice(self.tables)
            return TableCall(
                table.name, len(table.fn_names) - 1,
                self.expr(sub, scope, True, []),
                [self.expr(sub, scope, pure, callees)
                 for _ in range(2)])
        raise AssertionError(kind)

    def leaf_expr(self, scope: List[Tuple[str, str]]) -> Expr:
        r = self.rng
        pool: List[Expr] = [self.lit()]
        if scope:
            name, ctype = r.choice(scope)
            pool.append(LocalRef(name, ctype))
            name, ctype = r.choice(scope)
            pool.append(LocalRef(name, ctype))
        if self.scalars:
            g = r.choice(self.scalars)
            pool.append(GlobalRef(g.name, g.ctype))
        return r.choice(pool)

    def call_to(self, fn: GenFunc, depth: int,
                scope: List[Tuple[str, str]],
                callees: List[GenFunc]) -> Expr:
        r = self.rng
        args: List[Expr] = [
            self.expr(depth, scope, False,
                      [c for c in callees if c is not fn])
            for _ in fn.params]
        for _ in fn.ptr_params:
            pair = [f for f in self.funcs
                    if len(f.params) == 2 and not f.ptr_params
                    and not f.variadic and not f.recursive
                    and not isinstance(f, SetjmpFunc)]
            if not pair:
                raise AssertionError(
                    "no long(*)(long,long) candidates — the first "
                    "leaf is always binary, this cannot happen")
            args.append(FnName(r.choice(pair).name))
        if fn.variadic:
            for _ in range(r.randrange(1, 4)):
                args.append(self.expr(0, scope, True, []))
        return Call(fn.name, args)

    # -- statements --------------------------------------------------

    def block(self, depth: int, scope: List[Tuple[str, str]],
              counters: List[str], callees: List[GenFunc],
              acc: str) -> List[Stmt]:
        r = self.rng
        stmts: List[Stmt] = []
        for _ in range(r.randrange(1, self.cfg.max_stmts + 1)):
            stmts.append(self.stmt(depth, scope, counters, callees,
                                   acc))
        return stmts

    def stmt(self, depth: int, scope: List[Tuple[str, str]],
             counters: List[str], callees: List[GenFunc],
             acc: str) -> Stmt:
        r = self.rng
        choices = ["assign", "assign", "accum"]
        if depth > 0:
            choices += ["if", "if"]
            if counters:
                choices += ["for", "while"]
            if self.cfg.switch:
                choices.append("switch")
        if self.arrays:
            choices.append("storearr")
        if self.buffer is not None and self.cfg.straddle:
            choices.append("storemem")
        kind = r.choice(choices)
        edepth = r.randrange(1, self.cfg.max_depth + 1)
        if kind == "assign":
            if self.scalars and r.random() < 0.4:
                g = r.choice(self.scalars)
                target: Expr = GlobalRef(g.name, g.ctype)
            else:
                target = LocalRef(acc)
            op = r.choice(["=", "+=", "-=", "^=", "|=", "&="])
            return AssignStmt(target, op,
                              self.expr(edepth, scope, False,
                                        callees))
        if kind == "accum":
            return AssignStmt(LocalRef(acc),
                              r.choice(["+=", "^="]),
                              self.expr(edepth, scope, False,
                                        callees))
        if kind == "storearr":
            arr = r.choice(self.arrays)
            target = Index(arr.name, arr.ctype, arr.length - 1,
                           self.expr(1, scope, True, []))
            return AssignStmt(target,
                              r.choice(["=", "+=", "^="]),
                              self.expr(edepth, scope, False,
                                        callees))
        if kind == "storemem":
            target = MemAccess(self.buffer.name,
                               r.choice(["long", "int", "short",
                                         "char"]),
                               self.buffer.length - 65,
                               self.expr(1, scope, True, []))
            return AssignStmt(target,
                              r.choice(["=", "+="]),
                              self.expr(edepth, scope, False,
                                        callees))
        if kind == "if":
            cond = self.expr(edepth, scope, False, callees)
            then = self.block(depth - 1, scope, counters, callees,
                              acc)
            els = None
            if r.random() < 0.5:
                els = self.block(depth - 1, scope, counters,
                                 callees, acc)
            return IfStmt(cond, then, els)
        if kind in ("for", "while"):
            var = counters[r.randrange(len(counters))]
            inner_counters = [c for c in counters if c != var]
            body = self.block(depth - 1, scope, inner_counters,
                              callees, acc)
            if r.random() < 0.25:
                guard = self.expr(1, scope, True, [])
                tail = r.choice([BreakStmt(), ContinueStmt()])
                body.append(IfStmt(Cmp("==", Bin("&", guard,
                                                 Lit(3)),
                                       Lit(0)), [tail]))
            count = r.randrange(1, self.cfg.loop_max + 1)
            if kind == "for":
                return ForStmt(var, count, body)
            return WhileStmt(var, count, body,
                             do_while=r.random() < 0.4)
        if kind == "switch":
            mask = r.choice([3, 7])
            values = list(range(mask + 1))
            if r.random() < 0.4:       # sparse: compare-chain path
                values = sorted(r.sample(
                    [v * 13 for v in range(mask + 1)],
                    min(3, mask + 1)))
                mask = 127
            cases = []
            for value in values:
                body = [self.stmt(0, scope, [], callees, acc)]
                falls = r.random() < 0.3
                cases.append(SwitchCase(value, body, falls))
            if cases:
                cases[-1].falls_through = False
            default = None
            if r.random() < 0.6:
                default = [self.stmt(0, scope, [], callees, acc)]
            return SwitchStmt(self.expr(edepth, scope, False,
                                        callees),
                              mask, cases, default)
        raise AssertionError(kind)

    # -- globals -----------------------------------------------------

    def make_globals(self) -> None:
        r = self.rng
        for i in range(r.randrange(2, 5)):
            ctype = "long"
            if self.cfg.narrow and r.random() < 0.4:
                ctype = r.choice(NARROW_TYPES)
            value = r.randrange(-(1 << 30), 1 << 30)
            glob = GenGlobal(self.uid("g"), "scalar", ctype=ctype,
                             init=(value,))
            self.globals.append(glob)
            self.scalars.append(glob)
        for i in range(r.randrange(1, 3)):
            ctype = r.choice(["long", "int"])
            length = r.choice([8, 16])
            init = tuple(r.randrange(-1000, 1000)
                         for _ in range(length))
            glob = GenGlobal(self.uid("arr"), "array", ctype=ctype,
                             length=length, init=init)
            self.globals.append(glob)
            self.arrays.append(glob)
        if self.cfg.straddle:
            self.buffer = GenGlobal("buf", "buffer", length=4160)
            self.globals.append(self.buffer)
        if self.cfg.strings:
            alphabet = ("abcdefghijklmnopqrstuvwxyz"
                        "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_ ")
            for i in range(r.randrange(1, 3)):
                length = r.choice([8, 16])
                text = "".join(r.choice(alphabet)
                               for _ in range(length))
                glob = GenGlobal(self.uid("gs"), "string", text=text)
                self.globals.append(glob)
                self.strings.append(glob)

    # -- functions ---------------------------------------------------

    def make_leaf(self, force_two_params: bool = False) -> GenFunc:
        r = self.rng
        name = self.uid("leaf")
        # the first leaf always takes (a, b): fn-ptr tables and
        # pointer parameters are typed long(*)(long, long), so the
        # candidate pool must never be empty
        params = ["a", "b"][:2 if force_two_params
                            else r.randrange(1, 3)]
        fn = GenFunc(name, params=list(params))
        scope = [(p, "long") for p in fn.params]
        acc = "acc"
        fn.locals_.append((acc, "long"))
        scope.append((acc, "long"))
        if self.cfg.narrow and r.random() < 0.5:
            narrow = self.uid("n")
            fn.locals_.append((narrow, r.choice(NARROW_TYPES)))
            scope.append((narrow, fn.locals_[-1][1]))
        for _ in range(r.randrange(1, 4)):
            target = r.choice(scope[len(fn.params):])
            fn.body.append(AssignStmt(
                LocalRef(target[0]), r.choice(["=", "+=", "^="]),
                self.expr(r.randrange(1, self.cfg.max_depth + 1),
                          scope, True, [])))
        fn.body.append(ReturnStmt(
            self.expr(self.cfg.max_depth, scope, True, [])))
        return fn

    def make_mid(self, callees: List[GenFunc]) -> GenFunc:
        r = self.rng
        name = self.uid("mid")
        params = ["a", "b"][:r.randrange(1, 3)]
        fn = GenFunc(name, params=list(params))
        scope = [(p, "long") for p in fn.params]
        acc = "acc"
        fn.locals_.append((acc, "long"))
        scope.append((acc, "long"))
        counters = []
        for _ in range(2):
            cvar = self.uid("i")
            fn.locals_.append((cvar, "long"))
            counters.append(cvar)
        scope.extend((c, "long") for c in counters)
        fn.body = self.block(self.cfg.max_block_depth, scope,
                             counters, callees, acc)
        fn.body.append(ReturnStmt(Bin(
            "+", LocalRef(acc),
            self.expr(2, scope, False, callees))))
        return fn

    def make_ptr_taker(self) -> GenFunc:
        """``long name(long a, long b, long (*f)(long, long))`` —
        signature-compatible pointer chain: the pointer is received,
        stored, reloaded and finally called."""
        name = self.uid("via")
        fn = GenFunc(name, params=["a", "b"], ptr_params=["f"])
        fn.body = [
            ReturnStmt(Bin("+",
                           PtrParamCall("f", [LocalRef("a"),
                                              LocalRef("b")]),
                           PtrParamCall("f", [LocalRef("b"),
                                              Lit(3)]))),
        ]
        return fn

    def make_variadic(self) -> GenFunc:
        r = self.rng
        name = self.uid("var")
        fn = GenFunc(name, params=["a", "b"], variadic=True)
        scope = [("a", "long"), ("b", "long")]
        fn.body = [ReturnStmt(self.expr(2, scope, True, []))]
        return fn

    def make_recursive(self) -> List[GenFunc]:
        """Self recursion (tail and non-tail) plus a mutual pair."""
        r = self.rng
        out: List[GenFunc] = []
        # tail-shaped: return rec(n - 1, acc + step)
        tname = self.uid("tail")
        step = self.expr(2, [("n", "long"), ("acc", "long")], True,
                         [])
        tail = GenFunc(tname, params=["n", "acc"], recursive=True)
        tail.body = [
            IfStmt(Cmp("<=", LocalRef("n"), Lit(0)),
                   [ReturnStmt(LocalRef("acc"))]),
            ReturnStmt(Call(tname, [
                Bin("-", LocalRef("n"), Lit(1)),
                Bin("+", LocalRef("acc"), step)])),
        ]
        out.append(tail)
        # non-tail: return rec(n - 1) * 3 + step
        nname = self.uid("rec")
        nstep = self.expr(2, [("n", "long")], True, [])
        nont = GenFunc(nname, params=["n"], recursive=True)
        nont.body = [
            IfStmt(Cmp("<=", LocalRef("n"), Lit(0)),
                   [ReturnStmt(Lit(1))]),
            ReturnStmt(Bin("+",
                           Bin("*", Call(nname, [Bin("-",
                                                     LocalRef("n"),
                                                     Lit(1))]),
                               Lit(3)),
                           nstep)),
        ]
        out.append(nont)
        # mutual pair
        aname, bname = self.uid("mutA"), self.uid("mutB")
        mut_a = GenFunc(aname, params=["n"], recursive=True)
        mut_b = GenFunc(bname, params=["n"], recursive=True)
        mut_a.body = [
            IfStmt(Cmp("<=", LocalRef("n"), Lit(0)),
                   [ReturnStmt(Lit(0))]),
            ReturnStmt(Bin("+", Call(bname, [Bin("-", LocalRef("n"),
                                                 Lit(1))]),
                           Lit(1))),
        ]
        mut_b.body = [
            IfStmt(Cmp("<=", LocalRef("n"), Lit(0)),
                   [ReturnStmt(Lit(0))]),
            ReturnStmt(Bin("+", Call(aname, [Bin("-", LocalRef("n"),
                                                 Lit(1))]),
                           Lit(2))),
        ]
        out += [mut_a, mut_b]
        return out

    def make_main(self, callees: List[GenFunc],
                  special: List[GenFunc]) -> GenFunc:
        r = self.rng
        fn = GenFunc("main", ret_type="int")
        acc = "acc"
        fn.locals_.append((acc, "long"))
        scope: List[Tuple[str, str]] = [(acc, "long")]
        counters = []
        cvar = self.uid("i")
        fn.locals_.append((cvar, "long"))
        counters.append(cvar)
        scope.append((cvar, "long"))
        body: List[Stmt] = []
        if self.cfg.fn_casts and len(callees) >= 2:
            one, two = r.sample(callees, 2)
            body.append(PrintIntStmt(FnPredicate(
                "!=0", FnAddr(one.name))))
            body.append(PrintIntStmt(FnPredicate(
                r.choice(["==", "!="]), FnAddr(one.name),
                FnAddr(two.name))))
        for fn_special in special:
            if isinstance(fn_special, SetjmpFunc):
                body.append(PrintIntStmt(Call(
                    fn_special.name, [self.lit()])))
            elif fn_special.ptr_params:
                body.append(PrintIntStmt(self.call_to(
                    fn_special, 1, scope, callees)))
            elif fn_special.variadic:
                body.append(PrintIntStmt(self.call_to(
                    fn_special, 1, scope, callees)))
            else:  # recursive shapes: bounded depth
                body.append(PrintIntStmt(Call(
                    fn_special.name,
                    [Lit(r.randrange(1, 10))] +
                    ([Lit(r.randrange(0, 50))]
                     if len(fn_special.params) == 2 else []))))
        for _ in range(self.cfg.main_actions):
            kind = r.randrange(4)
            if kind == 0 and self.strings:
                body.append(PrintStrStmt(r.choice(
                    self.strings).name))
            elif kind == 1:
                body.append(self.stmt(1, scope, counters, callees,
                                      acc))
            else:
                body.append(PrintIntStmt(self.expr(
                    r.randrange(2, self.cfg.max_depth + 1),
                    scope, False, callees)))
        # observe the final state of every mutable global
        digest: Expr = LocalRef(acc)
        for glob in self.scalars:
            digest = Bin("^", digest, GlobalRef(glob.name,
                                                glob.ctype))
        for arr in self.arrays:
            digest = Bin("+", digest,
                         Index(arr.name, arr.ctype, arr.length - 1,
                               Lit(r.randrange(arr.length))))
        if self.buffer is not None:
            digest = Bin("^", digest,
                         MemAccess(self.buffer.name, "long",
                                   self.buffer.length - 65,
                                   Lit(4090)))
        body.append(PrintIntStmt(digest))
        body.append(ReturnStmt(Bin("&", LocalRef(acc), Lit(63))))
        fn.body = body
        return fn

    # -- assembly ----------------------------------------------------

    def build(self) -> GenProgram:
        r = self.rng
        self.make_globals()
        leaves = [self.make_leaf(force_two_params=i == 0)
                  for i in range(max(1, self.cfg.n_leaf))]
        self.funcs.extend(leaves)
        special: List[GenFunc] = []
        if self.cfg.recursion:
            rec = self.make_recursive()
            self.funcs.extend(rec)
            special.extend(rec[:2] + rec[2:3])  # tail, rec, mutA
        mids: List[GenFunc] = []
        for _ in range(max(1, self.cfg.n_mid)):
            mid = self.make_mid(leaves + mids)
            mids.append(mid)
            self.funcs.append(mid)
        if self.cfg.ptr_param:
            via = self.make_ptr_taker()
            self.funcs.append(via)
            special.append(via)
        if self.cfg.variadic:
            var = self.make_variadic()
            self.funcs.append(var)
            special.append(var)
        if self.cfg.fptr:
            pool = [f for f in leaves + mids
                    if len(f.params) == 2]
            if len(pool) >= 2:
                k = 4 if len(pool) >= 4 else 2
                names = tuple(r.choice(pool).name
                              for _ in range(k))
                table = GenGlobal(self.uid("tab"), "fptr_table",
                                  fn_names=names)
                self.globals.append(table)
                self.tables.append(table)
        if self.cfg.setjmp:
            # jb is a raw global array that never joins self.arrays:
            # generated code must not read or write the live jmp buf
            jb = GenGlobal("jb", "array", ctype="long", length=8,
                           init=())
            self.globals.append(jb)
            sj = SetjmpFunc(self.uid("sj"), jb_name="jb",
                            hops=r.randrange(1, 4),
                            step=self.expr(2, [("a", "long")], True,
                                           []))
            self.funcs.append(sj)
            special.append(sj)
        callees = leaves + mids
        self.funcs.append(self.make_main(callees, special))
        return GenProgram(self.seed, self.cfg, self.globals,
                          self.funcs)


def generate(seed: int, config: Optional[GenConfig] = None
             ) -> GenProgram:
    """Generate one program. Equal (seed, config) gives byte-equal
    source and an identical oracle."""
    cfg = config if config is not None else GenConfig()
    return _Gen(seed, cfg).build()
