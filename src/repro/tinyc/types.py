"""TinyC type system with structural equivalence.

MCFI's CFG generation matches the type of a function pointer against
the types of address-taken functions using *structural equivalence*, in
which "named types are replaced by their definitions" (Sec. 6).  This
module implements exactly that: every type has a canonical string form
in which struct/union tags are expanded to their field lists, with
recursive types folded into mu-notation back-references so expansion
terminates.

Two function types match when their canonical forms are equal; a
variadic function pointer additionally matches any address-taken
function whose return type and *fixed* parameter types match (the
paper's variable-argument rule).

The canonical forms are plain strings, so a module's auxiliary type
information is self-contained and modules compiled separately can be
matched during (dynamic) linking with string comparisons — fast enough
for an online CFG generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class Type:
    """Base class for TinyC types."""

    #: byte size; overridden per subclass
    size = 0

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"


class VoidType(Type):
    size = 0

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True, repr=False)
class IntType(Type):
    """Integer types.  TinyC computes in 64 bits; sizes matter for memory."""

    name: str
    size: int
    signed: bool = True

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, repr=False)
class FloatType(Type):
    name: str = "double"
    size: int = 8

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, repr=False)
class PointerType(Type):
    pointee: Type
    size: int = 8

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True, repr=False)
class ArrayType(Type):
    element: Type
    length: int

    @property
    def size(self) -> int:  # type: ignore[override]
        return self.element.size * self.length

    def __str__(self) -> str:
        return f"{self.element}[{self.length}]"


@dataclass(frozen=True, repr=False)
class FuncType(Type):
    ret: Type
    params: Tuple[Type, ...]
    variadic: bool = False
    size: int = 0

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        if self.variadic:
            params = params + ", ..." if params else "..."
        return f"{self.ret}({params})"


@dataclass(eq=False, repr=False)
class StructType(Type):
    """A struct or union.  Nominal identity, structural canonical form.

    Fields may be filled in after construction (forward declarations).
    """

    tag: str
    is_union: bool = False
    fields: List[Tuple[str, Type]] = field(default_factory=list)
    complete: bool = False

    def define(self, fields: List[Tuple[str, Type]]) -> None:
        self.fields = list(fields)
        self.complete = True

    @property
    def size(self) -> int:  # type: ignore[override]
        if not self.complete:
            return 0
        aligned = [_aligned_size(ftype) for _, ftype in self.fields]
        if self.is_union:
            return max(aligned, default=0)
        return sum(aligned)

    def field_type(self, name: str) -> Optional[Type]:
        for fname, ftype in self.fields:
            if fname == name:
                return ftype
        return None

    def field_offset(self, name: str) -> Optional[int]:
        if self.is_union:
            return 0 if self.field_type(name) is not None else None
        offset = 0
        for fname, ftype in self.fields:
            if fname == name:
                return offset
            offset += _aligned_size(ftype)
        return None

    def __str__(self) -> str:
        kind = "union" if self.is_union else "struct"
        return f"{kind} {self.tag}"


def _aligned_size(ctype: Type) -> int:
    """Field size rounded to 8 bytes (simple, uniform layout)."""
    return max(8, (ctype.size + 7) & ~7)


# -- primitive singletons ----------------------------------------------------

VOID = VoidType()
CHAR = IntType("char", 1)
UCHAR = IntType("unsigned char", 1, signed=False)
SHORT = IntType("short", 2)
USHORT = IntType("unsigned short", 2, signed=False)
INT = IntType("int", 4)
UINT = IntType("unsigned int", 4, signed=False)
LONG = IntType("long", 8)
ULONG = IntType("unsigned long", 8, signed=False)
DOUBLE = FloatType()

CHAR_PTR = PointerType(CHAR)


def is_integer(ctype: Type) -> bool:
    return isinstance(ctype, IntType)


def is_arith(ctype: Type) -> bool:
    return isinstance(ctype, (IntType, FloatType))


def is_pointer(ctype: Type) -> bool:
    return isinstance(ctype, PointerType)


def is_function_pointer(ctype: Type) -> bool:
    return isinstance(ctype, PointerType) and isinstance(ctype.pointee,
                                                         FuncType)


def is_scalar(ctype: Type) -> bool:
    return is_arith(ctype) or is_pointer(ctype)


def decay(ctype: Type) -> Type:
    """Array-to-pointer and function-to-pointer decay."""
    if isinstance(ctype, ArrayType):
        return PointerType(ctype.element)
    if isinstance(ctype, FuncType):
        return PointerType(ctype)
    return ctype


def contains_function_pointer(ctype: Type,
                              _seen: Optional[set] = None) -> bool:
    """Does ``ctype`` contain a function pointer, transitively?

    Looks through struct/union fields, array elements and one level of
    data pointers.  Used by the C1 analyzer to decide whether a cast
    "involves function pointer types" (Sec. 6, conditions).
    """
    if _seen is None:
        _seen = set()
    if is_function_pointer(ctype):
        return True
    if isinstance(ctype, PointerType):
        return contains_function_pointer(ctype.pointee, _seen)
    if isinstance(ctype, ArrayType):
        return contains_function_pointer(ctype.element, _seen)
    if isinstance(ctype, StructType):
        if id(ctype) in _seen:
            return False
        _seen.add(id(ctype))
        return any(contains_function_pointer(ftype, _seen)
                   for _, ftype in ctype.fields)
    return False


# -- canonical forms ---------------------------------------------------------

def canonical(ctype: Type, _stack: Optional[List[StructType]] = None) -> str:
    """Canonical string form with named types structurally expanded.

    Recursive struct references are rendered as ``mu<k>`` where ``k`` is
    the enclosing struct's depth on the expansion stack, so equal
    recursive structures canonicalize identically regardless of tags.
    """
    if _stack is None:
        _stack = []
    if isinstance(ctype, VoidType):
        return "void"
    if isinstance(ctype, IntType):
        # Width + signedness is the identity of an integer type: the
        # type-matching rule must not conflate int with long.
        return f"{'i' if ctype.signed else 'u'}{ctype.size * 8}"
    if isinstance(ctype, FloatType):
        return "f64"
    if isinstance(ctype, PointerType):
        return "ptr(" + canonical(ctype.pointee, _stack) + ")"
    if isinstance(ctype, ArrayType):
        return f"arr({canonical(ctype.element, _stack)},{ctype.length})"
    if isinstance(ctype, FuncType):
        params = ",".join(canonical(p, _stack) for p in ctype.params)
        tail = ",..." if ctype.variadic else ""
        return f"fn({canonical(ctype.ret, _stack)};{params}{tail})"
    if isinstance(ctype, StructType):
        for depth, open_struct in enumerate(_stack):
            if open_struct is ctype:
                return f"mu{len(_stack) - depth - 1}"
        if not ctype.complete:
            return f"opaque({ctype.tag})"
        _stack.append(ctype)
        try:
            kind = "union" if ctype.is_union else "struct"
            body = ",".join(canonical(ftype, _stack)
                            for _, ftype in ctype.fields)
            return f"{kind}{{{body}}}"
        finally:
            _stack.pop()
    raise TypeError(f"cannot canonicalize {ctype!r}")


@dataclass(frozen=True)
class FuncSig:
    """Serializable, canonical function signature — the auxiliary type
    information an MCFI module carries for each function and each
    function-pointer call site."""

    ret: str
    params: Tuple[str, ...]
    variadic: bool

    def render(self) -> str:
        params = list(self.params) + (["..."] if self.variadic else [])
        return f"{self.ret}({','.join(params)})"

    @classmethod
    def of(cls, ftype: FuncType) -> "FuncSig":
        return cls(ret=canonical(ftype.ret),
                   params=tuple(canonical(p) for p in ftype.params),
                   variadic=ftype.variadic)


def signatures_match(pointer_sig: FuncSig, function_sig: FuncSig) -> bool:
    """The paper's type-matching rule for indirect calls.

    A call through a pointer of signature ``pointer_sig`` may target a
    function of signature ``function_sig`` when the signatures are
    structurally equal; if the *pointer* is variadic, the function must
    match on return type and on the pointer's fixed parameter prefix.
    """
    if pointer_sig == function_sig:
        return True
    if pointer_sig.variadic:
        fixed = pointer_sig.params
        return (pointer_sig.ret == function_sig.ret
                and function_sig.params[:len(fixed)] == fixed)
    return False


def is_physical_subtype(concrete: StructType, abstract: StructType) -> bool:
    """Is ``abstract``'s field list a prefix of ``concrete``'s?

    This is the "physical subtype" relation behind the analyzer's
    Upcast (UC) false-positive elimination: a concrete struct sharing
    the abstract struct's prefix of fields may be safely viewed as the
    abstract struct.
    """
    if concrete.is_union or abstract.is_union:
        return False
    if len(abstract.fields) > len(concrete.fields):
        return False
    if not abstract.fields:
        return False
    for (_, abstract_field), (_, concrete_field) in zip(abstract.fields,
                                                        concrete.fields):
        if canonical(abstract_field) != canonical(concrete_field):
            return False
    return True


class TypeTable:
    """Registry of struct/union/enum tags and typedefs for one parse.

    A table seeded with ``structs`` and ``typedefs`` holds copies of
    them, so parsing into it never changes the seeds.
    """

    def __init__(self, structs: Optional[Dict[str, StructType]] = None,
                 typedefs: Optional[Dict[str, Type]] = None) -> None:
        self.structs: Dict[str, StructType] = dict(structs or {})
        self.typedefs: Dict[str, Type] = dict(typedefs or {})

    def struct(self, tag: str, is_union: bool = False) -> StructType:
        key = ("union " if is_union else "struct ") + tag
        existing = self.structs.get(key)
        if existing is None:
            existing = StructType(tag=tag, is_union=is_union)
            self.structs[key] = existing
        return existing

    def typedef(self, name: str, ctype: Type) -> None:
        self.typedefs[name] = ctype

    def is_typedef(self, name: str) -> bool:
        return name in self.typedefs
