"""Tests for the TinyC type system and structural equivalence."""

from repro.tinyc.types import (
    CHAR,
    DOUBLE,
    FuncSig,
    FuncType,
    INT,
    LONG,
    PointerType,
    StructType,
    TypeTable,
    UINT,
    ULONG,
    VOID,
    ArrayType,
    canonical,
    contains_function_pointer,
    decay,
    is_function_pointer,
    is_physical_subtype,
    signatures_match,
)


def fn(ret, *params, variadic=False):
    return FuncType(ret=ret, params=tuple(params), variadic=variadic)


class TestCanonicalForms:
    def test_primitives_distinct(self):
        forms = {canonical(t) for t in (VOID, CHAR, INT, UINT, LONG,
                                        ULONG, DOUBLE)}
        assert len(forms) == 7

    def test_signedness_matters(self):
        assert canonical(INT) != canonical(UINT)

    def test_pointers_and_arrays(self):
        assert canonical(PointerType(INT)) == "ptr(i32)"
        assert canonical(ArrayType(INT, 4)) == "arr(i32,4)"

    def test_function_types(self):
        assert canonical(fn(INT, LONG)) == "fn(i32;i64)"
        assert canonical(fn(VOID, variadic=True)) == "fn(void;,...)"

    def test_struct_expansion(self):
        table = TypeTable()
        s = table.struct("point")
        s.define([("x", LONG), ("y", LONG)])
        assert canonical(s) == "struct{i64,i64}"

    def test_same_shape_different_tags_equal(self):
        a = StructType(tag="a")
        a.define([("v", INT)])
        b = StructType(tag="b")
        b.define([("w", INT)])
        assert canonical(a) == canonical(b)

    def test_recursive_struct_terminates(self):
        node = StructType(tag="node")
        node.define([("value", LONG), ("next", PointerType(node))])
        form = canonical(node)
        assert "mu0" in form
        # Two isomorphic recursive structs canonicalize identically.
        other = StructType(tag="other")
        other.define([("v", LONG), ("n", PointerType(other))])
        assert canonical(other) == form

    def test_mutually_recursive_structs(self):
        a = StructType(tag="a")
        b = StructType(tag="b")
        a.define([("b", PointerType(b))])
        b.define([("a", PointerType(a))])
        assert canonical(a)  # must terminate
        assert canonical(a) != canonical(b) or canonical(a) == canonical(b)

    def test_union_vs_struct_differ(self):
        s = StructType(tag="s")
        s.define([("x", INT)])
        u = StructType(tag="u", is_union=True)
        u.define([("x", INT)])
        assert canonical(s) != canonical(u)

    def test_incomplete_struct_is_opaque(self):
        s = StructType(tag="fwd")
        assert "opaque" in canonical(s)


class TestSignatureMatching:
    def test_exact_match(self):
        sig = FuncSig.of(fn(INT, LONG, PointerType(CHAR)))
        assert signatures_match(sig, sig)

    def test_mismatch(self):
        a = FuncSig.of(fn(INT, LONG))
        b = FuncSig.of(fn(INT, ULONG))
        assert not signatures_match(a, b)
        assert not signatures_match(a, FuncSig.of(fn(LONG, LONG)))

    def test_variadic_pointer_matches_fixed_prefix(self):
        """The paper's rule: 'int (*)(int, ...)' may call any AT
        function with return int whose first parameter is int."""
        pointer = FuncSig.of(fn(INT, INT, variadic=True))
        assert signatures_match(pointer, FuncSig.of(fn(INT, INT)))
        assert signatures_match(pointer, FuncSig.of(fn(INT, INT, LONG)))
        assert not signatures_match(pointer, FuncSig.of(fn(LONG, INT)))
        assert not signatures_match(pointer, FuncSig.of(fn(INT, LONG)))

    def test_non_variadic_pointer_requires_exact(self):
        pointer = FuncSig.of(fn(INT, INT))
        assert not signatures_match(pointer, FuncSig.of(fn(INT, INT, INT)))

    def test_render(self):
        assert FuncSig.of(fn(INT, LONG, variadic=True)).render() == \
            "i32(i64,...)"


class TestPredicates:
    def test_is_function_pointer(self):
        assert is_function_pointer(PointerType(fn(VOID)))
        assert not is_function_pointer(PointerType(INT))
        assert not is_function_pointer(fn(VOID))

    def test_contains_function_pointer_through_struct(self):
        s = StructType(tag="handler")
        s.define([("cb", PointerType(fn(VOID, INT)))])
        assert contains_function_pointer(s)
        assert contains_function_pointer(PointerType(s))
        assert contains_function_pointer(ArrayType(s, 3))

    def test_contains_handles_recursion(self):
        node = StructType(tag="n")
        node.define([("next", PointerType(node)), ("v", INT)])
        assert not contains_function_pointer(node)

    def test_decay(self):
        assert canonical(decay(ArrayType(INT, 3))) == "ptr(i32)"
        assert is_function_pointer(decay(fn(VOID)))
        assert decay(INT) is INT


class TestPhysicalSubtype:
    def _pair(self):
        base = StructType(tag="base")
        base.define([("op", PointerType(fn(VOID))), ("rc", LONG)])
        concrete = StructType(tag="conc")
        concrete.define([("op", PointerType(fn(VOID))), ("rc", LONG),
                         ("extra", LONG)])
        return base, concrete

    def test_prefix_relation(self):
        base, concrete = self._pair()
        assert is_physical_subtype(concrete, base)
        assert not is_physical_subtype(base, concrete)

    def test_field_type_mismatch_breaks_relation(self):
        base, _ = self._pair()
        other = StructType(tag="other")
        other.define([("op", PointerType(fn(VOID, INT))), ("rc", LONG)])
        assert not is_physical_subtype(other, base)

    def test_empty_abstract_not_a_supertype(self):
        base = StructType(tag="empty")
        base.define([])
        _, concrete = self._pair()
        assert not is_physical_subtype(concrete, base)


class TestStructLayout:
    def test_field_offsets_are_8_byte_slots(self):
        s = StructType(tag="s")
        s.define([("a", CHAR), ("b", LONG), ("c", INT)])
        assert s.field_offset("a") == 0
        assert s.field_offset("b") == 8
        assert s.field_offset("c") == 16
        assert s.size == 24

    def test_union_fields_overlap(self):
        u = StructType(tag="u", is_union=True)
        u.define([("a", LONG), ("b", DOUBLE)])
        assert u.field_offset("a") == 0
        assert u.field_offset("b") == 0
        assert u.size == 8

    def test_unknown_field(self):
        s = StructType(tag="s")
        s.define([("a", INT)])
        assert s.field_type("zzz") is None
        assert s.field_offset("zzz") is None

    def test_type_table_reuses_struct_objects(self):
        table = TypeTable()
        assert table.struct("x") is table.struct("x")
        assert table.struct("x") is not table.struct("x", is_union=True)
