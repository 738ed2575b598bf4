"""Frontend stress and edge cases: parser depth, declarator zoo, large
constructs, diagnostics."""

import pytest

from repro.errors import ParseError, TypeError_
from repro.tinyc.parser import parse
from repro.tinyc.types import canonical
from tests.conftest import run_source


class TestParserStress:
    def test_deeply_nested_parentheses(self):
        depth = 60
        expr = "(" * depth + "1" + ")" * depth
        unit = parse(f"int f(void) {{ return {expr}; }}")
        assert unit.funcs[0].name == "f"

    def test_deeply_nested_blocks(self):
        body = "{" * 40 + "x++;" + "}" * 40
        unit = parse(f"void f(void) {{ int x = 0; {body} }}")
        assert unit.funcs

    def test_long_expression_chain(self):
        expr = " + ".join(str(i) for i in range(200))
        result = run_source(f"int main(void) {{ print_int({expr}); "
                            f"return 0; }}")
        assert result.output == str(sum(range(200))).encode()

    def test_big_dense_switch(self):
        cases = "\n".join(f"case {i}: return {i * 3};"
                          for i in range(64))
        result = run_source(f"""
            int f(int x) {{ switch (x) {{ {cases} default: return -1; }} }}
            int main(void) {{
                print_int(f(10) + f(63) + f(64));
                return 0;
            }}
        """)
        assert result.output == str(30 + 189 - 1).encode()

    def test_many_functions(self):
        funcs = "\n".join(f"long f{i}(void) {{ return {i}; }}"
                          for i in range(80))
        calls = " + ".join(f"f{i}()" for i in range(80))
        result = run_source(f"{funcs}\nint main(void) "
                            f"{{ print_int({calls}); return 0; }}")
        assert result.output == str(sum(range(80))).encode()


class TestDeclaratorZoo:
    @pytest.mark.parametrize("decl,canon", [
        ("int f(int (*g)(void));",
         "fn(i32;ptr(fn(i32;)))"),
        ("long (*h(void))(int);",          # fn returning fn-pointer
         "fn(ptr(fn(i64;i32));)"),
        ("char *(*table[3])(char *);",
         "arr(ptr(fn(ptr(i8);ptr(i8))),3)"),
        ("unsigned long (**pp)(void);",
         "ptr(ptr(fn(u64;)))"),
    ])
    def test_declarator_types(self, decl, canon):
        unit = parse(decl)
        if unit.globals:
            ctype = unit.globals[0].ctype
        else:
            ctype = unit.decls[0].ftype
        assert canonical(ctype) == canon

    def test_function_returning_function_pointer_runs(self):
        result = run_source("""
            long inc(long x) { return x + 1; }
            long dec(long x) { return x - 1; }
            long (*pick(int up))(long) {
                if (up) { return inc; }
                return dec;
            }
            int main(void) {
                print_int(pick(1)(10) + pick(0)(10));
                return 0;
            }
        """)
        assert result.output == b"20"

    def test_pointer_to_array_arithmetic(self):
        result = run_source("""
            int grid[3][4];
            int main(void) {
                int i;
                for (i = 0; i < 12; i++) { grid[i / 4][i % 4] = i; }
                print_int(grid[2][3] + grid[0][1]);
                return 0;
            }
        """)
        assert result.output == b"12"


class TestLiterals:
    def test_hex_with_suffixes(self):
        result = run_source("""
            int main(void) {
                print_int((long)0xFFu + (long)0x10L);
                return 0;
            }
        """)
        assert result.output == b"271"

    def test_char_escapes_roundtrip(self):
        result = run_source(r"""
            int main(void) {
                print_int('\n'); print_char(' ');
                print_int('\t'); print_char(' ');
                print_int('\\'); print_char(' ');
                print_int('\'');
                return 0;
            }
        """)
        assert result.output == b"10 9 92 39"

    def test_max_like_literals(self):
        result = run_source("""
            int main(void) {
                long big = 9223372036854775807;
                print_int(big); print_char(' ');
                print_int(big + 1 < 0 ? 1 : 0);   /* wraps */
                return 0;
            }
        """)
        assert result.output == b"9223372036854775807 1"


class TestDiagnostics:
    def test_parse_error_carries_line(self):
        with pytest.raises(ParseError) as info:
            parse("int a;\nint b;\nint 5;")
        assert info.value.line == 3

    def test_lex_error_carries_line(self):
        from repro.errors import LexError
        with pytest.raises(LexError) as info:
            parse("int a;\nint b;\nint @;")
        assert info.value.line == 3

    def test_type_error_carries_line(self):
        from repro.tinyc.typecheck import check
        with pytest.raises(TypeError_) as info:
            check(parse("int f(void) {\n  return zzz;\n}"))
        assert info.value.line == 2

    def test_useful_message_for_unknown_member(self):
        from repro.tinyc.typecheck import check
        with pytest.raises(TypeError_, match="no field 'q'"):
            check(parse("struct s { int a; };"
                        "int f(struct s *p) { return p->q; }"))


class TestStaticFunctions:
    def test_static_functions_not_exported(self):
        from repro.build import compile_object
        raw = compile_object(
            "static long helper(void) { return 1; } "
            "int main(void) { return (int)helper(); }", name="m")
        assert not raw.functions["helper"].exported
        assert raw.functions["main"].exported

    def test_static_functions_have_internal_linkage(self):
        """Two modules may each define a static function of the same
        name; each module's calls resolve to its own copy."""
        from repro.build import build_program
        from repro.toolchain import run_program
        from tests.test_golden_digests import STATIC_COLLISION_SOURCES
        for mcfi in (False, True):
            result = run_program(build_program(STATIC_COLLISION_SOURCES,
                                               mcfi=mcfi).program)
            assert result.ok, result.violation or result.fault
            assert result.output == b"12"

    def test_exported_collision_still_rejected(self):
        from repro.build import compile_object
        from repro.errors import LinkError
        from tests.conftest import link_objects
        a = compile_object("int util(void) { return 1; } "
                           "void _start(void) { util(); }", name="a")
        b = compile_object("int util(void) { return 2; }", name="b")
        with pytest.raises(LinkError, match="util"):
            link_objects([a, b])
