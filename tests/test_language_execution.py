"""End-to-end language tests: compile TinyC, run on the SimVM, check
output — every test runs both native and MCFI-instrumented and the two
must agree (the instrumentation-transparency property)."""

import pytest

from tests.conftest import run_source


def outputs(source, arch="x64"):
    native = run_source(source, mcfi=False, arch=arch)
    hardened = run_source(source, mcfi=True, arch=arch)
    assert native.ok, f"native run failed: {native.fault}"
    assert hardened.ok, (f"MCFI run failed: "
                         f"{hardened.violation or hardened.fault}")
    assert native.output == hardened.output
    assert native.exit_code == hardened.exit_code
    return native


def expect(source, expected_output, arch="x64"):
    result = outputs(source, arch=arch)
    assert result.output == expected_output
    return result


class TestArithmetic:
    def test_integer_ops(self):
        expect("""
            int main(void) {
                print_int(7 + 3); print_char(' ');
                print_int(7 - 10); print_char(' ');
                print_int(6 * 7); print_char(' ');
                print_int(17 / 5); print_char(' ');
                print_int(-17 / 5); print_char(' ');
                print_int(17 % 5); print_char(' ');
                print_int(-17 % 5);
                return 0;
            }
        """, b"10 -3 42 3 -3 2 -2")

    def test_bitwise_and_shifts(self):
        expect("""
            int main(void) {
                print_int(0xF0 & 0x3C); print_char(' ');
                print_int(0xF0 | 0x0F); print_char(' ');
                print_int(0xFF ^ 0x0F); print_char(' ');
                print_int(~0); print_char(' ');
                print_int(1 << 10); print_char(' ');
                print_int(-16 >> 2); print_char(' ');
                long u = 16;
                print_int(u >> 2);
                return 0;
            }
        """, b"48 255 240 -1 1024 -4 4")

    def test_unsigned_comparison_semantics(self):
        expect("""
            int main(void) {
                unsigned long big = 0;
                big = big - 1;    /* wraps to max */
                if (big > 10u) { print_str("wrapped"); }
                long sbig = -1;
                if (sbig < 10) { print_str(" signed"); }
                return 0;
            }
        """, b"wrapped signed")

    def test_doubles(self):
        expect("""
            int main(void) {
                double x = 2.5;
                double y = x * 4.0 - 1.0;   /* 9.0 */
                print_int((long)y); print_char(' ');
                print_int((long)(y / 2.0)); print_char(' ');
                if (y > 8.5) { print_str("gt"); }
                print_char(' ');
                print_int((long)sqrt_d(144.0));
                return 0;
            }
        """, b"9 4 gt 12")

    def test_out_of_range_double_to_long_is_indefinite(self):
        """``(long)`` of an infinite, NaN or too-large double is x86's
        integer indefinite (LONG_MIN), not a crash of the run."""
        expect("""
            int main(void) {
                long indefinite = -9223372036854775807 - 1;
                double big = 1.0e308;
                double inf = big * 10.0;
                double nan = inf - inf;
                print_int((long)inf == indefinite);
                print_int((long)(0.0 - inf) == indefinite);
                print_int((long)nan == indefinite);
                print_int((long)big == indefinite);
                print_int((long)(0.0 - 2.5));
                return 0;
            }
        """, b"1111-2")

    def test_char_narrowing(self):
        expect("""
            int main(void) {
                char c = (char)300;     /* 300 - 256 = 44 */
                unsigned char u = (unsigned char)300;
                print_int(c); print_char(' ');
                print_int(u);
                return 0;
            }
        """, b"44 44")

    def test_increment_decrement(self):
        expect("""
            int main(void) {
                int i = 5;
                print_int(i++); print_int(i); print_int(++i);
                print_int(i--); print_int(--i);
                return 0;
            }
        """, b"56775")


class TestControlFlow:
    def test_loops(self):
        expect("""
            int main(void) {
                int total = 0;
                int i;
                for (i = 0; i < 5; i++) { total += i; }
                while (total < 20) { total += 3; }
                do { total++; } while (total < 0);
                print_int(total);
                return 0;
            }
        """, b"23")

    def test_break_continue(self):
        expect("""
            int main(void) {
                int total = 0;
                int i;
                for (i = 0; i < 10; i++) {
                    if (i == 3) { continue; }
                    if (i == 7) { break; }
                    total += i;
                }
                print_int(total);
                return 0;
            }
        """, b"18")

    def test_short_circuit(self):
        expect("""
            int bomb(void) { print_str("BOOM"); return 1; }
            int main(void) {
                if (0 && bomb()) { }
                if (1 || bomb()) { print_str("ok"); }
                int v = (2 > 1) && (3 > 2);
                print_int(v);
                return 0;
            }
        """, b"ok1")

    def test_dense_switch_uses_jump_table(self):
        source = """
            int f(int x) {
                switch (x) {
                    case 2: return 20;
                    case 3: return 30;
                    case 4: return 40;
                    case 5: { int y = x; return y * 10; }
                    default: return -1;
                }
            }
            int main(void) {
                int i;
                for (i = 0; i < 8; i++) {
                    print_int(f(i)); print_char(',');
                }
                return 0;
            }
        """
        expect(source, b"-1,-1,20,30,40,50,-1,-1,")
        # confirm a jump table was emitted (an ijump site exists)
        from repro.build import build_program
        program = build_program({"t": source}, mcfi=True).program
        kinds = {s.kind for s in program.module.aux.branch_sites}
        assert "switch" in kinds

    def test_sparse_switch_uses_compare_chain(self):
        source = """
            int f(int x) {
                switch (x) {
                    case 1: return 1;
                    case 1000: return 2;
                    case 100000: return 3;
                    default: return 0;
                }
            }
            int main(void) {
                print_int(f(1) + f(1000) + f(100000) + f(5));
                return 0;
            }
        """
        expect(source, b"6")
        from repro.build import build_program
        program = build_program({"t": source}, mcfi=True).program
        kinds = [s.kind for s in program.module.aux.branch_sites
                 if s.kind == "switch"]
        assert kinds == []

    def test_switch_fallthrough(self):
        expect("""
            int main(void) {
                int x = 1;
                int acc = 0;
                switch (x) {
                    case 0: acc += 1;
                    case 1: acc += 10;
                    case 2: acc += 100; break;
                    case 3: acc += 1000;
                }
                print_int(acc);
                return 0;
            }
        """, b"110")

    def test_ternary(self):
        expect("""
            int main(void) {
                int a = 5;
                print_int(a > 3 ? a * 2 : -1);
                print_char(' ');
                print_int(a > 9 ? 1 : a > 4 ? 2 : 3);
                return 0;
            }
        """, b"10 2")


class TestPointersAndMemory:
    def test_pointer_basics(self):
        expect("""
            int main(void) {
                long x = 11;
                long *p = &x;
                *p = *p + 1;
                print_int(x);
                return 0;
            }
        """, b"12")

    def test_arrays_and_pointer_arithmetic(self):
        expect("""
            int main(void) {
                int a[5];
                int *p = a;
                int i;
                for (i = 0; i < 5; i++) { a[i] = i * i; }
                print_int(*(p + 3)); print_char(' ');
                print_int(p[4]); print_char(' ');
                print_int((int)(&a[4] - &a[1]));
                return 0;
            }
        """, b"9 16 3")

    def test_structs(self):
        expect("""
            struct point { long x; long y; };
            struct rect { struct point lo; struct point hi; };
            long area(struct rect *r) {
                return (r->hi.x - r->lo.x) * (r->hi.y - r->lo.y);
            }
            int main(void) {
                struct rect r;
                r.lo.x = 1; r.lo.y = 1; r.hi.x = 5; r.hi.y = 4;
                print_int(area(&r));
                return 0;
            }
        """, b"12")

    def test_heap_allocation(self):
        expect("""
            int main(void) {
                long *a = (long *)malloc(10u * 8u);
                int i;
                long total = 0;
                for (i = 0; i < 10; i++) { a[i] = i; }
                for (i = 0; i < 10; i++) { total += a[i]; }
                free((void *)a);
                /* free list reuse */
                {
                    long *b = (long *)malloc(8u);
                    *b = 100;
                    total += *b;
                }
                print_int(total);
                return 0;
            }
        """, b"145")

    def test_strings(self):
        expect("""
            int main(void) {
                char buf[16];
                strcpy(buf, "abc");
                print_int((long)strlen(buf)); print_char(' ');
                print_int(strcmp(buf, "abc")); print_char(' ');
                print_int(strcmp(buf, "abd") < 0 ? -1 : 1);
                print_char(' ');
                print_str(buf);
                return 0;
            }
        """, b"3 0 -1 abc")

    def test_global_initializers(self):
        expect("""
            long table[4] = {10, 20, 30};
            struct cfg { long a; long b; };
            struct cfg config = {7, 8};
            long scalar = -5;
            char *greeting = "hey";
            int main(void) {
                print_int(table[0] + table[1] + table[2] + table[3]);
                print_int(config.a + config.b);
                print_int(scalar);
                print_str(greeting);
                return 0;
            }
        """, b"6015-5hey")

    def test_memcpy_memset(self):
        expect("""
            int main(void) {
                char a[8];
                char b[8];
                memset((void *)a, 7, 8u);
                memcpy((void *)b, (void *)a, 8u);
                print_int(b[0] + b[7]);
                return 0;
            }
        """, b"14")


class TestFunctions:
    def test_recursion(self):
        expect("""
            long fib(long n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            int main(void) { print_int(fib(15)); return 0; }
        """, b"610")

    def test_many_arguments_spill_to_stack(self):
        expect("""
            long f(long a, long b, long c, long d, long e, long g) {
                return a + 10 * b + 100 * c + 1000 * d + 10000 * e
                       + 100000 * g;
            }
            int main(void) { print_int(f(1, 2, 3, 4, 5, 6)); return 0; }
        """, b"654321")

    def test_function_pointers_in_table(self):
        expect("""
            typedef long (*op)(long, long);
            long add(long a, long b) { return a + b; }
            long mul(long a, long b) { return a * b; }
            op ops[2] = {add, mul};
            int main(void) {
                print_int(ops[0](3, 4));
                print_int(ops[1](3, 4));
                return 0;
            }
        """, b"712")

    def test_function_pointer_as_argument(self):
        expect("""
            long twice(long (*f)(long), long x) { return f(f(x)); }
            long inc(long x) { return x + 1; }
            int main(void) { print_int(twice(inc, 5)); return 0; }
        """, b"7")

    def test_qsort_with_comparator(self):
        expect("""
            int cmp_long(void *a, void *b) {
                long x = *(long *)a;
                long y = *(long *)b;
                if (x < y) { return -1; }
                if (x > y) { return 1; }
                return 0;
            }
            int main(void) {
                long v[6];
                int i;
                v[0] = 5; v[1] = 2; v[2] = 9; v[3] = 1; v[4] = 5; v[5] = 0;
                qsort((void *)v, 6u, 8u, cmp_long);
                for (i = 0; i < 6; i++) { print_int(v[i]); }
                return 0;
            }
        """, b"012559")

    def test_setjmp_longjmp(self):
        expect("""
            long env[4];
            void bail(int code) { longjmp(env, code); }
            int main(void) {
                int r = setjmp(env);
                print_int(r);
                if (r < 3) { bail(r + 1); }
                return 0;
            }
        """, b"0123")

    def test_tail_call_result_correct_on_both_arches(self):
        source = """
            long helper(long x) { return x * 2 + 1; }
            long tail(long x) { return helper(x + 5); }
            int main(void) { print_int(tail(10)); return 0; }
        """
        expect(source, b"31", arch="x64")
        expect(source, b"31", arch="x32")

    def test_comma_operator(self):
        expect("""
            int main(void) {
                int a = 1;
                int b = (a++, a + 10);
                print_int(b);
                return 0;
            }
        """, b"12")


class TestMultiModule:
    def test_two_modules_link_and_call(self):
        from repro.build import build_program
        from repro.toolchain import run_program
        sources = {
            "alpha": """
                int beta_fn(int x);
                int main(void) { print_int(beta_fn(4)); return 0; }
            """,
            "beta": """
                int beta_fn(int x) { return x * x; }
            """,
        }
        for mcfi in (False, True):
            result = run_program(build_program(sources, mcfi=mcfi).program)
            assert result.ok
            assert result.output == b"16"

    def test_cross_module_function_pointer(self):
        from repro.build import build_program
        from repro.toolchain import run_program
        sources = {
            "alpha": """
                int beta_fn(int x);
                int main(void) {
                    int (*fp)(int) = beta_fn;
                    print_int(fp(6));
                    return 0;
                }
            """,
            "beta": "int beta_fn(int x) { return x + 100; }",
        }
        result = run_program(build_program(sources, mcfi=True).program)
        assert result.ok and result.output == b"106"
