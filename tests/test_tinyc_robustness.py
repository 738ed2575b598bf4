"""Frontend robustness: malformed input never escapes as a traceback.

The corpus generator only emits valid programs, so these tests cover
the complement — the generator-*adjacent* malformed space (deep
nesting, oversized initializers, duplicate labels, plus seeded
mutation fuzz over valid sources).  The contract under test is the
``CompileError`` boundary from :mod:`repro.errors`: every rejection is
a clean ``TinyCError`` subclass with a source location, never a
``RecursionError`` or any other raw Python exception.
"""

import random

import pytest

from repro.errors import CompileError, ParseError, ReproError, \
    TinyCError, TypeError_
from repro.build import build_program
from repro.toolchain import frontend, run_program
from repro.workloads.generate import generate


def _expect_clean_rejection(source, name="bad"):
    with pytest.raises(TinyCError) as exc_info:
        frontend(source, name=name)
    return exc_info.value


class TestMalformedInputs:
    def test_compile_error_is_the_frontend_boundary(self):
        # the alias is the documented catch-all for frontend errors
        assert CompileError is TinyCError
        assert issubclass(ParseError, CompileError)
        assert issubclass(TypeError_, CompileError)

    def test_oversized_array_initializer_rejected(self):
        err = _expect_clean_rejection(
            "long a[2] = {1, 2, 3, 4};\nint main() { return 0; }\n")
        assert isinstance(err, TypeError_)
        assert "too many initializers" in str(err)
        assert err.line  # carries a source location

    def test_exact_size_initializer_accepted(self):
        frontend("long a[4] = {1, 2, 3, 4};\nint main() { return 0; }\n")

    def test_short_initializer_accepted(self):
        frontend("long a[4] = {1};\nint main() { return 0; }\n")

    def test_duplicate_case_label_rejected(self):
        err = _expect_clean_rejection(
            "int main() { switch (1) { case 1: break; "
            "case 1: break; } return 0; }\n")
        assert "duplicate case label 1" in str(err)

    def test_duplicate_default_rejected(self):
        err = _expect_clean_rejection(
            "int main() { switch (1) { default: break; "
            "default: break; } return 0; }\n")
        assert "duplicate default" in str(err)

    def test_distinct_case_labels_still_compile_and_run(self):
        result = run_program(build_program({"t": (
            "int main() { int x = 2; switch (x) { "
            "case 1: print_int(1); break; "
            "case 2: print_int(2); break; "
            "default: print_int(9); } print_char(10); return 0; }\n")})
            .program, max_steps=100_000)
        assert result.output == b"2\n"

    @pytest.mark.parametrize("depth", [5_000, 30_000])
    def test_deep_parentheses_clean_error(self, depth):
        source = ("int main() { return " + "(" * depth + "1" +
                  ")" * depth + "; }\n")
        err = _expect_clean_rejection(source)
        assert "nesting too deep" in str(err)

    def test_deep_block_nesting_clean_error(self):
        source = ("int main() {" + " if (1) {" * 5_000 +
                  "}" * 5_000 + " return 0; }\n")
        err = _expect_clean_rejection(source)
        assert "nesting too deep" in str(err)

    def test_long_operator_chain_clean_error_or_accept(self):
        # left-deep AST: parses iteratively, may exhaust the checker
        source = ("int main() { return " +
                  "+".join(["1"] * 20_000) + "; }\n")
        try:
            frontend(source, name="chain")
        except TinyCError as err:
            assert "nesting too deep" in str(err)

    def test_moderate_nesting_still_accepted(self):
        depth = 200
        source = ("int main() { return " + "(" * depth + "1" +
                  ")" * depth + "; }\n")
        frontend(source, name="ok")


class TestFrontendFuzz:
    """Property: no input crashes the frontend with a raw exception."""

    def _check(self, source, label):
        try:
            frontend(source, name="fuzz")
        except ReproError:
            pass  # clean, typed rejection (or fine if it compiled)
        except BaseException as exc:  # noqa: BLE001
            pytest.fail(f"frontend crashed on {label}: "
                        f"{type(exc).__name__}: {exc}")

    def test_token_soup_never_crashes(self):
        rng = random.Random(99)
        tokens = ["int", "long", "char", "if", "else", "while",
                  "switch", "case", "default", "return", "main",
                  "x", "0", "1", "42", "{", "}", "(", ")", "[", "]",
                  ";", ",", "=", "+", "-", "*", "/", "%", "&", "|",
                  "\"s\"", "'c'", "->", ".", "...", "goto", "struct"]
        for _ in range(150):
            soup = " ".join(rng.choice(tokens)
                            for _ in range(rng.randrange(1, 60)))
            self._check(soup, f"token soup {soup[:40]!r}")

    def test_byte_soup_never_crashes(self):
        rng = random.Random(7)
        for _ in range(100):
            raw = bytes(rng.randrange(1, 128)
                        for _ in range(rng.randrange(1, 200)))
            self._check(raw.decode("ascii"), "byte soup")

    def test_mutated_valid_programs_never_crash(self):
        rng = random.Random(2024)
        for seed in range(5):
            source = generate(seed).source
            for _ in range(30):
                chars = list(source)
                for _ in range(rng.randrange(1, 6)):
                    pos = rng.randrange(len(chars))
                    op = rng.random()
                    if op < 0.4:
                        del chars[pos]
                    elif op < 0.8:
                        chars[pos] = rng.choice(";(){}[]=+-*/%&|^<>!")
                    else:
                        chars.insert(pos, rng.choice("({[;,"))
                self._check("".join(chars), f"mutant of seed {seed}")

    def test_truncated_valid_programs_never_crash(self):
        source = generate(1).source
        step = max(1, len(source) // 40)
        for cut in range(0, len(source), step):
            self._check(source[:cut], f"truncation at {cut}")
