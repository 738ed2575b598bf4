"""Tests for analysis.report's per-cast listing and K1 fix guidance,
and for the type-matching rule that decides which functions an indirect
call may reach."""

import pytest

from repro.analysis.analyzer import analyze_source
from repro.analysis.report import classification_detail, fix_guidance
from repro.build import build_program
from repro.cfg.callgraph import TypeMatcher
from repro.tinyc.types import FuncSig, signatures_match


@pytest.fixture(scope="module")
def reports():
    sources = {
        "clean": "int main(void) { return 0; }",
        "dirty": """
            void g(void) { }
            typedef int (*weird)(double);
            int main(void) {
                void *escape = (void *)g;                 /* K2 */
                weird w = (weird)g;                        /* K1 */
                void (*z)(void) = 0;                       /* SU */
                return 0;
            }
        """,
    }
    return {name: analyze_source(text, name=name)
            for name, text in sources.items()}


class TestReportRendering:
    def test_classification_detail(self, reports):
        detail = classification_detail(reports["dirty"])
        assert "K1" in detail and "K2" in detail and "SU" in detail
        assert "address of g" in detail
        assert classification_detail(reports["clean"]) == \
            "(no C1 violations)"

    def test_fix_guidance_targets_k1(self, reports):
        guidance = fix_guidance(reports["dirty"])
        assert len(guidance) == 1
        assert "wrap" in guidance[0] and "g" in guidance[0]
        assert fix_guidance(reports["clean"]) == []


@pytest.fixture(scope="module")
def demo_aux(demo_program):
    return demo_program.module.aux


def may_call(sig, func, aux):
    """Does the CFG let a pointer of signature ``sig`` call ``func``?"""
    return func in TypeMatcher(list(aux.functions.values())).matches(sig)


class TestExplainMatch:
    def test_exact_match(self, demo_aux):
        add = demo_aux.functions["add"]
        assert signatures_match(add.sig, add.sig)
        assert may_call(add.sig, add, demo_aux)

    def test_not_address_taken(self):
        program = build_program({"t": """
            long quiet(long x) { return x; }
            int main(void) { return (int)quiet(1); }
        """}, mcfi=True).program
        aux = program.module.aux
        quiet = aux.functions["quiet"]
        assert not quiet.address_taken
        assert signatures_match(quiet.sig, quiet.sig)
        assert not may_call(quiet.sig, quiet, aux)

    def test_return_type_mismatch(self, demo_aux):
        add = demo_aux.functions["add"]
        wrong = FuncSig(ret="i64", params=add.sig.params, variadic=False)
        assert not signatures_match(wrong, add.sig)
        assert not may_call(wrong, add, demo_aux)

    def test_arity_and_param_mismatch(self, demo_aux):
        add = demo_aux.functions["add"]
        fewer = FuncSig(ret=add.sig.ret, params=add.sig.params[:1],
                        variadic=False)
        swapped = FuncSig(ret=add.sig.ret,
                          params=("i64",) + add.sig.params[1:],
                          variadic=False)
        for sig in (fewer, swapped):
            assert not signatures_match(sig, add.sig)
            assert not may_call(sig, add, demo_aux)

    def test_variadic_rules(self, demo_aux):
        add = demo_aux.functions["add"]  # i32(i32,i32), address-taken
        prefix = FuncSig(ret="i32", params=("i32",), variadic=True)
        assert signatures_match(prefix, add.sig)
        assert may_call(prefix, add, demo_aux)
        bad_ret = FuncSig(ret="i64", params=("i32",), variadic=True)
        assert not signatures_match(bad_ret, add.sig)
        assert not may_call(bad_ret, add, demo_aux)
