"""Tests for analysis.report rendering and cfg.typematch explanations."""

import pytest

from repro.analysis.analyzer import analyze_source
from repro.analysis.report import (
    classification_detail,
    fix_guidance,
    table1_markdown,
    table1_text,
    table2_text,
)
from repro.cfg.typematch import (
    explain_match,
    match_report,
    sanity_check,
    why_blocked,
)
from repro.tinyc.types import FuncSig
from repro.build import build_program


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
    def test_table1_text(self, reports):
        text = table1_text(reports, order=["clean", "dirty"])
        assert "clean" in text and "dirty" in text
        assert "VBE" in text

    def test_table2_text_filters_clean(self, reports):
        text = table2_text(reports)
        assert "dirty" in text and "clean" not in text

    def test_markdown(self, reports):
        text = table1_markdown(reports)
        assert text.startswith("| benchmark |")
        assert "| dirty |" in text

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


class TestExplainMatch:
    def test_exact_match(self, demo_aux):
        sig = demo_aux.functions["add"].sig
        verdict = explain_match(sig, demo_aux.functions["add"])
        assert verdict.matches and "identical" in verdict.reason

    def test_not_address_taken(self):
        program = build_program({"t": """
            long quiet(long x) { return x; }
            int main(void) { return (int)quiet(1); }
        """}, mcfi=True).program
        aux = program.module.aux
        sig = aux.functions["quiet"].sig
        verdict = explain_match(sig, aux.functions["quiet"])
        assert not verdict.matches
        assert "address-taken" in verdict.reason

    def test_return_type_mismatch(self, demo_aux):
        add = demo_aux.functions["add"]
        wrong = FuncSig(ret="i64", params=add.sig.params, variadic=False)
        verdict = explain_match(wrong, add)
        assert not verdict.matches and "return types differ" in \
            verdict.reason

    def test_arity_and_param_mismatch(self, demo_aux):
        add = demo_aux.functions["add"]
        fewer = FuncSig(ret=add.sig.ret, params=add.sig.params[:1],
                        variadic=False)
        assert "arity differs" in explain_match(fewer, add).reason
        swapped = FuncSig(ret=add.sig.ret,
                          params=("i64",) + add.sig.params[1:],
                          variadic=False)
        assert "parameter 0 differs" in explain_match(swapped, add).reason

    def test_variadic_rules(self, demo_aux):
        add = demo_aux.functions["add"]  # i32(i32,i32), address-taken
        prefix = FuncSig(ret="i32", params=("i32",), variadic=True)
        verdict = explain_match(prefix, add)
        assert verdict.matches and "variadic rule" in verdict.reason
        bad_ret = FuncSig(ret="i64", params=("i32",), variadic=True)
        assert not explain_match(bad_ret, add).matches


class TestWhyBlocked:
    def test_explains_type_mismatch(self, demo_aux):
        classify = demo_aux.functions["classify"]
        wrong_sig = FuncSig(ret="void", params=(), variadic=False)
        answer = why_blocked(wrong_sig, classify.entry, demo_aux)
        assert "classify" in answer

    def test_explains_retsite(self, demo_aux):
        sig = demo_aux.functions["add"].sig
        retsite = demo_aux.retsites[0].address
        answer = why_blocked(sig, retsite, demo_aux)
        assert "return site" in answer

    def test_explains_nowhere(self, demo_aux):
        sig = demo_aux.functions["add"].sig
        assert "not a function entry" in why_blocked(sig, 0xDEA0,
                                                     demo_aux)

    def test_match_report_partition(self, demo_aux):
        sig = demo_aux.functions["add"].sig
        everything = match_report(sig, demo_aux)
        matches = match_report(sig, demo_aux, include_misses=False)
        misses = match_report(sig, demo_aux, include_matches=False)
        assert len(everything) == len(matches) + len(misses)
        assert all(v.matches for v in matches)
        assert {"add", "sub", "mul"} <= {v.function for v in matches}

    def test_sanity_check_flags_orphan_pointer_types(self, demo_aux):
        orphan = FuncSig(ret="f64", params=("f64", "f64", "f64"),
                         variadic=False)
        warning = sanity_check(orphan, demo_aux)
        assert warning is not None and "K1" in warning
        fine = demo_aux.functions["add"].sig
        assert sanity_check(fine, demo_aux) is None
