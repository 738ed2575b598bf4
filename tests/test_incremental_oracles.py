"""Oracles for the two fast paths of a single-function edit.

* :func:`repro.build.source_index.reindex_source` rescans only the
  edited function span.  It must equal the full scan,
  :func:`~repro.build.source_index.index_source`, on every edit: seeded
  literal edits of the twelve fixed programs and libc, random mutations
  over the scanner's significant characters, and fixtures for each way
  an edit can leave the span it started in.
* :func:`repro.build.link.splice_unit` replaces one unit in the previous
  program instead of re-finalizing the link.  After every splice the
  program must equal, field by field, what
  :func:`repro.build.link._finalize` makes of the same link state, and
  what a cold build makes of the same sources.  A program handed out
  earlier must never change.
"""

from __future__ import annotations

import copy
import random
import re

import pytest

from repro.build import BuildSession
from repro.build.link import _finalize
from repro.build.source_index import index_source, reindex_source
from repro.workloads.libc import LIBC_SOURCE
from repro.workloads.spec import BENCHMARKS, workload

TEXTS = {name: workload(name).source for name in BENCHMARKS}
TEXTS["libc"] = LIBC_SOURCE

#: digits that form a whole decimal literal (not part of a name or float)
_LITERAL = re.compile(r"(?<![\w.])\d+(?![\w.])")

#: characters the scanner acts on, plus some it does not
_ALPHABET = "{};/*\"'\\\n ax1("


def _fast(old_spans, new_spans) -> bool:
    """Whether ``new_spans`` reuses every old span but one (the rescan
    kept them; a full scan makes new span objects)."""
    return (new_spans is not None and len(new_spans) == len(old_spans)
            and sum(a is b for a, b in zip(old_spans, new_spans))
            == len(old_spans) - 1)


def _check_reindex(old: str, new: str):
    old_spans = index_source(old)
    assert old_spans is not None
    spans = reindex_source(old, old_spans, new)
    assert spans == index_source(new)
    return _fast(old_spans, spans)


class TestReindexOracle:
    @pytest.mark.parametrize("name", sorted(TEXTS))
    def test_seeded_literal_edits(self, name):
        text = TEXTS[name]
        rng = random.Random(f"literal-{name}")
        funcs = [span for span in index_source(text) if span.kind == "func"
                 and _LITERAL.search(span.body)]
        for count in range(30):
            span = rng.choice(funcs)
            match = rng.choice(list(_LITERAL.finditer(span.body)))
            body = (span.body[:match.start()] + str(int(match.group()) + count
                                                   + 1)
                    + span.body[match.end():])
            new = text.replace(span.text, span.head + body, 1)
            assert _check_reindex(text, new), (name, span.name)

    @pytest.mark.parametrize("name", sorted(TEXTS))
    def test_random_mutations(self, name):
        text = TEXTS[name]
        old_spans = index_source(text)
        rng = random.Random(f"mutate-{name}")
        fast = 0
        trials = 120
        for _ in range(trials):
            # replace 0-3 characters at a random place by 0-3 others
            at = rng.randrange(len(text) + 1)
            cut = at + rng.randrange(4)
            new = text[:at] + "".join(
                rng.choice(_ALPHABET) for _ in range(rng.randrange(4))) \
                + text[cut:]
            spans = reindex_source(text, old_spans, new)
            assert spans == index_source(new)
            fast += _fast(old_spans, spans)
        # many mutations stay inside one function body
        assert fast >= trials // 4

    BASE = ("int g(int y);\n"
            "int f(int x) {\n"
            "    if (x) { return x + 1; }\n"
            "    return 0;\n"
            "}\n"
            "\n"
            "int h(int y) {\n"
            "    return y * 2; /* twice */\n"
            "}\n")

    def test_body_edit_takes_the_fast_path(self):
        assert _check_reindex(self.BASE,
                              self.BASE.replace("x + 1", "x + 10"))

    @pytest.mark.parametrize("edit", [
        ("return x + 1;", "return x /* + 1;"),     # comment left open
        ("return x + 1;", 'return x + "1;'),       # string left open
        ("return x + 1;", "return x + '1;"),       # char left open
        ("if (x) {", "if (x) { {"),                # brace unbalanced
        ("return x + 1; }", "return x + 1;"),      # brace dropped
    ])
    def test_open_constructs_fall_back(self, edit):
        old, new = edit
        assert not _check_reindex(self.BASE, self.BASE.replace(old, new))

    def test_head_edits_fall_back(self):
        # a new signature
        assert not _check_reindex(
            self.BASE, self.BASE.replace("int f(int x)", "long f(int x)"))
        # a new name that another function already has: the full scan
        # refuses duplicate names, and so must the re-index
        renamed = self.BASE.replace("int f(int x)", "int h(int x)")
        assert index_source(renamed) is None
        assert reindex_source(self.BASE, index_source(self.BASE),
                              renamed) is None

    def test_two_edited_bodies_fall_back(self):
        new = self.BASE.replace("x + 1", "x + 2").replace("y * 2", "y * 3")
        assert not _check_reindex(self.BASE, new)

    @pytest.mark.parametrize("tail", ["", "// end\n", "/* end */\n"])
    def test_edits_in_the_trailing_text_fall_back(self, tail):
        old = self.BASE + tail
        assert not _check_reindex(old, old + "// more\n")
        assert not _check_reindex(old, old + "int z;")
        assert not _check_reindex(old, old + "/* open")

    @pytest.mark.parametrize("head", ["\n/* int f(int x) */ ", "\n"])
    def test_body_after_a_prototype_ending_in_a_paren(self, head):
        # The full scan reaches f's span with last_code == ")" from the
        # prototype; the rescan starts from nothing.  A head without
        # code of its own must not be told apart by that difference.
        new = self.BASE.replace("\nint f(int x) ", head)
        assert not _check_reindex(self.BASE, new)


class TestTrailingComment:
    SOURCE = ("int f(void) { return 1; }\n"
              "int main(void) { return f(); }\n")

    @pytest.mark.parametrize("tail", ["// end\n", "/* end */", "// end"])
    def test_module_ending_in_a_comment_splices(self, tail):
        session = BuildSession()
        session.build({"t": self.SOURCE + tail})
        edited = self.SOURCE.replace("return 1", "return 2") + tail
        result = session.build({"t": edited})
        assert result.stats["modules_mini"] == 1
        assert result.stats["spliced"] == 1
        assert _fields(result.program) == \
            _fields(BuildSession().build({"t": edited}).program)

    def test_trailing_code_and_open_comments_are_unclassifiable(self):
        assert index_source(self.SOURCE + "// end\nint x") is None
        assert index_source(self.SOURCE + "/* end") is None
        assert index_source(self.SOURCE + "/*/") is None
        assert index_source(self.SOURCE + '"/* x */"') is None
        assert index_source(self.SOURCE + "/") is None


# -- splice oracle ------------------------------------------------------


def _fields(program) -> dict:
    """Every field of a linked program, as plain comparable values."""
    module, aux, data = program.module, program.module.aux, program.data
    return {"arch": program.arch, "mcfi": program.mcfi,
            "entry": program.entry, "heap_base": program.heap_base,
            "parts": list(program.parts),
            "got_slots": dict(program.got_slots),
            "name": module.name, "base": module.base, "code": module.code,
            "labels": dict(module.labels),
            "bary_slots": dict(module.bary_slots),
            "code_ranges": list(module.code_ranges),
            "functions": dict(aux.functions),
            "retsites": list(aux.retsites),
            "branch_sites": list(aux.branch_sites),
            "setjmp_resumes": list(aux.setjmp_resumes),
            "direct_calls": list(aux.direct_calls),
            "data_ranges": list(aux.data_ranges),
            "exports": dict(aux.exports), "imports": list(aux.imports),
            "data": (data.base, data.size, dict(data.symbols), data.image,
                     data.rodata_end)}


#: two switches trade a case: the unit keeps its size, the second
#: jump table moves
SWITCH_SOURCE = """
int pick(int a, int b) {
    int r = 0;
    switch (a) { case 0: r = r + 1; break; case 1: r = r + 2; break;
                 case 2: r = r + 3; break; case 3: r = r + 7; break; }
    switch (b) { case 0: r = r + 4; break; case 1: r = r + 5; break;
                 case 2: r = r + 8; break; }
    return r;
}
int main(void) { print_int(pick(1, 2)); return 0; }
"""
SWITCH_EDITS = [
    SWITCH_SOURCE.replace(
        "case 3: r = r + 7; break; }", "}").replace(
        "case 2: r = r + 8; break; }",
        "case 2: r = r + 8; break; case 3: r = r + 7; break; }"),
    SWITCH_SOURCE.replace("r + 7", "r + 9"),
    SWITCH_SOURCE,
]

SETJMP_SOURCE = """
long jbuf[4];
int bounce(int n) {
    int i = setjmp(jbuf);
    if (i < n) { longjmp(jbuf, i + 1); }
    return i + 5;
}
int main(void) { print_int(bounce(2)); return 0; }
"""

PLT_SOURCE = """
int plugin_fn(int x);
int twice(int x) { return x + x; }
void _start(void) { __syscall(1, plugin_fn(twice(1)), 0, 0); }
"""

TAKES_SOURCE = """
int one(void) { return 1; }
int two(void) { return 2; }
int (*chosen)(void);
int pick(void) { chosen = one; return chosen(); }
int main(void) { print_int(pick() + two()); return 0; }
"""

#: fixture -> (session options, source, edited sources in order; each
#: edits one function of the one before)
SPLICE_FIXTURES = {
    "switch": ({}, SWITCH_SOURCE, SWITCH_EDITS),
    "setjmp": ({}, SETJMP_SOURCE,
               [SETJMP_SOURCE.replace("i + 5", "i + 6"),
                SETJMP_SOURCE.replace("i + 1", "i + 2")]),
    "plt": ({"with_libc": False, "allow_unresolved": ["plugin_fn"]},
            PLT_SOURCE,
            [PLT_SOURCE.replace("twice(1)", "twice(2)"),
             PLT_SOURCE.replace("twice(1)", "twice(2)").replace(
                 "x + x", "x - x")]),
    "takes": ({}, TAKES_SOURCE,
              [TAKES_SOURCE.replace("chosen = one", "chosen = two"),
               TAKES_SOURCE]),
}


def _reference(session) -> dict:
    """What a full finalize makes of the session's link state (on a
    copy, so the session's own program stays the one it handed out)."""
    return _fields(_finalize(copy.copy(session._link)))


class TestSpliceOracle:
    @pytest.mark.parametrize("fixture", sorted(SPLICE_FIXTURES))
    def test_every_splice_equals_finalize_and_a_cold_build(self, fixture):
        options, source, edits = SPLICE_FIXTURES[fixture]
        session = BuildSession(**options)
        session.build({"t": source})
        for edited in edits:
            result = session.build({"t": edited})
            assert result.stats["spliced"] == 1
            fields = _fields(result.program)
            assert fields == _reference(session)
            assert fields == _fields(
                BuildSession(**options).build({"t": edited}).program)

    def test_switch_edit_moves_a_jump_table(self):
        session = BuildSession()
        before = session.build({"t": SWITCH_SOURCE}).program
        after = session.build({"t": SWITCH_EDITS[0]}).program
        assert before.module.aux.data_ranges != after.module.aux.data_ranges
        assert len(before.module.code) == len(after.module.code)

    def test_taking_an_address_flips_the_flags(self):
        session = BuildSession()
        before = session.build({"t": TAKES_SOURCE}).program
        after = session.build({"t": SPLICE_FIXTURES["takes"][2][0]}).program
        assert before.module.aux.functions["one"].address_taken
        assert not after.module.aux.functions["one"].address_taken
        assert after.module.aux.functions["two"].address_taken

    @pytest.mark.parametrize("fixture", sorted(SPLICE_FIXTURES))
    def test_earlier_programs_never_change(self, fixture):
        options, source, edits = SPLICE_FIXTURES[fixture]
        session = BuildSession(**options)
        handed = [session.build({"t": source}).program]
        kept = [copy.deepcopy(_fields(handed[0]))]
        for edited in edits:
            handed.append(session.build({"t": edited}).program)
            kept.append(copy.deepcopy(_fields(handed[-1])))
        for program, fields in zip(handed, kept):
            assert _fields(program) == fields

    @pytest.mark.parametrize("name", ["gcc", "sjeng", "bzip2"])
    def test_workload_edits(self, name):
        text = workload(name).source
        session = BuildSession()
        session.build({name: text})
        rng = random.Random(f"splice-{name}")
        names = [span.name for span in index_source(text)
                 if span.kind == "func" and _LITERAL.search(span.body)]
        handed = []
        spliced = 0
        for count in range(12):
            fn = rng.choice(names)
            span = next(s for s in index_source(text) if s.name == fn)
            match = rng.choice(list(_LITERAL.finditer(span.body)))
            body = (span.body[:match.start()] + str(int(match.group())
                                                   + count + 1)
                    + span.body[match.end():])
            text = text.replace(span.text, span.head + body, 1)
            result = session.build({name: text})
            if result.stats["spliced"]:
                spliced += 1
                assert _fields(result.program) == _reference(session)
            handed.append((result.program, _fields(result.program)))
        assert spliced
        assert handed[-1][1] == _fields(
            BuildSession().build({name: text}).program)
        for program, fields in handed:
            assert _fields(program) == fields
