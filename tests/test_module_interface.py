"""The parsed-once prelude and the module interface the incremental
rebuild checks edited bodies against.

Two properties hold the interface path to the frontend it replaced:

* checked against a module's :class:`~repro.toolchain.ModuleInterface`,
  a function gives the same checked AST and the same MIR as checking
  the module with every other body replaced by its declaration
  (``head;``), which is what the mini-frontend parsed on every edit
  before the interface existed (:func:`_stub_check` keeps that oracle);
* a session edit gives a cold build's image, or a cold build's error.

The prelude half is simpler: parsing the prelude once and putting its
declarations in front must not move a module's line numbers.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.build import BuildSession, build_program
from repro.build.source_index import index_source
from repro.errors import LexError, ParseError, TinyCError, TypeError_
from repro.tinyc.parser import parse
from repro.tinyc.types import Type, canonical
from repro.toolchain import (
    BUILTIN_PRELUDE,
    ModuleInterface,
    frontend,
    prelude_decls,
    run_program,
)
from repro.workloads.libc import LIBC_SOURCE
from repro.workloads.spec import BENCHMARKS, workload
from tests.test_build_api import _assert_same_image
from tests.test_golden_digests import unit_fingerprints


def _view(value):
    """A comparable rendering of checker output: types by name and
    canonical form, line numbers dropped, order kept."""
    if isinstance(value, Type):
        return (type(value).__name__, str(value), canonical(value))
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                tuple((item.name, _view(getattr(value, item.name)))
                      for item in dataclasses.fields(value)
                      if item.name != "line"))
    if isinstance(value, dict):
        return tuple((key, _view(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(_view(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(value))
    return value


def _interface_view(interface: ModuleInterface):
    checker = interface.checker
    symbols = tuple(
        (name, symbol.kind, symbol.unique, _view(symbol.ctype))
        for scope in checker.symbols._scopes
        for name, symbol in scope.items())
    return {
        "scopes": _view(interface.scopes),
        "structs": tuple((key, struct.complete, canonical(struct))
                         for key, struct in interface.structs.items()),
        "checked": _view(checker.out),
        "symbols": symbols,
        "counter": checker.symbols._counter,
    }


def _stub_check(spans, name: str, fn: str):
    """The module with every body but ``fn``'s replaced by its
    declaration, parsed and checked whole."""
    text = "".join(
        span.head.rstrip() + ";\n"
        if span.kind == "func" and span.name != fn else span.text
        for span in spans)
    return frontend(text, name=name)


def _error(build):
    with pytest.raises(TinyCError) as info:
        build()
    return type(info.value), str(info.value)


# -- the prelude -------------------------------------------------------------


class TestPrelude:
    @pytest.mark.parametrize("source,error", [
        ("int main(void) {\n  return 0\n}\n", ParseError),
        ("int main(void) {\n  return 0 @ 1;\n}\n", LexError),
        ("int main(void) {\n  return x;\n}\n", TypeError_),
    ])
    def test_diagnostics_carry_the_module_line(self, source, error):
        with pytest.raises(error) as bare:
            frontend(source, prelude=False)
        with pytest.raises(error) as prelude:
            frontend(source)
        assert prelude.value.line == bare.value.line
        assert str(prelude.value) == str(bare.value)
        assert str(prelude.value).startswith(("2:", "3:"))

    def test_analyzer_cast_record_carries_the_source_line(self, tmp_path,
                                                          capsys):
        from repro.tools.analyze import main
        path = tmp_path / "cast.c"
        path.write_text("long f(long x) { return x; }\n"
                        "int main(void) {\n"
                        "    long v = (long) f;\n"
                        "    return (int) v;\n"
                        "}\n")
        main([str(path), "--json"])
        casts = json.loads(capsys.readouterr().out)["casts"]
        assert [cast["line"] for cast in casts] == [3]

    def test_declarations_equal_a_fresh_parse(self):
        assert prelude_decls() == tuple(parse(BUILTIN_PRELUDE).decls)
        assert prelude_decls() is prelude_decls()

    def test_module_sees_prelude_declarations_first(self):
        checked = frontend("int main(void) { print_int(1); return 0; }")
        names = [decl.name for decl in checked.unit.decls]
        assert names == [decl.name for decl in prelude_decls()]
        assert list(checked.func_sigs)[:len(names)] == names


# -- the interface against the stub oracle ------------------------------------


@pytest.mark.parametrize("name", list(BENCHMARKS) + ["libc"])
def test_interface_check_equals_stub_check(name):
    source = LIBC_SOURCE if name == "libc" else workload(name).source
    spans = index_source(source)
    interface = ModuleInterface(spans, name)
    for span in spans:
        if span.kind != "func":
            continue
        expected = _stub_check(spans, name, span.name)
        actual = interface.check([span])
        assert list(actual.functions) == [span.name]
        assert _view(actual.functions[span.name]) == \
            _view(expected.functions[span.name]), span.name
        assert unit_fingerprints(actual) == unit_fingerprints(expected), \
            span.name


# -- the interface path through a session --------------------------------------


#: ``{body}`` is the edited function's body; typedef ``T`` and enum
#: constant ``K`` come after it, so its body cannot use them.
_LATE_NAMES = """
long f(long x) {{ {body} }}
typedef long T;
enum {{ K = 5 }};
int main(void) {{ return (int) f(2); }}
"""

#: The same names, declared before the edited function.
_EARLY_NAMES = """
typedef long T;
enum {{ K = 5 }};
long f(long x) {{ {body} }}
int main(void) {{ return (int) f(2); }}
"""

#: A struct tag the edited function uses before the file defines it.
_LATER_STRUCT = """
long f(long x) {{ {body} }}
struct S {{ long a; long b; }};
struct S shared;
int main(void) {{ shared.b = 4; return (int) f(1); }}
"""

#: ``g``'s body defines a struct that ``f``, after it, uses.
_CLEAN_BODY_TYPE = """
long g(long x) {{ struct P {{ long a; long b; }} p; p.a = x; return p.a; }}
long f(long x) {{ {body} }}
int main(void) {{ return (int) (g(1) + f(2)); }}
"""

#: A static function, a second function to edit, and a string.
_TWO_AND_STATIC = """
static long h(long x) {{ {h} }}
long f(long x) {{ {f} }}
int main(void) {{ print_str("m"); return (int) (h(1) + f(2)); }}
"""


def _session_after(template: str, **bodies):
    session = BuildSession()
    session.build({"m": template.format(**bodies)})
    return session


def _edit(session, template: str, **bodies):
    source = template.format(**bodies)
    result = session.build({"m": source})
    _assert_same_image(build_program({"m": source}).program, result.program)
    return result


class TestInterfacePath:
    @pytest.mark.parametrize("body", ["T y = x; return y;",
                                      "return x + K;"])
    def test_names_declared_after_the_function_stay_out_of_scope(self,
                                                                  body):
        session = _session_after(_LATE_NAMES, body="return x + 1;")
        source = _LATE_NAMES.format(body=body)
        expected = _error(lambda: build_program({"m": source}))
        assert _error(lambda: session.build({"m": source})) == expected

    def test_names_declared_before_the_function_are_in_scope(self):
        session = _session_after(_EARLY_NAMES, body="return x + 1;")
        result = _edit(session, _EARLY_NAMES,
                       body="T y = x + K; return y;")
        assert result.stats["modules_mini"] == 1
        assert run_program(result.program).exit_code == 7

    @pytest.mark.parametrize("body", [
        "struct Q { long a; } q; q.a = x; return q.a;",
        "typedef long U; U = x; return U;",
        "enum { E = 3 }; return x + E;",
    ])
    def test_a_dirty_body_defining_a_type_rebuilds_fully(self, body):
        session = _session_after(_EARLY_NAMES, body="return x + 1;")
        result = _edit(session, _EARLY_NAMES, body=body)
        assert result.stats["modules_rebuilt"] == 1

    def test_a_clean_body_defining_a_type_rebuilds_fully(self):
        session = _session_after(_CLEAN_BODY_TYPE, body="return x;")
        result = _edit(session, _CLEAN_BODY_TYPE,
                       body="return x + (long) sizeof(struct P);")
        assert result.stats["modules_rebuilt"] == 1
        assert run_program(result.program).exit_code == 19

    def test_struct_defined_later_in_the_file(self):
        session = _session_after(_LATER_STRUCT, body="return x;")
        result = _edit(session, _LATER_STRUCT,
                       body="struct S *p = &shared; return p->b + x;")
        assert result.stats["modules_mini"] == 1
        assert run_program(result.program).exit_code == 5

    def test_unknown_struct_tag_stays_out_of_the_interface(self):
        session = _session_after(_EARLY_NAMES, body="return x + 1;")
        result = _edit(session, _EARLY_NAMES,
                       body="struct Fresh *p = 0; return x + (p == 0);")
        assert result.stats["modules_mini"] == 1
        interface = session._modules["m"].interface
        assert "struct Fresh" not in interface.structs
        assert _interface_view(interface) == _interface_view(
            ModuleInterface(index_source(_EARLY_NAMES.format(
                body="return x + 1;")), "m"))

    def test_two_dirty_functions_in_one_rebuild(self):
        session = _session_after(_TWO_AND_STATIC, h="return x * 3;",
                                 f="return x;")
        result = _edit(session, _TWO_AND_STATIC,
                       h="long y = x * 4; return y;",
                       f="long z = x + 1; return z;")
        assert result.stats["modules_mini"] == 1
        assert result.stats["spliced"] == 0
        assert run_program(result.program).exit_code == 7

    def test_static_function(self):
        session = _session_after(_TWO_AND_STATIC, h="return x * 3;",
                                 f="return x;")
        result = _edit(session, _TWO_AND_STATIC, h="return x * 5;",
                       f="return x;")
        assert result.stats["modules_mini"] == 1
        assert result.stats["spliced"] == 1
        assert run_program(result.program).exit_code == 7

    def test_new_string_and_function_address(self):
        session = _session_after(_TWO_AND_STATIC, h="return x * 3;",
                                 f="return x;")
        result = _edit(session, _TWO_AND_STATIC, h="return x * 3;",
                       f='long (*p)(long) = h; print_str("f"); '
                         'return p(x);')
        assert run_program(result.program).output == b"mf"

    @pytest.mark.parametrize("name", ["perlbench", "gcc"])
    def test_every_function_edited_once_leaves_the_cache_intact(self, name):
        source = workload(name).source
        session = BuildSession()
        session.build({name: source})
        for span in index_source(source):
            if span.kind != "func":
                continue
            body = "{ long edit_probe = 1;" + span.body[1:]
            source = source.replace(span.text, span.head + body, 1)
            result = session.build({name: source})
            assert result.stats["modules_mini"] == 1, span.name
        _assert_same_image(build_program({name: source}).program,
                           result.program)
        assert prelude_decls() == tuple(parse(BUILTIN_PRELUDE).decls)
        interface = session._modules[name].interface
        assert _interface_view(interface) == _interface_view(
            ModuleInterface(index_source(source), name))
