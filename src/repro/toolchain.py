"""The TinyC language frontend and the program runner.

The pipeline (paper Sec. 7) chains, for one module::

    TinyC source -> parse -> type check -> MIR -> codegen -> RawModule

and for whole programs::

    [module, ...] -> static link (separate instrumentation) -> load -> run

Compiling and linking live in :mod:`repro.build`
(:func:`~repro.build.build_program`, :func:`~repro.build.compile_object`,
:class:`~repro.build.session.BuildSession`).  What lives here is the
language frontend every build path shares: the ``BUILTIN_PRELUDE``
plays the role of the C headers (declarations of the libc API every
module may use; ``__syscall``, ``setjmp`` and ``longjmp`` are compiler
intrinsics), :func:`frontend` is the parse+typecheck step, and a
:class:`ModuleInterface` re-checks edited function bodies of a module
without parsing the rest of it again.
:func:`run_program` loads a linked program into a fresh runtime.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ParseError
from repro.linker.static_linker import LinkedProgram
from repro.runtime.runtime import Runtime, RunResult
from repro.tinyc import ast
from repro.tinyc.parser import Parser, deep_nesting, parse, parse_definition
from repro.tinyc.typecheck import CheckedUnit, check, declare
from repro.tinyc.types import Type, TypeTable

BUILTIN_PRELUDE = """
void *malloc(unsigned long n);
void *calloc(unsigned long n, unsigned long m);
void *realloc(void *p, unsigned long n);
void free(void *p);
void *memcpy(void *d, void *s, unsigned long n);
void *memset(void *d, int c, unsigned long n);
unsigned long strlen(char *s);
int strcmp(char *a, char *b);
char *strcpy(char *d, char *s);
int strncmp(char *a, char *b, unsigned long n);
char *strchr(char *s, int c);
int memcmp(void *a, void *b, unsigned long n);
long atoi_l(char *s);
void qsort(void *base, unsigned long n, unsigned long width,
           int (*cmp)(void *, void *));
long __syscall(long n, long a, long b, long c);
int setjmp(long *buf);
void longjmp(long *buf, int v);
void exit(int code);
long write(int fd, char *buf, long n);
void print_str(char *s);
void print_int(long v);
void print_char(int c);
long time_now(void);
int thread_spawn(void (*fn)(long), long arg);
void thread_exit(void);
long dlopen(char *path);
long dlsym(long handle, char *name);
long jit_compile(char *src, char *name);
long dlclose(long handle);
void sched_yield(void);
long abs_long(long x);
long rand_next(void);
void rand_seed(long s);
double fabs_d(double x);
double sqrt_d(double x);
"""


@lru_cache(maxsize=None)
def prelude_decls() -> Tuple[ast.FuncDecl, ...]:
    """``BUILTIN_PRELUDE``'s declarations, parsed on first use.

    Every unit shares them, so nothing may change them.  The prelude
    declares functions only: no type, typedef or enum constant, so a
    module parses the same with or without it in front.
    """
    return tuple(parse(BUILTIN_PRELUDE, name="prelude").decls)


def frontend(source: str, name: str = "unit", prelude: bool = True,
             types: Optional[TypeTable] = None) -> CheckedUnit:
    """Parse and type-check one TinyC module.

    With ``prelude`` the prelude's declarations come before the
    module's own; diagnostics carry the module's own line numbers.
    """
    unit = parse(source, name=name, types=types)
    if prelude:
        unit.decls[:0] = prelude_decls()
    return check(unit)


#: typedef names and enum constants in scope at one position
Scope = Tuple[Dict[str, Type], Dict[str, int]]


class ModuleInterface:
    """What a module's function bodies are checked against.

    Captured once from a module's top-level spans
    (:func:`repro.build.source_index.index_source`), with every
    function parsed as its declaration (``head;``):

    * the checker's state after the declaration phase (the builtin
      prelude's, then the module's): signatures, globals and checked
      initializers;
    * for each function, the typedef names and enum constants in scope
      at its position (the parser resolves those as it goes, so they
      are positional);
    * the module's final struct table (struct tags are not positional:
      completeness only matters when checking).

    :meth:`check` parses and checks function definitions against it,
    each on copies, so the interface never changes.  The result is
    what checking the module with every other body replaced by its
    declaration gives, apart from line numbers.  Only a module whose
    bodies define no type qualifies (``TranslationUnit.local_types``).
    """

    def __init__(self, spans: Sequence, name: str) -> None:
        self.name = name
        parser = Parser("".join(
            span.head.rstrip() + ";\n" if span.kind == "func" else span.text
            for span in spans), name=name)
        unit = ast.TranslationUnit(name=name)
        self.scopes: Dict[str, Scope] = {}
        with deep_nesting():
            for span in spans:
                declared = len(unit.decls)
                if span.kind == "func":
                    self.scopes[span.name] = (dict(parser.types.typedefs),
                                              dict(parser.enum_constants))
                parser.parse_external(unit)
                if span.kind == "func" and (
                        len(unit.decls) != declared + 1
                        or unit.decls[-1].name != span.name):
                    raise ParseError(f"{span.name!r} is not one declaration")
        if parser.peek().kind != "eof":
            raise ParseError("spans do not tile the module")
        self.structs = parser.types.structs
        unit.decls[:0] = prelude_decls()
        self.checker = declare(unit)

    def check(self, spans: Sequence) -> CheckedUnit:
        """Parse and check the function spans ``spans`` (in module
        order); the unit holds just those functions."""
        funcs = []
        for span in spans:
            typedefs, enums = self.scopes[span.name]
            func = parse_definition(
                span.text, name=self.name,
                types=TypeTable(self.structs, typedefs), enums=enums)
            if func.name != span.name:
                raise ParseError(f"span {span.name!r} defines {func.name!r}")
            funcs.append(func)
        return self.checker.extend(funcs)


def run_program(program: LinkedProgram,
                max_steps: int = 200_000_000) -> RunResult:
    """Load a linked program into a fresh runtime and run it."""
    return Runtime(program).run(max_steps=max_steps)
