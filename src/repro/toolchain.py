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
intrinsics), and :func:`frontend` is the parse+typecheck step.
:func:`run_program` loads a linked program into a fresh runtime.
"""

from __future__ import annotations

from typing import Optional

from repro.linker.static_linker import LinkedProgram
from repro.runtime.runtime import Runtime, RunResult
from repro.tinyc.parser import parse
from repro.tinyc.typecheck import CheckedUnit, check
from repro.tinyc.types import TypeTable

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


def frontend(source: str, name: str = "unit", prelude: bool = True,
             types: Optional[TypeTable] = None) -> CheckedUnit:
    """Parse and type-check one TinyC module."""
    text = (BUILTIN_PRELUDE + source) if prelude else source
    unit = parse(text, name=name, types=types)
    return check(unit)


def run_program(program: LinkedProgram, verify: bool = False,
                max_steps: int = 200_000_000) -> RunResult:
    """Load a linked program into a fresh runtime and run it."""
    runtime = Runtime(program, verify=verify)
    return runtime.run(max_steps=max_steps)
