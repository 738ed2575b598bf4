"""Shared fixtures: compiled programs are expensive, so cache per session."""

from __future__ import annotations

import pytest

from repro.build import build_program, compile_object
from repro.build.link import ModuleUnits, link_units
from repro.experiments import compiled
from repro.runtime.runtime import Runtime
from repro.toolchain import run_program

#: A small but feature-complete program used across runtime/verifier
#: tests: function pointers, a dense switch, setjmp/longjmp, strings.
DEMO_SOURCE = r"""
typedef int (*binop)(int, int);

int add(int a, int b) { return a + b; }
int sub(int a, int b) { return a - b; }
int mul(int a, int b) { return a * b; }

binop ops[3] = {add, sub, mul};

int classify(int x) {
    switch (x) {
        case 0: return 10;
        case 1: return 11;
        case 2: return 12;
        case 3: return 13;
        default: return -1;
    }
}

long jbuf[4];

int main(void) {
    int i;
    int total = 0;
    for (i = 0; i < 3; i++) {
        total += ops[i](10, 3);
    }
    for (i = 0; i < 5; i++) {
        total += classify(i);
    }
    i = setjmp(jbuf);
    total += i;
    if (i < 2) { longjmp(jbuf, i + 1); }
    print_str("demo ");
    print_int(total);
    return total & 63;
}
"""


@pytest.fixture(scope="session")
def demo_program():
    """The demo program, MCFI-instrumented and statically linked."""
    return build_program({"demo": DEMO_SOURCE}, mcfi=True).program


@pytest.fixture(scope="session")
def demo_program_native():
    return build_program({"demo": DEMO_SOURCE}, mcfi=False).program


@pytest.fixture(scope="session")
def demo_raw():
    """The demo module before instrumentation (symbolic assembly)."""
    return compile_object(DEMO_SOURCE, name="demo")


@pytest.fixture()
def demo_runtime(demo_program):
    return Runtime(demo_program)


def run_source(source: str, mcfi: bool = True, arch: str = "x64",
               max_steps: int = 50_000_000):
    """Compile and run a snippet; helper used throughout the tests."""
    program = build_program({"t": source}, arch=arch, mcfi=mcfi).program
    return run_program(program, max_steps=max_steps)


def link_objects(raws, mcfi: bool = True, **options):
    """Statically link compiled modules, the way ``.mcfo`` objects
    link: each is split into units (:meth:`ModuleUnits.from_object`)."""
    return link_units([ModuleUnits.from_object(raw, mcfi) for raw in raws],
                      mcfi=mcfi, **options).program


@pytest.fixture(scope="session")
def bench_program():
    """One real benchmark (libquantum: small) compiled both ways."""
    return {
        "mcfi": compiled("libquantum", "x64", True),
        "native": compiled("libquantum", "x64", False),
    }
