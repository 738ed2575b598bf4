#!/usr/bin/env python3
"""JIT code installation under MCFI — the paper's "extreme test".

Sec. 8.1: "A rather extreme test for whether MCFI's transactions scale
in a parallel environment is in a Just-In-Time compilation environment,
where code is generated and installed on-the-fly, and as a result, ID
tables need to be updated frequently.  However, our implementation has
not covered a JIT environment yet."  This example covers it.

A guest interpreter profiles its hottest opcodes and asks the runtime
to JIT-compile specialized handlers.  Each installation flows through
the full pipeline — compile, instrument, *verify*, seal W^X, fold its
auxiliary info into a new CFG, publish via an update transaction —
while the installed handlers are immediately callable through
type-checked function pointers.  A handler of the wrong type is
rejected by the very first call.

Run:  python examples/jit_compiler.py
"""

from repro.build import build_program
from repro.runtime.jit import JitEngine
from repro.runtime.runtime import Runtime

GUEST = {"main": r"""
/* A tiny calculator VM that JIT-specializes its operations. */

long interp_add(long a, long b) { return a + b; }
long interp_mul(long a, long b) { return a * b; }

int main(void) {
    long (*ops[4])(long, long);
    long total = 0;
    long i;

    /* start interpreted */
    ops[0] = interp_add;
    ops[1] = interp_mul;

    /* ... then JIT-compile specialized versions at runtime */
    ops[2] = (long (*)(long, long))jit_compile(
        "long jit_fma(long a, long b) { return a * b + a; }", "jit_fma");
    ops[3] = (long (*)(long, long))jit_compile(
        "long jit_mix(long a, long b) { return (a ^ b) + (a & b); }",
        "jit_mix");
    if (ops[2] == 0 || ops[3] == 0) {
        print_str("jit failed\n");
        return 1;
    }

    for (i = 0; i < 16; i++) {
        total += ops[i & 3]((long)i, (long)(i + 2));
    }
    print_str("total ");
    print_int(total);
    print_char('\n');

    /* JIT spraying does not help an attacker: installing a function of
       a DIFFERENT type and calling it through this table halts. */
    ops[0] = (long (*)(long, long))jit_compile(
        "long sprayed(char *cmd) { return 0; }", "sprayed");
    print_str("calling type-confused jitted code...\n");
    ops[0](1, 2);
    print_str("UNREACHABLE\n");
    return 0;
}
"""}


def main() -> None:
    program = build_program(GUEST, mcfi=True).program
    runtime = Runtime(program)
    engine = JitEngine(runtime)

    result = runtime.run()
    print("--- guest output ---")
    print(result.output.decode(), end="")
    print("--------------------")
    print(f"JIT installs : {engine.stats.installs} "
          f"({engine.stats.compiled_bytes} bytes of generated code, "
          f"each verified before sealing)")
    print(f"table version: {runtime.id_tables.version} "
          f"(one update transaction per installation)")
    print(f"outcome      : {result.violation}")
    print("The sprayed handler has type long(char*); the dispatch table "
          "has type\nlong(long,long) — the check transaction refuses "
          "the transfer.")


if __name__ == "__main__":
    main()
