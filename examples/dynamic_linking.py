#!/usr/bin/env python3
"""Dynamic linking: the paper's headline capability.

A multithreaded program dlopens a separately compiled library while a
worker thread keeps executing indirect branches.  The dynamic linker:

1. loads and patches the library (writable, then sealed to R+X),
2. extends the program's CFG generation by every resident library's
   auxiliary type information,
3. runs an *update transaction* that installs the new ID tables and
   rewrites the GOT -- concurrently with the worker's check
   transactions.

Run:  python examples/dynamic_linking.py
"""

from repro.build import build_program, compile_object
from repro.linker.dynamic_linker import DynamicLinker
from repro.runtime.runtime import Runtime

MAIN_SOURCE = {"main": r"""
long transform(long x);          /* provided by the plugin, via PLT */

long work_done;

void worker(long rounds) {
    long i;
    long acc = 0;
    for (i = 0; i < rounds; i++) {
        acc += classify((int)(i & 7));   /* jump-table dispatch */
        sched_yield();
    }
    work_done = acc;
}

int classify(int x) {
    switch (x) {
        case 0: return 1;
        case 1: return 2;
        case 2: return 4;
        case 3: return 8;
        default: return 0;
    }
}

int main(void) {
    long handle;
    thread_spawn(worker, 300);

    print_str("dlopen...\n");
    handle = dlopen("mathlib");
    if (handle == 0) {
        print_str("dlopen failed\n");
        return 1;
    }

    /* call through the PLT (target installed by the update tx) */
    print_str("transform(10) = ");
    print_int(transform(10));
    print_char('\n');

    /* and through a dlsym'd pointer, checked by type matching */
    {
        long sym = dlsym(handle, "transform");
        long (*f)(long) = (long (*)(long))sym;
        print_str("via dlsym     = ");
        print_int(f(11));
        print_char('\n');
    }
    return 0;
}
"""}

LIB_SOURCE = r"""
long transform(long x) {
    return x * x + 1;
}
"""


def main() -> None:
    program = build_program(MAIN_SOURCE, mcfi=True,
                            allow_unresolved=["transform"]).program
    runtime = Runtime(program)
    linker = DynamicLinker(runtime, verify=True)
    linker.register("mathlib", compile_object(LIB_SOURCE, name="mathlib"))

    before = runtime.cfg.stats()
    print(f"CFG before dlopen: {before}")
    print(f"ID-table version : {runtime.id_tables.version}")

    result = runtime.run_scheduled(seed=11, burst=4)

    print("\n--- program output ---")
    print(result.output.decode(), end="")
    print("----------------------\n")
    after = runtime.cfg.stats()
    print(f"CFG after dlopen : {after} "
          f"(+{after['IBs'] - before['IBs']} branches, "
          f"+{after['IBTs'] - before['IBTs']} targets)")
    print(f"ID-table version : {runtime.id_tables.version} "
          f"(bumped by the update transaction)")
    print(f"exit code        : {result.exit_code}   "
          f"ok={result.ok}")
    lib = linker.loaded[1]
    print(f"library loaded at {lib.module.base:#x}, "
          f"exports {list(lib.exports)}")


if __name__ == "__main__":
    main()
