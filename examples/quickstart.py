#!/usr/bin/env python3
"""Quickstart: compile a TinyC program, harden it with MCFI, watch a
control-flow hijack get blocked.

Run:  python examples/quickstart.py
"""

from repro.build import build_program
from repro.toolchain import run_program

# A program with a function-pointer dispatch table -- the kind of
# indirect control flow MCFI protects.  `evil` has a different type
# from the table's entries, so the CFG generated by type matching
# never allows the table dispatch to reach it.
SOURCE = r"""
typedef long (*handler)(long);

long double_it(long x) { return 2 * x; }
long square_it(long x) { return x * x; }
void evil(char *cmd)   { print_str("!! hijacked !!"); }

handler table[2] = {double_it, square_it};

int main(void) {
    long i;
    long total = 0;
    void (*keep)(char *) = evil;     /* evil is address-taken, like a
                                        dangerous libc function */
    for (i = 0; i < 4; i++) {
        total += table[i % 2](i + 1);
    }
    print_str("total ");
    print_int(total);
    print_char('\n');
    return 0;
}
"""


def main() -> None:
    print("=== 1. normal execution, native vs MCFI ===")
    native = run_program(
        build_program({"quickstart": SOURCE}, mcfi=False).program)
    hardened = run_program(
        build_program({"quickstart": SOURCE}, mcfi=True).program)
    print(f"native : exit={native.exit_code} output={native.output!r} "
          f"cycles={native.cycles}")
    print(f"MCFI   : exit={hardened.exit_code} output={hardened.output!r} "
          f"cycles={hardened.cycles}")
    overhead = 100.0 * (hardened.cycles / native.cycles - 1.0)
    print(f"instrumentation overhead: {overhead:.2f}%")

    print("\n=== 2. what the instrumentation looks like ===")
    program = build_program({"quickstart": SOURCE}, mcfi=True).program
    module = program.module
    print(f"code size {len(module.code)} bytes, "
          f"{len(module.aux.branch_sites)} instrumented indirect branches, "
          f"{len(module.aux.functions)} functions "
          f"({sum(f.address_taken for f in module.aux.functions.values())} "
          f"address-taken)")
    from repro.cfg.generator import generate_cfg
    cfg = generate_cfg(module.aux)
    print(f"CFG: {cfg.stats()}")

    print("\n=== 3. the verifier checks the module before loading ===")
    from repro.analysis.binverify import verify_module
    report = verify_module(module)
    print("verify_module:", report.stats)

    print("\n=== 4. a concurrent attacker corrupts the dispatch table ===")
    from repro.runtime.runtime import Runtime
    from repro.vm.scheduler import GeneratorTask

    def attack(mcfi: bool):
        prog = build_program({"quickstart": SOURCE}, mcfi=mcfi).program
        runtime = Runtime(prog)
        slot = prog.data.symbols["table"]
        evil_entry = prog.labels["evil"]

        def attacker():
            while True:  # overwrite table[0] with evil's address
                runtime.memory.host_write(
                    slot, evil_entry.to_bytes(8, "little"))
                yield

        return runtime.run_scheduled(
            seed=3, extra_tasks=[GeneratorTask(attacker(), "attacker")])

    out = attack(mcfi=False)
    print(f"native under attack: output={out.output!r}  "
          f"({'HIJACKED' if b'hijacked' in out.output else 'ok'})")
    out = attack(mcfi=True)
    print(f"MCFI under attack  : violation={out.violation}")
    print("MCFI blocked the hijack: the attacker-supplied target has a "
          "different\nequivalence class (its type does not match the "
          "dispatch table's).")


if __name__ == "__main__":
    main()
