#!/usr/bin/env python3
"""Separate compilation: the property the paper is named for.

Each module is compiled and *instrumented in isolation* — no knowledge
of any other module — then linked.  Classic CFI cannot do this because
its ECNs are embedded in code bytes and must be globally unique; MCFI's
IDs live in runtime tables, so instrument-once-link-anywhere works.

The same instrumented ``mathlib`` module is linked into two different
programs, and the combined CFGs differ — "the combined module enforces
a CFG that is a combination of the individual modules' CFGs".

Run:  python examples/separate_compilation.py
"""

from repro.build import compile_object
from repro.build.link import ModuleUnits, link_units
from repro.cfg.generator import generate_cfg
from repro.analysis.binverify import verify_module
from repro.runtime.runtime import Runtime
from repro.workloads.libc import LIBC_SOURCE

MATHLIB = r"""
long poly(long x) { return x * x + 3 * x + 1; }
long twice(long (*f)(long), long x) { return f(x) + f(x + 1); }
"""

APP_A = r"""
long poly(long x);
long twice(long (*f)(long), long x);
long shift(long x) { return x + 100; }
int main(void) {
    print_str("A: ");
    print_int(twice(poly, 2) + twice(shift, 1));
    print_char('\n');
    return 0;
}
"""

APP_B = r"""
long poly(long x);
long twice(long (*f)(long), long x);
long negate(long x) { return -x; }
long scale(long x) { return 10 * x; }
int main(void) {
    print_str("B: ");
    print_int(twice(negate, 5) + twice(scale, 5) + poly(1));
    print_char('\n');
    return 0;
}
"""


def main() -> None:
    # Compile and instrument each module independently.  Note:
    # instrumenting mathlib requires nothing from app A, app B, or libc.
    mathlib, libc, app_a, app_b = (
        ModuleUnits.from_object(compile_object(source, name=name))
        for source, name in ((MATHLIB, "mathlib"), (LIBC_SOURCE, "libc"),
                             (APP_A, "app_a"), (APP_B, "app_b")))

    print(f"mathlib instrumented in isolation: "
          f"{sum(len(unit.sites) for unit in mathlib.units)} branch "
          f"sites in {len(mathlib.units)} function units")

    # Link the SAME instrumented mathlib into two different programs.
    for app, name in ((app_a, "A"), (app_b, "B")):
        program = link_units([app, mathlib, libc]).program
        verify_module(program.module)      # modular verification
        cfg = generate_cfg(program.module.aux)
        result = Runtime(program).run()
        taken = sorted(f.name for f in
                       program.module.aux.functions.values()
                       if f.address_taken and f.module != "libc")
        print(f"\nprogram {name}: output={result.output!r} "
              f"exit={result.exit_code}")
        print(f"  CFG {cfg.stats()}  address-taken={taken}")
        # twice()'s indirect call targets exactly the type-matched,
        # address-taken functions of THIS link -- the combined CFG.
        icall = next(s for s in program.module.aux.branch_sites
                     if s.kind == "icall" and s.fn == "twice")
        targets = sorted(
            fname for fname, f in program.module.aux.functions.items()
            if f.entry in cfg.branch_targets[icall.site])
        print(f"  twice()'s indirect call may target: {targets}")


if __name__ == "__main__":
    main()
