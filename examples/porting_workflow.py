#!/usr/bin/env python3
"""The Sec. 6 porting workflow: analyzer-guided source fixing.

The paper's process for making C code compatible with type-matching
CFG generation: run the analyzer, triage the remaining violations
(K1 vs K2), and fix true K1 cases with equivalently-typed wrapper
functions — their gcc splay-tree example.  This example replays that
workflow on a miniature of the same code:

1. the *legacy* source initializes a key-comparison pointer with
   ``strcmp`` (wrong type) — the analyzer reports a K1 needing a fix,
   and under MCFI the program halts at the comparator call;
2. the *fixed* source adds the paper's wrapper — the analyzer still
   sees the (now benign) history, and the program runs.

Run:  python examples/porting_workflow.py
"""

from repro.analysis.analyzer import analyze_source
from repro.analysis.report import classification_detail, fix_guidance
from repro.build import build_program
from repro.toolchain import run_program

LEGACY = r"""
/* A generic splay-tree-ish container with a comparator pointer,
   initialized with a function of the WRONG type (gcc's actual bug). */

typedef int (*keycmp)(unsigned long, unsigned long);

int str_like_cmp(char *a, char *b) {
    return (int)(strlen(a) - strlen(b));
}

keycmp compare;

long lookup(unsigned long a, unsigned long b) {
    if (compare(a, b) <= 0) { return 1; }
    return 0;
}

int main(void) {
    compare = (keycmp)str_like_cmp;   /* K1: incompatible types */
    print_int(lookup((unsigned long)"xx", (unsigned long)"yyy"));
    return 0;
}
"""

FIXED = r"""
typedef int (*keycmp)(unsigned long, unsigned long);

int str_like_cmp(char *a, char *b) {
    return (int)(strlen(a) - strlen(b));
}

/* the paper's fix: a wrapper with the pointer's exact type */
int str_like_cmp_wrap(unsigned long a, unsigned long b) {
    return str_like_cmp((char *)a, (char *)b);
}

keycmp compare;

long lookup(unsigned long a, unsigned long b) {
    if (compare(a, b) <= 0) { return 1; }
    return 0;
}

int main(void) {
    compare = str_like_cmp_wrap;
    print_int(lookup((unsigned long)"xx", (unsigned long)"yyy"));
    return 0;
}
"""


def main() -> None:
    print("=== step 1: analyze the legacy source ===")
    report = analyze_source(LEGACY, name="legacy")
    print(f"VBE={report.vbe}  VAE={report.vae}  "
          f"K1={report.k1} (of which {report.k1_fixed} need fixes)  "
          f"K2={report.k2}")
    print(classification_detail(report))
    for line in fix_guidance(report):
        print("fix:", line)

    print("\n=== step 2: the legacy program under MCFI ===")
    result = run_program(build_program({"legacy": LEGACY}, mcfi=True).program)
    print(f"outcome: {result.violation or result.output}")
    print("(the comparator call halts: no address-taken function "
          "matches the pointer's type)")

    print("\n=== step 3: apply the wrapper fix and re-run ===")
    fixed_report = analyze_source(FIXED, name="fixed")
    print(f"analyzer after fix: K1 cases needing fixes = "
          f"{fixed_report.k1_fixed}")
    result = run_program(build_program({"fixed": FIXED}, mcfi=True).program)
    print(f"outcome: output={result.output!r} exit={result.exit_code} "
          f"ok={result.ok}")
    print("\nThis is the Table 2 story: 6 lines for perlbench, ~30 for "
          "gcc, 1 for\nlibquantum — and every K2 case needed nothing.")


if __name__ == "__main__":
    main()
