"""``python -m repro.tools.objdump`` — inspect MCFI modules.

Disassembles a compiled module or linked program, annotates function
entries and indirect-branch sites, and dumps the auxiliary type
information that makes the module linkable and verifiable.

Examples::

    python -m repro.tools.objdump mylib.mcfo
    python -m repro.tools.objdump main.c --native      # baseline code
    python -m repro.tools.objdump main.c --aux-only
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

from repro.errors import ReproError
from repro.isa.disasm import format_instr, sweep_ranges
from repro.module import objectfile
from repro.build import compile_object
from repro.build.link import ModuleUnits, link_units
from repro.workloads.libc import LIBC_SOURCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-objdump",
        description="Disassemble and inspect MCFI modules")
    parser.add_argument("input", type=Path,
                        help="a TinyC source (.c) or object file (.mcfo)")
    parser.add_argument("--arch", choices=("x32", "x64"), default="x64")
    parser.add_argument("--native", action="store_true",
                        help="show the uninstrumented baseline")
    parser.add_argument("--aux-only", action="store_true",
                        help="print only the auxiliary information")
    parser.add_argument("--verify", action="store_true",
                        help="run the binary verifier and annotate the "
                             "disassembly with check-transaction spans "
                             "and per-branch verdicts")
    parser.add_argument("--max-lines", type=int, default=200,
                        help="cap on disassembly lines (0 = no cap)")
    return parser


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.input.suffix == ".mcfo":
            raw = objectfile.load(args.input)
        else:
            raw = compile_object(args.input.read_text(),
                                 name=args.input.stem, arch=args.arch)
        libc = compile_object(LIBC_SOURCE, name="libc", arch=args.arch)
        mcfi = not args.native
        program = link_units([ModuleUnits.from_object(part, mcfi)
                              for part in (raw, libc)], mcfi=mcfi).program
        module = program.module
        aux = module.aux

        print(f"module {raw.name!r} linked with simlibc "
              f"({'native' if args.native else 'MCFI'}, {args.arch})")
        print(f"code {len(module.code)} bytes at {module.base:#x}; "
              f"{len(aux.branch_sites)} indirect-branch sites")

        print("\n-- functions " + "-" * 50)
        for func in sorted(aux.functions.values(), key=lambda f: f.entry):
            taken = " [address-taken]" if func.address_taken else ""
            print(f"  {func.entry:#010x} {func.name:24s} "
                  f"{func.sig.render()}{taken}")

        print("\n-- indirect-branch sites " + "-" * 38)
        for site in aux.branch_sites[:60]:
            extra = site.sig.render() if site.sig else \
                (site.plt_symbol or f"{len(site.targets)} targets")
            print(f"  site {site.site:4d} {site.kind:8s} in "
                  f"{site.fn or '<plt>':20s} {extra}")
        if len(aux.branch_sites) > 60:
            print(f"  ... {len(aux.branch_sites) - 60} more")

        if args.aux_only:
            return 0

        report = None
        span_starts = {}
        span_ends = set()
        if args.verify:
            from repro.analysis.binverify import analyze_module
            report = analyze_module(module)
            span_starts = {start: end for start, end in report.check_spans}
            span_ends = set(end for _, end in report.check_spans)

        labels = {addr: name for name, addr in module.labels.items()
                  if not name.startswith("__mcfi")}
        print("\n-- disassembly " + "-" * 48)
        lines = 0
        for decoded in sweep_ranges(module.code, module.base,
                                    module.code_ranges):
            if decoded.address in span_ends:
                print("  ; ---- end check transaction ----")
            if decoded.address in span_starts:
                print(f"  ; ---- check transaction "
                      f"{decoded.address:#x}.."
                      f"{span_starts[decoded.address]:#x} ----")
            if decoded.address in labels:
                print(f"{labels[decoded.address]}:")
            line = "  " + format_instr(decoded, labels)
            if report is not None and decoded.address in report.verdicts:
                line += f"    ; <- {report.verdicts[decoded.address]}"
            print(line)
            lines += 1
            if args.max_lines and lines >= args.max_lines:
                print(f"  ... (truncated at {args.max_lines} lines; "
                      f"--max-lines 0 for all)")
                break

        if report is not None:
            print("\n-- verifier " + "-" * 51)
            stats = report.stats
            print(f"verdict: {'ACCEPT' if report.ok else 'REJECT'} "
                  f"({stats.get('checked_branches', 0)} check "
                  f"transactions, {stats.get('proved_branches', 0)} "
                  f"proved branches, {stats.get('proved_stores', 0)} "
                  f"proved stores)")
            for diag in report.errors[:20]:
                print(f"  {diag.code}: {diag.message}")
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
