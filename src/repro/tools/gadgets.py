"""``python -m repro.tools.gadgets`` — the rp++ analogue.

Scans a compiled module (or its MCFI-hardened build) for ROP gadgets
and reports which remain reachable under the installed policy.

Examples::

    python -m repro.tools.gadgets prog.c                # native scan
    python -m repro.tools.gadgets prog.c --mcfi         # + reachability
    python -m repro.tools.gadgets prog.c --depth 6 --show 20
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

from repro.attacks.gadgets import analyze_image, find_gadgets, \
    unique_gadgets
from repro.cfg.generator import generate_cfg
from repro.errors import ReproError
from repro.module import objectfile
from repro.build import compile_object
from repro.build.link import ModuleUnits, link_units
from repro.workloads.libc import LIBC_SOURCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gadgets",
        description="ROP gadget scanner for SimISA modules")
    parser.add_argument("input", type=Path,
                        help="TinyC source (.c) or object file (.mcfo)")
    parser.add_argument("--mcfi", action="store_true",
                        help="scan the hardened build and report "
                             "policy reachability")
    parser.add_argument("--depth", type=int, default=4,
                        help="max instructions per gadget")
    parser.add_argument("--show", type=int, default=10,
                        help="print the first N gadgets")
    parser.add_argument("--arch", choices=("x32", "x64"), default="x64")
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
        program = link_units([ModuleUnits.from_object(part, args.mcfi)
                              for part in (raw, libc)],
                             mcfi=args.mcfi).program
        module = program.module

        gadgets = find_gadgets(module.code, base=module.base,
                               depth=args.depth)
        unique = unique_gadgets(gadgets)
        print(f"{'hardened' if args.mcfi else 'native'} image: "
              f"{len(module.code)} bytes, {len(gadgets)} gadget starts, "
              f"{len(unique)} unique gadgets (depth {args.depth})")

        if args.mcfi:
            cfg = generate_cfg(module.aux)
            report = analyze_image(module.code, module.base,
                                   permitted_targets=set(cfg.tary_ecns),
                                   depth=args.depth)
            print(f"reachable under the MCFI policy: "
                  f"{report.unique_reachable} unique "
                  f"({100 * report.elimination_rate:.2f}% eliminated)")

        for gadget in gadgets[:args.show]:
            print(f"  {gadget}")
        if len(gadgets) > args.show:
            print(f"  ... {len(gadgets) - args.show} more "
                  f"(--show N for more)")
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
