"""``python -m repro.tools.cc`` — the MCFI compiler driver.

A thin command-line front over the toolchain: compile TinyC sources to
``.mcfo`` object files, link object files and sources into a program,
and optionally run it under the MCFI runtime.

Examples::

    # compile one module to an object file (separate compilation!)
    python -m repro.tools.cc -c mylib.c -o mylib.mcfo

    # link sources and objects, run under MCFI, verify before loading
    python -m repro.tools.cc main.c mylib.mcfo --run --verify

    # native (uninstrumented) baseline
    python -m repro.tools.cc main.c mylib.mcfo --run --native
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

from repro.errors import ReproError
from repro.mir.codegen import RawModule
from repro.module import objectfile
from repro.runtime.runtime import Runtime
from repro.build import compile_object
from repro.build.link import ModuleUnits, link_units
from repro.workloads.libc import LIBC_SOURCE


def _load_input(path: Path, arch: str) -> RawModule:
    if path.suffix == ".mcfo":
        return objectfile.load(path)
    source = path.read_text()
    return compile_object(source, name=path.stem, arch=arch)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cc",
        description="MCFI compiler/linker driver (TinyC -> SimISA)")
    parser.add_argument("inputs", nargs="+", type=Path,
                        help="TinyC sources (.c) and/or objects (.mcfo)")
    parser.add_argument("-c", "--compile-only", action="store_true",
                        help="compile a single module to an object file")
    parser.add_argument("-o", "--output", type=Path,
                        help="output path for --compile-only")
    parser.add_argument("--arch", choices=("x32", "x64"), default="x64")
    parser.add_argument("--native", action="store_true",
                        help="link without MCFI instrumentation")
    parser.add_argument("--no-libc", action="store_true",
                        help="do not link simlibc automatically")
    parser.add_argument("--run", action="store_true",
                        help="load and execute the linked program")
    parser.add_argument("--verify", action="store_true",
                        help="run the modular verifier before loading")
    parser.add_argument("--max-steps", type=int, default=50_000_000)
    return parser


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.compile_only:
            if len(args.inputs) != 1:
                print("error: -c takes exactly one source file",
                      file=sys.stderr)
                return 2
            source_path = args.inputs[0]
            raw = compile_object(source_path.read_text(),
                                 name=source_path.stem, arch=args.arch)
            output = args.output or source_path.with_suffix(".mcfo")
            objectfile.save(raw, output)
            print(f"wrote {output}")
            print(objectfile.describe(raw))
            return 0

        raws = [_load_input(path, args.arch) for path in args.inputs]
        if not args.no_libc:
            raws.append(compile_object(LIBC_SOURCE, name="libc",
                                       arch=args.arch))
        mcfi = not args.native
        program = link_units([ModuleUnits.from_object(raw, mcfi)
                              for raw in raws], mcfi=mcfi).program
        print(f"linked {len(raws)} modules: {len(program.module.code)} "
              f"bytes of code, "
              f"{len(program.module.aux.branch_sites)} branch sites")
        if not args.run:
            return 0
        runtime = Runtime(program, verify=args.verify)
        result = runtime.run(max_steps=args.max_steps)
        sys.stdout.write(result.output.decode(errors="replace"))
        if result.violation is not None:
            print(f"\n*** CFI violation: {result.violation}",
                  file=sys.stderr)
            return 40
        if result.fault is not None:
            print(f"\n*** fault: {result.fault}", file=sys.stderr)
            return 41
        print(f"\n[exit {result.exit_code}; {result.instructions} "
              f"instructions, {result.cycles} cycles]")
        return result.exit_code or 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
