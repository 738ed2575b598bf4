"""``python -m repro.tools.build`` — the BuildSession front door.

Drives :class:`repro.build.BuildSession` from the command line: build a
workload (or TinyC source files) into a linked program, rebuild it to
show warm/incremental behaviour, and report the function-grain cache
economics.

Examples::

    python -m repro.tools.build --workload sjeng --rebuilds 2
    python -m repro.tools.build --workload sjeng --cache-dir .cache \\
        --cache-max-mb 64
    python -m repro.tools.build prog.c --run
    python -m repro.tools.build --workload lbm --hash
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List

from repro.build import BuildResult, BuildSession
from repro.errors import ReproError
from repro.infra.cache import open_cache
from repro.workloads.corpus import artifact_digest
from repro.workloads.spec import BENCHMARKS, workload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-build",
        description="Incremental compile-as-a-service driver")
    parser.add_argument("inputs", nargs="*", type=Path,
                        help="TinyC source files (module name = stem)")
    parser.add_argument("--workload", choices=BENCHMARKS, default=None,
                        help="build a registry workload instead of files")
    parser.add_argument("--arch", choices=("x32", "x64"), default="x64")
    parser.add_argument("--native", action="store_true",
                        help="build without MCFI instrumentation")
    parser.add_argument("--rebuilds", type=int, default=1, metavar="N",
                        help="extra rebuilds through the same session "
                             "(shows warm hits; default 1)")
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="function-grain artifact cache directory")
    parser.add_argument("--cache-max-mb", type=float, default=None,
                        metavar="MB", help="LRU budget for --cache-dir")
    parser.add_argument("--hash", action="store_true",
                        help="print the deterministic artifact hash "
                             "(sha256 over code + data image)")
    parser.add_argument("--run", action="store_true",
                        help="load and execute the built program")
    return parser


def _describe(index: int, result: BuildResult, seconds: float) -> str:
    stats = result.stats
    extra = ""
    if "units" in stats:
        extra = (f", units {stats['unit_hits']}/{stats['units']} hits"
                 f", {stats['unit_compiled']} compiled"
                 f", spliced {stats.get('spliced', 0)}")
    return (f"build #{index}: {result.kind:11s} "
            f"{seconds * 1000:8.2f} ms{extra}")


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if bool(args.inputs) == bool(args.workload):
        print("error: give either source files or --workload",
              file=sys.stderr)
        return 2

    sources: Dict[str, str] = {}
    if args.workload:
        sources[args.workload] = workload(args.workload).source
    else:
        for path in args.inputs:
            sources[path.stem] = path.read_text()

    cache = open_cache(args.cache_dir, max_mb=args.cache_max_mb)
    session = BuildSession(arch=args.arch, mcfi=not args.native,
                           cache=cache)
    try:
        result = None
        for index in range(max(1, 1 + args.rebuilds)):
            start = time.perf_counter()
            result = session.build(sources)
            print(_describe(index, result, time.perf_counter() - start))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    program = result.program
    print(f"linked {'+'.join(result.modules)}: "
          f"{len(program.module.code)} bytes of code, "
          f"{len(program.module.aux.branch_sites)} branch sites")
    if args.hash:
        print(f"artifact sha256 {artifact_digest(program)}")
    if cache is not None:
        counts = cache.entry_count()
        print(f"cache: {counts['units']} units, "
              f"{cache.size_bytes() / 1e6:.1f} MB on disk")
    if args.run:
        from repro.toolchain import run_program
        outcome = run_program(program)
        sys.stdout.write(outcome.output.decode(errors="replace"))
        print(f"exit {outcome.exit_code} after {outcome.instructions} "
              f"instructions")
        return 0 if outcome.ok else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
