"""``python -m repro.tools.infra`` — the campaign runner CLI.

Drives :mod:`repro.infra` directly: build the target×instance matrix
into the artifact cache, run it in parallel, and report on the JSONL
result store (including writing the Fig. 5 and Table 3 files, laid out
like the committed ``benchmarks/results/*.txt``, from stored records).

Examples::

    python -m repro.tools.infra build --jobs 4 --cache-dir .cache/infra
    python -m repro.tools.infra run --jobs 2 --benchmarks libquantum bzip2
    python -m repro.tools.infra run --jobs 4 \\
        --instances native-x64 mcfi-x64 mcfi-x32
    python -m repro.tools.infra report --results-dir /tmp/infra-tables
    python -m repro.tools.infra cache stats --cache-dir .cache/repro-infra
    python -m repro.tools.infra cache trim --cache-max-mb 64
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

from repro.infra.campaign import configure, default_cache, run_campaign
from repro.infra.instances import INSTANCES
from repro.infra.results import (ResultStore, load_records, regenerate,
                                 render_summary)
from repro.workloads.spec import BENCHMARKS

DEFAULT_CACHE_DIR = ".cache/repro-infra"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-infra",
        description="Parallel experiment campaign: build, run, report")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--benchmarks", nargs="+", default=None,
                       choices=BENCHMARKS, metavar="NAME",
                       help="target subset (default: all twelve)")
        p.add_argument("--instances", nargs="+",
                       default=["native-x64", "mcfi-x64"],
                       metavar="INSTANCE",
                       help="policy/arch configurations "
                            f"(known: {', '.join(sorted(INSTANCES))}; "
                            "a bare policy name selects every arch)")
        p.add_argument("--jobs", type=int, default=1, metavar="N")
        p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       metavar="PATH")
        p.add_argument("--cache-max-mb", type=float, default=None,
                       metavar="MB",
                       help="LRU budget for the artifact cache "
                            "(default: unbounded)")
        p.add_argument("--timeout", type=float, default=600.0,
                       metavar="SECONDS", help="per-job timeout")
        p.add_argument("--retries", type=int, default=1,
                       help="extra attempts per failed job")

    build = sub.add_parser("build",
                           help="compile+link the matrix into the cache")
    common(build)

    run = sub.add_parser("run", help="build, then execute the matrix")
    common(run)

    report = sub.add_parser("report",
                            help="summarize the JSONL result store")
    report.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="PATH")
    report.add_argument("--results", default=None, metavar="FILE",
                        help="JSONL file (default: "
                             "<cache-dir>/results.jsonl)")
    report.add_argument("--results-dir", default=None, metavar="DIR",
                        help="also regenerate artifact .txt files here")

    cache = sub.add_parser("cache",
                           help="inspect or bound the artifact cache")
    cache.add_argument("action", choices=("stats", "trim"),
                       help="stats: entry counts and disk use; "
                            "trim: apply --cache-max-mb LRU eviction now")
    cache.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       metavar="PATH")
    cache.add_argument("--cache-max-mb", type=float, default=None,
                       metavar="MB", help="LRU budget (required for trim)")
    return parser


def _cache(args: argparse.Namespace) -> int:
    from repro.infra.cache import open_cache
    cache = open_cache(args.cache_dir, max_mb=args.cache_max_mb)
    counts = cache.entry_count()
    if args.action == "trim":
        if args.cache_max_mb is None:
            print("error: trim needs --cache-max-mb", file=sys.stderr)
            return 2
        evicted = cache.trim()
        print(f"evicted {evicted} entries")
        counts = cache.entry_count()
    total_mb = cache.size_bytes() / (1024 * 1024)
    budget = (f"{args.cache_max_mb:g} MB budget"
              if args.cache_max_mb is not None else "unbounded")
    print(f"cache {cache.root} ({budget})")
    for kind in cache.SUBDIRS:
        print(f"  {kind:9s} {counts[kind]:6d} entries")
    print(f"  {'total':9s} {total_mb:8.1f} MB on disk")
    return 0


def _campaign(args: argparse.Namespace, execute: bool) -> int:
    configure(args.cache_dir, max_mb=args.cache_max_mb)
    cache = default_cache()
    store = ResultStore(cache.root / "results.jsonl")
    names = args.benchmarks or list(BENCHMARKS)
    summary = run_campaign(
        names, args.instances, jobs=args.jobs, store=store,
        execute=execute, timeout=args.timeout, retries=args.retries)
    verb = "ran" if execute else "built"
    print(f"{verb} {summary['cells']} matrix cells with {args.jobs} "
          f"worker(s) in {summary['wall_seconds']}s")
    print(f"artifact cache: {summary['cache_hits']} hits / "
          f"{summary['cache_misses']} misses "
          f"({100.0 * summary['cache_hit_rate']:.1f}% hit rate), "
          f"{summary['cache_evictions']} evictions")
    print(f"results: {store.path}")
    if summary["failures"]:
        print("FAILED cells: " + ", ".join(summary["failures"]),
              file=sys.stderr)
        return 1
    return 0


def _report(args: argparse.Namespace) -> int:
    path = Path(args.results) if args.results else \
        Path(args.cache_dir) / "results.jsonl"
    records = load_records(path)
    if not records:
        print(f"no records at {path}", file=sys.stderr)
        return 1
    print(f"== campaign report: {path} ==")
    print(render_summary(records))
    if args.results_dir:
        written = regenerate(records, args.results_dir)
        for artifact_path in written:
            print(f"regenerated {artifact_path}")
        if not written:
            print("no artifact files derivable from these records",
                  file=sys.stderr)
    return 0


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "build":
        return _campaign(args, execute=False)
    if args.command == "run":
        return _campaign(args, execute=True)
    if args.command == "cache":
        return _cache(args)
    return _report(args)


if __name__ == "__main__":
    sys.exit(main())
