"""``python -m repro.tools.spec`` — run the SPEC-shaped benchmark suite.

The command-line face of :mod:`repro.experiments`: run any subset of
the twelve workloads and print the paper's artifacts.

``--jobs N`` fans per-benchmark work across the :mod:`repro.infra`
worker pool and ``--cache-dir`` reuses compiled/instrumented artifacts
across benchmarks, workers and invocations; both leave stdout
byte-identical to a serial run (the campaign summary goes to stderr,
and JSONL records to ``<cache-dir>/results.jsonl``).

Examples::

    python -m repro.tools.spec fig5 --benchmarks gcc lbm
    python -m repro.tools.spec table1
    python -m repro.tools.spec table3 --arch x32 x64
    python -m repro.tools.spec fig5 table3 --jobs 4 --cache-dir .cache/infra
"""

from __future__ import annotations

import argparse
import sys
from typing import List

import repro.experiments as ex
from repro.obs import clock
from repro.workloads.spec import BENCHMARKS

ARTIFACTS = ("fig5", "fig6", "table1", "table2", "table3", "stm", "air",
             "gadgets", "space", "cfggen", "security")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-spec",
        description="Regenerate the paper's tables and figures")
    parser.add_argument("artifacts", nargs="+", choices=ARTIFACTS,
                        help="which artifacts to produce")
    parser.add_argument("--benchmarks", nargs="+", default=None,
                        choices=BENCHMARKS, metavar="NAME",
                        help="benchmark subset (default: all twelve)")
    parser.add_argument("--arch", nargs="+", default=["x64"],
                        choices=("x32", "x64"))
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallel workers for per-benchmark "
                             "artifacts (default: 1 = serial)")
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="artifact cache directory: compile and "
                             "instrument each workload once per config "
                             "across invocations")
    return parser


def _print_rows(title: str, rows: dict) -> None:
    print(f"\n== {title} ==")
    for key, value in rows.items():
        print(f"  {key}: {value}")


def _compute(artifact: str, names, archs, jobs: int, store):
    """Per-benchmark artifact results, serial or fanned out."""
    from repro.infra.campaign import (
        PARALLEL_ARTIFACTS,
        artifact_fn,
        parallel_artifact,
    )
    if jobs > 1 and artifact in PARALLEL_ARTIFACTS:
        return parallel_artifact(artifact, names, archs=archs, jobs=jobs,
                                 store=store)
    return artifact_fn(artifact)(names, archs)


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    names = args.benchmarks or list(BENCHMARKS)
    archs = tuple(args.arch)

    from repro.infra.campaign import configure, default_cache
    from repro.infra.results import ResultStore
    store = None
    preexisting = 0
    if args.cache_dir:
        configure(args.cache_dir)
        cache = default_cache()
        store = ResultStore(cache.root / "results.jsonl")
        preexisting = len(store.records())
    start = clock.now()

    for artifact in args.artifacts:
        if artifact == "fig5":
            results = _compute("fig5", names, archs, args.jobs, store)
            print("\n== Fig. 5: execution overhead ==")
            print(ex.format_fig5(results))
        elif artifact == "fig6":
            results = _compute("fig6", names, archs, args.jobs, store)
            print("\n== Fig. 6: overhead under updates ==")
            for name, result in results.items():
                print(f"  {name:12s} {result.overhead_pct:6.2f}%  "
                      f"({result.updates} updates)")
        elif artifact == "table1":
            reports = _compute("table1", names, archs, args.jobs, store)
            print("\n== Table 1: C1 violations ==")
            for name, report in reports.items():
                print(f"  {name:12s} {report.table1_row()}")
        elif artifact == "table2":
            print("\n== Table 2: K1/K2 ==")
            rows = _compute("table2", names, archs, args.jobs, store)
            for name, row in rows.items():
                print(f"  {name:12s} {row}")
        elif artifact == "table3":
            stats = _compute("table3", names, archs, args.jobs, store)
            print("\n== Table 3: CFG statistics ==")
            for (name, arch), row in stats.items():
                print(f"  {name:12s} {arch}  {row}")
        elif artifact == "stm":
            _print_rows("STM micro-benchmark (normalized)",
                        {k: round(v, 2)
                         for k, v in ex.stm_micro().items()})
        elif artifact == "air":
            _print_rows("AIR comparison",
                        {k: round(v, 5)
                         for k, v in ex.air_comparison(names).items()})
        elif artifact == "gadgets":
            print("\n== gadget elimination ==")
            rows = _compute("gadgets", names, archs, args.jobs, store)
            for name, row in rows.items():
                print(f"  {name:12s} {row['elimination_pct']:6.2f}% "
                      f"({row['native_unique']} unique native gadgets)")
        elif artifact == "space":
            print("\n== space overhead ==")
            rows = _compute("space", names, archs, args.jobs, store)
            for name, row in rows.items():
                print(f"  {name:12s} +{row.code_increase_pct:5.2f}% code, "
                      f"{row.tary_bytes}B Tary")
        elif artifact == "cfggen":
            rows = _compute("cfggen", names, archs, args.jobs, store)
            _print_rows("CFG generation time (s)",
                        {k: round(v, 4) for k, v in rows.items()})
        elif artifact == "security":
            print("\n== security case studies ==")
            for attack, outcomes in ex.security_case_study().items():
                for scheme, (hijacked, blocked) in outcomes.items():
                    print(f"  {attack:18s} {scheme:8s} "
                          f"hijacked={hijacked} blocked={blocked}")

    if args.cache_dir:
        wall = clock.now() - start
        cache = default_cache()
        stats = cache.stats
        if args.jobs > 1 and store is not None:
            # Workers account their own cache traffic; fold it in from
            # the records this invocation appended.
            from repro.infra.cache import CacheStats
            stats = CacheStats()
            for record in store.records()[preexisting:]:
                if record.get("kind") in ("artifact", "build"):
                    stats.hits += record.get("cache_hits", 0) or 0
                    stats.misses += record.get("cache_misses", 0) or 0
            stats.add(cache.stats)
        summary = {"kind": "summary", "command": "spec",
                   "artifacts": list(args.artifacts), "jobs": args.jobs,
                   "wall_seconds": round(wall, 3), **stats.as_dict()}
        if store is not None:
            store.append(**summary)
        print(f"[infra] wall {wall:.2f}s, jobs={args.jobs}, "
              f"artifact cache: {stats.hits} hits / {stats.misses} "
              f"misses ({100.0 * stats.hit_rate:.1f}%)",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
