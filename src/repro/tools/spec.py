"""``python -m repro.tools.spec`` — print the paper's tables.

The command-line face of :data:`repro.experiments.ARTIFACT_TABLE`: each
artifact prints the text of its committed
``benchmarks/results/<stem>.txt``, computed for the selected
benchmarks and architectures; several artifacts are separated by one
blank line.  The timed artifacts (stm, cfggen) print the same layout
with this run's numbers.  An artifact whose committed table covers one
architecture takes one ``--arch``; table3 defaults to both.

``--jobs N`` fans per-benchmark work across the :mod:`repro.infra`
worker pool and ``--cache-dir`` reuses compiled/instrumented artifacts
across benchmarks, workers and invocations; both leave stdout
byte-identical to a serial run (the campaign summary goes to stderr,
and JSONL records to ``<cache-dir>/results.jsonl``).

Examples::

    python -m repro.tools.spec fig5 --benchmarks gcc lbm
    python -m repro.tools.spec table1
    python -m repro.tools.spec table3 --arch x64
    python -m repro.tools.spec fig5 table3 --jobs 4 --cache-dir .cache/infra
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.experiments import ARCHS, ARTIFACT_TABLE
from repro.obs import clock
from repro.workloads.spec import BENCHMARKS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-spec",
        description="Regenerate the paper's tables and figures")
    parser.add_argument("artifacts", nargs="+", choices=tuple(ARTIFACT_TABLE),
                        help="which artifacts to produce")
    parser.add_argument("--benchmarks", nargs="+", default=None,
                        choices=BENCHMARKS, metavar="NAME",
                        help="benchmark subset (default: all twelve)")
    parser.add_argument("--arch", nargs="+", default=None, choices=ARCHS,
                        help="architectures (default: the committed "
                             "table's, x64, or x32 x64 for table3); "
                             "arch-free artifacts ignore it")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallel workers for per-benchmark "
                             "artifacts (default: 1 = serial)")
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="artifact cache directory: compile and "
                             "instrument each workload once per config "
                             "across invocations")
    return parser


def main(argv: List[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    names = args.benchmarks or list(BENCHMARKS)
    archs = tuple(dict.fromkeys(args.arch or ()))
    for artifact in args.artifacts:
        if len(archs) > 1 and len(ARTIFACT_TABLE[artifact].archs) == 1:
            parser.error(f"{artifact} covers one architecture; "
                         f"give one --arch, not {' '.join(archs)}")

    from repro.infra.campaign import (configure, default_cache,
                                      parallel_artifact)
    from repro.infra.results import ResultStore
    store = None
    preexisting = 0
    if args.cache_dir:
        configure(args.cache_dir)
        cache = default_cache()
        store = ResultStore(cache.root / "results.jsonl")
        preexisting = len(store.records())
    start = clock.now()

    for index, artifact in enumerate(args.artifacts):
        entry = ARTIFACT_TABLE[artifact]
        entry_archs = archs if archs and entry.archs else entry.archs
        if args.jobs > 1 and entry.per_benchmark:
            result = parallel_artifact(artifact, names, archs=entry_archs,
                                       jobs=args.jobs, store=store)
        else:
            result = entry.compute(names, entry_archs)
        if index:
            print()
        print(entry.render(result), flush=True)

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
