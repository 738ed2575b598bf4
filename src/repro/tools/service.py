"""``python -m repro.tools.service`` — drive the multi-tenant table service.

The command-line face of :mod:`repro.service`:

``run``
    One :class:`~repro.service.loop.ServiceLoop` run at a given tenant
    count, mode (``sharded`` or the paper's ``global`` baseline) and
    seed.  Prints the report as a table or, with ``--json``, as one
    JSON object.  ``--verify`` additionally replays the committed log
    serially and fails unless the decoded table states are identical.

``scale``
    The scaling sweep behind ``benchmarks/results/service_scaling.txt``:
    sharded runs at each tenant count plus the global-lock baseline at
    the counts where it is tractable, rendered as a latency/retry
    table.  ``--out`` writes the artifact.

``trace``
    Print the coalescer's deterministic per-round trace as canonical
    JSONL — the byte-identity artifact the CI smoke job diffs across
    two same-seed runs.

``chaos``
    The self-healing campaign (:mod:`repro.service.chaos`): resilient
    and fault-oblivious legs under the same seeded fault schedule at
    each tenant count.  Prints the campaign table with per-cell
    PASS/FAIL verdicts (zero undetected corruptions, availability
    floor, byte-identical recovery); exits non-zero on any FAIL.
    ``--out`` writes the artifact, ``--trace-out`` the canonical
    campaign JSONL the CI ``chaos-smoke`` job ``cmp``'s against the
    pinned golden.

Examples::

    python -m repro service run --tenants 100 --seed 0 --verify
    python -m repro service scale --quick --out benchmarks/results/service_scaling.txt
    python -m repro service trace --tenants 10 --seed 7
    python -m repro service chaos --seed 7 --out benchmarks/results/service_chaos.txt
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.service import ServiceLoop, ServiceReport

#: Tenant counts for the full sweep and the CI smoke (--quick) sweep.
SCALE_TENANTS = (10, 100, 1000)
QUICK_TENANTS = (10, 100)

#: The global-lock baseline serializes a full-table rewrite per request,
#: so its cost grows quadratically with tenant count; above this many
#: tenants the sweep reports the sharded service only.
BASELINE_LIMIT = 100


def run_loop(tenants: int, mode: str, seed: int, shards: int = 8,
             churn: int = 2, window: int = 4) -> ServiceLoop:
    loop = ServiceLoop(tenants=tenants, shards=shards, seed=seed,
                       churn=churn, window=window, mode=mode)
    loop.run()
    return loop


def scaling_rows(tenant_counts: Sequence[int], seed: int,
                 shards: int = 8, churn: int = 2,
                 baseline_limit: int = BASELINE_LIMIT) -> List[dict]:
    """One row per (tenant count, mode) of the scaling sweep."""
    rows: List[dict] = []
    for tenants in tenant_counts:
        modes = ["sharded"]
        if tenants <= baseline_limit:
            modes.append("global")
        for mode in modes:
            report = run_loop(tenants, mode, seed, shards=shards,
                              churn=churn).report
            assert report is not None
            rows.append(report.to_dict())
    return rows


def render_scaling_table(rows: List[dict], seed: int) -> str:
    """The ``service_scaling.txt`` artifact body."""
    lines = [
        "Multi-tenant CFI table service: update latency scaling "
        f"(seed {seed})",
        "Latency in scheduler ticks (logical, deterministic); "
        "retry-rate is TxCheck",
        "retries per check transaction.  The global baseline is the "
        "paper's single",
        "update lock, one transaction per dlopen/dlclose; omitted "
        f"above {BASELINE_LIMIT}",
        "tenants (its full-table rewrites grow quadratically).",
        "",
        f"{'tenants':>7s} {'mode':>8s} {'p50':>9s} {'p99':>9s} "
        f"{'mean':>10s} {'coalesce':>9s} {'retry':>7s} {'esc':>4s}",
    ]
    by_count: dict = {}
    for row in rows:
        by_count.setdefault(row["tenants"], {})[row["mode"]] = row
        lines.append(
            f"{row['tenants']:7d} {row['mode']:>8s} "
            f"{row['latency_p50']:9d} {row['latency_p99']:9d} "
            f"{row['latency_mean']:10.1f} "
            f"{row['coalescing_factor']:8.1f}x "
            f"{row['retry_rate']:7.3f} {row['escalations']:4d}")
    lines.append("")
    for tenants, modes in sorted(by_count.items()):
        if "global" in modes and modes["sharded"]["latency_mean"]:
            speedup = (modes["global"]["latency_mean"]
                       / modes["sharded"]["latency_mean"])
            lines.append(f"{tenants} tenants: sharded+batched updates "
                         f"are {speedup:.1f}x faster (mean) than the "
                         f"global-lock baseline")
    return "\n".join(lines)


def _report_table(report: ServiceReport) -> str:
    d = report.to_dict()
    order = ("tenants", "shards", "mode", "seed", "churn", "ticks",
             "committed", "failed", "rejected", "rounds",
             "transactions", "coalescing_factor", "backpressure_waits",
             "checks", "checks_allowed", "check_retries", "retry_rate",
             "escalations", "latency_mean", "latency_p50",
             "latency_p99", "shard_versions")
    width = max(len(key) for key in order)
    return "\n".join(f"{key:{width}s}  {d[key]}" for key in order)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Multi-tenant CFI table service (sharded tables, "
                    "batched update transactions)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tenants", type=int, default=10,
                       help="concurrent tenants (default 10)")
        p.add_argument("--shards", type=int, default=8,
                       help="table shards (default 8)")
        p.add_argument("--seed", type=int, default=0,
                       help="scheduler seed (default 0)")
        p.add_argument("--churn", type=int, default=2,
                       help="dlopen/dlclose rounds per tenant "
                            "(default 2)")

    run = sub.add_parser("run", help="one service-loop run")
    common(run)
    run.add_argument("--mode", choices=("sharded", "global"),
                     default="sharded",
                     help="sharded service or global-lock baseline")
    run.add_argument("--window", type=int, default=4,
                     help="coalescer batching window (default 4)")
    run.add_argument("--json", action="store_true",
                     help="print the report as JSON")
    run.add_argument("--verify", action="store_true",
                     help="check live tables against the serial "
                          "replay oracle")

    scale = sub.add_parser("scale", help="tenant-count scaling sweep")
    scale.add_argument("--seed", type=int, default=0)
    scale.add_argument("--shards", type=int, default=8)
    scale.add_argument("--churn", type=int, default=2)
    scale.add_argument("--tenants", type=int, nargs="+", default=None,
                       help=f"tenant counts (default "
                            f"{' '.join(map(str, SCALE_TENANTS))})")
    scale.add_argument("--quick", action="store_true",
                       help=f"CI subset: {QUICK_TENANTS} tenants")
    scale.add_argument("--out", type=Path, default=None,
                       help="also write the table to this file")

    trace = sub.add_parser("trace",
                           help="print the coalescer round trace "
                                "(canonical JSONL)")
    common(trace)
    trace.add_argument("--mode", choices=("sharded", "global"),
                       default="sharded")

    chaos = sub.add_parser("chaos",
                           help="self-healing chaos campaign vs the "
                                "fault-oblivious baseline")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--shards", type=int, default=4,
                       help="table shards (default 4)")
    chaos.add_argument("--churn", type=int, default=2)
    chaos.add_argument("--tenants", type=int, nargs="+", default=None,
                       help=f"tenant counts (default "
                            f"{' '.join(map(str, QUICK_TENANTS))})")
    chaos.add_argument("--out", type=Path, default=None,
                       help="also write the campaign table to this "
                            "file")
    chaos.add_argument("--trace-out", type=Path, default=None,
                       help="write the canonical campaign JSONL "
                            "(faults, health transitions, both legs)")
    return parser


def _run(args: argparse.Namespace) -> int:
    loop = run_loop(args.tenants, args.mode, args.seed,
                    shards=args.shards, churn=args.churn,
                    window=args.window)
    report = loop.report
    assert report is not None
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(_report_table(report))
    if args.verify:
        if loop.sharded.decoded_state() != loop.replay_serial():
            print("FAILED: live tables diverge from serial replay",
                  file=sys.stderr)
            return 1
        print("verified: observables identical to serial replay")
    if report.escalations:
        print(f"FAILED: {report.escalations} TxCheck escalations",
              file=sys.stderr)
        return 1
    return 0


def _scale(args: argparse.Namespace) -> int:
    counts = tuple(args.tenants) if args.tenants else (
        QUICK_TENANTS if args.quick else SCALE_TENANTS)
    rows = scaling_rows(counts, args.seed, shards=args.shards,
                        churn=args.churn)
    table = render_scaling_table(rows, args.seed)
    print(table)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(table + "\n")
        print(f"written: {args.out}", file=sys.stderr)
    if any(row["escalations"] for row in rows):
        print("FAILED: TxCheck escalations during sweep",
              file=sys.stderr)
        return 1
    return 0


def _trace(args: argparse.Namespace) -> int:
    loop = run_loop(args.tenants, args.mode, args.seed,
                    shards=args.shards, churn=args.churn)
    text = loop.coalescer.trace_jsonl()
    if text:
        print(text)
    return 0


def _chaos(args: argparse.Namespace) -> int:
    from repro.service.chaos import (cell_checks, chaos_rows,
                                     chaos_trace_jsonl,
                                     render_chaos_table)
    counts = tuple(args.tenants) if args.tenants else QUICK_TENANTS
    cells = chaos_rows(counts, args.seed, shards=args.shards,
                       churn=args.churn)
    table = render_chaos_table(cells, args.seed)
    print(table)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(table + "\n")
        print(f"written: {args.out}", file=sys.stderr)
    if args.trace_out:
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        args.trace_out.write_text(chaos_trace_jsonl(cells) + "\n")
        print(f"written: {args.trace_out}", file=sys.stderr)
    failed = [name for cell in cells
              for name, ok in cell_checks(cell) if not ok]
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _run(args)
    if args.command == "scale":
        return _scale(args)
    if args.command == "chaos":
        return _chaos(args)
    return _trace(args)


if __name__ == "__main__":
    sys.exit(main())
