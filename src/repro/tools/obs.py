"""``python -m repro.tools.obs`` — perf reports over exported traces.

The command-line face of :mod:`repro.obs`:

``report FILE``
    Validate a JSONL trace file and render a per-stage performance
    report (span counts, total/mean durations, subsystem coverage,
    and the metrics snapshot when the trace carries one).  With
    ``--check-schema`` any drift from trace schema v1 is a hard
    failure (exit 1) — CI runs this against the smoke artifact.

``demo``
    Run a small seeded workload that deliberately crosses every
    instrumented layer — toolchain, CFG generation, dynamic linker,
    update transactions, the VM, and the worker pool — export its
    trace, and fail unless at least six subsystems appear.  Under a
    fixed ``--seed`` the exported file is byte-identical across runs.

``catalog``
    Print the span and metric names the instrumentation can emit.

Examples::

    python -m repro.tools.obs demo --seed 0 \\
        --out benchmarks/results/obs_demo_trace.jsonl
    python -m repro.tools.obs report benchmarks/results/obs_demo_trace.jsonl
    python -m repro.tools.obs report trace.jsonl --check-schema
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import SCHEMA_VERSION

#: span-name prefix -> subsystem (everything else maps to itself)
_SUBSYSTEM_ALIASES = {"tx": "transactions"}

#: subsystems a demo trace must cover (the acceptance gate)
DEMO_SUBSYSTEMS = ("toolchain", "cfg", "linker", "transactions", "vm",
                   "pool")

DEFAULT_DEMO_TRACE = "benchmarks/results/obs_demo_trace.jsonl"

#: every span the instrumentation can emit, with its attributes
SPAN_CATALOG = (
    ("toolchain.compile", "module arch", "one TinyC module end to end"),
    ("toolchain.frontend", "", "lex/parse/typecheck"),
    ("toolchain.lower", "", "AST -> MIR"),
    ("toolchain.codegen", "", "MIR -> SimISA (uninstrumented)"),
    ("build.session", "modules arch mcfi", "one BuildSession.build call"),
    ("build.frontend", "module", "session frontend (lex/parse/check)"),
    ("build.lower", "module", "session AST -> MIR"),
    ("build.units", "module", "function-grain unit compiles"),
    ("build.mini_frontend", "module dirty",
     "dirty bodies checked against the module interface"),
    ("build.link", "modules", "unit-grain (re)link"),
    ("dataflow.pointsto", "module indirect_calls devirtualized hinted",
     "points-to devirtualization of one module"),
    ("dataflow.lint", "module findings errors",
     "MIR lints of one module; nests dataflow.lint.<pass>"),
    ("lint.workload", "workload", "frontend + lowering + lints"),
    ("binverify.image",
     "module arch grain ok diagnostics checked instructions",
     "one binary-verifier run"),
    ("cfg.generate", "ibs ibts eqcs libraries",
     "type-matching CFG generation; libraries = library fragments "
     "folded into the host's"),
    ("linker.prepare", "library", "map/patch a library pre-seal"),
    ("linker.cfg", "", "CFG generation over the resident modules"),
    ("linker.update", "completed", "table update-transaction steps"),
    ("linker.dlopen", "library status handle", "full dlopen protocol"),
    ("linker.dlclose", "library status", "unload + table erasure"),
    ("tx.update", "owner completed tary_writes bary_writes hold_steps",
     "one update transaction (Fig. 3)"),
    ("vm.run", "thread instructions cycles", "one CPU run loop entry"),
    ("vm.generate", "entry", "hot block source generation + compile()"),
    ("runtime.run", "policy status", "single-threaded program run"),
    ("runtime.run_scheduled", "seed policy status ticks",
     "seeded multi-threaded run"),
    ("pool.job", "job attempt status", "one pool attempt (parent side)"),
    ("experiments.stm", "algorithm iterations", "STM micro-benchmark"),
    ("service.run", "mode tenants shards seed ticks committed",
     "one multi-tenant ServiceLoop run"),
    ("service.round", "round requests shards failed",
     "one coalescer commit round"),
    ("service.recovery", "shard status requeued repaired strays",
     "quarantined-shard rebuild + verify"),
    ("faults.evasion_campaign",
     "arch workloads injectors cells undetected ok",
     "one verifier-evasion campaign"),
)

#: every metric the instrumentation can emit
METRIC_CATALOG = (
    ("counter", "tx.check.<outcome>", "check transactions by outcome"),
    ("counter", "tx.check.retries", "TxCheck retry loops taken"),
    ("counter", "tx.check.escalations", "checks escalated to violation"),
    ("counter", "tx.updates", "update transactions committed"),
    ("counter", "tables.tary_writes", "Tary slots written (churn)"),
    ("counter", "tables.bary_writes", "Bary slots written (churn)"),
    ("histogram", "tx.lock.wait_steps", "update-lock spin steps"),
    ("histogram", "tx.lock.hold_steps", "update-lock hold duration"),
    ("counter", "build.units", "function units considered"),
    ("counter", "build.unit_hits", "units served from the cache"),
    ("counter", "build.unit_compiled", "units recompiled"),
    ("counter", "build.splices", "single-unit in-place re-links"),
    ("counter", "cfg.generations", "CFG generation passes"),
    ("gauge", "cfg.eqcs", "EQCs in the latest CFG"),
    ("histogram", "cfg.ibts", "IBTs per generation"),
    ("counter", "vm.runs", "CPU run-loop entries"),
    ("counter", "vm.instructions", "instructions executed"),
    ("counter", "vm.cycles", "cycles consumed"),
    ("counter", "vm.dispatch.blocks_built", "decoded basic blocks built"),
    ("counter", "vm.dispatch.fused_sites", "check sequences fused"),
    ("counter", "vm.dispatch.blocks_generated",
     "hot blocks generated and compiled"),
    ("counter", "vm.dispatch.forwarded_loads",
     "hot-block loads generated as reloads of the block's own stores"),
    ("counter", "runtime.violations.<action>",
     "violations by policy action"),
    ("counter", "linker.dlopens", "successful dlopens"),
    ("counter", "linker.dlcloses", "successful dlcloses"),
    ("counter", "linker.rollbacks", "load-journal rollbacks"),
    ("counter", "linker.quarantines", "modules quarantined"),
    ("counter", "pool.jobs", "jobs completed (final outcomes)"),
    ("counter", "pool.failures", "jobs failed after retries"),
    ("counter", "pool.timeouts", "jobs killed on deadline"),
    ("counter", "pool.crashes", "worker processes that died"),
    ("counter", "pool.retries", "extra attempts spent"),
    ("counter", "pool.breaker_fast_fails", "circuit-breaker skips"),
    ("histogram", "pool.job_seconds", "job wall time (wall clock only)"),
    ("counter", "service.shard.commits", "per-shard batched commits"),
    ("counter", "service.shard.rollbacks", "shard snapshot rollbacks"),
    ("counter", "service.coalesce.requests", "update requests accepted"),
    ("counter", "service.coalesce.batched", "requests riding batches"),
    ("counter", "service.coalesce.rounds", "coalescer commit rounds"),
    ("counter", "service.coalesce.backpressure", "submissions rejected"),
    ("histogram", "service.update.latency_ticks",
     "request submit->commit latency (scheduler ticks)"),
    ("histogram", "service.coalesce.round_requests",
     "requests per commit round"),
    ("counter", "service.coalesce.invalid", "poisoned write-sets rejected"),
    ("counter", "service.parked", "requests parked behind a quarantine"),
    ("counter", "service.deadline.missed", "requests past their deadline"),
    ("counter", "service.health.<state>", "shard transitions by new state"),
    ("counter", "service.health.quarantines", "shard quarantine entries"),
    ("counter", "service.health.fenced", "dispatch-cache fences"),
    ("counter", "service.health.corruption_detected",
     "corrupt words found by scrub audits"),
    ("counter", "service.recovery.completed", "verified shard recoveries"),
    ("histogram", "service.recovery.mttr_ticks",
     "quarantine to verified recovery (scheduler ticks)"),
    ("counter", "service.forged_allows", "negative checks admitted"),
    ("counter", "dataflow.pointsto.sites", "indirect calls analyzed"),
    ("counter", "dataflow.pointsto.devirtualized",
     "indirect calls made direct"),
    ("counter", "dataflow.pointsto.hinted", "indirect calls given hints"),
    ("counter", "dataflow.lint.findings", "MIR lint diagnostics"),
    ("counter", "binverify.accepted", "images the verifier accepted"),
    ("counter", "binverify.rejected", "images the verifier rejected"),
    ("counter", "faults.evasion.<outcome>",
     "evasion-campaign cells by outcome"),
)


def subsystem(span_name: str) -> str:
    prefix = span_name.split(".", 1)[0]
    return _SUBSYSTEM_ALIASES.get(prefix, prefix)


# ---------------------------------------------------------------------------
# Trace loading + schema validation
# ---------------------------------------------------------------------------

def load_trace(path: Path) -> Tuple[Dict[str, Any], List[Dict[str, Any]],
                                    Optional[Dict[str, Any]], List[str]]:
    """Parse a trace file into (header, spans, metrics, problems)."""
    problems: List[str] = []
    header: Dict[str, Any] = {}
    spans: List[Dict[str, Any]] = []
    metrics: Optional[Dict[str, Any]] = None
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return header, spans, metrics, [f"unreadable: {exc}"]
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            problems.append(f"line {lineno}: not JSON ({exc})")
            continue
        if not isinstance(obj, dict):
            problems.append(f"line {lineno}: not an object")
            continue
        records.append(obj)
    if not records:
        return header, spans, metrics, problems + ["empty trace file"]

    first = records[0]
    if first.get("kind") != "trace-header":
        problems.append("first record is not a trace-header")
    else:
        header = first
        records = records[1:]
        version = header.get("version")
        if version != SCHEMA_VERSION:
            problems.append(f"schema version {version!r} != "
                            f"supported {SCHEMA_VERSION}")
        if header.get("clock") not in ("logical", "wall"):
            problems.append(f"unknown clock {header.get('clock')!r}")
        if not isinstance(header.get("spans"), int):
            problems.append("header lacks integer 'spans' count")

    for i, record in enumerate(records):
        kind = record.get("kind")
        if kind == "span":
            missing = [key for key in ("id", "name", "t0", "t1")
                       if key not in record]
            if missing:
                problems.append(f"span record missing {missing}")
                continue
            if record["t1"] < record["t0"]:
                problems.append(f"span {record['id']} ends before "
                                f"it starts")
            spans.append(record)
        elif kind == "metrics":
            if metrics is not None:
                problems.append("multiple metrics records")
            elif i != len(records) - 1:
                problems.append("metrics record is not the final line")
            metrics = record
        elif kind == "trace-header":
            problems.append("duplicate trace-header")
        else:
            problems.append(f"unknown record kind {kind!r}")

    ids = {record["id"] for record in spans}
    for record in spans:
        parent = record.get("parent")
        if parent is not None and parent not in ids:
            problems.append(f"span {record['id']} has dangling parent "
                            f"{parent}")
    declared = header.get("spans")
    if isinstance(declared, int) and declared != len(spans):
        problems.append(f"header declares {declared} spans, "
                        f"file has {len(spans)}")
    return header, spans, metrics, problems


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def render_report(header: Dict[str, Any], spans: List[Dict[str, Any]],
                  metrics: Optional[Dict[str, Any]]) -> str:
    clock_kind = header.get("clock", "?")
    unit = "ticks" if clock_kind == "logical" else "s"
    stages: Dict[str, List[float]] = {}
    for record in spans:
        stages.setdefault(record["name"], []).append(
            record["t1"] - record["t0"])
    lines = [f"trace: clock={clock_kind} seed={header.get('seed')} "
             f"spans={len(spans)}"]
    lines.append(f"{'stage':24s} {'count':>6s} {'total':>12s} "
                 f"{'mean':>10s} {'max':>10s}  ({unit})")
    for name in sorted(stages,
                       key=lambda n: -sum(stages[n])):
        durations = stages[name]
        total = sum(durations)
        lines.append(f"{name:24s} {len(durations):6d} {total:12.6g} "
                     f"{total / len(durations):10.6g} "
                     f"{max(durations):10.6g}")
    covered = sorted({subsystem(record["name"]) for record in spans})
    lines.append(f"subsystems ({len(covered)}): {', '.join(covered)}")
    if metrics:
        counters = metrics.get("counters") or {}
        gauges = metrics.get("gauges") or {}
        histograms = metrics.get("histograms") or {}
        if counters or gauges or histograms:
            lines.append("metrics:")
        for key in sorted(counters):
            lines.append(f"  counter   {key:28s} {counters[key]}")
        for key in sorted(gauges):
            lines.append(f"  gauge     {key:28s} {gauges[key]}")
        for key in sorted(histograms):
            h = histograms[key]
            lines.append(f"  histogram {key:28s} n={h['count']} "
                         f"total={h['total']:.6g} min={h['min']:.6g} "
                         f"max={h['max']:.6g}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The demo workload
# ---------------------------------------------------------------------------

_DEMO_MAIN = {"main": """
    int libfn(int x);
    int main(void) {
        long h = dlopen("plugin");
        if (h == 0) { return 99; }
        print_int(libfn(10));
        print_char(' ');
        print_int(libfn(20));
        return 0;
    }
"""}

_DEMO_LIB = "int libfn(int x) { return x * 3 + 1; }"


def _demo_square(x: int) -> int:
    return x * x


def run_demo(seed: Optional[int], out: Path) -> Tuple[str, List[str]]:
    """Run the cross-layer demo; return (trace path, covered subsystems).

    The workload compiles a two-module program, dlopens a plugin during
    execution (exercising CFG regeneration and an update transaction),
    then pushes two jobs through a single worker so pool spans land in
    the same trace deterministically.
    """
    from repro import obs
    from repro.infra.pool import Job, WorkerPool
    from repro.linker.dynamic_linker import DynamicLinker
    from repro.runtime.runtime import Runtime
    from repro.build import build_program, compile_object

    with obs.scoped(seed=seed) as state:
        program = build_program(_DEMO_MAIN, mcfi=True,
                                allow_unresolved=["libfn"]).program
        runtime = Runtime(program)
        linker = DynamicLinker(runtime)
        linker.register("plugin",
                        compile_object(_DEMO_LIB, name="plugin"))
        result = runtime.run()
        if not result.ok:
            raise RuntimeError(f"demo workload failed: "
                               f"{result.violation or result.fault}")
        pool = WorkerPool(workers=1)
        pool.run([Job(fn=_demo_square, args=(i,), id=f"square-{i}")
                  for i in range(2)])
        path = obs.export_trace(out)
        covered = sorted({subsystem(record["name"])
                          for record in state.tracer.spans})
    return path, covered


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Inspect and exercise the tracing/metrics plane")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report",
                            help="per-stage report over a trace file")
    report.add_argument("trace", type=Path, help="JSONL trace file")
    report.add_argument("--check-schema", action="store_true",
                        help="exit 1 on any schema-v1 drift")

    demo = sub.add_parser("demo",
                          help="traced cross-layer demo workload")
    demo.add_argument("--seed", type=int, default=0,
                      help="logical-clock seed (default 0; "
                           "deterministic trace bytes)")
    demo.add_argument("--wall", action="store_true",
                      help="use the wall clock instead of a seed")
    demo.add_argument("--out", type=Path,
                      default=Path(DEFAULT_DEMO_TRACE),
                      help=f"trace destination "
                           f"(default {DEFAULT_DEMO_TRACE})")

    sub.add_parser("catalog", help="list span and metric names")
    return parser


def _report(args: argparse.Namespace) -> int:
    header, spans, metrics, problems = load_trace(args.trace)
    if problems and args.check_schema:
        for problem in problems:
            print(f"schema drift: {problem}", file=sys.stderr)
        return 1
    if problems:
        for problem in problems:
            print(f"warning: {problem}", file=sys.stderr)
    if not spans and not header:
        print(f"no trace at {args.trace}", file=sys.stderr)
        return 1
    print(f"== obs report: {args.trace} ==")
    print(render_report(header, spans, metrics))
    return 0


def _demo(args: argparse.Namespace) -> int:
    seed = None if args.wall else args.seed
    path, covered = run_demo(seed, args.out)
    print(f"trace written: {path}")
    print(f"subsystems covered ({len(covered)}): {', '.join(covered)}")
    missing = [name for name in DEMO_SUBSYSTEMS if name not in covered]
    if missing:
        print(f"FAILED: demo trace missing subsystems: "
              f"{', '.join(missing)}", file=sys.stderr)
        return 1
    return 0


def _catalog() -> int:
    print("== spans ==")
    for name, attrs, desc in SPAN_CATALOG:
        attr_note = f" [{attrs}]" if attrs else ""
        print(f"  {name:24s} {desc}{attr_note}")
    print("== metrics ==")
    for kind, name, desc in METRIC_CATALOG:
        print(f"  {kind:9s} {name:28s} {desc}")
    return 0


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "report":
        return _report(args)
    if args.command == "demo":
        return _demo(args)
    return _catalog()


if __name__ == "__main__":
    sys.exit(main())
