"""Command line of the MCFI benchmark suite.

``one``      measure one workload in this process and print its report,
             ending in one JSON line (the contract ``BENCHMARK.json``
             declares);
``run``      measure workloads one after another, each in a fresh
             process, and write every run to ``BENCH_<label>.json``;
``compare``  compare two such files metric by metric against the bounds
             in ``BENCHMARK.json``;
``expected`` cross-check the fixed12 golden outputs across the x64 block
             dispatch, x64 ``step_reference`` and x32 tiers, and with
             ``--write`` pin them (a deliberate act, never automatic).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
RUN_PY = Path(__file__).resolve().parent / "run.py"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: seed of ``run`` and ``expected`` when none is given
DEFAULT_SEED = 1
#: setup repetitions per untraced run: this process plus fresh children
SETUP_SAMPLES = 3


def load_spec() -> Dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def _units(entries: List[Dict]) -> Dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in entries}


def _import_program() -> None:
    """Fail early, before any result is printed, unless ``repro`` is the
    copy in this checkout's ``src``."""
    import repro
    origin = Path(repro.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"repro resolves to {origin}, not {ROOT / 'src'}")


# ---------------------------------------------------------------------------
# one
# ---------------------------------------------------------------------------


def _setup_in_child(args) -> float:
    command = [sys.executable, str(RUN_PY), "one", "--workload",
               args.workload, "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=150, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(run, setup: List[float]) -> Dict[str, float]:
    """The declared end-to-end metrics; times rescaled (see harness)."""
    return {"setup_s": statistics.median(setup),
            "op_ms_p50": 1000.0 * run.op_seconds(50),
            "op_ms_p90": 1000.0 * run.op_seconds(90),
            "ops_per_s": run.ops_per_s()}


def cmd_one(args, started: float) -> int:
    from repro.obs import clock

    from .harness import Speed, kernel_seconds, measure
    from .layers import Recorder
    from .stats import summary
    from .workloads import WORKLOADS

    spec = load_spec()
    workload = WORKLOADS[args.workload](args.seed, quick=args.quick)
    # set-up time, rescaled by the kernel timed right after it
    setup = [(clock.now() - started) * Speed.REFERENCE_S / kernel_seconds()]
    if args.setup_only:
        print(json.dumps({"setup_s": setup[0]}))
        return 0
    if not args.trace and not args.quick:
        setup += [_setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]

    recorder = Recorder(enabled=args.trace, trace_out=args.trace_out)
    run = measure(workload, args.seconds, recorder, one_round=args.quick)

    if args.trace:
        units = _units(spec["per_layer"])
        values = recorder.per_layer(run)
    else:
        units = _units(spec["end_to_end"])
        values = end_to_end(run, setup)
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} "
                         f"disagree with {SPEC_PATH.name}")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    detail = workload.detail(run)
    detail["wall_op_ms_p50"] = (1000.0 * run.op_seconds(50, raw=True), "ms")
    detail["speed_scale"] = (run.scale, "ratio")
    # printed, not bounded: CPython's peak depends on allocation order
    detail["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    print(f"# {args.workload} seed={args.seed} "
          f"{'traced' if args.trace else 'untraced'} "
          f"wall={run.wall:.2f}s ops={run.attempted} failed={run.failed}")
    for line in workload.rows(run):
        print("  " + line)
    for name, (value, unit) in detail.items():
        print(f"  {name:32s} {value:14.4f} {unit}")
    op_summary = summary([s for values in run.samples.values()
                          for s in values]) if run.samples else {}
    if op_summary:
        print("  op seconds: " + "  ".join(
            f"{key}={value:.6g}" for key, value in op_summary.items()))
    if args.trace:
        for line in recorder.table(run):
            print("  " + line)
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:14.6g} {metric['unit']}")

    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    if args.json_out:
        document = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": bool(args.trace),
                    "result": result,
                    "detail": {name: {"value": value, "unit": unit}
                               for name, (value, unit) in detail.items()},
                    "setup_samples_s": setup if not args.trace else [],
                    "op_seconds": op_summary}
        if args.trace:
            document["self_ms_per_op"] = {
                name: 1000.0 * run.scale * seconds / max(run.attempted, 1)
                for name, seconds in sorted(recorder.self_s.items())}
        Path(args.json_out).write_text(json.dumps(document, indent=1),
                                       encoding="utf-8")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _git_rev() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment() -> Dict[str, object]:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "machine": platform.machine(),
            "cpus": os.cpu_count()}


def cmd_run(args) -> int:
    spec = load_spec()
    names = args.workload or [entry["name"] for entry in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    runs = []
    for index in range(args.runs):
        for name in names:
            for traced in ((False, True) if args.trace else (False,)):
                tag = f"{out.stem}.{name}.{index}{'.trace' if traced else ''}"
                doc_path = out.with_name(tag + ".json")
                command = [sys.executable, str(RUN_PY), "one",
                           "--workload", name, "--seed", str(args.seed),
                           "--seconds", str(seconds),
                           "--trace", "1" if traced else "0",
                           "--json-out", str(doc_path)]
                if traced:
                    command += ["--trace-out",
                                str(out.with_name(tag + ".jsonl"))]
                proc = subprocess.run(command, cwd=ROOT, timeout=900)
                if proc.returncode != 0 or not doc_path.exists():
                    print(f"error: {name} run {index} exited "
                          f"{proc.returncode}", file=sys.stderr)
                    return 1
                runs.append(json.loads(doc_path.read_text(encoding="utf-8")))
                doc_path.unlink()
    document = {"schema": 1, "git_rev": _git_rev(), "env": _environment(),
                "seed": args.seed, "seconds": seconds, "runs": runs,
                "summary": summarize(runs, spec)}
    out.write_text(json.dumps(document, indent=1), encoding="utf-8")
    print_summary(document["summary"])
    print(f"wrote {out}")
    return 0


def _values(runs: List[Dict], workload: str, metric: str,
            traced: bool = False) -> List[float]:
    return [run["result"]["metrics"][metric]["value"] for run in runs
            if run["workload"] == workload and run["trace"] == traced
            and metric in run["result"]["metrics"]]


def _failed_frac(runs: List[Dict], workload: str) -> Optional[float]:
    results = [run["result"] for run in runs
               if run["workload"] == workload and not run["trace"]]
    if not results:
        return None
    return statistics.median(r["failed"] / r["attempted"] for r in results)


def summarize(runs: List[Dict], spec: Dict) -> Dict[str, Dict]:
    """Per workload: median, IQR and spread of every end-to-end metric,
    ``failed_frac``, and ``trace_overhead_frac`` when traced runs exist."""
    from .stats import iqr, spread
    out: Dict[str, Dict] = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        row: Dict[str, object] = {}
        for entry in spec["end_to_end"]:
            values = _values(runs, workload, entry["name"])
            if values:
                row[entry["name"]] = {
                    "median": statistics.median(values), "iqr": iqr(values),
                    "spread": spread(values), "n": len(values),
                    "unit": entry["unit"]}
        row["failed_frac"] = _failed_frac(runs, workload)
        traced = _values(runs, workload, "trace.op_ms_p50", traced=True)
        plain = _values(runs, workload, "op_ms_p50")
        if traced and plain:
            row["trace_overhead_frac"] = \
                statistics.median(traced) / statistics.median(plain) - 1
        out[workload] = row
    return out


def print_summary(summary: Dict[str, Dict]) -> None:
    for workload, row in summary.items():
        print(f"{workload}:")
        for name, cell in row.items():
            if isinstance(cell, dict):
                print(f"  {name:14s} median {cell['median']:12.6g} "
                      f"{cell['unit']:6s} IQR {cell['iqr']:10.4g} "
                      f"spread {100 * cell['spread']:5.1f}%  n={cell['n']}")
            elif cell is not None:
                print(f"  {name:14s} {cell:.4f}")


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def compare(base: List[Dict], head: List[Dict], spec: Dict) -> List[Dict]:
    """One row per workload x end-to-end metric, plus ``failed_frac``.

    ``verdict`` is ``worse`` when head's median is worse than base's by
    more than the metric's bound, ``better`` when it is better by more
    than the bound, ``unresolved`` when either side's own spread exceeds
    the bound and not every head run beats every base run, and
    ``within-bound`` otherwise.
    """
    from .stats import iqr, spread
    rows = []
    workloads = dict.fromkeys(run["workload"] for run in base + head)
    for workload in workloads:
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            a = _values(base, workload, name)
            b = _values(head, workload, name)
            if not a or not b:
                continue
            sign = 1.0 if entry["better"] == "lower" else -1.0
            a_mid, b_mid = statistics.median(a), statistics.median(b)
            worsening = sign * (b_mid - a_mid) / abs(a_mid) if a_mid else 0.0
            all_better = all(sign * (y - x) < 0 for x in a for y in b)
            if worsening > bound:
                verdict = "worse"
            elif (spread(a) > bound or spread(b) > bound) and not all_better:
                verdict = "unresolved"
            elif worsening < -bound:
                verdict = "better"
            else:
                verdict = "within-bound"
            rows.append({"workload": workload, "metric": name,
                         "base": a_mid, "base_iqr": iqr(a), "head": b_mid,
                         "head_iqr": iqr(b), "change": worsening,
                         "bound": bound, "verdict": verdict})
        a_failed = _failed_frac(base, workload)
        b_failed = _failed_frac(head, workload)
        if a_failed is not None and b_failed is not None:
            rows.append({"workload": workload, "metric": "failed_frac",
                         "base": a_failed, "base_iqr": 0.0,
                         "head": b_failed, "head_iqr": 0.0,
                         "change": b_failed - a_failed, "bound": 0.0,
                         "verdict": "worse" if b_failed > a_failed
                         else "within-bound"})
    return rows


def cmd_compare(args) -> int:
    spec = load_spec()
    base = json.loads(Path(args.base).read_text(encoding="utf-8"))["runs"]
    head = json.loads(Path(args.head).read_text(encoding="utf-8"))["runs"]
    rows = compare(base, head, spec)
    print(f"{'workload':15s} {'metric':12s} {'base':>12s} {'(IQR)':>10s} "
          f"{'head':>12s} {'(IQR)':>10s} {'worse by':>9s} {'bound':>6s}  "
          f"verdict")
    for row in rows:
        print(f"{row['workload']:15s} {row['metric']:12s} "
              f"{row['base']:12.6g} {row['base_iqr']:10.4g} "
              f"{row['head']:12.6g} {row['head_iqr']:10.4g} "
              f"{100 * row['change']:8.1f}% {100 * row['bound']:5.0f}%  "
              f"{row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


# ---------------------------------------------------------------------------
# expected
# ---------------------------------------------------------------------------


def cmd_expected(args) -> int:
    from repro.build import BuildSession
    from repro.runtime.runtime import Runtime
    from repro.workloads.spec import BENCHMARKS, workload

    from .workloads import EXPECTED

    def run(program, reference: bool = False):
        runtime = Runtime(program)
        if reference:
            cpu = runtime.main_cpu()
            cpu.step = cpu.step_reference
        result = runtime.run()
        return result.ok, result.exit_code, result.output

    golden = {}
    agree = True
    for name in BENCHMARKS:
        source = {name: workload(name).source}
        x64 = BuildSession(arch="x64").build(source).program
        x32 = BuildSession(arch="x32").build(source).program
        tiers = {"x64-block": run(x64), "x64-reference": run(x64, True),
                 "x32-block": run(x32)}
        same = len(set(tiers.values())) == 1 and tiers["x64-block"][0]
        agree = agree and same
        _, code, output = tiers["x64-block"]
        golden[name] = {"exit_code": code,
                        "output": output.decode("utf-8", "replace")}
        print(f"{name:12s} exit {code:3d} {'agree' if same else 'DIFFER'} "
              f"{output!r}")
    if not agree:
        print("error: the tiers disagree; nothing written", file=sys.stderr)
        return 1
    if args.write:
        EXPECTED.write_text(json.dumps(golden, indent=1, sort_keys=True)
                            + "\n", encoding="utf-8")
        print(f"wrote {EXPECTED}")
        return 0
    pinned = json.loads(EXPECTED.read_text(encoding="utf-8"))
    if pinned != golden:
        print(f"error: {EXPECTED} differs from this tree's outputs",
              file=sys.stderr)
        return 1
    print(f"{EXPECTED} matches")
    return 0


# ---------------------------------------------------------------------------


def parser() -> argparse.ArgumentParser:
    from .workloads import WORKLOADS
    top = argparse.ArgumentParser(
        prog="benchmarks/suite/run.py",
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    one = sub.add_parser("one", help="measure one workload in-process")
    one.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    one.add_argument("--seed", type=int, default=DEFAULT_SEED)
    one.add_argument("--seconds", type=float, default=10.0)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.add_argument("--quick", action="store_true",
                     help="one round of a tiny input set (smoke test)")
    one.add_argument("--setup-only", action="store_true",
                     help=argparse.SUPPRESS)
    one.add_argument("--json-out", help="write the full report here")
    one.add_argument("--trace-out", help="write the span trace (JSONL)")

    run = sub.add_parser("run", help="measure workloads, one process each")
    run.add_argument("--workload", action="append",
                     choices=sorted(WORKLOADS))
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float,
                     help="measured seconds per run (default: run_seconds)")
    run.add_argument("--runs", type=int, default=1)
    run.add_argument("--trace", action="store_true",
                     help="add a traced run after each untraced one")
    run.add_argument("--out", required=True, help="BENCH_<label>.json")

    cmp_ = sub.add_parser("compare", help="compare two BENCH_*.json files")
    cmp_.add_argument("base")
    cmp_.add_argument("head")

    exp = sub.add_parser("expected", help="check or pin fixed12 outputs")
    exp.add_argument("--write", action="store_true")
    return top


def main(argv: List[str], started: float) -> int:
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    args = parser().parse_args(argv)
    if args.command == "one":
        return cmd_one(args, started)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "compare":
        return cmd_compare(args)
    return cmd_expected(args)
