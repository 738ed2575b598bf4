"""SimVM dispatch-plane throughput and conformance (PR 5 tentpole).

Two artifacts in one file:

* **Throughput** — interpreted instructions/sec of the table-driven
  block dispatcher (:mod:`repro.vm.dispatch`) against the original
  monolithic ``if/elif`` chain, ``CPU.step_reference`` (its branches
  unchanged; it compares opcodes as plain ints, so it is not slowed by
  enum attribute loads).  Each workload runs both tiers in
  ``ROUNDS`` interleaved rounds, alternating which tier goes first,
  and reports the median per-round ratio.  The acceptance bar is a
  >= 1.5x geomean of those medians; the measured table lands in
  ``benchmarks/results/vm_dispatch.txt``.

* **Conformance** — the dispatcher must be architecturally invisible:
  identical ``exit_code``/``output``/``cycles``/``instructions``/
  ``tx_checks`` on every workload.  Closure compilation, the decoded
  basic-block cache and check-sequence fusion may only change
  wall-clock time, never an observable.

Runnable three ways:

- under pytest (tier-1: ``python -m pytest benchmarks/bench_vm_dispatch.py``),
- ``bench_vm_dispatch.py --quick`` — CI smoke: subset conformance plus
  a single-workload speedup sanity check (no 1.5x gate, CI boxes are
  noisy),
- ``bench_vm_dispatch.py --conformance`` — conformance only, on all
  twelve workloads; exits non-zero on any divergence.

``--generated`` sets :data:`repro.vm.dispatch.HOT_BLOCK_RUNS` to 0 in
this process, so every block's source is generated before its first
run and the generated tier alone is held against the reference.
"""

import statistics
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # script invocation (CI smoke job)
    _root = Path(__file__).resolve().parents[1]
    for entry in (str(_root), str(_root / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)

import pytest

from benchmarks.conftest import selected_benchmarks, write_result
from repro.experiments import compiled
from repro.runtime.runtime import Runtime
from repro.vm import dispatch
from repro.workloads.spec import BENCHMARKS

#: Workloads for the script-mode --quick smoke: one call-heavy (many
#: fused check sequences), one loop-heavy, one floating-point.
QUICK = ("perlbench", "libquantum", "lbm")

MAX_STEPS = 200_000_000

#: Interleaved timing rounds per workload in the speedup table.
ROUNDS = 3


def _run(name: str, reference: bool):
    """Execute one workload; returns (RunResult, wall seconds)."""
    runtime = Runtime(compiled(name))
    cpu = runtime.main_cpu()
    if reference:
        # Instance attribute forces CPU.run() onto the original
        # per-instruction if/elif chain.
        cpu.step = cpu.step_reference
    start = time.perf_counter()
    result = runtime.run(max_steps=MAX_STEPS)
    elapsed = time.perf_counter() - start
    assert result.ok, f"{name}: {result.violation or result.fault}"
    return result, elapsed


def observables(result):
    return (result.exit_code, result.output, result.cycles,
            result.instructions, result.tx_checks)


def check_conformance(name: str):
    """Run ``name`` both ways; return (fast, ref, mismatches)."""
    fast, _ = _run(name, reference=False)
    ref, _ = _run(name, reference=True)
    mismatches = [
        field for field, a, b in zip(
            ("exit_code", "output", "cycles", "instructions", "tx_checks"),
            observables(fast), observables(ref))
        if a != b]
    return fast, ref, mismatches


def speedup_row(name: str):
    """Measure one workload; returns a result-table row dict.

    Each round times both tiers back to back, the reference first in
    even rounds and last in odd ones, so drift lands on both sides.
    The row reports the median of each tier's times and the median of
    the per-round ratios.
    """
    ref_times, fast_times, ratios = [], [], []
    for index in range(ROUNDS):
        order = (True, False) if index % 2 == 0 else (False, True)
        timed = {reference: _run(name, reference) for reference in order}
        (ref, ref_s), (fast, fast_s) = timed[True], timed[False]
        assert observables(fast) == observables(ref), name
        ref_times.append(ref_s)
        fast_times.append(fast_s)
        ratios.append(ref_s / fast_s)
    return {
        "name": name,
        "instructions": ref.instructions,
        "ref_ips": ref.instructions / statistics.median(ref_times),
        "fast_ips": fast.instructions / statistics.median(fast_times),
        "speedup": statistics.median(ratios),
    }


def format_table(rows):
    lines = [f"{'benchmark':>12s} {'instrs':>10s} {'if/elif i/s':>12s} "
             f"{'dispatch i/s':>13s} {'speedup':>8s}"]
    product = 1.0
    for row in rows:
        product *= row["speedup"]
        lines.append(
            f"{row['name']:>12s} {row['instructions']:10d} "
            f"{row['ref_ips']:12.0f} {row['fast_ips']:13.0f} "
            f"{row['speedup']:7.2f}x")
    geomean = product ** (1.0 / len(rows))
    lines.append(f"{'geomean':>12s} {'':>10s} {'':>12s} {'':>13s} "
                 f"{geomean:7.2f}x")
    return "\n".join(lines), geomean


# -- pytest entry points ----------------------------------------------------------


@pytest.mark.parametrize("name", selected_benchmarks())
def test_dispatch_conformance(name):
    """Dispatch observables are bit-identical to the if/elif chain."""
    fast, ref, mismatches = check_conformance(name)
    assert not mismatches, (
        f"{name} diverged on {mismatches}: "
        f"dispatch={observables(fast)} reference={observables(ref)}")


def test_dispatch_speedup_table(benchmark):
    """>= 1.5x geomean of median per-workload speedups over the chain."""
    names = selected_benchmarks()

    def sweep():
        return [speedup_row(name) for name in names]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table, geomean = format_table(rows)
    write_result("vm_dispatch", table)
    benchmark.extra_info["geomean_speedup"] = round(geomean, 3)
    assert geomean >= 1.5, f"geomean speedup {geomean:.2f}x < 1.5x\n{table}"


# -- script entry point (CI smoke) ------------------------------------------------


def _main(argv):
    import argparse
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="subset conformance + 1-workload speedup")
    parser.add_argument("--conformance", action="store_true",
                        help="conformance checks only, all twelve")
    parser.add_argument("--generated", action="store_true",
                        help="generate every block before its first run")
    args = parser.parse_args(argv)
    if args.generated:
        dispatch.HOT_BLOCK_RUNS = 0

    names = QUICK if args.quick else \
        BENCHMARKS if args.conformance else selected_benchmarks()
    failed = False
    for name in names:
        fast, ref, mismatches = check_conformance(name)
        if mismatches:
            failed = True
            print(f"FAIL {name}: diverged on {mismatches}")
            print(f"  dispatch : {observables(fast)}")
            print(f"  reference: {observables(ref)}")
        else:
            print(f"ok   {name}: {fast.instructions} instrs, "
                  f"cycles/tx_checks identical")
    if failed:
        return 1
    if args.conformance:
        return 0

    rows = [speedup_row(name) for name in
            (names[:1] if args.quick else names)]
    table, geomean = format_table(rows)
    print(table)
    if not args.quick:
        write_result("vm_dispatch", table)
        if geomean < 1.5:
            print(f"FAIL: geomean speedup {geomean:.2f}x < 1.5x")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
