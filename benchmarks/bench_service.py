"""Multi-tenant table-service scaling (PR 6 tentpole).

Measures the :mod:`repro.service` subsystem — sharded Bary/Tary tables
plus the batched :class:`~repro.service.coalescer.UpdateCoalescer` —
against the paper's global-lock, one-transaction-per-dlopen baseline,
on the same seeded scheduler with the same tenant tasks:

* **Latency** — update latency percentiles (scheduler ticks, logical
  and deterministic) at 10/100(/1000 with ``REPRO_FULL=1``) tenants;
  acceptance: at 100 tenants the sharded+batched service is >= 3x
  faster (mean) than the baseline.
* **Integrity** — zero TxCheck escalations in every configuration, and
  the live tables decode identically to a serial one-transaction-per-
  request replay of the committed log (batching never changes *what*
  is installed, only *when*).
* **Determinism** — same seed, same parameters => byte-identical
  coalescer round trace and identical report.

The measured table lands in ``benchmarks/results/service_scaling.txt``.

Runnable two ways:

- under pytest (tier-1: ``python -m pytest benchmarks/bench_service.py``),
- ``bench_service.py --quick`` — the CI ``service-smoke`` job: a
  10-tenant run asserting coalescing factor >= 2x, seeded-trace byte
  identity across two runs, zero escalations, and serial-replay
  equality.
"""

import sys
from pathlib import Path

if __package__ in (None, ""):  # script invocation (CI smoke job)
    _root = Path(__file__).resolve().parents[1]
    for entry in (str(_root), str(_root / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)

from benchmarks.conftest import FULL, write_result
from repro.service import ServiceLoop
from repro.tools.service import render_scaling_table, scaling_rows

SEED = 0

#: Tenant counts for the pytest sweep; the 1000-tenant point (sharded
#: only — the baseline's full-table rewrites are quadratic and take
#: minutes there) joins under REPRO_FULL=1.
COUNTS = (10, 100, 1000) if FULL else (10, 100)

#: The CI smoke configuration: 10 tenants on 4 shards with a batching
#: window long enough that whole bursts ride one round.  Coalescing
#: tops out at tenants/shards requests per transaction, so the smoke
#: uses 4 shards to make the >= 2x bar meaningful at 10 tenants.
QUICK = dict(tenants=10, shards=4, seed=SEED, churn=2, window=10)


def _speedup(rows):
    by = {(r["tenants"], r["mode"]): r for r in rows}
    sharded = by[(100, "sharded")]["latency_mean"]
    baseline = by[(100, "global")]["latency_mean"]
    return baseline / sharded if sharded else 0.0


def test_service_scaling_table(benchmark):
    """The headline artifact: >= 3x mean-latency win at 100 tenants."""
    rows = benchmark.pedantic(
        lambda: scaling_rows(COUNTS, SEED), rounds=1, iterations=1)
    table = render_scaling_table(rows, SEED)
    write_result("service_scaling", table)
    speedup = _speedup(rows)
    benchmark.extra_info["speedup_100"] = round(speedup, 1)
    assert all(row["escalations"] == 0 for row in rows), table
    assert all(row["failed"] == 0 and row["rejected"] == 0
               for row in rows), table
    assert speedup >= 3.0, \
        f"100-tenant speedup {speedup:.1f}x < 3.0x\n{table}"


def test_service_observables_match_serial_replay():
    """Batched+sharded execution is equivalent to serial execution."""
    loop = ServiceLoop(tenants=50, shards=8, seed=SEED, churn=2)
    report = loop.run()
    assert report.escalations == 0
    assert report.checks == report.checks_allowed
    assert loop.sharded.decoded_state() == loop.replay_serial()
    # After full churn (every dlopen matched by a dlclose) the tables
    # must be empty again.
    state = loop.sharded.decoded_state()
    assert state == {"tary": {}, "bary": {}}


def test_service_trace_byte_identical():
    """Same seed + parameters => byte-identical round trace."""
    first = ServiceLoop(**QUICK)
    second = ServiceLoop(**QUICK)
    first.run()
    second.run()
    assert first.coalescer.trace_jsonl() == second.coalescer.trace_jsonl()
    assert first.report.to_dict() == second.report.to_dict()


def test_service_quick_coalescing_floor():
    """The CI smoke bar: coalescing factor >= 2x at 10 tenants."""
    report = ServiceLoop(**QUICK).run()
    assert report.coalescing_factor >= 2.0, report.to_dict()
    assert report.escalations == 0


#: Interleaved timing rounds of the churn-compile cell, after one
#: untimed round that builds every session fleet's first (cold) image.
CHURN_ROUNDS = 5


def _churn_round(fleet, kinds):
    """One churn event per tenant; the mean seconds per event."""
    from statistics import mean

    from repro.obs import clock
    seconds = []
    for churn in fleet:
        start = clock.now()
        result = churn.churn_once()
        seconds.append(clock.now() - start)
        kinds[result.kind] = kinds.get(result.kind, 0) + 1
    return mean(seconds)


def test_dlopen_churn_compile_latency():
    """The PR 8 service cell: each dlopen churn event re-compiles the
    tenant's (edited) module, legacy vs session.  The legacy path pays
    a cold ``build_program`` per event; a per-tenant
    :class:`repro.build.BuildSession` turns the steady state into
    incremental single-unit rebuilds — the compile must stop dominating
    the churn budget.  The two paths churn in interleaved rounds,
    alternating which goes first, and the verdict is the median of the
    per-round ratios."""
    from statistics import median

    from repro.service.tenancy import TenantChurn

    tenants = 2
    fleets = {"legacy": [TenantChurn(tenant, legacy=True)
                         for tenant in range(tenants)],
              "session": [TenantChurn(tenant) for tenant in range(tenants)]}
    kinds = {side: {} for side in fleets}
    for side, fleet in fleets.items():
        _churn_round(fleet, kinds[side])     # the fleet's first round
    per_event = {side: [] for side in fleets}
    ratios = []
    for round_index in range(CHURN_ROUNDS):
        order = ["legacy", "session"]
        if round_index % 2:
            order.reverse()
        for side in order:
            per_event[side].append(_churn_round(fleets[side], kinds[side]))
        ratios.append(per_event["legacy"][-1] / per_event["session"][-1])

    events = tenants * (CHURN_ROUNDS + 1)
    assert kinds["legacy"] == {"cold": events}
    assert kinds["session"].get("cold") == tenants
    assert (kinds["session"].get("incremental", 0)
            + kinds["session"].get("warm", 0)) == events - tenants

    legacy_ms = median(per_event["legacy"]) * 1000
    session_ms = median(per_event["session"]) * 1000
    speedup = median(ratios)
    lines = [
        f"dlopen churn compile latency, {tenants} tenants, "
        f"{CHURN_ROUNDS} interleaved rounds after the cold round",
        "(per-event means per round; medians over rounds; "
        "speedup = median per-round ratio)",
        f"legacy  (cold build_program/event): {legacy_ms:8.2f} ms/event",
        f"session (incremental BuildSession): {session_ms:8.2f} ms/event",
        f"speedup: {speedup:.1f}x",
    ]
    write_result("service_churn_compile", "\n".join(lines))
    assert speedup >= 5.0, "\n".join(lines)


# -- script entry point (CI service-smoke job) ------------------------------


def _main(argv):
    import argparse
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: 10 tenants, coalescing >= 2x, "
                             "trace byte-identity")
    args = parser.parse_args(argv)

    if args.quick:
        loop = ServiceLoop(**QUICK)
        twin = ServiceLoop(**QUICK)
        report = loop.run()
        twin.run()
        print(f"10 tenants / 4 shards: coalescing "
              f"{report.coalescing_factor:.2f}x, "
              f"p50 {report.latency_p50}, p99 {report.latency_p99}, "
              f"escalations {report.escalations}")
        checks = [
            (report.coalescing_factor >= 2.0,
             f"coalescing {report.coalescing_factor:.2f}x < 2x"),
            (report.escalations == 0,
             f"{report.escalations} TxCheck escalations"),
            (loop.coalescer.trace_jsonl() == twin.coalescer.trace_jsonl(),
             "seeded trace not byte-identical across runs"),
            (loop.sharded.decoded_state() == loop.replay_serial(),
             "observables diverge from serial replay"),
        ]
        failed = [message for ok, message in checks if not ok]
        for message in failed:
            print(f"FAIL: {message}")
        return 1 if failed else 0

    rows = scaling_rows(COUNTS, SEED)
    table = render_scaling_table(rows, SEED)
    print(table)
    write_result("service_scaling", table)
    speedup = _speedup(rows)
    if any(row["escalations"] for row in rows) or speedup < 3.0:
        print(f"FAIL: speedup {speedup:.1f}x or escalations present")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
