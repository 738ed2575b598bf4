"""Chaos campaigns: the self-healing plane vs. the fault-oblivious one.

A campaign cell runs the *same* seeded fault schedule twice, through
the one :class:`~repro.service.loop.ServiceLoop`:

* the **resilient** leg — under :data:`CAMPAIGN_POLICY`, so with
  parity-spaced IDs, shard health breakers, quarantine/recovery and
  deadline budgets;
* the **baseline** leg — no policy: the same storms but no healing (no
  monitor, no scrub, no recovery, plain ECNs).

Both legs face five fault families, armed on one
:class:`~repro.faults.plane.FaultPlane` per leg with identical specs:

==========================  ==============================================
``service.commit``          torn batches: a shard's whole round dropped
``service.fault.bitflip``   single-bit flips in live stored IDs (storm)
``service.fault.stale``     version-gap storms (stuck retry signatures)
``service.request.poison``  malformed dlopen write-sets
``service.tenant.crash``    tenants dying mid-round, entries left behind
==========================  ==============================================

The cell reports availability (fraction of clean commit rounds), MTTR
(ticks from quarantine to verified recovery), the detected-corruption
ledger, and the campaign's one hard gate: **zero undetected
corruptions** (no forged edge ever admitted; every corrupt word
accounted for by an audit, a sweep, or the teardown pass).  The
baseline leg reports the corruption *residue* its oblivious tables
carry out of the run — the number the self-healing plane drives to
zero.

Everything is a pure function of ``(seed, parameters)``: two runs of
the same cell produce byte-identical tables, traces and artifacts.
``benchmarks/bench_service_chaos.py`` and ``python -m repro service
chaos`` consume this module; the artifact lands in
``benchmarks/results/service_chaos.txt``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.faults.plane import FaultPlane
from repro.service.health import HealthPolicy
from repro.service.loop import HEALING_CHECK_RETRIES, ServiceLoop

#: Health policy every campaign cell runs: quick quarantines (two
#: consecutive rollbacks), short first cooldown, tight scrub cadence.
CAMPAIGN_POLICY = HealthPolicy(rollback_threshold=2, cooldown_ticks=150,
                               cooldown_factor=2.0,
                               max_cooldown_ticks=2400,
                               scrub_interval=24)

#: Storm cadences (scheduler ticks between corruption attempts).
BITFLIP_INTERVAL = 20
STALE_INTERVAL = 35

#: Availability floor a healing cell must clear (fraction of clean
#: per-shard commits, quarantined shards' parked rounds included).
AVAILABILITY_FLOOR = 0.90


def round_cap(tenants: int) -> int:
    """Blast-radius bound: max requests one commit round may carry.

    A torn batch drops at most one round per shard, so capping the
    round size caps how much offered load a single fault can take
    down — the campaign's main graceful-degradation lever."""
    return max(8, tenants // 8)


def fault_spec(tenants: int, churn: int) -> Dict[str, dict]:
    """Arm counts for one leg, scaled to the offered load."""
    return {
        "service.commit": dict(skip=2, count=max(2, tenants // 16)),
        "service.fault.bitflip": dict(count=max(2, tenants // 10)),
        "service.fault.stale": dict(count=max(1, tenants // 20)),
        "service.request.poison": dict(skip=3,
                                       count=max(1, tenants // 10)),
        "service.tenant.crash": dict(skip=5,
                                     count=max(1, tenants // 12)),
    }


def arm_chaos(plane: FaultPlane, tenants: int, churn: int) -> FaultPlane:
    for point, spec in sorted(fault_spec(tenants, churn).items()):
        plane.arm(point, **spec)
    return plane


def run_chaos_cell(tenants: int, shards: int = 4, seed: int = 0,
                   churn: int = 2,
                   policy: Optional[HealthPolicy] = None) -> dict:
    """One campaign cell: resilient and baseline legs, same faults."""

    def leg(leg_policy: Optional[HealthPolicy]) -> ServiceLoop:
        # Both legs run under the healing TxCheck retry budget, so a
        # stuck retry signature escalates instead of spinning.
        loop = ServiceLoop(
            tenants=tenants, shards=shards, seed=seed, churn=churn,
            policy=leg_policy, check_retry_budget=HEALING_CHECK_RETRIES,
            max_round_requests=round_cap(tenants),
            fault_plane=arm_chaos(FaultPlane(seed=seed), tenants, churn),
            bitflip_storm=dict(interval=BITFLIP_INTERVAL),
            stale_storm=dict(interval=STALE_INTERVAL))
        loop.run()
        return loop

    resilient = leg(policy or CAMPAIGN_POLICY)
    oracle_ok = (resilient.sharded.decoded_state()
                 == resilient.replay_serial())
    bands_ok = all(
        resilient.band_bytes(shard)
        == resilient.expected_band_bytes(shard)
        for shard in resilient.sharded.shards)

    baseline = leg(None)
    base_report = baseline.report

    cell = {
        "tenants": tenants, "shards": shards, "seed": seed,
        "churn": churn,
        "resilient": resilient.report.to_dict(),
        "resilient_oracle_ok": oracle_ok,
        "resilient_bands_ok": bands_ok,
        "baseline": {
            "committed": base_report.committed,
            "failed": base_report.failed,
            "rejected": base_report.rejected,
            "rounds": base_report.rounds,
            "escalations": base_report.escalations,
            "availability": baseline.availability(),
            "residual_corruptions": baseline.teardown_sweep(),
            "faults_injected": len(baseline.fault_plane.events),
            "ticks": base_report.ticks,
        },
        "events": [event.to_dict()
                   for event in resilient.fault_plane.events],
        "transitions": resilient.monitor.transitions,
    }
    return cell


def chaos_rows(tenant_counts: Sequence[int], seed: int,
               shards: int = 4, churn: int = 2) -> List[dict]:
    return [run_chaos_cell(tenants, shards=shards, seed=seed,
                           churn=churn)
            for tenants in tenant_counts]


def chaos_trace_jsonl(cells: List[dict]) -> str:
    """The campaign as canonical JSONL (sorted keys, one object per
    line): a config header, then per cell its fault events, health
    transitions and both legs' summaries.  Byte-identical across runs
    of the same seed and parameters — the CI golden artifact."""
    lines = []
    for cell in cells:
        header = {k: cell[k] for k in
                  ("tenants", "shards", "seed", "churn")}
        lines.append(json.dumps({"kind": "cell", **header},
                                sort_keys=True))
        for event in cell["events"]:
            lines.append(json.dumps({"kind": "fault", **event},
                                    sort_keys=True))
        for transition in cell["transitions"]:
            lines.append(json.dumps({"kind": "health", **transition},
                                    sort_keys=True))
        lines.append(json.dumps(
            {"kind": "resilient", **cell["resilient"],
             "oracle_ok": cell["resilient_oracle_ok"],
             "bands_ok": cell["resilient_bands_ok"]}, sort_keys=True))
        lines.append(json.dumps({"kind": "baseline",
                                 **cell["baseline"]}, sort_keys=True))
    return "\n".join(lines)


def cell_checks(cell: dict) -> List[tuple]:
    """The acceptance gates one cell must clear, as (name, ok) pairs."""
    r = cell["resilient"]
    return [
        ("undetected == 0", r["undetected_corruptions"] == 0),
        ("forged allows == 0", r["forged_allows"] == 0),
        (f"availability >= {AVAILABILITY_FLOOR:.2f}",
         r["availability"] >= AVAILABILITY_FLOOR),
        ("serial-replay oracle", cell["resilient_oracle_ok"]),
        ("bands byte-identical to clean rebuild",
         cell["resilient_bands_ok"]),
        ("recoveries verified",
         r["rebuilds_verified"] == r["recoveries"]),
    ]


def render_chaos_table(cells: List[dict], seed: int) -> str:
    """The ``service_chaos.txt`` artifact body."""
    lines = [
        f"Service chaos campaign: self-healing vs fault-oblivious "
        f"(seed {seed})",
        "Both legs face the same seeded faults: torn batches, bit-flip "
        "and stale-",
        "version storms, poisoned dlopens, mid-round tenant crashes.  "
        "avail is the",
        "fraction of clean per-shard commits (non-quarantined shards "
        "keep serving);",
        "mttr is quarantine-to-verified-recovery in",
        "scheduler ticks; undet is corruption admitted or missed "
        "(hard gate: 0);",
        "residue is corrupt words the oblivious baseline carries out "
        "of the run.",
        "",
        f"{'tenants':>7s} {'leg':>9s} {'avail':>6s} {'commit':>7s} "
        f"{'fail':>5s} {'ddl':>4s} {'quar':>5s} {'recov':>6s} "
        f"{'mttr':>11s} {'det':>4s} {'undet':>6s} {'residue':>8s}",
    ]
    for cell in cells:
        r = cell["resilient"]
        b = cell["baseline"]
        mttr = (f"{r['mttr_mean']:.0f}/{r['mttr_max']}"
                if r["recoveries"] else "-")
        lines.append(
            f"{cell['tenants']:7d} {'healing':>9s} "
            f"{r['availability']:6.2f} {r['committed']:7d} "
            f"{r['failed']:5d} {r['deadline_missed']:4d} "
            f"{r['quarantines']:5d} {r['recoveries']:6d} "
            f"{mttr:>11s} {r['detected_corruptions']:4d} "
            f"{r['undetected_corruptions']:6d} {'0':>8s}")
        lines.append(
            f"{cell['tenants']:7d} {'baseline':>9s} "
            f"{b['availability']:6.2f} {b['committed']:7d} "
            f"{b['failed']:5d} {'-':>4s} {'-':>5s} {'-':>6s} "
            f"{'-':>11s} {'-':>4s} {'-':>6s} "
            f"{b['residual_corruptions']:8d}")
    lines.append("")
    for cell in cells:
        checks = cell_checks(cell)
        verdict = "PASS" if all(ok for _, ok in checks) else "FAIL"
        failed = [name for name, ok in checks if not ok]
        suffix = "" if not failed else f"  ({', '.join(failed)})"
        lines.append(f"{cell['tenants']} tenants: {verdict}{suffix}")
    return "\n".join(lines)
