"""Per-shard health: state machine, quarantine triggers, MTTR accounting.

The PR 6 service treated every shard as permanently trustworthy; a
corrupted shard would grind its tenants through TxCheck escalations
forever while still accepting updates.  This module layers a health
state machine over :class:`~repro.service.shards.ShardedIdTables`:

::

    healthy --(consecutive rollbacks >= threshold,
               TxCheck escalation, audit finding)--> quarantined
    healthy --(failures below threshold)--> degraded --(success)--> healthy
    quarantined --(cooldown elapsed; recovery claims the probe)--> recovering
    recovering --(rebuild + sweep + probe OK)--> healthy
    recovering --(probe failed)--> quarantined   (escalated cooldown)

The four states are projections of one shared
:class:`~repro.infra.breaker.CircuitBreaker` per shard (the same
three-state machine the infra worker pool runs, here on the seeded
scheduler's **logical tick clock**, so every transition is
deterministic and replayable):

* ``healthy``      — breaker closed, zero consecutive failures;
* ``degraded``     — breaker closed but counting failures;
* ``quarantined``  — breaker open (cooldown running);
* ``recovering``   — breaker half-open (the single recovery probe).

**Evidence feeds.**  Batch commits/rollbacks arrive from the coalescer
(:meth:`note_commit` / :meth:`note_rollback`); TxCheck escalations and
integrity-audit findings are *non-negotiable* evidence and trip the
breaker immediately (:meth:`note_escalation` / :meth:`note_corruption`
call ``force_open``).  On every transition into ``quarantined`` the
shard is **fenced**: the injected ``fence`` callback bumps the shared
:class:`~repro.vm.memory.TableMemory` generation stamp, so every fused
check sequence the PR 5 dispatch plane cached against the poisoned
bands is invalidated before the next lookup.

The monitor never mutates tables itself — recovery (rebuild, sweep,
probe) is driven by the recovery task a
:class:`~repro.service.loop.ServiceLoop` runs under a
:class:`HealthPolicy`, which asks :meth:`ready_to_recover` /
:meth:`begin_recovery` and reports the verdict through
:meth:`record_probe`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional

from repro.infra.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.obs import OBS
from repro.service.shards import ShardedIdTables

#: The four health states (strings: they serialize into traces as-is).
HEALTHY, DEGRADED = "healthy", "degraded"
QUARANTINED, RECOVERING = "quarantined", "recovering"


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds and clocks for the shard health state machine.

    All times are scheduler ticks (logical, deterministic).
    """

    #: Consecutive batch rollbacks before a shard is quarantined.
    rollback_threshold: int = 2
    #: Quarantine cooldown before the first recovery probe.
    cooldown_ticks: int = 400
    #: Cooldown escalation per failed recovery (capped below).
    cooldown_factor: float = 2.0
    max_cooldown_ticks: int = 8000
    #: Ticks between background integrity audits per shard.
    scrub_interval: int = 64


class ShardHealthMonitor:
    """Health bookkeeping for every shard of one sharded table set."""

    def __init__(self, sharded: ShardedIdTables,
                 clock: Callable[[], int],
                 policy: Optional[HealthPolicy] = None,
                 fence: Optional[Callable[[int], None]] = None) -> None:
        self.sharded = sharded
        self.clock = clock
        self.policy = policy or HealthPolicy()
        self.fence = fence
        self.breakers: Dict[int, CircuitBreaker] = {}
        for shard in sharded.shards:
            self.breakers[shard.index] = CircuitBreaker(
                threshold=self.policy.rollback_threshold,
                cooldown=float(self.policy.cooldown_ticks),
                clock=clock,
                cooldown_factor=self.policy.cooldown_factor,
                max_cooldown=float(self.policy.max_cooldown_ticks),
                name=f"shard{shard.index}")
        #: Health transitions: {tick, shard, from, to, reason} dicts in
        #: occurrence order — the deterministic health trace.
        self.transitions: List[dict] = []
        #: Tick each currently-quarantined shard *entered* quarantine
        #: (kept across failed probes, so MTTR measures the full gap).
        self.quarantined_at: Dict[int, int] = {}
        #: Completed recoveries: {shard, down_tick, up_tick, mttr}.
        self.recoveries: List[dict] = []
        self.quarantines = 0
        self.probes_failed = 0
        self.detected_corruptions = 0
        self.escalations: Dict[int, int] = {}
        self.audits = 0

    # -- state projection ---------------------------------------------

    def health(self, index: int) -> str:
        breaker = self.breakers[index]
        if breaker.state == OPEN:
            return QUARANTINED
        if breaker.state == HALF_OPEN:
            return RECOVERING
        return DEGRADED if breaker.failures else HEALTHY

    def states(self) -> Dict[int, str]:
        return {index: self.health(index) for index in self.breakers}

    def serving_updates(self, index: int) -> bool:
        """May this shard accept batched updates right now?

        Only while the breaker is closed: a quarantined shard is
        fenced, and a recovering shard is mid-rebuild.  Checks remain
        readable throughout (degraded mode is read-only, not dark).
        """
        return self.breakers[index].state == CLOSED

    # -- evidence feeds ------------------------------------------------

    def note_commit(self, index: int) -> None:
        self._transition(index, "batch committed",
                         lambda b: b.record(True))

    def note_rollback(self, index: int) -> None:
        self._transition(index, "batch rolled back",
                         lambda b: b.record(False))

    def note_escalation(self, index: int) -> None:
        """A TxCheck exhausted its retry budget on this shard."""
        self.escalations[index] = self.escalations.get(index, 0) + 1
        self._transition(index, "txcheck escalation",
                         lambda b: b.force_open("txcheck escalation"))

    def note_corruption(self, index: int, entries: int) -> None:
        """An integrity audit found ``entries`` corrupted words."""
        self.detected_corruptions += entries
        if OBS.enabled:
            OBS.metrics.counter(
                "service.health.corruption_detected").inc(entries)
        self._transition(
            index, f"audit found {entries} corrupt entries",
            lambda b: b.force_open("integrity audit failed"))

    # -- recovery protocol ---------------------------------------------

    def ready_to_recover(self, index: int) -> bool:
        """Has this quarantined shard's cooldown elapsed?"""
        breaker = self.breakers[index]
        return (breaker.state == OPEN
                and breaker.reopen_at is not None
                and self.clock() >= breaker.reopen_at)

    def begin_recovery(self, index: int) -> bool:
        """Claim the recovery probe slot (quarantined -> recovering)."""
        claimed = False

        def attempt(breaker: CircuitBreaker) -> None:
            nonlocal claimed
            claimed = breaker.allow()

        self._transition(index, "recovery probe admitted", attempt)
        return claimed

    def record_probe(self, index: int, ok: bool,
                     reason: str = "") -> None:
        """Report the recovery verdict (rebuild + sweep + probe check)."""
        if not ok:
            self.probes_failed += 1
        self._transition(
            index,
            reason or ("recovery verified" if ok
                       else "recovery probe failed"),
            lambda b: b.record(ok))

    # -- background integrity audits ------------------------------------

    def scrub_task(self, active: Callable[[], bool],
                   ) -> Generator[None, None, None]:
        """Scheduler task: periodic per-shard integrity audits.

        Every ``policy.scrub_interval`` ticks, audit one serving shard
        (round-robin; skipped while its update lock is held — the bands
        are legitimately mid-rewrite then).  Any finding quarantines
        the shard; the *repair* happens in recovery, under the fence.
        """
        cursor = 0
        while active():
            for _ in range(self.policy.scrub_interval):
                yield
                if not active():
                    return
            shards = self.sharded.shards
            shard = shards[cursor % len(shards)]
            cursor += 1
            if not self.serving_updates(shard.index) or shard.lock.held:
                continue
            findings = shard.tables.audit()
            self.audits += 1
            found = len(findings["tary"]) + len(findings["bary"])
            if found:
                self.note_corruption(shard.index, found)

    # -- bookkeeping -----------------------------------------------------

    def mttr_ticks(self) -> List[int]:
        return [record["mttr"] for record in self.recoveries]

    def summary(self) -> dict:
        states = self.states()
        return {
            "states": {str(k): v for k, v in sorted(states.items())},
            "quarantines": self.quarantines,
            "recoveries": len(self.recoveries),
            "probes_failed": self.probes_failed,
            "detected_corruptions": self.detected_corruptions,
            "escalations": sum(self.escalations.values()),
            "audits": self.audits,
            "transitions": len(self.transitions),
        }

    def _transition(self, index: int, reason: str,
                    mutate: Callable[[CircuitBreaker], None]) -> None:
        before = self.health(index)
        mutate(self.breakers[index])
        after = self.health(index)
        if after == before:
            return
        tick = self.clock()
        self.transitions.append({
            "tick": tick, "shard": index,
            "from": before, "to": after, "reason": reason,
        })
        if OBS.enabled:
            OBS.metrics.counter(
                f"service.health.{after}").inc()
        if after == QUARANTINED:
            if before != RECOVERING:
                # Entering quarantine fresh: stamp the outage start and
                # fence the shard (failed probes keep the old stamp so
                # MTTR covers the whole outage).
                self.quarantined_at[index] = tick
            self.quarantines += 1
            if self.fence is not None:
                self.fence(index)
            if OBS.enabled:
                OBS.metrics.counter("service.health.quarantines").inc()
        elif after == HEALTHY and before == RECOVERING:
            down = self.quarantined_at.pop(index, tick)
            mttr = tick - down
            self.recoveries.append({
                "shard": index, "down_tick": down,
                "up_tick": tick, "mttr": mttr,
            })
            if OBS.enabled:
                OBS.metrics.counter("service.recovery.completed").inc()
                OBS.metrics.histogram(
                    "service.recovery.mttr_ticks").observe(mttr)
