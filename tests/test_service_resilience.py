"""Tests for the self-healing service plane (PR 7).

Covers the shard health state machine, quarantine + journal-driven
recovery (byte-identical bands), request parking and deadline budgets,
negative-check load (the zero-forged-edges gate), the service-aware
chaos injectors, and campaign determinism.
"""

import pytest

from repro.core.idencoding import pack_id, parity_ecn, parity_ecn_ok
from repro.core.tables import tary_index
from repro.core.transactions import UpdateTransaction
from repro.faults.plane import FaultPlane
from repro.faults.service_injectors import (
    shard_bit_flip_storm,
    version_gap_storm,
)
from repro.service import (
    HealthPolicy,
    ParityWritesetTemplate,
    ServiceLoop,
    ShardedIdTables,
    ShardHealthMonitor,
    UpdateCoalescer,
    UpdateRequest,
)
from repro.service.coalescer import COMMITTED, DEADLINE, FAILED
from repro.service.health import (
    DEGRADED,
    HEALTHY,
    QUARANTINED,
    RECOVERING,
)
from repro.service.loop import WritesetTemplate

#: Small-but-complete outage config: one torn-round burst trips one
#: shard, which recovers mid-run (verified across seeds 0..2).
OUTAGE_POLICY = HealthPolicy(rollback_threshold=2, cooldown_ticks=80,
                             cooldown_factor=2.0,
                             max_cooldown_ticks=640, scrub_interval=16)


def _outage_loop(seed=0, **kwargs):
    plane = FaultPlane(seed=seed).arm("service.commit", skip=0, count=3)
    defaults = dict(tenants=6, shards=2, seed=seed, churn=2,
                    policy=OUTAGE_POLICY, fault_plane=plane)
    defaults.update(kwargs)
    return ServiceLoop(**defaults)


def _install(sharded, shard, entries=3):
    """Install a few parity-encoded classes on one shard's band."""
    tary = {shard.tary_lo + 4 * i: parity_ecn(1 + i)
            for i in range(entries)}
    bary = {shard.site_lo + i: parity_ecn(1 + i)
            for i in range(entries)}
    transaction = UpdateTransaction(shard.tables, shard.lock,
                                    new_tary=tary, new_bary=bary,
                                    owner="test")
    for _ in transaction.run():
        pass
    return tary, bary


# ---------------------------------------------------------------------------
# Health state machine
# ---------------------------------------------------------------------------

class TestShardHealthMonitor:
    def _monitor(self, **policy_kwargs):
        ticks = [0]
        policy = HealthPolicy(rollback_threshold=2, cooldown_ticks=50,
                              cooldown_factor=2.0,
                              max_cooldown_ticks=400,
                              **policy_kwargs)
        sharded = ShardedIdTables(shards=2)
        fenced = []
        monitor = ShardHealthMonitor(sharded,
                                     clock=lambda: ticks[0],
                                     policy=policy,
                                     fence=fenced.append)
        return monitor, ticks, fenced

    def test_rollbacks_degrade_then_quarantine(self):
        monitor, _, fenced = self._monitor()
        assert monitor.health(0) == HEALTHY
        monitor.note_rollback(0)
        assert monitor.health(0) == DEGRADED
        assert monitor.serving_updates(0)      # degraded still serves
        monitor.note_rollback(0)               # threshold reached
        assert monitor.health(0) == QUARANTINED
        assert not monitor.serving_updates(0)
        assert monitor.quarantines == 1
        assert fenced == [0]                   # fenced exactly once
        assert monitor.health(1) == HEALTHY    # sibling untouched

    def test_commit_clears_degraded(self):
        monitor, _, _ = self._monitor()
        monitor.note_rollback(0)
        monitor.note_commit(0)
        assert monitor.health(0) == HEALTHY
        monitor.note_rollback(0)
        monitor.note_rollback(0)               # consecutive again
        assert monitor.health(0) == QUARANTINED

    def test_escalation_and_corruption_trip_immediately(self):
        monitor, _, _ = self._monitor()
        monitor.note_escalation(0)
        assert monitor.health(0) == QUARANTINED
        monitor2, _, _ = self._monitor()
        monitor2.note_corruption(1, entries=3)
        assert monitor2.health(1) == QUARANTINED
        assert monitor2.detected_corruptions == 3

    def test_recovery_protocol_and_mttr(self):
        monitor, ticks, _ = self._monitor()
        ticks[0] = 10
        monitor.note_rollback(0)
        monitor.note_rollback(0)               # down at tick 10
        assert not monitor.ready_to_recover(0)
        ticks[0] = 70                          # past the 50-tick cooldown
        assert monitor.ready_to_recover(0)
        assert monitor.begin_recovery(0)
        assert monitor.health(0) == RECOVERING
        assert not monitor.begin_recovery(0)   # single probe slot
        # Failed probe: re-quarantined, outage stamp kept.
        ticks[0] = 75
        monitor.record_probe(0, ok=False)
        assert monitor.health(0) == QUARANTINED
        assert monitor.probes_failed == 1
        assert monitor.quarantined_at[0] == 10
        # Escalated cooldown: 50 * 2 from the re-trip at tick 75.
        ticks[0] = 180
        assert monitor.ready_to_recover(0)
        assert monitor.begin_recovery(0)
        monitor.record_probe(0, ok=True)
        assert monitor.health(0) == HEALTHY
        [recovery] = monitor.recoveries
        assert recovery == {"shard": 0, "down_tick": 10,
                            "up_tick": 180, "mttr": 170}
        assert monitor.mttr_ticks() == [170]

    def test_transitions_trace_is_complete(self):
        monitor, ticks, _ = self._monitor()
        monitor.note_rollback(0)
        monitor.note_rollback(0)
        ticks[0] = 60
        monitor.begin_recovery(0)
        monitor.record_probe(0, ok=True)
        path = [(t["from"], t["to"]) for t in monitor.transitions]
        assert path == [(HEALTHY, DEGRADED), (DEGRADED, QUARANTINED),
                        (QUARANTINED, RECOVERING),
                        (RECOVERING, HEALTHY)]

    def test_scrub_detects_planted_corruption(self):
        monitor, _, fenced = self._monitor(scrub_interval=4)
        shard = monitor.sharded.shards[0]
        _install(monitor.sharded, shard)
        # Flip a live word under the scrubber's nose.
        address = shard.tary_lo
        memory = shard.tables.memory
        memory.write_tary(tary_index(address),
                          memory.read_tary(tary_index(address)) ^ 1)
        task = monitor.scrub_task(active=lambda: True)
        for _ in range(20):            # a few scrub rounds
            next(task)
        assert monitor.health(0) == QUARANTINED
        assert monitor.detected_corruptions >= 1
        assert monitor.audits >= 1
        assert fenced == [0]


# ---------------------------------------------------------------------------
# Parity-spaced placement
# ---------------------------------------------------------------------------

class TestParityTemplate:
    def test_instantiated_ecns_carry_parity(self):
        template = ParityWritesetTemplate(
            *(lambda t: (t.tary, t.bary, t.checks, t.n_classes))(
                WritesetTemplate.default()))
        tary, bary = template.instantiate(tary_base=0, site_base=0,
                                          ecn_base=5)
        for ecn in list(tary.values()) + list(bary.values()):
            assert parity_ecn_ok(ecn)

    def test_loop_wraps_plain_templates(self):
        loop = ServiceLoop(tenants=2, shards=1, seed=0, churn=1,
                           policy=HealthPolicy())
        assert isinstance(loop.template, ParityWritesetTemplate)

    def test_single_bit_flip_never_aliases(self):
        """The structural half of the zero-undetected gate."""
        used = {parity_ecn(ecn) for ecn in range(1, 256)}
        for encoded in used:
            for bit in range(14):
                assert encoded ^ (1 << bit) not in used


# ---------------------------------------------------------------------------
# Parking, deadlines, admission control
# ---------------------------------------------------------------------------

class _StubMonitor:
    """Minimal monitor: a fixed set of non-serving shards."""

    def __init__(self, down=()):
        self.down = set(down)
        self.outcomes = []

    def serving_updates(self, index):
        return index not in self.down

    def note_commit(self, index):
        self.outcomes.append((index, "commit"))

    def note_rollback(self, index):
        self.outcomes.append((index, "rollback"))


def _drain_steps(coalescer, steps, start=0):
    ticks = [start]
    gen = coalescer.drain(active=lambda: False,
                          clock=lambda: ticks[0])
    for _ in range(steps):
        try:
            next(gen)
        except StopIteration:
            break
        ticks[0] += 1


class TestParkingAndDeadlines:
    def _request(self, shard, tenant="a", seq=0):
        return UpdateRequest(tenant=tenant, kind="dlopen", seq=seq,
                             set_tary={shard.tary_lo: 1},
                             set_bary={shard.site_lo: 1})

    def test_quarantined_shard_requests_park(self):
        sharded = ShardedIdTables(shards=2)
        coalescer = UpdateCoalescer(sharded, window=0)
        coalescer.monitor = _StubMonitor(down={0})
        parked = self._request(sharded.shards[0], "a")
        served = self._request(sharded.shards[1], "b")
        coalescer.submit(parked, tick=0)
        coalescer.submit(served, tick=0)
        _drain_steps(coalescer, 40)
        assert served.status == COMMITTED
        assert parked.status not in (COMMITTED, FAILED)
        assert coalescer.parked_count == 1
        assert coalescer.parked_total == 1
        assert coalescer.trace[0]["parked"] == ["a/0"]

    def test_unpark_requeues_in_order_and_commits(self):
        sharded = ShardedIdTables(shards=1)
        shard = sharded.shards[0]
        coalescer = UpdateCoalescer(sharded, window=0)
        monitor = _StubMonitor(down={0})
        coalescer.monitor = monitor
        first = self._request(shard, "a", 0)
        second = self._request(shard, "b", 0)
        coalescer.submit(first, tick=0)
        coalescer.submit(second, tick=0)
        _drain_steps(coalescer, 10)
        assert coalescer.parked_count == 2
        monitor.down.clear()                   # recovered
        assert coalescer.unpark(0) == 2
        _drain_steps(coalescer, 40)
        assert first.status == COMMITTED
        assert second.status == COMMITTED
        assert coalescer.parked_count == 0

    def test_parked_requests_fail_deadline_not_hang(self):
        sharded = ShardedIdTables(shards=1)
        coalescer = UpdateCoalescer(sharded, window=0)
        coalescer.monitor = _StubMonitor(down={0})
        coalescer.default_deadline = 5
        request = self._request(sharded.shards[0])
        coalescer.submit(request, tick=0)
        _drain_steps(coalescer, 40)            # clock races past 5
        assert request.status == DEADLINE
        assert request.error_code == "deadline-exceeded"
        assert coalescer.deadline_missed == 1
        assert coalescer.parked_count == 0     # drain terminated clean

    def test_poisoned_request_fails_at_the_door(self):
        sharded = ShardedIdTables(shards=1)
        coalescer = UpdateCoalescer(sharded, window=0)
        poisoned = UpdateRequest(tenant="p", kind="dlopen", seq=0,
                                 set_tary={6: 1})   # misaligned
        coalescer.submit(poisoned, tick=3)
        assert poisoned.status == FAILED
        assert poisoned.error_code == "invalid-request"
        assert coalescer.invalid == 1
        assert coalescer.pending == 0          # never queued


# ---------------------------------------------------------------------------
# Chaos injectors
# ---------------------------------------------------------------------------

class TestServiceInjectors:
    def test_bit_flip_storm_flips_one_live_bit(self):
        sharded = ShardedIdTables(shards=2)
        shard = sharded.shards[0]
        _install(sharded, shard)
        plane = FaultPlane(seed=0).arm("service.fault.bitflip", skip=0)
        storm = shard_bit_flip_storm(sharded, plane,
                                     active=lambda: True,
                                     seed=3, interval=2)
        before = {a: shard.tables.memory.read_tary(tary_index(a))
                  for a in shard.tables.tary_ecns}
        for _ in range(12):
            next(storm)
        after = {a: shard.tables.memory.read_tary(tary_index(a))
                 for a in shard.tables.tary_ecns}
        flipped = {a for a in before if before[a] != after[a]}
        assert flipped                         # at least one flip landed
        for address in flipped:
            delta = before[address] ^ after[address]
            assert delta and delta & (delta - 1) == 0   # single bit
        assert plane.fired("service.fault.bitflip") >= 1

    def test_version_gap_storm_writes_stale_version(self):
        sharded = ShardedIdTables(shards=1)
        shard = sharded.shards[0]
        _install(sharded, shard)
        plane = FaultPlane(seed=0).arm("service.fault.stale", skip=0,
                                       count=1)
        storm = version_gap_storm(sharded, plane, active=lambda: True,
                                  seed=1, interval=2)
        for _ in range(8):
            next(storm)
        tables = shard.tables
        stale = [a for a, ecn in tables.tary_ecns.items()
                 if tables.memory.read_tary(tary_index(a))
                 != pack_id(ecn, tables.version)]
        [address] = stale
        expected = pack_id(tables.tary_ecns[address],
                           (tables.version - 1) & 0x3FFF)
        assert tables.memory.read_tary(tary_index(address)) == expected

    def test_storms_are_inert_when_unarmed_and_seeded(self):
        """Unarmed plane: no mutation; same seed: same victim choice."""
        for _ in range(2):
            sharded = ShardedIdTables(shards=2)
            shard = sharded.shards[0]
            _install(sharded, shard)
            plane = FaultPlane(seed=0)          # nothing armed
            storm = shard_bit_flip_storm(sharded, plane,
                                         active=lambda: True,
                                         seed=3, interval=2)
            for _ in range(12):
                next(storm)
            assert shard.tables.audit() == {"tary": [], "bary": []}


# ---------------------------------------------------------------------------
# The resilient loop end to end
# ---------------------------------------------------------------------------

class TestResilientServiceLoop:
    def test_clean_run_matches_base_semantics(self):
        loop = ServiceLoop(tenants=8, shards=4, seed=3, churn=2,
                           policy=HealthPolicy())
        report = loop.run()
        assert report.failed == 0
        assert report.escalations == 0
        assert report.negative_checks > 0
        assert report.forged_allows == 0
        assert report.undetected_corruptions == 0
        assert report.quarantines == 0
        assert report.availability == 1.0
        assert set(report.health_states.values()) == {HEALTHY}
        assert loop.sharded.decoded_state() == loop.replay_serial()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_outage_quarantines_then_recovers(self, seed):
        loop = _outage_loop(seed=seed)
        report = loop.run()
        assert report.quarantines >= 1
        assert report.recoveries >= 1
        assert report.rebuilds_verified == report.recoveries
        assert report.parked >= 1
        assert report.mttr_max > 0
        assert report.forged_allows == 0
        assert loop.fenced >= 1
        # Everyone is back by teardown, and the journal replay holds.
        assert set(report.health_states.values()) == {HEALTHY}
        assert loop.sharded.decoded_state() == loop.replay_serial()

    def test_recovered_bands_are_byte_identical(self):
        loop = _outage_loop(seed=0)
        loop.run()
        for shard in loop.sharded.shards:
            assert loop.band_bytes(shard) == \
                loop.expected_band_bytes(shard)

    def test_fold_committed_matches_live_bookkeeping(self):
        loop = _outage_loop(seed=0)
        loop.run()
        for shard in loop.sharded.shards:
            tary, bary = loop._fold_committed(shard.index)
            assert tary == shard.tables.tary_ecns
            assert bary == shard.tables.bary_ecns

    def test_total_outage_fails_deadlines_never_hangs(self):
        slow = HealthPolicy(rollback_threshold=1, cooldown_ticks=4000,
                            max_cooldown_ticks=8000, scrub_interval=16)
        plane = FaultPlane(seed=0).arm("service.commit", skip=0,
                                       count=2)
        loop = ServiceLoop(tenants=6, shards=2, seed=0, churn=2,
                           policy=slow, deadline=120, fault_plane=plane)
        report = loop.run()                    # terminates
        assert report.deadline_missed > 0
        assert report.quarantines >= 1
        assert all(request.done for request in loop.coalescer.log)

    def test_storm_run_admits_no_forged_edge(self):
        plane = FaultPlane(seed=0).arm("service.fault.bitflip", skip=0,
                                       count=6)
        loop = ServiceLoop(tenants=6, shards=2, seed=0, churn=3,
                           policy=OUTAGE_POLICY, fault_plane=plane,
                           bitflip_storm=dict(interval=10))
        report = loop.run()
        assert report.faults_injected >= 1
        assert report.forged_allows == 0
        assert report.undetected_corruptions == 0
        # Whatever the storm left behind was found: the final bands
        # byte-match a clean rebuild of the trusted assignment.
        for shard in loop.sharded.shards:
            assert loop.band_bytes(shard) == \
                loop.expected_band_bytes(shard)

    def test_chaos_run_is_deterministic(self):
        def cell():
            loop = _outage_loop(seed=4, bitflip_storm=dict(interval=12))
            report = loop.run()
            return (report.to_dict(), loop.coalescer.trace_jsonl(),
                    loop.monitor.transitions)
        assert cell() == cell()


# ---------------------------------------------------------------------------
# Request resubmission
# ---------------------------------------------------------------------------

class TestRequestResubmission:
    """A rolled-back request is resubmitted clean, with a fresh sequence
    number, only under a health policy."""

    @staticmethod
    def _log(policy, skip):
        # One tenant on one shard, one churn round: round 1 carries the
        # dlopen, round 2 the dlclose; the torn batch hits round skip+1.
        plane = FaultPlane(seed=0).arm("service.commit", skip=skip,
                                       count=1)
        loop = ServiceLoop(tenants=1, shards=1, seed=0, churn=1,
                           policy=policy, fault_plane=plane)
        loop.run()
        assert loop.sharded.decoded_state() == loop.replay_serial()
        return [(request.kind, request.seq, request.status)
                for request in loop.coalescer.log]

    def test_rolled_back_dlopen_is_resubmitted(self):
        assert self._log(HealthPolicy(), skip=0) == [
            ("dlopen", 0, FAILED), ("dlopen", 1, COMMITTED),
            ("dlclose", 2, COMMITTED)]

    def test_rolled_back_dlclose_is_resubmitted(self):
        assert self._log(HealthPolicy(), skip=1) == [
            ("dlopen", 0, COMMITTED), ("dlclose", 1, FAILED),
            ("dlclose", 2, COMMITTED)]

    def test_no_resubmission_without_a_policy(self):
        assert self._log(None, skip=0) == [("dlopen", 0, FAILED)]
        assert self._log(None, skip=1) == [
            ("dlopen", 0, COMMITTED), ("dlclose", 1, FAILED)]
