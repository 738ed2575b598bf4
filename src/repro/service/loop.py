"""The multi-tenant admission loop: N tenants, shared sharded tables.

:class:`ServiceLoop` is the subsystem's top level and its one loop.  It
models the paper's runtime as a *service*: many tenants — each standing
in for one :mod:`repro.infra` registry instance churning
dlopen/dlclose — share one :class:`~repro.vm.memory.TableMemory` behind
a :class:`~repro.service.shards.ShardedIdTables`, and every table
mutation goes through one :class:`~repro.service.coalescer
.UpdateCoalescer`.

Everything runs on the seeded cooperative
:class:`~repro.vm.scheduler.Scheduler` — no threads, one atomic action
per step — so a run is a pure function of ``(seed, parameters)``:
latencies, retry counts, shard versions and the coalescer trace are all
replayable bit-for-bit.

Each tenant task loops ``churn`` times:

1. *think* for a seeded number of steps,
2. submit a **dlopen** write-set (install its band's ECNs), yielding
   under :class:`~repro.errors.ServiceBackpressure` until accepted,
3. wait for the batched commit, then issue ``CHECKS_PER_GAP`` Fig.-4
   check transactions (:func:`~repro.core.transactions.tx_check_gen`)
   against its shard — the TxCheck retry load of the benchmark,
4. submit the matching **dlclose** (clear the band) and wait again.

``mode="global"`` collapses the service to the paper's baseline: one
shard (a single global version counter and update lock) and one
transaction per request, no batching — the comparison leg for
``bench_service.py``.

**The self-healing plane.**  Given a
:class:`~repro.service.health.HealthPolicy`, the same loop turns from
fault-oblivious to self-healing (see ``docs/RESILIENCE.md``):

* tenants install parity-spaced ECNs (:class:`ParityWritesetTemplate`),
  so a single bit flip in a stored ID fails validity or parity and can
  never alias another in-use equivalence class;
* a :class:`~repro.service.health.ShardHealthMonitor` runs one circuit
  breaker per shard, fed by batch commits and rollbacks, TxCheck
  escalations and a background scrub task.  A tripped shard is
  *fenced* (the shared ``TableMemory`` generation stamp is bumped, so
  the dispatch plane drops every fused check cached against it) and
  its requests are parked, never migrated: a tenant's sites and
  targets live in one shard's bands;
* after the breaker cooldown, the recovery task rebuilds the shard
  from the committed request log (the service's load journal),
  re-installs it under a fresh update transaction, sweeps the whole
  band, verifies it byte-identical to a clean rebuild, probes one
  permitted pair through a real check transaction, and only then
  unparks the shard's queue;
* every gap adds a check on a pair the CFG forbids: an ALLOWED verdict
  is a forged edge (``forged_allows``, the campaign's hard zero);
* a failed request is resubmitted up to ``REQUEST_RETRIES`` times,
  every request carries a deadline budget, checks escalate after
  ``HEALING_CHECK_RETRIES`` retries, and :meth:`ServiceLoop.run`
  returns a :class:`ResilienceReport`.

With or without a policy, ``bitflip_storm`` / ``stale_storm`` specs
co-schedule the :mod:`repro.faults.service_injectors` storms.

:func:`ServiceLoop.replay_serial` is the correctness oracle: it
re-applies the committed request log one-transaction-per-request on a
fresh identical geometry and returns the version-independent decoded
state, which must equal the live tables' — batching and sharding may
change *when* updates land, never *what* they install.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.core.idencoding import pack_id, parity_ecn, parity_ecn_ok
from repro.core.tables import bary_index
from repro.core.transactions import (
    DEFAULT_CHECK_RETRIES,
    CheckResult,
    UpdateTransaction,
    tx_check_gen,
)
from repro.errors import (
    RuntimeError_,
    ServiceBackpressure,
    TableIntegrityError,
)
from repro.faults.plane import NULL_PLANE, FaultPlane
from repro.faults.service_injectors import (
    shard_bit_flip_storm,
    version_gap_storm,
)
from repro.obs import OBS
from repro.service.coalescer import COMMITTED, UpdateCoalescer, UpdateRequest
from repro.service.health import HealthPolicy, ShardHealthMonitor
from repro.service.shards import ShardedIdTables, TableShard
from repro.vm.memory import TableMemory
from repro.vm.scheduler import Scheduler

#: A tenant round starts after 1..THINK idle scheduler steps.
THINK = 4
#: Permitted-pair check transactions per dlopen/dlclose gap.
CHECKS_PER_GAP = 4
#: Forbidden-pair check transactions per gap, under a health policy.
NEGATIVE_CHECKS_PER_GAP = 1
#: TxCheck retry budget under a health policy: with deadline budgets a
#: stuck check must escalate into quarantine evidence quickly, not spin
#: for ``DEFAULT_CHECK_RETRIES`` ticks.
HEALING_CHECK_RETRIES = 64
#: Resubmissions a tenant grants a failed request under a health
#: policy, so a transient fault costs a retry, not the round's work.
REQUEST_RETRIES = 2


@dataclass(frozen=True)
class WritesetTemplate:
    """The shape of one tenant's module: entries relative to its band.

    ``tary`` lists ``(byte_offset, class_index)`` target entries,
    ``bary`` lists ``(site_offset, class_index)`` branch sites, and
    ``checks`` pairs ``(site_offset, tary_offset)`` that the CFG
    permits — the tenant's check-transaction load draws from these.
    Offsets are relative to the tenant's placed band; class indices are
    relative to its ECN base, so the same template instantiates at any
    placement.
    """

    tary: Tuple[Tuple[int, int], ...]
    bary: Tuple[Tuple[int, int], ...]
    checks: Tuple[Tuple[int, int], ...]
    n_classes: int

    @classmethod
    def default(cls) -> "WritesetTemplate":
        """A small module: two equivalence classes, four functions
        reachable from four call sites (two sites per class)."""
        return cls(
            tary=((0, 0), (4, 0), (8, 1), (12, 1)),
            bary=((0, 0), (1, 0), (2, 1), (3, 1)),
            checks=((0, 0), (0, 4), (1, 0), (2, 8), (3, 12)),
            n_classes=2,
        )

    @property
    def tary_span(self) -> int:
        """Bytes of Tary band this template needs."""
        return max(offset for offset, _ in self.tary) + 4

    @property
    def site_span(self) -> int:
        """Bary sites this template needs."""
        return max(offset for offset, _ in self.bary) + 1

    def instantiate(self, tary_base: int, site_base: int, ecn_base: int,
                    ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Concrete ``(set_tary, set_bary)`` write-sets at a placement."""
        set_tary = {tary_base + offset: ecn_base + cls
                    for offset, cls in self.tary}
        set_bary = {site_base + offset: ecn_base + cls
                    for offset, cls in self.bary}
        return set_tary, set_bary

    def check_pairs(self, tary_base: int, site_base: int,
                    ) -> List[Tuple[int, int]]:
        """Permitted ``(site, target)`` pairs at a placement."""
        return [(site_base + site, tary_base + target)
                for site, target in self.checks]


@dataclass(frozen=True)
class ParityWritesetTemplate(WritesetTemplate):
    """A write-set template that installs parity-spaced ECNs.

    Same shape as the base template; only the encoding differs —
    ``ecn_base + cls`` is pushed through :func:`parity_ecn` so every
    installed class ID is Hamming-distance >= 2 from every other.
    """

    def instantiate(self, tary_base: int, site_base: int, ecn_base: int,
                    ) -> Tuple[Dict[int, int], Dict[int, int]]:
        set_tary = {tary_base + offset: parity_ecn(ecn_base + cls)
                    for offset, cls in self.tary}
        set_bary = {site_base + offset: parity_ecn(ecn_base + cls)
                    for offset, cls in self.bary}
        return set_tary, set_bary


@dataclass
class TenantSpec:
    """One admitted tenant: its placement inside the sharded tables."""

    name: str
    slot: int
    shard: int
    tary_base: int
    site_base: int
    ecn_base: int
    template: WritesetTemplate

    def writes(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        return self.template.instantiate(
            self.tary_base, self.site_base, self.ecn_base)


@dataclass
class ServiceReport:
    """Aggregate outcome of one :meth:`ServiceLoop.run`."""

    tenants: int
    shards: int
    mode: str
    seed: int
    churn: int
    ticks: int = 0
    committed: int = 0
    failed: int = 0
    rejected: int = 0
    rounds: int = 0
    transactions: int = 0
    coalescing_factor: float = 0.0
    backpressure_waits: int = 0
    checks: int = 0
    checks_allowed: int = 0
    check_retries: int = 0
    escalations: int = 0
    latency_mean: float = 0.0
    latency_p50: int = 0
    latency_p99: int = 0
    shard_versions: List[int] = field(default_factory=list)
    latencies: List[int] = field(default_factory=list)

    @property
    def retry_rate(self) -> float:
        """TxCheck retries per check transaction."""
        return self.check_retries / self.checks if self.checks else 0.0

    def to_dict(self) -> dict:
        out = {key: value for key, value in self.__dict__.items()
               if key != "latencies"}
        out["retry_rate"] = self.retry_rate
        return out


@dataclass
class ResilienceReport(ServiceReport):
    """A :class:`ServiceReport` plus the self-healing outcome."""

    parked: int = 0
    deadline_missed: int = 0
    invalid_requests: int = 0
    quarantines: int = 0
    recoveries: int = 0
    probes_failed: int = 0
    mttr_mean: float = 0.0
    mttr_max: int = 0
    #: Fraction of per-shard round commits that succeeded (quarantined
    #: shards don't participate — their requests park — so this
    #: measures the *serving* plane).
    availability: float = 1.0
    detected_corruptions: int = 0
    #: Corrupt words found and repaired by the final teardown sweep
    #: (landed after the last scrub pass; detected, never exploited).
    teardown_repairs: int = 0
    repaired_entries: int = 0
    negative_checks: int = 0
    forged_allows: int = 0
    rebuild_mismatches: int = 0
    rebuilds_verified: int = 0
    faults_injected: int = 0
    health_transitions: int = 0
    health_states: Dict[str, str] = field(default_factory=dict)

    @property
    def undetected_corruptions(self) -> int:
        """Forged edges admitted by a check transaction: must be 0.

        Every other corruption path is detected by construction —
        audits compare stored words against the trusted assignment,
        the teardown sweep zeroes strays, and parity-spaced ECNs turn
        single flips into invalid IDs.
        """
        return self.forged_allows

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["undetected_corruptions"] = self.undetected_corruptions
        return out


def _percentile(values: List[int], fraction: float) -> int:
    """Nearest-rank percentile of a sorted copy (0 for empty input)."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return ordered[rank]


class ServiceLoop:
    """Cooperative multi-tenant admission loop over sharded ID tables.

    ``mode="sharded"`` is the subsystem under test; ``mode="global"``
    forces the paper's baseline (one shard, one transaction per
    request, no batching window) for like-for-like latency comparison.
    Both run the *same* tenant tasks on the *same* seeded scheduler.

    ``policy`` turns on the self-healing plane (module docstring);
    ``deadline`` overrides its request deadline budget, which defaults
    to six first cooldowns.  ``check_retry_budget`` defaults to
    ``DEFAULT_CHECK_RETRIES`` without a policy and
    ``HEALING_CHECK_RETRIES`` with one.
    """

    def __init__(self, tenants: int = 10, shards: int = 8,
                 seed: int = 0, churn: int = 2, window: int = 4,
                 max_pending: Optional[int] = None,
                 max_round_requests: Optional[int] = None,
                 mode: str = "sharded",
                 template: Optional[WritesetTemplate] = None,
                 fault_plane: FaultPlane = NULL_PLANE,
                 policy: Optional[HealthPolicy] = None,
                 deadline: Optional[int] = None,
                 check_retry_budget: Optional[int] = None,
                 bitflip_storm: Optional[dict] = None,
                 stale_storm: Optional[dict] = None) -> None:
        if mode not in ("sharded", "global"):
            raise RuntimeError_(f"unknown service mode {mode!r}")
        if mode == "global":
            shards = 1
            window = 0
            max_round_requests = 1
        self.mode = mode
        self.seed = seed
        self.churn = churn
        self.n_tenants = tenants
        template = template or WritesetTemplate.default()
        if policy is not None and \
                not isinstance(template, ParityWritesetTemplate):
            template = ParityWritesetTemplate(
                template.tary, template.bary, template.checks,
                template.n_classes)
        self.template = template
        self.fault_plane = fault_plane
        self.bitflip_storm = bitflip_storm
        self.stale_storm = stale_storm
        if check_retry_budget is None:
            check_retry_budget = (DEFAULT_CHECK_RETRIES if policy is None
                                  else HEALING_CHECK_RETRIES)
        self.check_retry_budget = check_retry_budget
        self.request_retries = 0 if policy is None else REQUEST_RETRIES
        self.memory = TableMemory()
        self.sharded = ShardedIdTables(self.memory, shards=shards)
        self.coalescer = UpdateCoalescer(
            self.sharded,
            max_pending=max_pending or max(16, 2 * tenants),
            window=window, max_round_requests=max_round_requests,
            fault_plane=fault_plane)
        self.specs = [self._place_tenant(slot) for slot in range(tenants)]
        self.counters = {"backpressure_waits": 0, "checks": 0,
                         "checks_allowed": 0, "check_retries": 0,
                         "escalations": 0, "negative_checks": 0,
                         "forged_allows": 0}
        self.scheduler = Scheduler(seed=seed)
        self.report: Optional[ServiceReport] = None
        #: Shard health monitor; None without a policy.
        self.monitor: Optional[ShardHealthMonitor] = None
        self.fenced = 0
        self.repaired_entries = 0
        self.rebuild_mismatches = 0
        self.rebuilds_verified = 0
        if policy is not None:
            self.monitor = ShardHealthMonitor(
                self.sharded, clock=lambda: self.scheduler.ticks,
                policy=policy, fence=self._fence)
            self.coalescer.monitor = self.monitor
            # Always budget requests: a parked request must either
            # commit after recovery or fail its deadline — never hang
            # the drain.
            self.coalescer.default_deadline = (
                deadline if deadline is not None
                else 6 * policy.cooldown_ticks)

    def _place_tenant(self, slot: int) -> TenantSpec:
        shard, tary_base, site_base = self.sharded.place(
            slot, self.template.tary_span, self.template.site_span)
        # ECNs need only be disjoint *within* a shard (cross-shard IDs
        # never compare equal), so the 14-bit budget is spent per shard:
        # tenants stacked in the same shard get successive class blocks.
        level = slot // len(self.sharded)
        ecn_base = 1 + level * self.template.n_classes
        return TenantSpec(
            name=f"tenant{slot}", slot=slot, shard=shard,
            tary_base=tary_base, site_base=site_base,
            ecn_base=ecn_base, template=self.template)

    def _estimate_ticks(self) -> int:
        # Worst case is the global baseline: every request serializes a
        # full-table rewrite.  Generous headroom; a genuine livelock
        # still terminates via the scheduler's max_ticks VMError.
        per_round = (THINK + CHECKS_PER_GAP + 20) * 4
        per_txn = 8 * (len(self.template.tary) + len(self.template.bary))
        work = self.n_tenants * self.churn * (per_round + 2 * per_txn
                                              + per_txn * self.n_tenants)
        ticks = max(200_000, 20 * work)
        if self.monitor is not None:
            # Room for every shard to ride out an escalated quarantine
            # cooldown (plus the rebuild itself).
            policy = self.monitor.policy
            recovery = (policy.cooldown_ticks + policy.max_cooldown_ticks
                        + 2000)
            ticks += 4 * recovery * len(self.sharded)
        return ticks

    # -- tenant task -------------------------------------------------------

    def _submit(self, request: UpdateRequest,
                ) -> Generator[None, None, None]:
        """Submit with cooperative backpressure: yield-and-retry."""
        while True:
            try:
                self.coalescer.submit(request, tick=self.scheduler.ticks)
                return
            except ServiceBackpressure:
                self.counters["backpressure_waits"] += 1
                yield

    def _settle(self, request: UpdateRequest,
                renew: Callable[[int], UpdateRequest],
                ) -> Generator[None, None, UpdateRequest]:
        """Submit ``request`` and wait for its round; return the last
        request sent.

        A request that did not commit (rolled back, deadline-lapsed or
        poisoned) is resubmitted as ``renew(seq)`` — a clean write-set
        with a fresh sequence number — up to ``request_retries`` times.
        """
        retries = 0
        while True:
            yield from self._submit(request)
            while not request.done:
                yield
            if request.status == COMMITTED or \
                    retries == self.request_retries:
                return request
            retries += 1
            request = renew(request.seq + 1)

    def _check(self, shard: TableShard, pairs: List[Tuple[int, int]],
               rng: random.Random,
               ) -> Generator[None, None, Optional[Tuple[str, int]]]:
        """One Fig.-4 check transaction on a seeded pick from ``pairs``.

        Returns ``(result, retries)``, or None when the check exhausted
        its retry budget: the escalation is counted and reported to the
        monitor, if any, as quarantine evidence.
        """
        site, target = pairs[rng.randrange(len(pairs))]
        try:
            return (yield from tx_check_gen(
                shard.tables, site, target,
                max_retries=self.check_retry_budget))
        except TableIntegrityError:
            self.counters["escalations"] += 1
            if self.monitor is not None:
                self.monitor.note_escalation(shard.index)
            return None

    def _tenant(self, spec: TenantSpec, rng_seed: int,
                ) -> Generator[None, None, None]:
        rng = random.Random(rng_seed)
        counters = self.counters
        shard = self.sharded.shards[spec.shard]
        set_tary, set_bary = spec.writes()
        pairs = spec.template.check_pairs(spec.tary_base, spec.site_base)
        forbidden = ([] if self.monitor is None
                     else self._forbidden_pairs(spec))

        def dlopen(seq: int) -> UpdateRequest:
            return UpdateRequest(
                tenant=spec.name, kind="dlopen", seq=seq,
                set_tary=set_tary, set_bary=set_bary)

        def dlclose(seq: int) -> UpdateRequest:
            return UpdateRequest(
                tenant=spec.name, kind="dlclose", seq=seq,
                clear_tary=tuple(set_tary), clear_bary=tuple(set_bary))

        seq = 0
        for _ in range(self.churn):
            for _ in range(1 + rng.randrange(THINK)):
                yield
            request = dlopen(seq)
            if self.fault_plane.should("service.request.poison",
                                       detail=spec.name):
                # A corrupted dlopen request: misaligned Tary address.
                # Admission validation must fail it at the door instead
                # of letting it crash the whole commit round.
                request = UpdateRequest(
                    tenant=spec.name, kind="dlopen", seq=seq,
                    set_tary={spec.tary_base + 1: spec.ecn_base},
                    set_bary=set_bary)
            request = yield from self._settle(request, dlopen)
            seq = request.seq + 1
            if request.status != COMMITTED:
                continue  # rolled back: nothing installed, nothing to close
            if self.fault_plane.should("service.tenant.crash",
                                       detail=spec.name):
                # Mid-round crash: the tenant dies after its dlopen
                # committed and never issues checks or the matching
                # dlclose — its entries stay installed (the service
                # must keep serving everyone else regardless).
                return
            for _ in range(CHECKS_PER_GAP):
                outcome = yield from self._check(shard, pairs, rng)
                if outcome is not None:
                    result, retries = outcome
                    counters["checks"] += 1
                    counters["check_retries"] += retries
                    if result == CheckResult.ALLOWED:
                        counters["checks_allowed"] += 1
                yield
            if forbidden:
                for _ in range(NEGATIVE_CHECKS_PER_GAP):
                    outcome = yield from self._check(shard, forbidden, rng)
                    if outcome is not None:
                        counters["negative_checks"] += 1
                        if outcome[0] == CheckResult.ALLOWED:
                            # A forged edge got through: the one
                            # inadmissible outcome.  The campaign gate
                            # is zero.
                            counters["forged_allows"] += 1
                            if OBS.enabled:
                                OBS.metrics.counter(
                                    "service.forged_allows").inc()
                    yield
            close = yield from self._settle(dlclose(seq), dlclose)
            seq = close.seq + 1

    def _forbidden_pairs(self, spec: TenantSpec) -> List[Tuple[int, int]]:
        """(site, target) pairs of this tenant the CFG does *not* permit."""
        template = spec.template
        return [(spec.site_base + s_off, spec.tary_base + t_off)
                for s_off, s_cls in template.bary
                for t_off, t_cls in template.tary
                if s_cls != t_cls]

    # -- the run -----------------------------------------------------------

    def run(self) -> ServiceReport:
        span = OBS.tracer.begin("service.run", mode=self.mode,
                                tenants=self.n_tenants,
                                shards=len(self.sharded), seed=self.seed)
        tenant_tasks = []
        for spec in self.specs:
            # Composed integer seed (no hash()): deterministic across
            # processes and PYTHONHASHSEED values.
            rng_seed = self.seed * 0x9E3779B1 + 0x85EBCA6B * (spec.slot + 1)
            task = self.scheduler.add_generator(
                self._tenant(spec, rng_seed), name=f"tenant/{spec.name}")
            tenant_tasks.append(task)

        def tenants_active() -> bool:
            return any(task.alive for task in tenant_tasks)

        def plane_active() -> bool:
            # Recovery (and the drain) must outlive the tenants while
            # queued or parked requests remain.
            return (tenants_active() or bool(self.coalescer.queue)
                    or bool(self.coalescer.parked_count))

        add = self.scheduler.add_generator
        add(self.coalescer.drain(active=tenants_active,
                                 clock=lambda: self.scheduler.ticks),
            name="coalescer")
        if self.monitor is not None:
            add(self.monitor.scrub_task(plane_active), name="health/scrub")
            add(self._recovery_task(plane_active), name="health/recovery")
        storm_seed = self.seed * 0x9E3779B1 + 0xC2B2AE35
        for storm, spec, mix, name in (
                (shard_bit_flip_storm, self.bitflip_storm, 0,
                 "chaos/bitflip"),
                (version_gap_storm, self.stale_storm, 0x5BD1E995,
                 "chaos/stale")):
            if spec is not None:
                opts = {"seed": (storm_seed ^ mix) & 0xFFFFFFFF, **spec}
                add(storm(self.sharded, self.fault_plane, tenants_active,
                          **opts), name=name)
        outcome = self.scheduler.run(max_ticks=self._estimate_ticks())
        if outcome.fault is not None:
            raise outcome.fault
        report = self._build_report(outcome.ticks)
        span.end(ticks=report.ticks, committed=report.committed,
                 coalescing=report.coalescing_factor,
                 escalations=report.escalations)
        self.report = report
        return report

    def _build_report(self, ticks: int) -> ServiceReport:
        coalescer = self.coalescer
        latencies = [request.latency_ticks for request in coalescer.log
                     if request.status == COMMITTED
                     and request.latency_ticks >= 0]
        counters = self.counters
        report = ServiceReport(
            tenants=self.n_tenants, shards=len(self.sharded),
            mode=self.mode, seed=self.seed, churn=self.churn,
            ticks=ticks,
            committed=coalescer.committed, failed=coalescer.failed,
            rejected=coalescer.rejected, rounds=coalescer.rounds,
            transactions=coalescer.transactions,
            coalescing_factor=coalescer.coalescing_factor,
            backpressure_waits=counters["backpressure_waits"],
            checks=counters["checks"],
            checks_allowed=counters["checks_allowed"],
            check_retries=counters["check_retries"],
            escalations=counters["escalations"],
            latency_mean=(sum(latencies) / len(latencies)
                          if latencies else 0.0),
            latency_p50=_percentile(latencies, 0.50),
            latency_p99=_percentile(latencies, 0.99),
            shard_versions=self.sharded.versions(),
            latencies=latencies)
        monitor = self.monitor
        if monitor is None:
            return report
        teardown_repairs = self.teardown_sweep()
        mttrs = monitor.mttr_ticks()
        return ResilienceReport(
            **report.__dict__,
            parked=coalescer.parked_total,
            deadline_missed=coalescer.deadline_missed,
            invalid_requests=coalescer.invalid,
            quarantines=monitor.quarantines,
            recoveries=len(monitor.recoveries),
            probes_failed=monitor.probes_failed,
            mttr_mean=(sum(mttrs) / len(mttrs)) if mttrs else 0.0,
            mttr_max=max(mttrs) if mttrs else 0,
            availability=self.availability(),
            detected_corruptions=(monitor.detected_corruptions
                                  + teardown_repairs),
            teardown_repairs=teardown_repairs,
            repaired_entries=self.repaired_entries,
            negative_checks=counters["negative_checks"],
            forged_allows=counters["forged_allows"],
            rebuild_mismatches=self.rebuild_mismatches,
            rebuilds_verified=self.rebuilds_verified,
            faults_injected=len(self.fault_plane.events),
            health_transitions=len(monitor.transitions),
            health_states={str(k): v for k, v in
                           sorted(monitor.states().items())})

    def availability(self) -> float:
        """Fraction of per-shard round commits that succeeded.

        Per shard-record, not per whole round: one torn shard must not
        mark its siblings' clean service unavailable — the guarantee is
        that *non-quarantined shards keep serving* (quarantined shards
        park their requests and never appear in a round at all).
        """
        records = [record for entry in self.coalescer.trace
                   for record in entry["shards"]]
        if not records:
            return 1.0
        ok = sum(1 for record in records if record["status"] == "ok")
        return ok / len(records)

    def teardown_sweep(self) -> int:
        """Sweep every shard's band; return the corrupt words repaired.

        Under a policy this runs at report time, so corruption that
        landed after the last scrub pass is detected (and repaired),
        never silently carried out of the run.  On a run without one it
        counts the corruption residue the oblivious tables carry.
        """
        repaired = 0
        for shard in self.sharded.shards:
            swept = shard.tables.sweep(
                tary_range=(shard.tary_lo, shard.tary_hi),
                site_range=(shard.site_lo, shard.site_hi))
            repaired += swept["repaired"] + swept["strays"]
        return repaired

    # -- fencing and recovery (under a policy) -----------------------------

    def _fence(self, index: int) -> None:
        """Invalidate every cached fast path against a poisoned shard.

        The dispatch plane fuses check sequences against the current
        :class:`~repro.vm.memory.TableMemory` generation; a quarantined
        shard's bands can no longer back any of them.
        """
        self.memory.generation += 1
        self.fenced += 1
        if OBS.enabled:
            OBS.metrics.counter("service.health.fenced").inc()

    def _recovery_task(self, active: Callable[[], bool],
                       ) -> Generator[None, None, None]:
        """Scheduler task: rebuild quarantined shards after cooldown."""
        while active():
            for shard in self.sharded.shards:
                if self.monitor.ready_to_recover(shard.index) and \
                        self.monitor.begin_recovery(shard.index):
                    yield from self._recover_shard(shard)
            yield

    def _fold_committed(self, index: int,
                        ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Journal-driven rebuild: fold the committed request log.

        The coalescer's log is the service's load journal; replaying
        every *committed* delta restricted to this shard's bands
        reconstructs the trusted assignment from scratch, independent
        of the (possibly corrupted) in-memory bookkeeping.
        """
        shard = self.sharded.shards[index]
        tary: Dict[int, int] = {}
        bary: Dict[int, int] = {}
        for request in self.coalescer.log:
            if request.status != COMMITTED:
                continue
            for address, ecn in request.set_tary.items():
                if shard.owns_address(address):
                    tary[address] = ecn
            for address in request.clear_tary:
                if shard.owns_address(address):
                    tary.pop(address, None)
            for site, ecn in request.set_bary.items():
                if shard.owns_site(site):
                    bary[site] = ecn
            for site in request.clear_bary:
                if shard.owns_site(site):
                    bary.pop(site, None)
        return tary, bary

    def _recover_shard(self, shard: TableShard,
                       ) -> Generator[None, None, None]:
        index = shard.index
        span = OBS.tracer.begin("service.recovery", shard=index)
        # 1. Rebuild the trusted assignment from the load journal and
        #    cross-check the live bookkeeping against it (the journal
        #    wins: bookkeeping could have been corrupted too).
        tary, bary = self._fold_committed(index)
        if (tary != shard.tables.tary_ecns
                or bary != shard.tables.bary_ecns):
            self.rebuild_mismatches += 1
        yield
        # 2. Re-install it under a fresh per-shard update transaction:
        #    a version bump plus a rewrite of every tracked word, so
        #    any corrupt-but-tracked entry is overwritten.
        transaction = UpdateTransaction(
            shard.tables, shard.lock, new_tary=tary, new_bary=bary,
            batch=self.coalescer.batch, owner=f"recovery/shard{index}")
        for _ in transaction.run():
            yield
        # 3. Parity-checked sweep of the whole band: repairs anything
        #    the rewrite missed and zeroes forged strays in untracked
        #    words (invisible to a plain scrub).
        swept = shard.tables.sweep(
            tary_range=(shard.tary_lo, shard.tary_hi),
            site_range=(shard.site_lo, shard.site_hi))
        self.repaired_entries += swept["repaired"] + swept["strays"]
        yield
        # 4. Verify: audit clean, parity consistent, band byte-identical
        #    to a clean rebuild, and one permitted pair passes a real
        #    check transaction.
        ok = self._verify_band(shard)
        pair = self._probe_pair(shard)
        if ok and pair is not None:
            site, target = pair
            try:
                result, _ = yield from tx_check_gen(
                    shard.tables, site, target,
                    max_retries=self.check_retry_budget)
            except TableIntegrityError:
                ok = False
            else:
                ok = result == CheckResult.ALLOWED
        self.monitor.record_probe(index, ok)
        if ok:
            self.rebuilds_verified += 1
            requeued = self.coalescer.unpark(index)
            span.end(status="recovered", requeued=requeued,
                     repaired=swept["repaired"], strays=swept["strays"])
        else:
            span.end(status="probe-failed")

    def _verify_band(self, shard: TableShard) -> bool:
        findings = shard.tables.audit()
        if findings["tary"] or findings["bary"]:
            return False
        tables = shard.tables
        for ecn in list(tables.tary_ecns.values()) + \
                list(tables.bary_ecns.values()):
            if not parity_ecn_ok(ecn):
                return False
        return self.band_bytes(shard) == self.expected_band_bytes(shard)

    def band_bytes(self, shard: TableShard) -> Tuple[bytes, bytes]:
        """The shard's live (tary, bary) band bytes."""
        memory = shard.tables.memory
        return (bytes(memory.tary[shard.tary_lo:shard.tary_hi]),
                bytes(memory.bary[bary_index(shard.site_lo):
                                  bary_index(shard.site_hi)]))

    def expected_band_bytes(self, shard: TableShard) -> Tuple[bytes, bytes]:
        """Band bytes a clean rebuild of the trusted assignment yields."""
        tables = shard.tables
        tary = bytearray(shard.tary_hi - shard.tary_lo)
        for address, ecn in tables.tary_ecns.items():
            word = pack_id(ecn, tables.version)
            offset = address - shard.tary_lo
            tary[offset:offset + 4] = word.to_bytes(4, "little")
        bary = bytearray(4 * (shard.site_hi - shard.site_lo))
        for site, ecn in tables.bary_ecns.items():
            word = pack_id(ecn, tables.version)
            offset = 4 * (site - shard.site_lo)
            bary[offset:offset + 4] = word.to_bytes(4, "little")
        return bytes(tary), bytes(bary)

    def _probe_pair(self, shard: TableShard) -> Optional[Tuple[int, int]]:
        """First installed permitted pair on this shard, if any."""
        tables = shard.tables
        for spec in self.specs:
            if spec.shard != shard.index:
                continue
            for site, target in spec.template.check_pairs(
                    spec.tary_base, spec.site_base):
                if tables.bary_ecns.get(site) is not None and \
                        tables.bary_ecns.get(site) == \
                        tables.tary_ecns.get(target):
                    return site, target
        return None

    # -- serial oracle -----------------------------------------------------

    def replay_serial(self) -> Dict[str, Dict[int, int]]:
        """Replay the committed log one-transaction-per-request, serially.

        Builds a fresh :class:`ShardedIdTables` with identical geometry
        and applies every *committed* request in submission order, each
        as its own fully-drained update transaction — the unbatched,
        unconcurrent execution.  Returns its version-independent
        decoded state; equality with ``self.sharded.decoded_state()``
        is the bit-identical-observables acceptance check.
        """
        replay = ShardedIdTables(
            TableMemory(bary_entries=self.memory.bary_entries),
            shards=len(self.sharded))
        for request in self.coalescer.log:
            if request.status != COMMITTED:
                continue
            deltas = replay.split_writes(
                request.set_tary, request.clear_tary,
                request.set_bary, request.clear_bary)
            for index in sorted(deltas):
                shard = replay.shards[index]
                delta = deltas[index]
                tary = dict(shard.tables.tary_ecns)
                bary = dict(shard.tables.bary_ecns)
                for address in delta.clear_tary:
                    tary.pop(address, None)
                for site in delta.clear_bary:
                    bary.pop(site, None)
                tary.update(delta.set_tary)
                bary.update(delta.set_bary)
                transaction = UpdateTransaction(
                    shard.tables, shard.lock, new_tary=tary,
                    new_bary=bary, owner="serial-replay")
                for _ in transaction.run():
                    pass
        return replay.decoded_state()
