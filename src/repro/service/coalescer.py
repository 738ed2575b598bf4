"""Batched, coalesced update transactions over sharded ID tables.

The paper commits one update transaction per dlopen.  Under multi
tenant churn that serializes every load on the update lock; the
``ablation_update_batch.txt`` probe already showed that batching
table stores is nearly free.  :class:`UpdateCoalescer` generalizes the
probe into the commit path itself:

* tenants :meth:`submit` :class:`UpdateRequest` write-sets into a
  **bounded** FIFO queue (:class:`~repro.errors.ServiceBackpressure`
  pushes back when commits fall behind);
* the coalescer's :meth:`drain` task wakes, optionally holds a short
  batching window so concurrent requests pile up, then commits **one**
  :class:`~repro.core.transactions.UpdateTransaction` per shard per
  round — every queued request for that shard rides the same version
  bump and the same table rewrite;
* each shard commit runs under a :class:`~repro.core.tables.TableSnapshot`
  journal over the shard's bands — the same undo log the dynamic
  linker's transactional dlopen uses, which records the old bytes of
  each word the commit stores to.  A commit that fails mid-flight
  (fault plane) is rolled back byte-exactly from it, and only that
  shard's requests fail; other shards' batches are unaffected.  A
  commit that succeeds closes the journal.

Everything is deterministic under the service loop's seeded scheduler:
no wall clock, no thread, no unordered iteration.  The per-round
``trace`` is the replayable record the determinism tests and the CI
byte-identity check consume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.core.idencoding import MAX_ECN
from repro.core.transactions import UpdateTransaction
from repro.errors import (
    DeadlineExceeded,
    InjectedFault,
    ServiceBackpressure,
)
from repro.faults.plane import NULL_PLANE, FaultPlane
from repro.obs import OBS
from repro.service.shards import ShardedIdTables

#: Request lifecycle states.  ``deadline`` is terminal: the request's
#: logical-clock budget lapsed before a commit could land (PR 7).
PENDING, COMMITTED, FAILED = "pending", "committed", "failed"
DEADLINE = "deadline"


@dataclass
class UpdateRequest:
    """One tenant-issued table mutation (a dlopen or dlclose delta).

    ``set_*`` install ECNs; ``clear_*`` remove entries (the unload
    path).  The write-set is a *delta* against the tenant's band — the
    coalescer merges deltas onto each shard's current assignment in
    arrival order, so a round commits exactly the state serial
    execution of its requests would have produced.
    """

    tenant: str
    kind: str                       # "dlopen" | "dlclose"
    seq: int                        # per-tenant sequence number
    set_tary: Dict[int, int] = field(default_factory=dict)
    clear_tary: Tuple[int, ...] = ()
    set_bary: Dict[int, int] = field(default_factory=dict)
    clear_bary: Tuple[int, ...] = ()
    submitted_tick: int = -1
    completed_tick: int = -1
    #: Logical-clock deadline: the request fails with status
    #: ``deadline`` if still uncommitted past this tick (-1 = none).
    deadline_tick: int = -1
    status: str = PENDING
    error: Optional[str] = None
    #: Stable :class:`~repro.errors.ReproError` code for ``error``.
    error_code: Optional[str] = None

    @property
    def id(self) -> str:
        return f"{self.tenant}/{self.seq}"

    @property
    def done(self) -> bool:
        return self.status != PENDING

    @property
    def latency_ticks(self) -> int:
        if self.completed_tick < 0 or self.submitted_tick < 0:
            return -1
        return self.completed_tick - self.submitted_tick


class UpdateCoalescer:
    """Bounded queue + one batched update transaction per shard per round.

    ``window`` is the batching window: once the queue is non-empty the
    drain task waits that many additional wakeups before committing,
    letting concurrent tenants join the round (each wakeup spans many
    scheduler steps, so even a small window coalesces a burst).
    ``max_round_requests=1`` with a single shard degenerates to the
    paper's global-lock, one-transaction-per-dlopen baseline — the
    comparison leg of ``bench_service.py``.
    """

    def __init__(self, sharded: ShardedIdTables,
                 max_pending: int = 256, batch: int = 64,
                 window: int = 4,
                 max_round_requests: Optional[int] = None,
                 fault_plane: FaultPlane = NULL_PLANE) -> None:
        self.sharded = sharded
        self.max_pending = max_pending
        self.batch = batch
        self.window = window
        self.max_round_requests = max_round_requests
        self.fault_plane = fault_plane
        self.queue: List[UpdateRequest] = []
        #: Every request ever accepted, in submission order (the serial
        #: replay oracle consumes this).
        self.log: List[UpdateRequest] = []
        self.rounds = 0
        self.transactions = 0
        self.committed = 0
        self.failed = 0
        self.rejected = 0
        #: Deterministic per-round record (JSONL-able, replayable).
        self.trace: List[dict] = []
        # -- PR 7 resilience hooks (inert unless a monitor is wired) --
        #: Per-shard health monitor; when set, requests targeting a
        #: non-serving (quarantined/recovering) shard are parked
        #: instead of committed, and commit/rollback outcomes feed it.
        self.monitor = None
        #: Default deadline budget in scheduler ticks for requests
        #: submitted without one (None = no deadlines).
        self.default_deadline: Optional[int] = None
        #: Parked requests by shard index, awaiting recovery.
        self.parked: Dict[int, List[UpdateRequest]] = {}
        self.parked_total = 0
        self.deadline_missed = 0
        self.invalid = 0

    # -- submission --------------------------------------------------------

    @property
    def pending(self) -> int:
        return len(self.queue)

    @property
    def parked_count(self) -> int:
        return sum(len(waiting) for waiting in self.parked.values())

    def _validate(self, request: UpdateRequest) -> Optional[str]:
        """Admission control: reject a malformed (poisoned) write-set.

        A request that would blow up mid-round — a misaligned Tary
        address, an out-of-band entry, an unpackable ECN — must fail
        *at the door*, not crash the round it rides with innocent
        siblings (the ``dlopen.poison`` chaos injector drives this).
        """
        memory = self.sharded.memory
        for address in list(request.set_tary) + list(request.clear_tary):
            if address % 4:
                return f"misaligned tary address {address:#x}"
            if not 0 <= address < memory.tary_size:
                return f"tary address {address:#x} outside the table"
        for site in list(request.set_bary) + list(request.clear_bary):
            if not 0 <= site < memory.bary_entries:
                return f"bary site {site} outside the table"
        for ecn in list(request.set_tary.values()) + \
                list(request.set_bary.values()):
            if not 0 <= ecn <= MAX_ECN:
                return f"ECN {ecn} out of 14-bit range"
        return None

    def submit(self, request: UpdateRequest, tick: int = -1) -> None:
        """Queue a request; raises :class:`ServiceBackpressure` if full.

        A request failing admission validation is marked ``failed``
        immediately (it never enters the queue) — the submitter sees it
        ``done`` with an ``invalid-request`` error instead of a crashed
        commit round.
        """
        error = self._validate(request)
        if error is not None:
            request.submitted_tick = max(request.submitted_tick, tick)
            request.completed_tick = tick
            request.status = FAILED
            request.error = error
            request.error_code = "invalid-request"
            self.invalid += 1
            self.log.append(request)
            if OBS.enabled:
                OBS.metrics.counter("service.coalesce.invalid").inc()
            return
        if len(self.queue) >= self.max_pending:
            self.rejected += 1
            if OBS.enabled:
                OBS.metrics.counter("service.coalesce.backpressure").inc()
            raise ServiceBackpressure(len(self.queue), self.max_pending)
        if request.submitted_tick < 0:
            request.submitted_tick = tick
        if request.deadline_tick < 0 and self.default_deadline is not None \
                and tick >= 0:
            request.deadline_tick = tick + self.default_deadline
        self.queue.append(request)
        self.log.append(request)
        if OBS.enabled:
            OBS.metrics.counter("service.coalesce.requests").inc()

    @property
    def coalescing_factor(self) -> float:
        """Committed requests per committed transaction (>= 1.0)."""
        if not self.transactions:
            return 0.0
        return self.committed / self.transactions

    # -- the drain task ----------------------------------------------------

    def drain(self, active: Callable[[], bool],
              clock: Callable[[], int]) -> Generator[None, None, None]:
        """Scheduler task: commit rounds until no producer remains.

        ``active()`` reports whether any tenant may still submit;
        ``clock()`` is the scheduler's tick counter (completion
        stamps).  One ``yield`` per transaction step, so check
        transactions interleave with every table-write batch exactly
        as they do under the single-table linker.
        """
        while active() or self.queue or self.parked_count:
            self._expire(clock)
            if not self.queue:
                yield
                continue
            held = 0
            while held < self.window and len(self.queue) < \
                    (self.max_round_requests or self.max_pending):
                held += 1
                yield
            yield from self._commit_round(clock)

    def _expire(self, clock: Callable[[], int]) -> None:
        """Fail queued/parked requests whose deadline tick has passed."""
        tick = clock()

        def lapsed(request: UpdateRequest) -> bool:
            if not (0 <= request.deadline_tick < tick):
                return False
            request.status = DEADLINE
            request.completed_tick = tick
            err = DeadlineExceeded(request.id, request.deadline_tick,
                                   tick)
            request.error = str(err)
            request.error_code = err.code
            self.deadline_missed += 1
            if OBS.enabled:
                OBS.metrics.counter("service.deadline.missed").inc()
            return True

        if any(0 <= r.deadline_tick < tick for r in self.queue):
            self.queue = [r for r in self.queue if not lapsed(r)]
        for index in list(self.parked):
            waiting = [r for r in self.parked[index] if not lapsed(r)]
            if waiting:
                self.parked[index] = waiting
            else:
                del self.parked[index]

    def unpark(self, index: int) -> int:
        """Re-queue a recovered shard's parked requests (in order)."""
        waiting = self.parked.pop(index, [])
        if waiting:
            self.queue[:0] = waiting
        return len(waiting)

    def _commit_round(self, clock: Callable[[], int]
                      ) -> Generator[None, None, None]:
        take = len(self.queue) if self.max_round_requests is None \
            else min(self.max_round_requests, len(self.queue))
        requests = self.queue[:take]
        del self.queue[:take]
        self.rounds += 1
        round_no = self.rounds
        splits = [(request, self.sharded.split_writes(
            request.set_tary, request.clear_tary,
            request.set_bary, request.clear_bary)) for request in requests]

        # Graceful degradation: requests aimed at a shard that is not
        # serving updates (quarantined or mid-recovery) are parked for
        # the recovery task to re-queue — the round commits the rest.
        parked_now: List[UpdateRequest] = []
        if self.monitor is not None:
            admitted = []
            for request, deltas in splits:
                blocked = [index for index in sorted(deltas)
                           if not self.monitor.serving_updates(index)]
                if blocked:
                    self.parked.setdefault(blocked[0], []).append(
                        request)
                    self.parked_total += 1
                    parked_now.append(request)
                    if OBS.enabled:
                        OBS.metrics.counter("service.parked").inc()
                else:
                    admitted.append((request, deltas))
            splits = admitted
            requests = [request for request, _ in splits]

        # Merge the round's deltas per shard, in arrival order: start
        # from each shard's current trusted assignment and fold every
        # request in, so the batched transaction installs exactly the
        # state serial application would have reached.
        new_tary: Dict[int, Dict[int, int]] = {}
        new_bary: Dict[int, Dict[int, int]] = {}
        by_shard: Dict[int, List[UpdateRequest]] = {}
        for request, deltas in splits:
            for index, delta in deltas.items():
                shard = self.sharded.shards[index]
                tary = new_tary.setdefault(
                    index, dict(shard.tables.tary_ecns))
                bary = new_bary.setdefault(
                    index, dict(shard.tables.bary_ecns))
                for address in delta.clear_tary:
                    tary.pop(address, None)
                for site in delta.clear_bary:
                    bary.pop(site, None)
                tary.update(delta.set_tary)
                bary.update(delta.set_bary)
                by_shard.setdefault(index, []).append(request)

        span = OBS.tracer.begin("service.round", round=round_no,
                                requests=len(requests))
        shard_records: List[dict] = []
        failed_requests: set = set()
        for index in sorted(by_shard):
            shard = self.sharded.shards[index]
            record = yield from self._commit_shard(
                shard, new_tary[index], new_bary[index],
                by_shard[index], round_no)
            shard_records.append(record)
            if record["status"] != "ok":
                failed_requests.update(r.id for r in by_shard[index])

        tick = clock()
        for request in requests:
            if request.id in failed_requests:
                request.status = FAILED
                self.failed += 1
            else:
                request.status = COMMITTED
                self.committed += 1
            request.completed_tick = tick
            if OBS.enabled and request.latency_ticks >= 0:
                OBS.metrics.histogram(
                    "service.update.latency_ticks").observe(
                        request.latency_ticks)
        if OBS.enabled:
            OBS.metrics.counter("service.coalesce.rounds").inc()
            OBS.metrics.histogram(
                "service.coalesce.round_requests").observe(len(requests))
        span.end(shards=len(by_shard),
                 failed=len(failed_requests))
        entry = {
            "round": round_no,
            "requests": [request.id for request in requests],
            "shards": shard_records,
        }
        if self.monitor is not None:
            # Only resilient runs carry the parked column, so the
            # PR 6 golden trace stays byte-identical.
            entry["parked"] = [request.id for request in parked_now]
        self.trace.append(entry)

    def _commit_shard(self, shard, tary: Dict[int, int],
                      bary: Dict[int, int], requests: List[UpdateRequest],
                      round_no: int) -> Generator[None, None, dict]:
        """One per-shard batched transaction, with journal rollback."""
        journal = shard.snapshot()
        transaction = UpdateTransaction(
            shard.tables, shard.lock, new_tary=tary, new_bary=bary,
            batch=self.batch, owner=f"coalescer/shard{shard.index}")
        fail_now = self.fault_plane.should(
            "service.commit", detail=f"shard{shard.index}")
        status = "ok"
        run = transaction.run()
        try:
            if fail_now:
                raise InjectedFault("service.commit",
                                    f"shard{shard.index}")
            for _ in run:
                self.fault_plane.check(
                    "service.commit.step", detail=f"shard{shard.index}")
                yield
        except InjectedFault:
            # Close the generator so the transaction's ``finally``
            # releases the shard lock, then restore the shard's bands
            # byte-exactly — the other shards of this round are
            # untouched (partial-failure isolation).
            run.close()
            journal.rollback()
            shard.rollbacks += 1
            status = "rolled-back"
            if OBS.enabled:
                OBS.metrics.counter("service.shard.rollbacks").inc()
            if self.monitor is not None:
                self.monitor.note_rollback(shard.index)
        else:
            journal.commit()
            shard.commits += 1
            self.transactions += 1
            if OBS.enabled:
                OBS.metrics.counter("service.shard.commits").inc()
                OBS.metrics.counter("service.coalesce.batched").inc(
                    len(requests))
            if self.monitor is not None:
                self.monitor.note_commit(shard.index)
        return {
            "shard": shard.index,
            "status": status,
            "version": shard.tables.version,
            "requests": [request.id for request in requests],
            "targets": len(tary),
            "sites": len(bary),
        }

    # -- replayable trace --------------------------------------------------

    def trace_jsonl(self) -> str:
        """The round trace as canonical JSONL (sorted keys, one round
        per line) — byte-identical across runs for the same seed and
        arrival order."""
        return "\n".join(json.dumps(entry, sort_keys=True)
                         for entry in self.trace)
