"""MCFI's table-access transactions (paper Sec. 5.2, Figs. 3-4).

Two transaction kinds coordinate the ID tables:

* **Check transactions** run before every indirect branch.  In this
  reproduction they exist twice, deliberately:

  - as the *instruction sequence* emitted by
    :mod:`repro.core.instrument` and executed by the SimVM — the real
    enforcement path; and
  - as :func:`tx_check_gen` below, the one Python transcription of
    Fig. 4, which concurrency tests and the table service run on the
    cooperative scheduler without VM overhead (:func:`tx_check` runs
    it to completion outside a scheduler).

* **Update transactions** run during dynamic linking.
  :class:`UpdateTransaction` follows Fig. 3: serialize on a global
  update lock, bump the global version, rebuild and copy the Tary
  table, issue a write barrier (the Tary/Bary ordering point — also
  where GOT entries are updated, per the PLT discussion), then update
  the Bary table.  It is a *generator*: each ``yield`` ends one atomic
  batch of 4-byte stores (the paper's ``movnti`` parallel copy), so the
  scheduler can interleave check transactions anywhere in the middle.

The linearization points match the paper: an update becomes visible at
the barrier between the two table updates; a check linearizes at its
Tary read.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Mapping, Optional, Tuple

from repro.core.idencoding import (
    bump_version,
    is_valid_id,
    pack_id,
    same_version,
)
from repro.core.tables import IdTables, bary_index, tary_index
from repro.errors import MemoryFault, RuntimeError_, TableIntegrityError
from repro.obs import OBS

#: Default retry budget for the scheduler-friendly check transaction.
#: Generous — a single in-flight update costs a handful of retries —
#: but finite, so sustained version churn (a wedged updater, an
#: injected stale-version fault) escalates to a typed error instead of
#: spinning forever.
DEFAULT_CHECK_RETRIES = 4096


class CheckResult:
    """Outcome codes for a Python-level check transaction."""

    ALLOWED = "allowed"
    INVALID_TARGET = "invalid-target"
    ECN_MISMATCH = "ecn-mismatch"
    OUT_OF_RANGE = "out-of-range"


def _note_check(result: str, retries: int) -> None:
    """Record one finished check transaction (obs-enabled path only)."""
    metrics = OBS.metrics
    metrics.counter("tx.check." + result).inc()
    if retries:
        metrics.counter("tx.check.retries").inc(retries)


def _note_escalation(retries: int) -> None:
    metrics = OBS.metrics
    metrics.counter("tx.check.escalations").inc()
    metrics.counter("tx.check.retries").inc(retries)


def tx_check(tables: IdTables, site: int, target: int,
             max_retries: int = DEFAULT_CHECK_RETRIES) -> Tuple[str, int]:
    """Run :func:`tx_check_gen` to completion; returns ``(result, retries)``.

    With no scheduler to yield to, each retry simply re-reads the
    tables, so a version mismatch that persists escalates after
    ``max_retries`` retries exactly as the scheduled check does.
    """
    sink: List[Tuple[str, int]] = []
    for _ in tx_check_gen(tables, site, target, sink, max_retries):
        pass
    return sink[0]


def tx_check_gen(tables: IdTables, site: int, target: int,
                 sink: Optional[List[Tuple[str, int]]] = None,
                 max_retries: int = DEFAULT_CHECK_RETRIES,
                 ) -> Generator[None, None, Tuple[str, int]]:
    """Scheduler-friendly check transaction: yields on every retry.

    On real hardware a retrying check transaction re-executes its loads
    while the updater's stores proceed in parallel; in the cooperative
    scheduler that parallelism is a ``yield`` per retry.  Appends the
    final ``(result, retries)`` to ``sink`` if given (generators' return
    values are awkward to collect from scheduler tasks).

    The retry loop is *bounded*: exhausting ``max_retries`` raises
    :class:`~repro.errors.TableIntegrityError` rather than spinning
    forever, so a stuck or adversarial updater degrades to a fail-safe
    halt instead of a livelock.
    """
    memory = tables.memory
    bindex = bary_index(site)
    target &= 0xFFFFFFFF
    retries = 0
    while True:
        branch_id = memory.read_bary(bindex)
        try:
            target_id = memory.read_tary(target)
        except MemoryFault:
            outcome = (CheckResult.OUT_OF_RANGE, retries)
            break
        if branch_id == target_id:
            outcome = (CheckResult.ALLOWED, retries)
            break
        if not is_valid_id(target_id):
            outcome = (CheckResult.INVALID_TARGET, retries)
            break
        if not same_version(branch_id, target_id):
            retries += 1
            if retries > max_retries:
                if OBS.enabled:
                    _note_escalation(retries)
                raise TableIntegrityError(
                    "check transaction livelocked: version mismatch "
                    f"persisted through {retries} retries at site "
                    f"{site}", retries=retries)
            yield
            continue
        outcome = (CheckResult.ECN_MISMATCH, retries)
        break
    if OBS.enabled:
        _note_check(outcome[0], outcome[1])
    if sink is not None:
        sink.append(outcome)
    return outcome


class UpdateLock:
    """The global update lock serializing update transactions.

    Update transactions are rare, so a simple test-and-set with
    cooperative spinning (yield per failed attempt) suffices — the
    paper makes the same simplicity argument.
    """

    def __init__(self) -> None:
        self._held_by: Optional[str] = None

    @property
    def held(self) -> bool:
        return self._held_by is not None

    def owner(self) -> Optional[str]:
        """Current owner name, or None when the lock is free."""
        return self._held_by

    def set_owner(self, owner: Optional[str]) -> None:
        """Force ownership to a snapshotted value (journal rollback).

        This is the *only* sanctioned way to write ownership from
        outside the acquire/release protocol: a journal that snapshotted
        ``owner()`` before a failed operation restores it here, so an
        aborted update transaction cannot leave the lock wedged.  Any
        other caller should be using :meth:`acquire_spin`/:meth:`release`.
        """
        self._held_by = owner

    def acquire_spin(self, owner: str) -> Generator[None, None, None]:
        waited = 0
        while self._held_by is not None:
            waited += 1
            yield
        self._held_by = owner
        if OBS.enabled:
            OBS.metrics.histogram("tx.lock.wait_steps").observe(waited)

    def release(self, owner: str) -> None:
        if self._held_by != owner:
            raise RuntimeError_(
                f"update lock released by {owner!r} but held by "
                f"{self._held_by!r}")
        self._held_by = None


class UpdateTransaction:
    """One Fig. 3 update transaction, runnable as a scheduler task.

    ``new_tary`` / ``new_bary`` give the complete ECN assignment for the
    *new* CFG (existing entries are rewritten with the new version; new
    entries appear; entries absent from the new assignment are zeroed).
    ``got_updates`` is a list of ``(address, value)`` 8-byte stores
    applied between the barrier and the Bary update — the PLT/GOT
    adjustment point.
    """

    def __init__(self, tables: IdTables, lock: UpdateLock,
                 new_tary: Mapping[int, int], new_bary: Mapping[int, int],
                 got_writer: Optional[Callable[[int, int], None]] = None,
                 got_updates: Optional[List[Tuple[int, int]]] = None,
                 batch: int = 64, owner: str = "dynamic-linker") -> None:
        self.tables = tables
        self.lock = lock
        self.new_tary = dict(new_tary)
        self.new_bary = dict(new_bary)
        self.got_writer = got_writer
        self.got_updates = got_updates or []
        self.batch = max(1, batch)
        self.owner = owner
        self.completed = False

    def _barrier(self) -> Generator[None, None, None]:
        """The Tary/Bary ordering point — one atomic step.

        A hook so the fault plane can subclass this transaction and
        delay (extra yields) or drop (no yield) the barrier; the
        production transaction always yields exactly once.
        """
        yield

    def run(self) -> Generator[None, None, None]:
        tables = self.tables
        memory = tables.memory
        batch = self.batch
        yield from self.lock.acquire_spin(self.owner)
        span = OBS.tracer.begin("tx.update", owner=self.owner)
        hold_steps = 0
        tary_writes = bary_writes = 0
        try:
            version = bump_version(tables.version)
            ids = {ecn: pack_id(ecn, version)
                   for ecn in {*self.new_tary.values(),
                               *self.new_bary.values()}}

            # -- updTaryTable: construct then parallel-copy ---------------
            # Each step stores one batch with one TableMemory call.
            writes = [(tary_index(addr), ids[ecn])
                      for addr, ecn in self.new_tary.items()]
            writes += [(tary_index(addr), 0) for addr in tables.tary_ecns
                       if addr not in self.new_tary]
            for start in range(0, len(writes), batch):
                stores = writes[start:start + batch]
                memory.store_tary(stores)
                tary_writes += len(stores)
                if len(stores) == batch:
                    hold_steps += 1
                    yield

            # -- memory write barrier (linearization point) ---------------
            for _ in self._barrier():
                hold_steps += 1
                yield

            # -- GOT updates (PLT targets), serialized by a second barrier
            if self.got_updates:
                if self.got_writer is None:
                    raise RuntimeError_("GOT updates without a writer")
                for address, value in self.got_updates:
                    self.got_writer(address, value)
                hold_steps += 1
                yield

            # -- updBaryTable ---------------------------------------------
            # Branch sites absent from the new CFG (an unloaded module)
            # are zeroed: a stale branch ID never matches any valid
            # target ID, so orphaned code halts fail-safe.  Zeroing is
            # batched like the copy (continuing its batches), so
            # unloading a large module never holds the scheduler for
            # one unbounded atomic step.
            writes = [(bary_index(site), ids[ecn])
                      for site, ecn in self.new_bary.items()]
            writes += [(bary_index(site), 0) for site in tables.bary_ecns
                       if site not in self.new_bary]
            for start in range(0, len(writes), batch):
                stores = writes[start:start + batch]
                memory.store_bary(stores)
                bary_writes += len(stores)
                if len(stores) == batch:
                    hold_steps += 1
                    yield

            tables.version = version
            tables.tary_ecns = dict(self.new_tary)
            tables.bary_ecns = dict(self.new_bary)
            tables.note_update()
            self.completed = True
        finally:
            self.lock.release(self.owner)
            if OBS.enabled:
                metrics = OBS.metrics
                metrics.counter("tx.updates").inc()
                metrics.counter("tables.tary_writes").inc(tary_writes)
                metrics.counter("tables.bary_writes").inc(bary_writes)
                metrics.histogram("tx.lock.hold_steps").observe(hold_steps)
            span.end(completed=self.completed, tary_writes=tary_writes,
                     bary_writes=bary_writes, hold_steps=hold_steps)


def refresh_transaction(tables: IdTables, lock: UpdateLock,
                        batch: int = 256) -> UpdateTransaction:
    """An update transaction that re-installs the current CFG.

    It changes every ID's version but preserves all ECNs — exactly the
    Fig. 6 simulation experiment ("updates the version numbers of all
    IDs in the ID tables (but preserving the ECNs)").
    """
    return UpdateTransaction(
        tables, lock,
        new_tary=dict(tables.tary_ecns),
        new_bary=dict(tables.bary_ecns),
        batch=batch,
        owner="fig6-updater",
    )


def periodic_updater(tables: IdTables, lock: UpdateLock, cycles_of,
                     interval: int, batch: int = 256,
                     stop: Optional[Callable[[], bool]] = None,
                     counter: Optional[Dict[str, int]] = None,
                     ) -> Generator[None, None, None]:
    """Scheduler task firing a refresh transaction every ``interval`` cycles.

    ``cycles_of`` is a zero-argument callable returning the observed
    cycle clock (usually the main CPU's ``cycles``); 50 Hz in the paper
    maps to one refresh per ``interval`` model cycles here.
    """
    next_at = interval
    while stop is None or not stop():
        if cycles_of() >= next_at:
            yield from refresh_transaction(tables, lock, batch=batch).run()
            if counter is not None:
                counter["updates"] = counter.get("updates", 0) + 1
            next_at += interval
        else:
            yield
