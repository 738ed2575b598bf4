"""Parallel worker pool for the experiment campaign.

A deliberately small process pool in the spirit of
instrumentation-infra's parallel builds: every job runs in its own
forked worker so a crashing or wedged build can never take the
orchestrator down with it.  The pool gives each job

* a **per-job timeout** — a worker that exceeds it is terminated and
  the job is marked ``timed_out``;
* **bounded retries** — exceptions, crashes and timeouts are retried up
  to ``retries`` extra attempts before the failure is surfaced;
* **worker-crash capture** — a worker that dies without reporting
  (``os._exit``, OOM-kill, segfault) yields a ``crashed`` result with
  its exit code instead of a hang;
* a **per-group circuit breaker** — after ``breaker_threshold``
  consecutive failures within one ``Job.group``, remaining jobs in that
  group fail fast with ``error_type="CircuitOpen"`` instead of burning
  a full timeout each (a campaign with one broken target finishes in
  seconds, not hours).  The breaker is a real three-state machine
  (:class:`repro.infra.breaker.CircuitBreaker`, shared with the table
  service's shard health monitor): after ``breaker_cooldown`` seconds
  it goes *half-open* and admits exactly one probe job — success
  closes the circuit and the group flows again, failure re-opens it
  with an escalated cooldown.  PR 2's breaker stayed open forever.

Results come back in *submission order* regardless of completion order,
so a parallel campaign produces byte-identical tables to a serial one.
``JobResult.seconds`` is cumulative across all attempts of a job, in
both forked and inline modes.

On platforms without ``fork`` the pool degrades to in-process serial
execution (retries still honoured; timeouts unenforceable and ignored).
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.infra.breaker import CircuitBreaker
from repro.obs import OBS, clock, wall_metrics_enabled

_POLL_SECONDS = 0.01


@dataclass
class Job:
    """One unit of work: ``fn(*args, **kwargs)`` in a worker process.

    ``fn``'s return value must be picklable (it crosses a pipe back to
    the orchestrator); ``fn`` itself need not be, since workers fork.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    id: Optional[str] = None
    #: seconds before the worker is killed; None = pool default
    timeout: Optional[float] = None
    #: extra attempts after the first; None = pool default
    retries: Optional[int] = None
    #: circuit-breaker group (e.g. the campaign target); None = no breaker
    group: Optional[str] = None


@dataclass
class JobResult:
    """Outcome of one job, after all retry attempts."""

    id: str
    ok: bool
    value: Any = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    tb: Optional[str] = None
    attempts: int = 0
    seconds: float = 0.0
    timed_out: bool = False
    crashed: bool = False

    KIND = "job"

    @property
    def status(self) -> str:
        if self.ok:
            return "ok"
        if self.timed_out:
            return "timeout"
        if self.crashed:
            return "crashed"
        return "error"

    def to_dict(self) -> Dict[str, Any]:
        """JSONL-friendly summary (value omitted: it may be large)."""
        return {
            "job": self.id,
            "status": self.status,
            "attempts": self.attempts,
            "seconds": round(self.seconds, 6),
            "error": self.error,
            "error_type": self.error_type,
        }


def _worker(conn, fn, args, kwargs) -> None:
    try:
        value = fn(*args, **(kwargs or {}))
        conn.send(("ok", value))
    except BaseException as exc:  # noqa: BLE001 — report, don't die silent
        conn.send(("error", type(exc).__name__, str(exc),
                   traceback.format_exc()))
    finally:
        conn.close()


class _Active:
    """Bookkeeping for one in-flight attempt."""

    def __init__(self, index, job, process, conn, attempt, deadline,
                 spent=0.0):
        self.index = index
        self.job = job
        self.process = process
        self.conn = conn
        self.attempt = attempt
        self.deadline = deadline
        self.spent = spent           # seconds burned by earlier attempts
        self.started = clock.now()
        # Spans are recorded parent-side (workers fork; their tracer
        # state dies with them), one per attempt.
        self.span = OBS.tracer.begin("pool.job", job=job.id,
                                     attempt=attempt)


class WorkerPool:
    """Fan jobs across ``workers`` forked processes.

    ``timeout`` and ``retries`` are defaults a :class:`Job` may
    override per job; a failed attempt respawns at once.
    ``breaker_threshold`` consecutive failures within one
    :attr:`Job.group` open that group's circuit: later jobs in the
    group fail fast without spawning a worker, until
    ``breaker_cooldown`` seconds pass and a half-open probe job is
    admitted (success re-closes the circuit).
    """

    def __init__(self, workers: int = 1, timeout: Optional[float] = None,
                 retries: int = 0, breaker_threshold: Optional[int] = None,
                 breaker_cooldown: float = 30.0):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if breaker_threshold is not None and breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if breaker_cooldown < 0:
            raise ValueError("breaker_cooldown must be >= 0")
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self._breakers: Dict[str, CircuitBreaker] = {}
        methods = multiprocessing.get_all_start_methods()
        self._ctx = (multiprocessing.get_context("fork")
                     if "fork" in methods else None)

    # -- circuit breaker ---------------------------------------------

    def _breaker_for(self, group: str) -> CircuitBreaker:
        breaker = self._breakers.get(group)
        if breaker is None:
            breaker = CircuitBreaker(
                threshold=self.breaker_threshold,
                cooldown=self.breaker_cooldown,
                clock=clock.now, name=group)
            self._breakers[group] = breaker
        return breaker

    def _breaker_open(self, job: Job) -> bool:
        if self.breaker_threshold is None or job.group is None:
            return False
        return not self._breaker_for(job.group).allow()

    def _breaker_result(self, job: Job) -> JobResult:
        breaker = self._breaker_for(job.group)
        if OBS.enabled:
            OBS.metrics.counter("pool.breaker_fast_fails").inc()
        return JobResult(
            id=job.id, ok=False, attempts=0,
            error=(f"circuit open for group {job.group!r} after "
                   f"{breaker.failures} consecutive failures "
                   f"(trip {breaker.trips}, cooling down)"),
            error_type="CircuitOpen")

    def _note_metrics(self, result: JobResult) -> None:
        """Record one *final* (post-retry) job outcome."""
        metrics = OBS.metrics
        metrics.counter("pool.jobs").inc()
        if not result.ok:
            metrics.counter("pool.failures").inc()
        if result.timed_out:
            metrics.counter("pool.timeouts").inc()
        if result.crashed:
            metrics.counter("pool.crashes").inc()
        if result.attempts > 1:
            metrics.counter("pool.retries").inc(result.attempts - 1)
        if wall_metrics_enabled():
            # Seconds are wall-clock valued: skipped under a seeded
            # tracer so deterministic traces stay byte-identical.
            metrics.histogram("pool.job_seconds").observe(result.seconds)

    def _note_outcome(self, job: Job, ok: bool) -> None:
        if job.group is None or self.breaker_threshold is None:
            return
        self._breaker_for(job.group).record(ok)

    # -- public API --------------------------------------------------

    def run(self, jobs: Sequence[Job]) -> List[JobResult]:
        """Run all jobs; results in submission order."""
        jobs = list(jobs)
        for i, job in enumerate(jobs):
            if job.id is None:
                job.id = f"job-{i}"
        self._breakers = {}
        if self._ctx is None:
            return [self._run_inline(job) for job in jobs]
        return self._run_forked(jobs)

    # -- serial fallback ---------------------------------------------

    def _run_inline(self, job: Job) -> JobResult:
        if self._breaker_open(job):
            return self._breaker_result(job)
        retries = self.retries if job.retries is None else job.retries
        start = clock.now()
        last: Optional[JobResult] = None
        for attempt in range(1, retries + 2):
            span = OBS.tracer.begin("pool.job", job=job.id,
                                    attempt=attempt)
            try:
                value = job.fn(*job.args, **(job.kwargs or {}))
                span.end(status="ok")
                self._note_outcome(job, ok=True)
                result = JobResult(id=job.id, ok=True, value=value,
                                   attempts=attempt,
                                   seconds=clock.now() - start)
                if OBS.enabled:
                    self._note_metrics(result)
                return result
            except BaseException as exc:  # noqa: BLE001
                span.end(status="error")
                last = JobResult(id=job.id, ok=False, error=str(exc),
                                 error_type=type(exc).__name__,
                                 tb=traceback.format_exc(),
                                 attempts=attempt,
                                 seconds=clock.now() - start)
        self._note_outcome(job, ok=False)
        if OBS.enabled and last is not None:
            self._note_metrics(last)
        return last

    # -- forked execution --------------------------------------------

    def _spawn(self, index: int, job: Job, attempt: int,
               spent: float = 0.0) -> _Active:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker, args=(child_conn, job.fn, job.args, job.kwargs),
            daemon=True)
        process.start()
        child_conn.close()
        timeout = self.timeout if job.timeout is None else job.timeout
        deadline = (clock.now() + timeout
                    if timeout is not None else None)
        return _Active(index, job, process, parent_conn, attempt, deadline,
                       spent=spent)

    def _reap(self, active: _Active) -> Optional[JobResult]:
        """Check one in-flight attempt; a result means it finished."""
        job = active.job
        elapsed = clock.now() - active.started
        # Liveness first: a worker can send its result and exit between
        # the two checks, and must not be reported as a crash.
        alive = active.process.is_alive()
        if active.conn.poll():
            try:
                message = active.conn.recv()
            except (EOFError, OSError):
                message = None
            active.process.join(1.0)
            code = active.process.exitcode
            self._finish_process(active)
            if message is None:
                return JobResult(id=job.id, ok=False, crashed=True,
                                 error="worker crashed without reporting "
                                       f"(exit code {code})",
                                 error_type="WorkerCrash",
                                 attempts=active.attempt, seconds=elapsed)
            if message[0] == "ok":
                return JobResult(id=job.id, ok=True, value=message[1],
                                 attempts=active.attempt, seconds=elapsed)
            _, error_type, error, tb = message
            return JobResult(id=job.id, ok=False, error=error,
                             error_type=error_type, tb=tb,
                             attempts=active.attempt, seconds=elapsed)
        if not alive:
            code = active.process.exitcode
            self._finish_process(active)
            return JobResult(id=job.id, ok=False, crashed=True,
                             error=f"worker crashed (exit code {code})",
                             error_type="WorkerCrash",
                             attempts=active.attempt, seconds=elapsed)
        if active.deadline is not None and \
                clock.now() > active.deadline:
            active.process.terminate()
            active.process.join(1.0)
            if active.process.is_alive():
                active.process.kill()
                active.process.join(1.0)
            self._finish_process(active)
            return JobResult(id=job.id, ok=False, timed_out=True,
                             error=f"timed out after {elapsed:.1f}s",
                             error_type="Timeout",
                             attempts=active.attempt, seconds=elapsed)
        return None

    @staticmethod
    def _finish_process(active: _Active) -> None:
        active.conn.close()
        active.process.join(1.0)
        if active.process.is_alive():
            active.process.kill()
            active.process.join(1.0)
        active.process.close()

    def _run_forked(self, jobs: List[Job]) -> List[JobResult]:
        results: List[Optional[JobResult]] = [None] * len(jobs)
        pending = list(enumerate(jobs))
        pending.reverse()  # pop() from the front of the submission order
        active: List[_Active] = []
        try:
            while pending or active:
                while pending and len(active) < self.workers:
                    index, job = pending.pop()
                    if self._breaker_open(job):
                        results[index] = self._breaker_result(job)
                        continue
                    active.append(self._spawn(index, job, attempt=1))
                still_running: List[_Active] = []
                for entry in active:
                    outcome = self._reap(entry)
                    if outcome is None:
                        still_running.append(entry)
                        continue
                    entry.span.end(status=outcome.status)
                    outcome.seconds += entry.spent
                    retries = (self.retries if entry.job.retries is None
                               else entry.job.retries)
                    if not outcome.ok and entry.attempt <= retries:
                        still_running.append(self._spawn(
                            entry.index, entry.job, entry.attempt + 1,
                            spent=outcome.seconds))
                        continue
                    outcome.attempts = entry.attempt
                    self._note_outcome(entry.job, ok=outcome.ok)
                    if OBS.enabled:
                        self._note_metrics(outcome)
                    results[entry.index] = outcome
                active = still_running
                if active:
                    time.sleep(_POLL_SECONDS)
        finally:
            for entry in active:
                if entry.process.is_alive():
                    entry.process.kill()
                    entry.process.join(1.0)
        return results
