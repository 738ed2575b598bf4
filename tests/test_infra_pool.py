"""Failure-path coverage for the campaign worker pool.

All fault injection is deterministic: flaky workers count their
attempts in a file (worker processes share no memory with the
orchestrator), crashes use ``os._exit``, and timeouts use a sleep far
longer than the configured limit.
"""

import json
import os
import time
from types import SimpleNamespace

import pytest

from repro.infra.pool import Job, JobResult, WorkerPool
from repro.infra.results import ResultStore


def _square(x):
    return x * x


def _raise_value_error():
    raise ValueError("injected failure")


def _hard_crash():
    os._exit(23)  # no exception, no report: a real worker crash


def _sleep_forever():
    time.sleep(600)


def _flaky(counter_path, fail_attempts):
    """Fail deterministically for the first ``fail_attempts`` calls."""
    attempt = 1
    if os.path.exists(counter_path):
        with open(counter_path) as fh:
            attempt = int(fh.read()) + 1
    with open(counter_path, "w") as fh:
        fh.write(str(attempt))
    if attempt <= fail_attempts:
        raise RuntimeError(f"injected failure on attempt {attempt}")
    return f"succeeded on attempt {attempt}"


class TestHappyPath:
    def test_results_in_submission_order(self):
        pool = WorkerPool(workers=4)
        results = pool.run([Job(fn=_square, args=(i,)) for i in range(10)])
        assert [r.value for r in results] == [i * i for i in range(10)]
        assert all(r.ok and r.attempts == 1 for r in results)

    def test_more_jobs_than_workers(self):
        pool = WorkerPool(workers=2)
        results = pool.run([Job(fn=_square, args=(i,)) for i in range(7)])
        assert [r.value for r in results] == [i * i for i in range(7)]

    def test_job_ids_default_and_explicit(self):
        pool = WorkerPool(workers=2)
        results = pool.run([Job(fn=_square, args=(2,)),
                            Job(fn=_square, args=(3,), id="named")])
        assert results[0].id == "job-0"
        assert results[1].id == "named"


class TestWorkerException:
    def test_exception_surfaces_with_type_and_traceback(self):
        pool = WorkerPool(workers=2)
        [result] = pool.run([Job(fn=_raise_value_error)])
        assert not result.ok
        assert result.error_type == "ValueError"
        assert "injected failure" in result.error
        assert "Traceback" in result.tb
        assert not result.timed_out and not result.crashed

    def test_one_failure_does_not_poison_others(self):
        pool = WorkerPool(workers=3)
        results = pool.run([Job(fn=_square, args=(2,)),
                            Job(fn=_raise_value_error),
                            Job(fn=_square, args=(5,))])
        assert results[0].value == 4
        assert not results[1].ok
        assert results[2].value == 25


class TestTimeout:
    def test_per_job_timeout_kills_the_worker(self):
        pool = WorkerPool(workers=2)
        start = time.perf_counter()
        [result] = pool.run(
            [Job(fn=_sleep_forever, timeout=0.5, retries=0)])
        assert time.perf_counter() - start < 30
        assert not result.ok
        assert result.timed_out
        assert result.error_type == "Timeout"

    def test_pool_default_timeout(self):
        pool = WorkerPool(workers=2, timeout=0.5)
        [result] = pool.run([Job(fn=_sleep_forever)])
        assert result.timed_out


class TestCrashCapture:
    def test_crash_reported_not_hung(self):
        pool = WorkerPool(workers=2)
        [result] = pool.run([Job(fn=_hard_crash, retries=0)])
        assert not result.ok
        assert result.crashed
        assert result.error_type == "WorkerCrash"
        assert "23" in result.error

    def test_result_sent_just_before_exit_is_not_a_crash(self):
        """Regression: the worker sends its result and exits between
        the parent's two checks.  Its pipe reads empty until the parent
        has seen the process dead with exit code 0."""
        seen_dead = []

        class Process:
            exitcode = 0

            def is_alive(self):
                seen_dead.append(True)
                return False

            def join(self, timeout=None):
                pass

            def close(self):
                pass

        class Conn:
            def poll(self):
                return bool(seen_dead)

            def recv(self):
                return ("ok", 42)

            def close(self):
                pass

        attempt = SimpleNamespace(job=Job(fn=_square, id="late"),
                                  process=Process(), conn=Conn(),
                                  attempt=1, deadline=None, started=0.0)
        result = WorkerPool()._reap(attempt)
        assert result.ok and result.value == 42
        assert not result.crashed


class TestRetries:
    def test_retry_then_succeed(self, tmp_path):
        counter = str(tmp_path / "attempts")
        pool = WorkerPool(workers=2)
        [result] = pool.run([Job(fn=_flaky, args=(counter, 2),
                                 retries=2)])
        assert result.ok
        assert result.attempts == 3
        assert result.value == "succeeded on attempt 3"

    def test_retry_exhausted(self, tmp_path):
        counter = str(tmp_path / "attempts")
        pool = WorkerPool(workers=2)
        [result] = pool.run([Job(fn=_flaky, args=(counter, 99),
                                 retries=1)])
        assert not result.ok
        assert result.attempts == 2
        assert "attempt 2" in result.error

    def test_crash_is_retried_too(self, tmp_path):
        counter = str(tmp_path / "attempts")

        def crash_once(path):
            if not os.path.exists(path):
                with open(path, "w") as fh:
                    fh.write("1")
                os._exit(9)
            return "recovered"

        pool = WorkerPool(workers=2, retries=1)
        [result] = pool.run([Job(fn=crash_once, args=(counter,))])
        assert result.ok and result.attempts == 2


class TestJsonlSurfacing:
    def test_retry_exhausted_lands_in_jsonl_record(self, tmp_path):
        """The ISSUE's contract: retry-exhausted failures are visible
        in the structured result store, attempts included."""
        counter = str(tmp_path / "attempts")
        store = ResultStore(tmp_path / "results.jsonl")
        pool = WorkerPool(workers=2)
        [result] = pool.run([Job(fn=_flaky, args=(counter, 99),
                                 retries=1, id="flaky-cell")])
        store.append_job(result, target="flaky-cell")

        [record] = [json.loads(line) for line in
                    (tmp_path / "results.jsonl").read_text().splitlines()]
        assert record["kind"] == "job"
        assert record["job"] == "flaky-cell"
        assert record["status"] == "error"
        assert record["attempts"] == 2
        assert "attempt 2" in record["error"]

    def test_timeout_and_crash_statuses(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        pool = WorkerPool(workers=2)
        results = pool.run([
            Job(fn=_sleep_forever, timeout=0.5, retries=0, id="slow"),
            Job(fn=_hard_crash, retries=0, id="crashy"),
        ])
        for result in results:
            store.append_job(result)
        by_job = {r["job"]: r for r in store.records()}
        assert by_job["slow"]["status"] == "timeout"
        assert by_job["crashy"]["status"] == "crashed"


class TestFinalAttemptTimeout:
    """Regression: a job that times out on its *final* attempt must
    record the full attempt count, in the result and in JSONL."""

    def test_timeout_on_final_attempt_counts_all_attempts(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        pool = WorkerPool(workers=2)
        [result] = pool.run([Job(fn=_sleep_forever, timeout=0.3,
                                 retries=2, id="wedged")])
        store.append_job(result, target="wedged")
        assert not result.ok and result.timed_out
        assert result.attempts == 3  # 1 try + 2 retries, all timed out
        # Cumulative across attempts: three 0.3s timeouts, not one.
        assert result.seconds >= 0.8

        [record] = store.records()
        assert record["status"] == "timeout"
        assert record["attempts"] == 3

    def test_seconds_cumulative_across_mixed_attempts(self, tmp_path):
        counter = str(tmp_path / "attempts")
        pool = WorkerPool(workers=2)
        [result] = pool.run([Job(fn=_flaky, args=(counter, 2),
                                 retries=2)])
        assert result.ok and result.attempts == 3
        assert result.seconds > 0


class TestCircuitBreaker:
    def test_breaker_opens_after_threshold(self):
        pool = WorkerPool(workers=1, breaker_threshold=2)
        results = pool.run([
            Job(fn=_raise_value_error, id=f"j{i}", group="broken")
            for i in range(5)])
        assert [r.error_type for r in results[:2]] == \
            ["ValueError", "ValueError"]
        assert all(r.error_type == "CircuitOpen" for r in results[2:])
        assert all(r.attempts == 0 for r in results[2:])
        assert all("circuit open" in r.error for r in results[2:])

    def test_success_resets_the_count(self):
        pool = WorkerPool(workers=1, breaker_threshold=2)
        results = pool.run([
            Job(fn=_raise_value_error, group="g"),
            Job(fn=_square, args=(3,), group="g"),
            Job(fn=_raise_value_error, group="g"),
            Job(fn=_raise_value_error, group="g"),
            Job(fn=_square, args=(4,), group="g"),  # breaker now open
        ])
        assert results[1].ok
        assert results[4].error_type == "CircuitOpen"

    def test_groups_are_independent(self):
        pool = WorkerPool(workers=1, breaker_threshold=1)
        results = pool.run([
            Job(fn=_raise_value_error, group="bad"),
            Job(fn=_square, args=(5,), group="good"),
            Job(fn=_raise_value_error, group="bad"),
        ])
        assert results[1].ok and results[1].value == 25
        assert results[2].error_type == "CircuitOpen"

    def test_ungrouped_jobs_never_trip(self):
        pool = WorkerPool(workers=1, breaker_threshold=1)
        results = pool.run([Job(fn=_raise_value_error)
                            for _ in range(3)])
        assert all(r.error_type == "ValueError" for r in results)

    def test_breaker_state_resets_between_runs(self):
        pool = WorkerPool(workers=1, breaker_threshold=1)
        [first] = pool.run([Job(fn=_raise_value_error, group="g")])
        assert first.error_type == "ValueError"
        [second] = pool.run([Job(fn=_raise_value_error, group="g")])
        assert second.error_type == "ValueError"  # fresh breaker

    def test_breaker_applies_inline(self):
        pool = WorkerPool(breaker_threshold=1)
        pool._ctx = None
        results = pool.run([Job(fn=_raise_value_error, group="g"),
                            Job(fn=_square, args=(2,), group="g")])
        assert results[1].error_type == "CircuitOpen"

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            WorkerPool(breaker_threshold=0)

    def test_cooldown_validated(self):
        with pytest.raises(ValueError):
            WorkerPool(breaker_threshold=1, breaker_cooldown=-1.0)


class TestBreakerCooldown:
    """Regression (PR 7): PR 2's breaker never closed again once it
    tripped.  The pool now runs the shared three-state
    :class:`repro.infra.breaker.CircuitBreaker`: after the cooldown a
    half-open probe is admitted, and a probe success re-closes the
    circuit within the *same* run."""

    def test_probe_after_cooldown_reopens_the_group(self, tmp_path):
        counter = str(tmp_path / "attempts")
        # Zero cooldown: the very next job after the trip is the
        # half-open probe.  _flaky fails once then succeeds, so the
        # probe closes the breaker and the rest of the group flows.
        pool = WorkerPool(workers=1, breaker_threshold=1,
                          breaker_cooldown=0.0)
        results = pool.run([
            Job(fn=_flaky, args=(counter, 1), group="g", id="trip"),
            Job(fn=_flaky, args=(counter, 1), group="g", id="probe"),
            Job(fn=_square, args=(3,), group="g", id="after"),
        ])
        assert results[0].error_type == "RuntimeError"  # tripped
        assert results[1].ok                            # probe ran
        assert results[2].ok and results[2].value == 9  # circuit closed

    def test_failed_probe_reopens_the_circuit(self):
        pool = WorkerPool(workers=1, breaker_threshold=1,
                          breaker_cooldown=0.0)
        results = pool.run([
            Job(fn=_raise_value_error, group="g", id="trip"),
            Job(fn=_raise_value_error, group="g", id="probe"),
        ])
        assert results[0].error_type == "ValueError"
        # The probe was admitted (it ran and failed for real, not
        # via fast-fail) and its failure re-opened the circuit.
        assert results[1].error_type == "ValueError"
        breaker = pool._breakers["g"]
        assert breaker.state == "open"
        assert breaker.trips == 2

    def test_long_cooldown_keeps_fast_failing(self):
        pool = WorkerPool(workers=1, breaker_threshold=1,
                          breaker_cooldown=600.0)
        results = pool.run([
            Job(fn=_raise_value_error, group="g")
            for _ in range(4)])
        assert results[0].error_type == "ValueError"
        assert all(r.error_type == "CircuitOpen" for r in results[1:])

    def test_half_open_probe_inline_mode(self, tmp_path):
        counter = str(tmp_path / "attempts")
        pool = WorkerPool(breaker_threshold=1, breaker_cooldown=0.0)
        pool._ctx = None

        def flaky_local():
            return _flaky(counter, 1)

        results = pool.run([Job(fn=flaky_local, group="g"),
                            Job(fn=flaky_local, group="g"),
                            Job(fn=flaky_local, group="g")])
        assert not results[0].ok
        assert results[1].ok and results[2].ok


class TestCircuitBreakerStateMachine:
    """The shared breaker itself, on an injected fake clock — the same
    state machine the table-service shard health monitor drives on the
    scheduler's logical tick counter."""

    def _make(self, **kwargs):
        from repro.infra.breaker import CircuitBreaker
        state = {"now": 0.0}
        defaults = dict(threshold=2, cooldown=10.0,
                        clock=lambda: state["now"])
        defaults.update(kwargs)
        return CircuitBreaker(**defaults), state

    def test_trips_at_threshold_and_waits_out_cooldown(self):
        breaker, now = self._make()
        breaker.record(False)
        assert breaker.state == "closed"
        breaker.record(False)
        assert breaker.state == "open"
        assert not breaker.allow()
        now["now"] = 9.9
        assert not breaker.allow()
        now["now"] = 10.0
        assert breaker.allow()               # the half-open probe
        assert breaker.state == "half-open"
        assert not breaker.allow()           # only one probe slot

    def test_probe_success_closes(self):
        breaker, now = self._make(threshold=1)
        breaker.record(False)
        now["now"] = 10.0
        assert breaker.allow()
        breaker.record(True)
        assert breaker.state == "closed"
        assert breaker.failures == 0
        assert breaker.allow()

    def test_probe_failure_escalates_cooldown(self):
        breaker, now = self._make(threshold=1, cooldown_factor=2.0)
        breaker.record(False)                 # trip 1: cooldown 10
        assert breaker.reopen_at == 10.0
        now["now"] = 10.0
        assert breaker.allow()
        breaker.record(False)                 # trip 2: cooldown 20
        assert breaker.state == "open"
        assert breaker.reopen_at == 30.0
        now["now"] = 29.0
        assert not breaker.allow()
        now["now"] = 30.0
        assert breaker.allow()

    def test_max_cooldown_caps_escalation(self):
        breaker, now = self._make(threshold=1, cooldown_factor=10.0,
                                  max_cooldown=15.0)
        breaker.record(False)
        for trip in range(3):
            now["now"] = breaker.reopen_at
            assert breaker.allow()
            breaker.record(False)
        assert breaker.current_cooldown() == 15.0

    def test_force_open_skips_the_count(self):
        breaker, _ = self._make(threshold=100)
        breaker.force_open("integrity audit failed")
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.transitions[-1][3] == "integrity audit failed"

    def test_success_resets_consecutive_count(self):
        breaker, _ = self._make(threshold=2)
        breaker.record(False)
        breaker.record(True)
        breaker.record(False)
        assert breaker.state == "closed"

    def test_transitions_log_records_every_move(self):
        breaker, now = self._make(threshold=1)
        breaker.record(False)
        now["now"] = 10.0
        breaker.allow()
        breaker.record(True)
        states = [(frm, to) for _, frm, to, _ in breaker.transitions]
        assert states == [("closed", "open"),
                          ("open", "half-open"),
                          ("half-open", "closed")]

    def test_reset_restores_pristine_state(self):
        breaker, _ = self._make(threshold=1)
        breaker.record(False)
        breaker.reset()
        assert breaker.state == "closed"
        assert breaker.trips == 0 and breaker.failures == 0
        assert breaker.allow()

    def test_validation(self):
        from repro.infra.breaker import CircuitBreaker
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=-1.0)


class TestWorkerFaultPlan:
    """The repro.faults worker-fault injector through the real pool."""

    def test_plan_letters_drive_attempts(self, tmp_path):
        from repro.faults.injectors import faulty_job

        attempt_file = str(tmp_path / "attempts")
        body = faulty_job(_square, plan="ec.", attempt_file=attempt_file)
        pool = WorkerPool(workers=1, timeout=5.0)
        [result] = pool.run([Job(fn=body, args=(6,), retries=2)])
        # Attempt 1 raises, attempt 2 crashes, attempt 3 succeeds.
        assert result.ok and result.value == 36
        assert result.attempts == 3

    def test_timeout_plan_final_attempt(self, tmp_path):
        from repro.faults.injectors import faulty_job

        attempt_file = str(tmp_path / "attempts")
        body = faulty_job(_square, plan="t", attempt_file=attempt_file)
        pool = WorkerPool(workers=1)
        [result] = pool.run([Job(fn=body, args=(2,), timeout=0.3,
                                 retries=0)])
        assert result.timed_out and result.attempts == 1


class TestInlineFallback:
    def test_inline_mode_without_fork(self):
        pool = WorkerPool(workers=2, retries=1)
        pool._ctx = None  # simulate a platform without fork
        results = pool.run([Job(fn=_square, args=(6,)),
                            Job(fn=_raise_value_error)])
        assert results[0].ok and results[0].value == 36
        assert not results[1].ok
        assert results[1].error_type == "ValueError"
        assert results[1].attempts == 2  # retries honoured inline


class TestValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)

    def test_job_result_record_shape(self):
        record = JobResult(id="x", ok=True, attempts=1,
                           seconds=0.5).to_dict()
        assert record["status"] == "ok"
        assert record["job"] == "x"
