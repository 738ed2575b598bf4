"""A reusable circuit-breaker state machine (closed / open / half-open).

PR 2's per-group breaker in :class:`repro.infra.pool.WorkerPool` was a
bare consecutive-failure counter: once a group tripped it stayed open
for the rest of the run, so a *transiently* broken target (a flaky
shared resource that recovers) could never re-admit work.  This module
factors the counter into a real three-state breaker:

* **closed** — requests flow; consecutive failures are counted, and
  reaching ``threshold`` trips the breaker open;
* **open** — requests fail fast until ``cooldown`` clock units elapse;
* **half-open** — after the cooldown, exactly **one** probe request is
  admitted.  Success closes the breaker and clears the count; failure
  re-opens it with an escalated cooldown
  (``cooldown * cooldown_factor**(trips-1)``, capped by
  ``max_cooldown``).

The clock is injected (``clock()`` returns a float or int "now"), so
the same state machine serves both consumers:

* the worker pool, on the wall clock (:data:`repro.obs.clock.now`);
* the table service's per-shard health monitor
  (:class:`repro.service.health.ShardHealthMonitor`), on the seeded
  scheduler's logical tick counter — fully deterministic.

State transitions are recorded in :attr:`transitions` as
``(when, from_state, to_state, reason)`` tuples, the raw feed for the
service's health/MTTR accounting.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

#: The three states (strings, so they serialize verbatim into traces).
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"


class CircuitBreaker:
    """Three-state breaker over an injected clock.

    ``allow()`` asks whether a request may proceed *now* (it performs
    the open -> half-open transition when the cooldown has elapsed and
    claims the single probe slot); ``record(ok)`` reports the outcome
    of an admitted request.  ``force_open(reason)`` trips immediately
    regardless of the count — the service uses it for non-negotiable
    evidence like a failed integrity audit.
    """

    def __init__(self, threshold: int = 3, cooldown: float = 30.0,
                 clock: Optional[Callable[[], float]] = None,
                 cooldown_factor: float = 2.0,
                 max_cooldown: Optional[float] = None,
                 name: str = "") -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        self.threshold = threshold
        self.cooldown = cooldown
        self.cooldown_factor = max(1.0, cooldown_factor)
        self.max_cooldown = max_cooldown
        self.name = name
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.state = CLOSED
        self.failures = 0          # consecutive, while closed
        self.trips = 0             # times the breaker opened
        self.probes = 0            # half-open probes admitted
        self.opened_at: Optional[float] = None
        self.reopen_at: Optional[float] = None
        self.transitions: List[Tuple[float, str, str, str]] = []

    # -- queries -------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self.state == CLOSED

    def allow(self) -> bool:
        """May a request proceed now?  Admits one half-open probe."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if self.reopen_at is not None and \
                    self._clock() >= self.reopen_at:
                self._move(HALF_OPEN, "cooldown elapsed")
                self.probes += 1
                return True
            return False
        # HALF_OPEN: the single probe slot was claimed by the allow()
        # that transitioned; further requests wait for its verdict.
        return False

    # -- outcomes ------------------------------------------------------

    def record(self, ok: bool, reason: str = "") -> None:
        """Report the outcome of an admitted request."""
        if self.state == HALF_OPEN:
            if ok:
                self.failures = 0
                self._move(CLOSED, reason or "probe succeeded")
            else:
                self._open(reason or "probe failed")
            return
        if self.state == OPEN:
            return  # late result from before the trip: irrelevant
        if ok:
            self.failures = 0
            return
        self.failures += 1
        if self.failures >= self.threshold:
            self._open(reason or
                       f"{self.failures} consecutive failures")

    def force_open(self, reason: str = "forced") -> None:
        """Trip immediately (integrity evidence, not a failure count)."""
        if self.state != OPEN:
            self._open(reason)

    def reset(self) -> None:
        """Back to a pristine closed breaker (new run)."""
        if self.state != CLOSED:
            self._move(CLOSED, "reset")
        self.failures = 0
        self.trips = 0
        self.probes = 0
        self.opened_at = None
        self.reopen_at = None

    # -- internals -----------------------------------------------------

    def current_cooldown(self) -> float:
        """The cooldown for the *latest* trip (escalates per trip)."""
        scale = self.cooldown_factor ** max(0, self.trips - 1)
        cooldown = self.cooldown * scale
        if self.max_cooldown is not None:
            cooldown = min(cooldown, self.max_cooldown)
        return cooldown

    def _open(self, reason: str) -> None:
        self.trips += 1
        self.opened_at = self._clock()
        self.reopen_at = self.opened_at + self.current_cooldown()
        self._move(OPEN, reason)

    def _move(self, to_state: str, reason: str) -> None:
        self.transitions.append(
            (self._clock(), self.state, to_state, reason))
        self.state = to_state
