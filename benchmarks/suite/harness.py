"""The measuring loop: one client, closed loop, whole rounds.

The next operation starts when the last one returns.  Rounds run until
``seconds`` of wall time have passed, and a round is never cut short, so
every input item of a workload is measured the same number of times
whatever order the seed gives.  A failed check or a raised error counts
against ``failed`` and the run goes on.

Every reported time is rescaled to a fixed machine speed.  On a shared
machine the speed of the interpreter drifts by 10-50% over seconds, far
more than the regressions the bounds must catch.  A fixed kernel is
timed before every operation and 20 times a second, during operations
too (:class:`Speed`), and each operation's time is multiplied by
``REFERENCE_S`` over the median kernel time measured while it ran.  Raw
wall times are kept beside the rescaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.obs import OBS, clock

from .stats import geomean, percentile

#: tracebacks printed per run; later failures are only counted
MAX_REPORTED_ERRORS = 3


def _kernel() -> int:
    """Fixed interpreter-bound work: calls, dict and list traffic, ints."""
    table: Dict[int, int] = {}
    values: List[int] = []
    acc = 0
    for i in range(2500):
        key = i & 255
        table[key] = table.get(key, 0) + i
        values.append(i * 3 % 11)
        acc += len(values) ^ key
    values.sort()
    return acc + sum(table.values())


class Speed:
    """Samples of the machine's speed: timings of the kernel.

    A ``SIGALRM`` every ``INTERVAL_S`` times the kernel once, inside
    operations as well as between them, and :meth:`probe` times it three
    times just before an operation.  An operation is rescaled by the
    median of the samples from the probe before it to the first sample
    after it: the probes carry short operations, the timer long ones.
    The kernel's own time inside an operation is taken out of it.
    """

    #: kernel seconds that rescaled times are expressed at
    REFERENCE_S = 0.0006
    INTERVAL_S = 0.05
    #: operations closer together than this share a probe
    MIN_GAP_S = 0.025

    def __init__(self) -> None:
        self.times: List[float] = []
        self.seconds: List[float] = []
        self._saved = None

    def __enter__(self) -> "Speed":
        self.probe()
        self._saved = (
            signal.signal(signal.SIGALRM, self._sample),
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                             self.INTERVAL_S))
        return self

    def __exit__(self, *exc) -> None:
        handler, timer = self._saved
        signal.setitimer(signal.ITIMER_REAL, *timer)
        signal.signal(signal.SIGALRM, handler)
        self.probe()

    def _sample(self, *_signal) -> None:
        started = clock.now()
        _kernel()
        ended = clock.now()
        self.times.append(ended)
        self.seconds.append(ended - started)

    def probe(self) -> None:
        if self.times and clock.now() - self.times[-1] < self.MIN_GAP_S:
            return
        seconds = kernel_seconds()
        self.times.append(clock.now())
        self.seconds.append(seconds)

    def adjust(self, start: float, end: float) -> Tuple[float, float]:
        """(kernel seconds spent inside ``[start, end]``, the factor that
        rescales that interval to the reference speed)."""
        first = bisect.bisect_right(self.times, start)
        last = bisect.bisect_left(self.times, end)
        inside = sum(self.seconds[first:last])
        window = self.seconds[max(first - 1, 0):last + 1]
        return inside, self.REFERENCE_S / statistics.median(window)

    def run_scale(self) -> float:
        """Factor for the run as a whole."""
        return self.REFERENCE_S / statistics.median(self.seconds)


def kernel_seconds() -> float:
    """Median of three timings of the speed kernel."""
    timings = []
    for _ in range(3):
        started = clock.now()
        _kernel()
        timings.append(clock.now() - started)
    return statistics.median(timings)


@dataclass
class Measurement:
    """Everything one run of one workload measured."""

    #: item -> rescaled seconds of each successful operation on it
    samples: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list))
    #: item -> phase -> rescaled seconds
    phases: Dict[str, Dict[str, List[float]]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(list)))
    #: item -> wall seconds of each successful operation, not rescaled
    raw: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list))
    #: exact counts summed over the checked operations
    counts: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    attempted: int = 0
    failed: int = 0
    #: wall seconds of the loop, checks included
    wall: float = 0.0
    #: run-wide rescaling factor (for per-layer times)
    scale: float = 1.0

    def op_seconds(self, q: float, raw: bool = False) -> float:
        """Geometric mean over items of each item's ``q``-th percentile
        operation time (0 when nothing succeeded)."""
        source = self.raw if raw else self.samples
        per_item = [percentile(values, q)
                    for values in source.values() if values]
        return geomean(per_item) if per_item else 0.0

    def ops_per_s(self) -> float:
        """Operations completed per (rescaled) second spent in them."""
        busy = sum(sum(values) for values in self.samples.values())
        done = sum(len(values) for values in self.samples.values())
        return done / busy if busy else 0.0

    def all_phase(self, phase: str) -> List[float]:
        return [seconds for by_phase in self.phases.values()
                for seconds in by_phase.get(phase, ())]


def measure(workload, seconds: float, recorder,
            one_round: bool = False) -> Measurement:
    """Measure ``workload`` for ``seconds`` (or exactly one round) under
    ``recorder``, then run its whole-run checks untraced."""
    with recorder:
        run = _loop(workload, seconds, recorder, one_round)
    run.failed = min(run.attempted, run.failed + workload.finish())
    return run


def _loop(workload, seconds: float, recorder,
          one_round: bool) -> Measurement:
    run = Measurement()
    #: (item, start, end, phases) of every successful operation
    done: List[Tuple[str, float, float, Dict[str, float]]] = []
    tracer = OBS.tracer
    with Speed() as speed:
        started = clock.now()
        while True:
            for item in workload.next_round():
                run.attempted += 1
                try:
                    with tracer.span("bench.input"):
                        job = workload.prepare(item)
                    with tracer.span("bench.calibrate"):
                        speed.probe()
                    with tracer.span("bench.op"):
                        op_started = clock.now()
                        output, phases = workload.execute(job)
                        op_ended = clock.now()
                    with recorder.paused():
                        ok, counts = workload.check(job, output)
                except Exception:  # noqa: BLE001 - counted, run goes on
                    ok, counts = False, {}
                    if run.failed < MAX_REPORTED_ERRORS:
                        traceback.print_exc(file=sys.stderr)
                recorder.fold()
                for key, value in counts.items():
                    run.counts[key] += value
                if ok:
                    done.append((item, op_started, op_ended, phases))
                else:
                    run.failed += 1
            if one_round or clock.now() - started >= seconds:
                break
        run.wall = clock.now() - started
    run.scale = speed.run_scale()
    for item, op_started, op_ended, phases in done:
        inside, factor = speed.adjust(op_started, op_ended)
        wall = sum(phases.values())
        # the timer's own kernel runs are not part of the operation
        keep = max(wall - inside, 0.0) / wall if wall else 1.0
        run.raw[item].append(wall)
        run.samples[item].append(factor * keep * wall)
        for phase, value in phases.items():
            run.phases[item][phase].append(factor * keep * value)
    return run
