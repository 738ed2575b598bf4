"""``repro.obs`` — the zero-dependency tracing + metrics plane.

One process-wide :data:`OBS` state object carries the active
:class:`~repro.obs.trace.Tracer` and
:class:`~repro.obs.metrics.MetricsRegistry`.  Both default to shared
null implementations, so the instrumentation threaded through the hot
layers (check transactions, the VM run loop, the dynamic linker, the
worker pool, the toolchain) costs one attribute lookup plus a no-op
method call when observability is off — and the really hot counters
are additionally guarded by ``if OBS.enabled``.

Usage::

    from repro import obs

    state = obs.enable(seed=0)        # logical clock: deterministic
    ...run a workload...
    path = obs.export_trace("benchmarks/results/trace.jsonl")
    obs.disable()

or scoped (restores whatever was installed before)::

    with obs.scoped(seed=seed) as state:
        record = run_cell(...)
    record.obs = state.metrics.snapshot().to_dict()

Span and metric names are cataloged in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from repro.obs import clock  # noqa: F401  (re-exported: the one clock path)
from repro.obs.metrics import (  # noqa: F401
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    Snapshot,
)
from repro.obs.trace import (  # noqa: F401
    NULL_TRACER,
    SCHEMA_VERSION,
    Span,
    Tracer,
)

__all__ = [
    "OBS", "enable", "disable", "scoped", "export_trace", "snapshot",
    "wall_metrics_enabled", "clock", "Tracer", "MetricsRegistry",
    "Snapshot", "Counter", "Gauge", "Histogram", "Span",
    "SCHEMA_VERSION",
]


class ObsState:
    """The process-wide observability switchboard."""

    __slots__ = ("enabled", "tracer", "metrics")

    def __init__(self) -> None:
        self.enabled = False
        self.tracer: Tracer = NULL_TRACER
        self.metrics: MetricsRegistry = NULL_METRICS


#: The singleton every instrumented module reads.
OBS = ObsState()


def enable(seed: Optional[int] = None) -> ObsState:
    """Install a live tracer + registry.  ``seed`` ⇒ logical clock."""
    OBS.tracer = Tracer(seed=seed)
    OBS.metrics = MetricsRegistry()
    OBS.enabled = True
    return OBS


def disable() -> None:
    """Back to the free-when-disabled null implementations."""
    OBS.enabled = False
    OBS.tracer = NULL_TRACER
    OBS.metrics = NULL_METRICS


@contextmanager
def scoped(seed: Optional[int] = None) -> Iterator[ObsState]:
    """Enable observability for a block, then restore the prior state.

    Fault campaigns use this to give every cell a fresh registry whose
    snapshot rides along on the cell's record.
    """
    prior = (OBS.enabled, OBS.tracer, OBS.metrics)
    try:
        yield enable(seed=seed)
    finally:
        OBS.enabled, OBS.tracer, OBS.metrics = prior


def wall_metrics_enabled() -> bool:
    """True when wall-clock-valued observations should be recorded.

    Seconds-valued histograms (pool job duration) are
    skipped under a seeded tracer so the exported metrics line stays
    byte-deterministic.
    """
    return OBS.enabled and not OBS.tracer.deterministic


def snapshot() -> Snapshot:
    """Freeze the active registry (empty when disabled)."""
    return OBS.metrics.snapshot()


def export_trace(path) -> str:
    """Export the active tracer's spans (+ metrics snapshot) to JSONL."""
    metrics: Optional[Dict[str, Any]] = None
    frozen = OBS.metrics.snapshot()
    if frozen.counters or frozen.gauges or frozen.histograms:
        metrics = frozen.to_dict()
    return OBS.tracer.export_jsonl(path, metrics=metrics)
