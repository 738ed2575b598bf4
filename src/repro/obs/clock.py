"""The one clock path for every reported wall timing.

Every subsystem that reports seconds (the spec CLI, the worker pool,
the STM micro-benchmark) reads :func:`now` instead of calling
``time.perf_counter()`` directly, so timing semantics can be audited —
and, if ever necessary, swapped — in exactly one place.

Deterministic *trace* time is a different thing entirely: a seeded
:class:`repro.obs.trace.Tracer` stamps spans with a logical tick
counter and never touches this module.
"""

from __future__ import annotations

import time


def now() -> float:
    """Monotonic seconds with the highest available resolution."""
    return time.perf_counter()

