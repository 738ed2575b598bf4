"""The deterministic fault-injection plane.

A :class:`FaultPlane` is a seeded registry of *fault points*: named
places in trusted-runtime code (the dynamic linker's load phases, the
infra pool's worker dispatch, the update transaction's barrier) that
ask the plane whether an injected fault should fire *here, now*.  The
production configuration is the inert :data:`NULL_PLANE`, whose checks
cost one attribute lookup and never fire — fault behaviour exists only
when a test or campaign arms a point explicitly.

Determinism is the design center, mirroring the seeded scheduler: a
fault campaign replays exactly from ``(seed, arm spec)``, so a survival
regression is a reproducible artifact rather than a flake.

Fault points currently instrumented::

    dlopen.prepare     module mapped/patched, before sealing
    dlopen.cfg         CFG regeneration over the merged aux info
    dlopen.update      mid update-transaction (tables partially written)
    dlopen.got         between the barrier and the GOT rewrites
    dlopen.seal        after the update, before control returns
    pool.worker        inside a worker process, before the job body
    service.commit         torn batch: drop a shard's whole round
    service.commit.step    torn batch: fail one transaction step
    service.request.poison tenant submits a malformed dlopen write-set
    service.tenant.crash   tenant dies after its dlopen commits
    service.fault.bitflip  storm task flips a bit in a live shard word
    service.fault.stale    storm task rewinds a live entry's version

Every firing is recorded as a :class:`FaultEvent` so reports can state
exactly which faults were exercised (no silent no-op campaigns).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import InjectedFault


@dataclass
class FaultEvent:
    """One fault that actually fired."""

    point: str
    sequence: int          # nth check() call on this plane (0-based)
    detail: str = ""

    KIND = "fault-event"

    def to_dict(self) -> Dict[str, object]:
        return {"point": self.point, "sequence": self.sequence,
                "detail": self.detail}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultEvent":
        return cls(point=data["point"], sequence=data["sequence"],
                   detail=data.get("detail", ""))


@dataclass
class _Armed:
    """Arm spec for one point: fire on visits [skip, skip+count)."""

    skip: int = 0
    count: int = 1
    probability: float = 1.0
    visits: int = 0
    fired: int = 0


class FaultPlane:
    """Seeded, armed fault points with an event log.

    ``arm(point, skip=N, count=M)`` fires the point on its (N+1)-th
    through (N+M)-th visit; ``probability`` (with the plane's seed)
    makes firing stochastic-but-replayable.  ``check()`` raises
    :class:`~repro.errors.InjectedFault`; ``should()`` is the
    non-raising variant for faults expressed as data corruption rather
    than control flow.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._armed: Dict[str, _Armed] = {}
        self.events: List[FaultEvent] = []
        self._sequence = 0

    # -- configuration ------------------------------------------------

    def arm(self, point: str, *, skip: int = 0, count: int = 1,
            probability: float = 1.0) -> "FaultPlane":
        if count < 1:
            raise ValueError("count must be >= 1")
        self._armed[point] = _Armed(skip=skip, count=count,
                                    probability=probability)
        return self

    def fired(self, point: Optional[str] = None) -> int:
        if point is None:
            return len(self.events)
        return sum(1 for event in self.events if event.point == point)

    # -- the hot-path API ---------------------------------------------

    def should(self, point: str, detail: str = "") -> bool:
        """True if an armed fault fires at this visit (and log it)."""
        spec = self._armed.get(point)
        self._sequence += 1
        if spec is None:
            return False
        visit = spec.visits
        spec.visits += 1
        if visit < spec.skip or spec.fired >= spec.count:
            return False
        if spec.probability < 1.0 and \
                self._rng.random() >= spec.probability:
            return False
        spec.fired += 1
        self.events.append(FaultEvent(point=point,
                                      sequence=self._sequence - 1,
                                      detail=detail))
        return True

    def check(self, point: str, detail: str = "") -> None:
        """Raise :class:`InjectedFault` if the point fires."""
        if self.should(point, detail=detail):
            raise InjectedFault(point, detail)


class _NullPlane(FaultPlane):
    """The production plane: nothing armed, nothing recorded."""

    def __init__(self) -> None:
        super().__init__(seed=0)

    def arm(self, point: str, **_: object) -> "FaultPlane":
        raise RuntimeError("arm() on the shared NULL_PLANE; create a "
                           "FaultPlane instance instead")

    def should(self, point: str, detail: str = "") -> bool:
        return False

    def check(self, point: str, detail: str = "") -> None:
        return None


#: Shared inert plane — the default wherever a fault_plane is optional.
NULL_PLANE = _NullPlane()
