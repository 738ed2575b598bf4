"""Service-aware chaos injectors: shard-scoped storms on live tables.

The PR 2 injectors (:mod:`repro.faults.injectors`) attack one
:class:`~repro.core.tables.IdTables` in isolation.  The self-healing
service plane needs faults that land *while the multi-tenant loop is
running*: corruption storms that hit one shard's bands mid-traffic so
the health monitor's evidence feeds (audit findings, TxCheck
escalations, batch rollbacks) — not the test harness — must notice.

Each storm is a scheduler generator task that
:meth:`~repro.service.loop.ServiceLoop.run` co-schedules with the
tenants when given its spec, gated by an armed
:class:`~repro.faults.plane.FaultPlane` point:

``service.fault.bitflip``
    Flip one seeded bit in a live stored ID word of a seeded shard —
    the single-event-upset model.  Parity-spaced ECNs guarantee a
    single flip can never alias another in-use class, so the flip is
    either an invalid ID (checks fail safe) or an audit finding.

``service.fault.stale``
    Rewind a live entry to a ``back``-older version: checks on it see
    the in-flight-update signature forever and burn their retry budget
    into a TxCheck escalation (immediate quarantine evidence).

The storms **never raise**: an exception escaping an injector task
would surface as a scheduler fault and kill the whole run.  Target
selection advances the storm's private RNG every period whether or not
the plane fires, so arming ``skip``/``count`` changes *which periods*
fire, never *where* the damage lands — campaigns stay replayable
cell-for-cell.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Generator, List, Optional

from repro.core.idencoding import pack_id
from repro.core.tables import bary_index, tary_index
from repro.faults.plane import FaultEvent, FaultPlane

if TYPE_CHECKING:  # pragma: no cover - avoids a faults<->service cycle
    from repro.service.shards import ShardedIdTables

#: Fault points consumed by the storm tasks below (the request-level
#: points ``service.request.poison`` / ``service.tenant.crash`` and the
#: commit-level ``service.commit`` / ``service.commit.step`` live in
#: the service loop and coalescer respectively).
BITFLIP_POINT = "service.fault.bitflip"
STALE_POINT = "service.fault.stale"


def _pick_target(sharded: "ShardedIdTables", rng: random.Random,
                 table: str):
    """Deterministically pick ``(shard, key)`` among live entries.

    Returns ``(None, None)`` when no shard has live entries of the
    requested table (nothing to corrupt yet — early in the run or
    between dlclose and the next dlopen).
    """
    candidates = []
    for shard in sharded.shards:
        live = (shard.tables.tary_ecns if table == "tary"
                else shard.tables.bary_ecns)
        if live:
            candidates.append((shard, sorted(live)))
    if not candidates:
        return None, None
    shard, live = candidates[rng.randrange(len(candidates))]
    return shard, live[rng.randrange(len(live))]


def shard_bit_flip_storm(sharded: "ShardedIdTables", plane: FaultPlane,
                         active: Callable[[], bool],
                         seed: int = 0, interval: int = 16,
                         table: str = "tary", bit_range: int = 32,
                         events: Optional[List[FaultEvent]] = None,
                         ) -> Generator[None, None, None]:
    """Periodic single-bit flips in live stored IDs of seeded shards.

    Every ``interval`` ticks the storm picks a victim word and, if the
    ``service.fault.bitflip`` point fires, XORs one seeded bit into it
    from the host side (no sandbox store can reach the tables; this
    models hardware upsets and trusted-runtime bugs).  Arm the point
    with ``count=N`` to bound the campaign to N flips.
    """
    rng = random.Random(seed)
    while active():
        for _ in range(max(1, interval)):
            yield
            if not active():
                return
        shard, key = _pick_target(sharded, rng, table)
        if shard is None:
            continue
        bit = rng.randrange(bit_range)
        label = f"shard{shard.index}/{table}{key:#x}^bit{bit}"
        if not plane.should(BITFLIP_POINT, detail=label):
            continue
        memory = shard.tables.memory
        if table == "tary":
            index = tary_index(key)
            memory.write_tary(index, memory.read_tary(index) ^ (1 << bit))
        else:
            index = bary_index(key)
            memory.write_bary(index, memory.read_bary(index) ^ (1 << bit))
        if events is not None:
            events.append(FaultEvent(point=BITFLIP_POINT, sequence=0,
                                     detail=label))


def version_gap_storm(sharded: "ShardedIdTables", plane: FaultPlane,
                      active: Callable[[], bool],
                      seed: int = 0, interval: int = 24, back: int = 1,
                      events: Optional[List[FaultEvent]] = None,
                      ) -> Generator[None, None, None]:
    """Periodic stale-version rewrites of live Tary entries.

    A check transaction reading the victim sees two valid IDs whose
    version halves disagree — the in-flight-update signature — and
    retries until its bounded budget escalates into a
    :class:`~repro.errors.TableIntegrityError`, which the service loop
    reports to the health monitor as quarantine-grade evidence.
    """
    rng = random.Random(seed)
    while active():
        for _ in range(max(1, interval)):
            yield
            if not active():
                return
        shard, address = _pick_target(sharded, rng, "tary")
        if shard is None:
            continue
        tables = shard.tables
        stale_version = (tables.version - back) & 0x3FFF
        label = f"shard{shard.index}/tary{address:#x}@v{stale_version}"
        if not plane.should(STALE_POINT, detail=label):
            continue
        word = pack_id(tables.tary_ecns[address], stale_version)
        tables.memory.write_tary(tary_index(address), word)
        if events is not None:
            events.append(FaultEvent(point=STALE_POINT, sequence=0,
                                     detail=label))
