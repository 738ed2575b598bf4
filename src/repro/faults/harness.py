"""Fault-scenario harness: one injector against one workload, classified.

Two scenario planes:

* **Table plane** (:func:`run_table_scenario`) — synthetic ID tables
  with parity-spaced ECNs, a probe task issuing check transactions for
  known-allowed and known-denied edges, and one injector interleaved by
  the seeded scheduler.  The classification is exact because the
  trusted assignment is known: a denied probe that the check *allows*
  is a forged-edge admission, the one outcome a CFI runtime may never
  produce.

* **Loader plane** (:func:`run_load_scenario`) — a real compiled
  program that ``dlopen``\\ s a library while the fault plane fails the
  dynamic linker at a chosen phase.  Survival means the program
  observed a failed ``dlopen`` (handle 0) and kept running, and the
  ID tables rolled back byte-identical to the pre-load snapshot.

Outcomes (``SurvivalRecord.outcome``):

==============  ========================================================
``survived``    every probe behaved exactly per the trusted policy
``degraded``    faults were detected and absorbed (denied probes,
                escalations, repairs) — no forged edge, run completed
``halted``      the runtime stopped fail-safe (halt policy)
``forged``      a disallowed edge was admitted — a security failure
``error``       the harness itself faulted (infrastructure problem)
==============  ========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

from repro.core.idencoding import INVALID_ID, parity_ecn
from repro.core.tables import IdTables, tary_index
from repro.core.transactions import (
    CheckResult,
    UpdateLock,
    tx_check_gen,
)
from repro.errors import ReproError, TableIntegrityError
from repro.faults.injectors import (
    TornUpdateTransaction,
    bit_flip_injector,
    stale_version_injector,
    table_scrubber,
    version_churn_injector,
)
from repro.faults.plane import FaultPlane
from repro.obs import scoped as obs_scoped
from repro.vm.memory import TableMemory
from repro.vm.scheduler import GeneratorTask, Scheduler

#: Retry budget for harness probes: small enough that an injected
#: livelock escalates in a few scheduler ticks, large enough that a
#: real in-flight update never trips it.
PROBE_RETRY_BUDGET = 64

#: The injector taxonomy the campaign fans out over.
INJECTORS = (
    "bitflip-tary",      # single-bit upsets in target IDs
    "bitflip-bary",      # single-bit upsets in branch IDs
    "stale-version",     # entries rewound to an older version
    "version-churn",     # sustained back-to-back refresh updates
    "torn-delay",        # update barrier stalled between Tary and Bary
    "torn-drop",         # update barrier dropped entirely
)

#: Violation / escalation policies (mirrors Runtime.violation_policy).
POLICIES = ("halt", "report", "quarantine")

#: Synthetic table shapes: (targets, classes, branch_sites).
TABLE_WORKLOADS: Dict[str, Tuple[int, int, int]] = {
    "dispatch": (48, 6, 12),     # vtable-ish: many classes
    "returns": (32, 2, 8),       # return-heavy: two big classes
}


@dataclass
class SurvivalRecord:
    """Classified outcome of one fault-campaign cell."""

    injector: str
    workload: str
    policy: str
    seed: int
    outcome: str = "survived"
    probes: int = 0
    allowed_ok: int = 0          # allowed edge, admitted (correct)
    denied_ok: int = 0           # denied edge, rejected (correct)
    forged: int = 0              # denied edge ADMITTED (security failure)
    availability: int = 0        # allowed edge rejected (fault absorbed)
    escalations: int = 0         # bounded-retry TableIntegrityError
    quarantined: int = 0         # entries zeroed by quarantine policy
    repairs: int = 0             # scrubber rewrites
    retries: int = 0
    ticks: int = 0
    rolled_back: Optional[bool] = None   # loader plane only
    detail: str = ""
    #: Per-cell metrics snapshot (a :class:`repro.obs.Snapshot` dict):
    #: the timing/retry evidence the survival matrix carries along.
    obs: Optional[Dict[str, Any]] = None

    KIND = "fault"

    def to_dict(self) -> Dict[str, Any]:
        return {k: v for k, v in self.__dict__.items() if v is not None}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SurvivalRecord":
        names = {f for f in cls.__dataclass_fields__}  # noqa: C401
        return cls(**{k: v for k, v in data.items() if k in names})


def _make_tables(workload: str) -> Tuple[IdTables, List[Tuple[int, int]],
                                         List[Tuple[int, int]]]:
    """Build parity-spaced synthetic tables plus probe pairs."""
    targets, classes, sites = TABLE_WORKLOADS[workload]
    tary = {0x1000 + 4 * i: parity_ecn(i % classes)
            for i in range(targets)}
    bary = {s: parity_ecn(s % classes) for s in range(sites)}
    tables = IdTables(TableMemory())
    tables.install(tary, bary)
    allowed = [(s, a) for s in bary for a in tary
               if bary[s] == tary[a]]
    denied = [(s, a) for s in bary for a in tary
              if bary[s] != tary[a]]
    # A deterministic, bounded probe set.
    return tables, allowed[:24], denied[:24]


def _injector_tasks(name: str, tables: IdTables, lock: UpdateLock,
                    seed: int) -> List[GeneratorTask]:
    if name == "bitflip-tary":
        gen = bit_flip_injector(tables, seed=seed, flips=3, table="tary")
    elif name == "bitflip-bary":
        gen = bit_flip_injector(tables, seed=seed, flips=2, table="bary")
    elif name == "stale-version":
        gen = stale_version_injector(tables, seed=seed, entries=3)
    elif name == "version-churn":
        gen = version_churn_injector(tables, lock, rounds=6, batch=2)
    elif name in ("torn-delay", "torn-drop"):
        mode = "delay" if name == "torn-delay" else "drop"
        tx = TornUpdateTransaction(
            tables, lock, new_tary=dict(tables.tary_ecns),
            new_bary=dict(tables.bary_ecns), batch=2, mode=mode,
            stall=24, owner=name)
        gen = tx.run()
    else:
        raise ValueError(f"unknown injector {name!r}")
    return [GeneratorTask(gen, name=f"inject:{name}")]


def run_table_scenario(injector: str, workload: str = "dispatch",
                       policy: str = "halt", seed: int = 0,
                       rounds: int = 3, scrub: bool = False,
                       max_ticks: int = 2_000_000) -> SurvivalRecord:
    """One campaign cell on the table plane."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    record = SurvivalRecord(injector=injector, workload=workload,
                            policy=policy, seed=seed)
    # Each cell runs under a fresh scoped registry, so the snapshot
    # attached to the record is this cell's evidence alone (check
    # retries, lock hold steps, update counts) — and the seeded tracer
    # keeps the whole thing deterministic.
    with obs_scoped(seed=seed) as obs_state:
        try:
            return _run_table_scenario(record, injector, workload,
                                       policy, seed, rounds, scrub,
                                       max_ticks)
        finally:
            record.obs = obs_state.metrics.snapshot().to_dict()


def _run_table_scenario(record: SurvivalRecord, injector: str,
                        workload: str, policy: str, seed: int,
                        rounds: int, scrub: bool,
                        max_ticks: int) -> SurvivalRecord:
    tables, allowed, denied = _make_tables(workload)
    lock = UpdateLock()

    def probe_task():
        probes = [(s, a, True) for s, a in allowed] + \
                 [(s, a, False) for s, a in denied]
        for _ in range(rounds):
            for site, address, expect in probes:
                sink: List[Tuple[str, int]] = []
                try:
                    yield from tx_check_gen(
                        tables, site, address, sink,
                        max_retries=PROBE_RETRY_BUDGET)
                except TableIntegrityError:
                    record.escalations += 1
                    if policy == "halt":
                        raise
                    if policy == "quarantine":
                        # Fail-safe: retire the unverifiable entry so
                        # later probes deny instead of re-escalating.
                        tables.memory.write_tary(tary_index(address),
                                                 INVALID_ID)
                        record.quarantined += 1
                    continue
                result, retries = sink[0]
                record.probes += 1
                record.retries += retries
                if result == CheckResult.ALLOWED:
                    if expect:
                        record.allowed_ok += 1
                    else:
                        record.forged += 1
                else:
                    if expect:
                        record.availability += 1
                    else:
                        record.denied_ok += 1
            yield

    scheduler = Scheduler(seed=seed,
                          weights={f"inject:{injector}": 4.0})
    scheduler.add_generator(probe_task(), name="probe")
    for task in _injector_tasks(injector, tables, lock, seed):
        scheduler.add(task)
    if scrub:
        counter: Dict[str, int] = {}
        # Bounded rounds: an unbounded scrubber would keep the
        # scheduler alive after the probe task retires.
        scheduler.add_generator(
            table_scrubber(tables, lock, interval=4, rounds=512,
                           counter=counter),
            name="scrubber")
    outcome = scheduler.run(max_ticks=max_ticks)
    record.ticks = outcome.ticks
    if scrub:
        record.repairs = counter.get("repairs", 0)
    if record.forged:
        record.outcome = "forged"
        record.detail = "forged-edge admission"
    elif isinstance(outcome.fault, TableIntegrityError):
        record.outcome = "halted"
        record.detail = str(outcome.fault)
    elif outcome.fault is not None:
        record.outcome = "error"
        record.detail = str(outcome.fault)
    elif record.availability or record.escalations or record.repairs \
            or record.quarantined:
        record.outcome = "degraded"
    else:
        record.outcome = "survived"
    return record


# ---------------------------------------------------------------------------
# Loader plane
# ---------------------------------------------------------------------------

#: Phases of the dynamic linker's dlopen protocol the plane can fail.
LOAD_PHASES = ("prepare", "cfg", "update", "got", "seal")

_LOADER_MAIN = {"main": """
    int libfn(int x);
    int main(void) {
        long h = dlopen("plugin");
        if (h == 0) { print_str("LOAD-FAILED"); return 99; }
        print_int(libfn(10));
        return 0;
    }
"""}

_LOADER_LIB = "int libfn(int x) { return x * 3 + 1; }"


@lru_cache(maxsize=None)
def _loader_artifacts():
    from repro.build import build_program, compile_object
    program = build_program(_LOADER_MAIN, mcfi=True,
                            allow_unresolved=["libfn"]).program
    library = compile_object(_LOADER_LIB, name="plugin")
    return program, library


def snapshot_tables(runtime) -> Tuple[bytes, bytes]:
    """Byte snapshot of both ID tables (the rollback ground truth)."""
    return (bytes(runtime.tables.tary), bytes(runtime.tables.bary))


def run_load_scenario(phase: str, policy: str = "halt", seed: int = 0,
                      scheduled: bool = False) -> SurvivalRecord:
    """Fail a mid-load dlopen at ``phase`` and classify the recovery."""
    if phase not in LOAD_PHASES:
        raise ValueError(f"unknown load phase {phase!r}")
    record = SurvivalRecord(injector=f"load-{phase}", workload="dlopen",
                            policy=policy, seed=seed)
    with obs_scoped(seed=seed) as obs_state:
        try:
            return _run_load_scenario(record, phase, policy, seed,
                                      scheduled)
        finally:
            record.obs = obs_state.metrics.snapshot().to_dict()


def _run_load_scenario(record: SurvivalRecord, phase: str, policy: str,
                       seed: int, scheduled: bool) -> SurvivalRecord:
    from repro.linker.dynamic_linker import DynamicLinker
    from repro.runtime.runtime import Runtime

    program, library = _loader_artifacts()
    runtime = Runtime(program, violation_policy=policy)
    plane = FaultPlane(seed=seed).arm(f"dlopen.{phase}")
    linker = DynamicLinker(runtime, fault_plane=plane)
    linker.register("plugin", library)
    before = snapshot_tables(runtime)
    try:
        if scheduled:
            result = runtime.run_scheduled(seed=seed)
        else:
            result = runtime.run()
    except ReproError as exc:
        record.outcome = "error"
        record.detail = f"{type(exc).__name__}: {exc}"
        return record
    after = snapshot_tables(runtime)
    record.rolled_back = (before == after)
    record.probes = 1
    fired = plane.fired(f"dlopen.{phase}")
    if not record.rolled_back:
        record.outcome = "forged"
        record.detail = "tables diverged after failed load"
    elif result.exit_code == 99 and b"LOAD-FAILED" in result.output \
            and fired:
        record.outcome = "degraded"
        record.detail = f"dlopen failed at {phase}, program continued"
    elif result.violation is not None or result.violations:
        record.outcome = "halted"
        record.detail = "violation during recovery"
    else:
        record.outcome = "error"
        record.detail = (f"unexpected exit={result.exit_code} "
                         f"output={result.output[:32]!r} fired={fired}")
    return record
