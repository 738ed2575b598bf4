"""Tests for the unified to_dict()/from_dict() result protocol (PR 3).

Every result type in the repo serializes through the same pair of
methods and lands in the JSONL store via ``ResultStore.append_record``.
"""

from __future__ import annotations


from repro.errors import CfiViolation, MemoryFault
from repro.faults.harness import SurvivalRecord
from repro.faults.plane import FaultEvent
from repro.infra.pool import JobResult
from repro.infra.results import ResultStore, load_records
from repro.runtime.runtime import RunResult, ViolationRecord
from repro.vm.attacker import AttackReport


class TestRunResult:
    def test_ok_round_trip(self):
        result = RunResult(exit_code=0, output=b"checksum 42",
                           cycles=100, instructions=80, updates=2)
        data = result.to_dict()
        assert data["kind"] == "run"
        assert data["status"] == "ok"
        assert data["output"] == "checksum 42"
        clone = RunResult.from_dict(data)
        assert clone.ok
        assert clone.output == b"checksum 42"
        assert clone.cycles == 100 and clone.updates == 2

    def test_violation_round_trip(self):
        violation = CfiViolation(0x1000, 0x2000, "version-mismatch")
        result = RunResult(violation=violation)
        data = result.to_dict()
        assert data["status"] == "violation"
        clone = RunResult.from_dict(data)
        assert isinstance(clone.violation, CfiViolation)
        assert clone.violation.branch_address == 0x1000
        assert clone.status == "violation"

    def test_fault_round_trip(self):
        result = RunResult(fault=MemoryFault(0x30, "write",
                                             "not writable"))
        data = result.to_dict()
        assert data["status"] == "fault"
        clone = RunResult.from_dict(data)
        assert clone.fault is not None
        assert clone.status == "fault"

    def test_obs_delta_survives_round_trip(self):
        result = RunResult(exit_code=0,
                           obs={"counters": {"vm.runs": 1}})
        clone = RunResult.from_dict(result.to_dict())
        assert clone.obs == {"counters": {"vm.runs": 1}}

    def test_tx_checks_round_trip(self):
        result = RunResult(exit_code=0, tx_checks=17)
        data = result.to_dict()
        assert data["tx_checks"] == 17
        assert RunResult.from_dict(data).tx_checks == 17
        # zero is elided from the dict (schema 3) but restores as 0
        bare = RunResult(exit_code=0).to_dict()
        assert "tx_checks" not in bare
        assert RunResult.from_dict(bare).tx_checks == 0


class TestViolationRecord:
    def test_round_trip(self):
        record = ViolationRecord(thread=1, branch_address=0x10,
                                 target_address=0x20, reason="stale",
                                 action="kill-thread", module="plugin")
        clone = ViolationRecord.from_dict(record.to_dict())
        assert clone == record


class TestFaultEvent:
    def test_round_trip(self):
        event = FaultEvent(point="dlopen.cfg", sequence=3, detail="d")
        assert FaultEvent.from_dict(event.to_dict()) == event


class TestSurvivalRecord:
    def test_round_trip_drops_none(self):
        record = SurvivalRecord(injector="bitflip-tary",
                                workload="dispatch", policy="halt",
                                seed=1, probes=5, forged=0)
        data = record.to_dict()
        assert "rolled_back" not in data       # None values filtered
        assert "obs" not in data
        clone = SurvivalRecord.from_dict(data)
        assert clone.injector == "bitflip-tary"
        assert clone.probes == 5


class TestAttackReport:
    def test_round_trip(self):
        report = AttackReport(name="rop-gadget", hijacked=False,
                              blocked=True, detail="id check")
        clone = AttackReport.from_dict(report.to_dict())
        assert (clone.name, clone.hijacked, clone.blocked,
                clone.detail) == ("rop-gadget", False, True, "id check")


class TestAppendRecord:
    def test_kinds_from_protocol(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        store.append_record(RunResult(exit_code=0), target="demo")
        store.append_record(JobResult(id="j", ok=True))
        store.append_record(SurvivalRecord(injector="i", workload="w",
                                           policy="halt", seed=0))
        store.append_record(FaultEvent(point="p", sequence=1))
        store.append_record(AttackReport(name="a", hijacked=False,
                                         blocked=True))
        kinds = [r["kind"] for r in load_records(store.path)]
        assert kinds == ["run", "job", "fault", "fault-event", "attack"]

    def test_extra_fields_merge(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        store.append_record(JobResult(id="j", ok=True), target="bzip2")
        record = load_records(store.path)[0]
        assert record["target"] == "bzip2"
        assert record["status"] == "ok"

    def test_obs_snapshot_lands_as_metrics(self, tmp_path):
        from repro import obs

        with obs.scoped(seed=0) as state:
            state.metrics.counter("c").inc()
            snap = state.metrics.snapshot()
        store = ResultStore(tmp_path / "results.jsonl")
        store.append_record(snap)
        record = load_records(store.path)[0]
        assert record["kind"] == "metrics"
        assert record["counters"] == {"c": 1}
