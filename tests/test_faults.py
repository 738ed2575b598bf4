"""The fault-injection plane: injectors, scenarios, campaign, policies.

The acceptance property for the whole PR lives here: across every
injector in the taxonomy, under the ``halt`` policy, zero forged-edge
admissions — the tables may degrade availability, escalate, or halt,
but a disallowed transfer is never admitted.
"""

import pytest

from repro.core.idencoding import (
    MAX_PARITY_ECN,
    pack_id,
    parity_ecn,
    parity_ecn_ok,
)
from repro.core.tables import IdTables, tary_index
from repro.core.transactions import UpdateLock
from repro.errors import InjectedFault
from repro.faults import (
    INJECTORS,
    POLICIES,
    TABLE_WORKLOADS,
    FaultPlane,
    NULL_PLANE,
    bit_flip_injector,
    render_survival,
    run_fault_campaign,
    run_table_scenario,
    stale_version_injector,
    table_scrubber,
)
from repro.vm.memory import TableMemory
from repro.vm.scheduler import GeneratorTask, Scheduler


class TestFaultPlane:
    def test_unarmed_points_never_fire(self):
        plane = FaultPlane(seed=1)
        for _ in range(10):
            plane.check("dlopen.update")
        assert plane.fired() == 0

    def test_armed_point_fires_once_with_skip(self):
        plane = FaultPlane(seed=1).arm("p", skip=2, count=1)
        assert not plane.should("p")
        assert not plane.should("p")
        assert plane.should("p")      # third visit
        assert not plane.should("p")  # count exhausted
        assert plane.fired("p") == 1

    def test_check_raises_injected_fault(self):
        plane = FaultPlane(seed=0).arm("x")
        with pytest.raises(InjectedFault) as err:
            plane.check("x", detail="here")
        assert err.value.point == "x"
        assert "here" in str(err.value)

    def test_probability_is_seeded(self):
        def firing_sequence(seed):
            plane = FaultPlane(seed=seed).arm("p", count=100,
                                              probability=0.5)
            return [plane.should("p") for _ in range(20)]

        assert firing_sequence(7) == firing_sequence(7)
        assert firing_sequence(7) != firing_sequence(8)

    def test_events_record_detail(self):
        plane = FaultPlane(seed=0).arm("p", count=2)
        plane.should("p", detail="first")
        plane.should("p", detail="second")
        assert [e.detail for e in plane.events] == ["first", "second"]
        assert plane.events[0].to_dict()["point"] == "p"

    def test_null_plane_is_inert_and_unarmable(self):
        NULL_PLANE.check("anything")
        assert not NULL_PLANE.should("anything")
        with pytest.raises(RuntimeError):
            NULL_PLANE.arm("anything")

    def test_count_validated(self):
        with pytest.raises(ValueError):
            FaultPlane(seed=0).arm("p", count=0)


class TestParityEcns:
    def test_round_trip_and_spacing(self):
        # Any two distinct encoded ECNs differ in >= 2 bits, so a
        # single-bit flip can never turn one live class into another.
        encoded = [parity_ecn(e) for e in range(64)]
        assert len(set(encoded)) == 64
        for i, a in enumerate(encoded):
            for b in encoded[i + 1:]:
                assert bin(a ^ b).count("1") >= 2

    def test_single_bit_flip_breaks_parity(self):
        for ecn in (0, 1, 5, 100):
            good = parity_ecn(ecn)
            assert parity_ecn_ok(good)
            for bit in range(15):
                assert not parity_ecn_ok(good ^ (1 << bit))

    def test_range_validated(self):
        with pytest.raises(ValueError):
            parity_ecn(MAX_PARITY_ECN + 1)
        with pytest.raises(ValueError):
            parity_ecn(-1)


class TestInjectors:
    def _tables(self):
        tables = IdTables(TableMemory())
        tables.install({0x1000 + 4 * i: parity_ecn(i % 3)
                        for i in range(12)},
                       {s: parity_ecn(s % 3) for s in range(4)})
        return tables

    def test_bit_flip_corrupts_distinct_entries(self):
        tables = self._tables()
        events = []
        list(bit_flip_injector(tables, seed=3, flips=4, table="tary",
                               events=events))
        assert len(events) == 4
        audit = tables.audit()
        assert len(audit["tary"]) == 4  # four distinct words corrupted
        assert len({addr for addr, _, _ in audit["tary"]}) == 4

    def test_bit_flips_are_seeded(self):
        def corrupted(seed):
            tables = self._tables()
            list(bit_flip_injector(tables, seed=seed, flips=3))
            return tuple(sorted(a for a, _, _ in
                                tables.audit()["tary"]))

        assert corrupted(1) == corrupted(1)

    def test_stale_version_forces_retry_signature(self):
        tables = self._tables()
        tables.install(dict(tables.tary_ecns), dict(tables.bary_ecns),
                       version=5)
        list(stale_version_injector(tables, seed=0, entries=2))
        stale = tables.audit()["tary"]
        assert stale
        for _, got, want in stale:
            # Same ECN half, older version half: the retry signature.
            assert got != want

    def test_scrubber_repairs_corruption(self):
        tables = self._tables()
        list(bit_flip_injector(tables, seed=3, flips=2))
        assert tables.audit()["tary"]
        counter = {}
        scrubber = table_scrubber(tables, UpdateLock(), interval=1,
                                  rounds=1, counter=counter)
        list(scrubber)
        assert counter["repairs"] == 2
        assert not tables.audit()["tary"]

    def test_scrubber_defers_to_update_lock(self):
        tables = self._tables()
        lock = UpdateLock()
        list(lock.acquire_spin("updater"))
        list(bit_flip_injector(tables, seed=3, flips=1))
        counter = {}
        scrubber = table_scrubber(tables, lock, interval=1, rounds=0,
                                  counter=counter)
        for _ in range(10):   # rounds=0 runs forever; drive it bounded
            next(scrubber)
        # The lock is held throughout: no audit may touch the tables.
        assert counter.get("audits", 0) == 0
        assert tables.audit()["tary"]  # corruption still present

    def test_scrub_is_noop_on_clean_tables(self):
        tables = self._tables()
        assert tables.scrub() == 0

    def test_sweep_repairs_corruption_and_zeroes_strays(self):
        # After a sweep the band holds what a rebuild from the trusted
        # assignment writes: tracked words repaired, forged strays in
        # untracked words zeroed.
        tables = self._tables()
        memory = tables.memory
        tracked = min(tables.tary_ecns)
        memory.write_tary(tracked, memory.read_tary(tracked) ^ 1)
        stray = max(tables.tary_ecns) + 64
        memory.write_tary(stray, 0x00000101)
        assert tables.audit()["tary"]
        assert tables.sweep() == {"repaired": 1, "strays": 1}
        assert tables.audit() == {"tary": [], "bary": []}
        assert memory.read_tary(stray) == 0

    def test_sweep_is_noop_on_clean_tables(self):
        tables = self._tables()
        before = bytes(tables.memory.tary)
        assert tables.sweep() == {"repaired": 0, "strays": 0}
        assert bytes(tables.memory.tary) == before


class TestTableScenarios:
    @pytest.mark.parametrize("injector", INJECTORS)
    def test_zero_forged_admissions_under_halt(self, injector):
        """The acceptance criterion: every injector, halt policy,
        multiple seeds and workloads — no forged edge, ever."""
        for workload in TABLE_WORKLOADS:
            for seed in (0, 1, 2):
                record = run_table_scenario(injector, workload,
                                            policy="halt", seed=seed)
                assert record.forged == 0, (
                    f"{injector}/{workload}/seed={seed} admitted "
                    f"{record.forged} forged edge(s)")
                assert record.outcome in ("survived", "degraded",
                                          "halted")

    @pytest.mark.parametrize("policy", POLICIES)
    def test_zero_forged_under_every_policy(self, policy):
        for injector in ("bitflip-tary", "stale-version"):
            record = run_table_scenario(injector, "dispatch",
                                        policy=policy, seed=1)
            assert record.forged == 0

    def test_halt_policy_escalates_on_stale_version(self):
        record = run_table_scenario("stale-version", "dispatch",
                                    policy="halt", seed=1)
        assert record.outcome == "halted"
        assert record.escalations >= 1

    def test_quarantine_policy_retires_entries(self):
        record = run_table_scenario("bitflip-bary", "dispatch",
                                    policy="quarantine", seed=1)
        assert record.outcome == "degraded"
        assert record.quarantined >= 1
        assert record.forged == 0

    def test_scrubber_repairs_mid_scenario(self):
        record = run_table_scenario("bitflip-tary", "dispatch",
                                    policy="report", seed=1, scrub=True)
        assert record.forged == 0
        assert record.repairs >= 1

    def test_records_replay_bit_for_bit(self):
        first = run_table_scenario("bitflip-tary", "returns",
                                   policy="report", seed=9)
        second = run_table_scenario("bitflip-tary", "returns",
                                    policy="report", seed=9)
        assert first.to_dict() == second.to_dict()

    def test_unknown_injector_and_policy_rejected(self):
        with pytest.raises(ValueError):
            run_table_scenario("cosmic-rays", "dispatch", "halt", 0)
        with pytest.raises(ValueError):
            run_table_scenario("bitflip-tary", "dispatch", "shrug", 0)


class TestTornUpdates:
    """Torn TxUpdate barrier: delayed or dropped, never forging."""

    @pytest.mark.parametrize("mode", ["torn-delay", "torn-drop"])
    def test_torn_barrier_never_forges(self, mode):
        for seed in range(6):
            record = run_table_scenario(mode, "dispatch",
                                        policy="halt", seed=seed)
            assert record.forged == 0
            assert record.outcome in ("survived", "degraded", "halted")


class TestFaultCampaign:
    def test_small_matrix_through_pool_and_store(self, tmp_path):
        from repro.infra.results import ResultStore

        store = ResultStore(tmp_path / "fault_results.jsonl")
        summary = run_fault_campaign(
            injectors=("bitflip-tary", "stale-version"),
            workloads=("returns",), policies=("halt",), seeds=(0,),
            load_phases=(), jobs=2, store=store)
        assert summary["cells"] == 2
        assert summary["completed"] == 2
        assert summary["forged"] == 0
        assert not summary["failures"]
        records = [r for r in store.records() if r["kind"] == "fault"]
        assert len(records) == 2
        kinds = {r["kind"] for r in store.records()}
        assert "fault-summary" in kinds

    def test_survival_report_renders(self, tmp_path):
        from repro.infra.results import ResultStore

        store = ResultStore(tmp_path / "fault_results.jsonl")
        run_fault_campaign(injectors=("bitflip-tary",),
                           workloads=("returns",), policies=("halt",),
                           seeds=(0,), load_phases=("update",),
                           jobs=1, store=store)
        text = render_survival(
            [r for r in store.records() if r["kind"] == "fault"])
        assert "forged-edge admissions: 0" in text
        assert "bitflip-tary" in text
        assert "load-update" in text
        assert "SECURITY FAILURE" not in text

    def test_report_flags_forged_records(self):
        text = render_survival([{
            "kind": "fault", "injector": "x", "workload": "w",
            "policy": "halt", "seed": 0, "outcome": "forged",
            "probes": 1, "forged": 1,
        }])
        assert "SECURITY FAILURE" in text

    def test_unknown_cells_rejected(self):
        with pytest.raises(ValueError):
            run_fault_campaign(injectors=("bogus",))
        with pytest.raises(ValueError):
            run_fault_campaign(load_phases=("bogus",))


class TestFaultsCli:
    def test_campaign_subcommand_writes_artifacts(self, tmp_path,
                                                  capsys):
        from repro.tools.faults import main

        status = main(["campaign", "--injectors", "bitflip-tary",
                       "--workloads", "returns", "--policies", "halt",
                       "--seeds", "0", "--no-load", "--jobs", "2",
                       "--results-dir", str(tmp_path)])
        assert status == 0
        out = capsys.readouterr().out
        assert "forged-edge admissions: 0" in out
        assert (tmp_path / "fault_results.jsonl").exists()
        report = (tmp_path / "fault_survival.txt").read_text()
        assert "survival matrix" in report

    def test_report_subcommand_round_trips(self, tmp_path, capsys):
        from repro.tools.faults import main

        main(["campaign", "--injectors", "stale-version",
              "--workloads", "returns", "--policies", "halt",
              "--seeds", "1", "--no-load",
              "--results-dir", str(tmp_path)])
        capsys.readouterr()
        status = main(["report", "--results-dir", str(tmp_path)])
        assert status == 0
        assert "stale-version" in capsys.readouterr().out

    def test_report_without_records_fails(self, tmp_path, capsys):
        from repro.tools.faults import main

        assert main(["report", "--results-dir", str(tmp_path)]) == 1


class TestAdversarialScheduler:
    def test_weights_bias_selection(self):
        from repro.errors import VMError

        picks = {"a": 0, "b": 0}

        def task(name):
            while True:
                picks[name] += 1
                yield

        scheduler = Scheduler(seed=0, weights={"a": 9.0, "b": 1.0})
        scheduler.add(GeneratorTask(task("a"), name="a"))
        scheduler.add(GeneratorTask(task("b"), name="b"))
        with pytest.raises(VMError):  # both tasks outlive the window
            scheduler.run(max_ticks=300)
        assert picks["a"] + picks["b"] >= 300
        assert picks["a"] > 3 * picks["b"]

    def test_schedules_replay_per_seed(self):
        def trace(weights, seed):
            order = []

            def task(name):
                for _ in range(5):
                    order.append(name)
                    yield

            scheduler = Scheduler(seed=seed, weights=weights)
            scheduler.add(GeneratorTask(task("x"), name="x"))
            scheduler.add(GeneratorTask(task("y"), name="y"))
            scheduler.run()
            return order

        # Both the unweighted and the weighted path are deterministic
        # functions of the seed ...
        assert trace(None, 123) == trace(None, 123)
        assert trace({"x": 3.0}, 123) == trace({"x": 3.0}, 123)
        # ... and different seeds interleave differently.
        assert any(trace(None, 123) != trace(None, s)
                   for s in (1, 2, 3, 4))
