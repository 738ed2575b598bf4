"""Named benchmark sets: registration, resolution, determinism.

A set is the no-cherry-picking unit for corpus runs — a run must
report every member, pass or fail.  These tests pin the registry
semantics; the end-to-end "every member reported" property is in
``test_corpus_harness.py``.
"""

import dataclasses

import pytest

from repro.workloads.spec import BENCHMARKS, BenchmarkSet, \
    benchmark_set, register_set
from repro.workloads.spec import _SETS


class TestRegistry:
    def test_builtin_sets_registered(self):
        for name in ("fixed12", "gen-smoke", "gen-deep"):
            assert benchmark_set(name).name == name

    def test_fixed12_members_are_the_benchmarks(self):
        spec = benchmark_set("fixed12")
        assert spec.kind == "fixed"
        assert spec.members == tuple(BENCHMARKS)

    def test_gen_smoke_is_quick_with_pinned_seeds(self):
        spec = benchmark_set("gen-smoke")
        assert spec.kind == "generated"
        assert spec.quick
        assert spec.seeds == tuple(range(1000, 1020))
        assert spec.members == tuple(f"gen{s}"
                                     for s in range(1000, 1020))

    def test_gen_deep_covers_500_seeds(self):
        spec = benchmark_set("gen-deep")
        assert len(spec.members) >= 500
        assert not spec.quick
        assert len(set(spec.members)) == len(spec.members)

    def test_unknown_set_raises_with_known_names(self):
        with pytest.raises(KeyError, match="gen-smoke"):
            benchmark_set("no-such-set")

    def test_reregistration_is_idempotent(self):
        spec = benchmark_set("gen-smoke")
        assert register_set(dataclasses.replace(spec)) is spec

    def test_conflicting_reregistration_rejected(self):
        spec = benchmark_set("gen-smoke")
        clash = dataclasses.replace(
            spec, members=spec.members[:-1] + ("gen9999",),
            seeds=spec.seeds[:-1] + (9999,))
        with pytest.raises(ValueError, match="already registered"):
            register_set(clash)

    def test_register_and_resolve_roundtrip(self):
        name = "test-tmp-set"
        try:
            spec = register_set(BenchmarkSet(
                name=name, description="scratch", kind="generated",
                members=("gen7", "gen8"), seeds=(7, 8), quick=True))
            assert benchmark_set(name) is spec
        finally:
            _SETS.pop(name, None)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            BenchmarkSet(name="x", description="", kind="mystery",
                         members=("a",))

    def test_empty_members_rejected(self):
        with pytest.raises(ValueError, match="no members"):
            BenchmarkSet(name="x", description="", kind="fixed",
                         members=())

    def test_duplicate_members_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            BenchmarkSet(name="x", description="", kind="fixed",
                         members=("a", "a"))

    def test_seed_member_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            BenchmarkSet(name="x", description="", kind="generated",
                         members=("gen1", "gen2"), seeds=(1,))

    def test_sets_are_immutable(self):
        spec = benchmark_set("fixed12")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.members = ()
