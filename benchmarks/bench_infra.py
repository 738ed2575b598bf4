"""Infra artifact cache — cold build vs warm rebuild of the campaign.

Times a cold ``build_program`` sweep (compile + instrument + link every
module) against a warm sweep through the same cache, for the default
instances over the benchmark subset.  The claim under test is the
"instrument once, reuse across programs" economics of the unit and
program caches: the warm pass must be all hits and never recompile.

Assertions are on cache statistics, not wall time: timing varies with
load, but hits/misses are deterministic.
"""

import tempfile
import time
from pathlib import Path

from benchmarks.conftest import selected_benchmarks, write_result
from repro.infra.cache import ArtifactCache
from repro.infra.campaign import build_program

ARCHS = ("x64",)
MCFI = (False, True)


def _sweep(cache):
    for name in selected_benchmarks():
        for arch in ARCHS:
            for mcfi in MCFI:
                build_program(name, arch, mcfi, cache=cache)


def test_infra_cache_warm_rebuild(benchmark):
    with tempfile.TemporaryDirectory() as tmp:
        cache = ArtifactCache(Path(tmp) / "cache")
        _sweep(cache)  # cold: populate
        cold = cache.stats.snapshot()
        assert cold.misses > 0 and cold.stores > 0

        def warm():
            _sweep(cache)

        benchmark.pedantic(warm, rounds=1, iterations=1)
        delta = cache.stats.delta(cold)
        assert delta.misses == 0
        assert delta.hits >= len(selected_benchmarks()) * len(MCFI)

        counts = cache.entry_count()
        lines = [
            "infra artifact cache, "
            f"{len(selected_benchmarks())} benchmarks x "
            f"{{native, mcfi}} x {ARCHS}",
            f"cold sweep: {cold.hits} hits / {cold.misses} misses / "
            f"{cold.stores} stores",
            f"warm sweep: {delta.hits} hits / {delta.misses} misses "
            f"(hit rate {delta.hit_rate:.0%})",
            f"entries: {counts['units']} units, "
            f"{counts['programs']} programs",
        ]
        write_result("infra_cache", "\n".join(lines))


def test_unit_grain_cache_and_pool(benchmark):
    """Function-grain ``repro.build`` economics under the campaign lens:
    a second *cold* build in a fresh session recompiles nothing (all
    unit hits)."""
    from repro.build import build_program as unit_build
    from repro.workloads.spec import workload

    name = "gcc"
    source = workload(name).source

    def cell():
        with tempfile.TemporaryDirectory() as tmp:
            cache = ArtifactCache(Path(tmp) / "cache")
            start = time.perf_counter()
            first = unit_build({name: source}, cache=cache)
            cold_s = time.perf_counter() - start
            start = time.perf_counter()
            second = unit_build({name: source}, cache=cache)
            hit_s = time.perf_counter() - start
            return first, second, cold_s, hit_s

    first, second, cold_s, hit_s = benchmark.pedantic(
        cell, rounds=1, iterations=1)
    assert second.stats["unit_hits"] == second.stats["units"]
    assert second.stats["unit_compiled"] == 0
    lines = [
        f"unit-grain build cache, workload {name} "
        f"({first.stats['units']} units)",
        f"cold build (empty cache):   {cold_s * 1000:8.2f} ms, "
        f"{first.stats['unit_compiled']} units compiled",
        f"cold build (unit hits):     {hit_s * 1000:8.2f} ms, "
        f"{second.stats['unit_hits']} cache hits, 0 compiled",
    ]
    write_result("infra_units", "\n".join(lines))
