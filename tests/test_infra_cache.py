"""Correctness of the content-addressed artifact cache.

The contract under test: identical (source, config) hits; any change
to source, architecture mode or entry schema misses; and a corrupted or
misplaced entry is evicted and degrades to a miss instead of being
served.
"""

import pytest

from repro.build.graph import compile_module_units
from repro.infra.cache import (ArtifactCache, CacheStats, open_cache,
                               source_digest)
from repro.mir.lowering import lower_unit
from repro.toolchain import frontend

SOURCE = """
    long twice(long x) { return 2 * x; }
    int main(void) { print_int(twice(21)); return 0; }
"""
EDITED_SOURCE = SOURCE.replace("2 * x", "x + x")


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


def program_key(cache, source=SOURCE, arch="x64", mcfi=True):
    return cache.program_key(arch, mcfi, {"unit": source})


def units(source=SOURCE, arch="x64"):
    """The module's function units and their fingerprints by name."""
    checked = frontend(source, name="unit")
    mir = lower_unit(checked)
    module_units, _ = compile_module_units(mir, checked, arch)
    return module_units.units, {unit.fn: unit.fingerprint
                                for unit in module_units.units}


@pytest.fixture()
def unit_x64():
    return units()[0][0]


class TestKeys:
    def test_hit_on_identical_source_and_config(self, cache):
        assert program_key(cache) == program_key(cache)

    def test_miss_on_source_edit(self, cache):
        assert program_key(cache) != program_key(cache, EDITED_SOURCE)

    def test_miss_on_arch_flip(self, cache):
        assert program_key(cache) != program_key(cache, arch="x32")

    def test_program_key_tracks_modules_and_policy(self, cache):
        base = program_key(cache)
        assert base != program_key(cache, mcfi=False)
        assert base != cache.program_key("x64", True, {"other": SOURCE})
        assert base != cache.program_key(
            "x64", True, {"unit": SOURCE, "libc": SOURCE})

    def test_source_digest_stable(self):
        assert source_digest(SOURCE) == source_digest(SOURCE)
        assert source_digest(SOURCE) != source_digest(EDITED_SOURCE)


class TestObjectRoundTrip:
    """Compiled code is cached as function units keyed by fingerprint."""

    def test_store_then_hit(self, cache, unit_x64):
        key = unit_x64.fingerprint
        assert cache.get_unit(key) is None  # cold: miss
        cache.put_unit(key, unit_x64)
        loaded = cache.get_unit(key)
        assert loaded is not None
        assert loaded.code == unit_x64.code
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_arch_flip_is_a_miss(self, cache, unit_x64):
        cache.put_unit(unit_x64.fingerprint, unit_x64)
        _, fingerprints32 = units(arch="x32")
        assert fingerprints32[unit_x64.fn] != unit_x64.fingerprint
        assert cache.get_unit(fingerprints32[unit_x64.fn]) is None

    def test_source_edit_is_a_miss(self, cache, unit_x64):
        cache.put_unit(unit_x64.fingerprint, unit_x64)
        _, edited = units(EDITED_SOURCE)
        assert cache.get_unit(edited[unit_x64.fn]) is None

    def test_cross_arch_entry_never_served(self, cache, unit_x64):
        """An x64 unit planted under its x32 key (torn cache dir,
        manual tampering) is rejected by its own fingerprint and
        evicted."""
        _, fingerprints32 = units(arch="x32")
        key32 = fingerprints32[unit_x64.fn]
        cache.put_unit(key32, unit_x64)  # wrong: x64 unit at x32 key
        assert cache.get_unit(key32) is None
        assert cache.stats.evictions == 1

    def test_corrupted_entry_evicted(self, cache, unit_x64):
        key = unit_x64.fingerprint
        path = cache.put_unit(key, unit_x64)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert cache.get_unit(key) is None
        assert cache.stats.evictions == 1
        assert not path.exists()
        # and the slot is reusable
        cache.put_unit(key, unit_x64)
        assert cache.get_unit(key) is not None

    def test_stale_format_version_evicted(self, cache, unit_x64):
        """An entry whose payload is not a unit (an older schema's
        artifact at a colliding key) is rejected and evicted."""
        key = unit_x64.fingerprint
        path = cache.put_unit(key, {"fn": unit_x64.fn, "schema": 0})
        assert cache.get_unit(key) is None
        assert cache.stats.evictions == 1
        assert not path.exists()


class TestProgramAndRunEntries:
    def test_program_round_trip_and_corruption(self, cache):
        from repro.infra.campaign import build_program
        from repro.infra.targets import target
        program = build_program("libquantum", "x64", True, cache=cache)
        key = cache.program_key("x64", True, target("libquantum").sources())
        fetched = cache.get_program(key)
        assert fetched is not None
        assert bytes(fetched.module.code) == bytes(program.module.code)
        path = cache._program_path(key)
        blob = bytearray(path.read_bytes())
        blob[10] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert cache.get_program(key) is None
        assert not path.exists()

    def test_faulting_run_never_memoized(self, cache):
        from repro.runtime.runtime import RunResult
        bad = RunResult(fault=RuntimeError("boom"))
        assert cache.put_run(cache.run_key("k"), bad) is None
        assert cache.get_run(cache.run_key("k")) is None

    def test_ok_run_round_trip(self, cache):
        from repro.runtime.runtime import RunResult
        good = RunResult(exit_code=0, output=b"checksum 1", cycles=123,
                         instructions=45)
        key = cache.run_key("prog-key")
        cache.put_run(key, good)
        fetched = cache.get_run(key)
        assert fetched.cycles == 123 and fetched.output == b"checksum 1"

    def test_run_key_depends_on_program_and_params(self, cache):
        assert cache.run_key("a") != cache.run_key("b")
        assert cache.run_key("a", seed=1) != cache.run_key("a", seed=2)


class TestStats:
    def test_hit_rate_and_delta(self):
        stats = CacheStats(hits=9, misses=1)
        assert stats.hit_rate == 0.9
        later = CacheStats(hits=12, misses=2)
        delta = later.delta(stats)
        assert delta.hits == 3 and delta.misses == 1

    def test_open_cache_none_passthrough(self, tmp_path):
        assert open_cache(None) is None
        assert open_cache(tmp_path / "c") is not None

    def test_entry_count(self, cache, unit_x64):
        cache.put_unit(unit_x64.fingerprint, unit_x64)
        counts = cache.entry_count()
        assert counts == {"programs": 0, "runs": 0, "units": 1}
