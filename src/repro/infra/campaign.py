"""Campaign orchestration: fan the target×instance matrix across cores.

The glue between the registries (:mod:`repro.infra.targets`,
:mod:`repro.infra.instances`), the artifact cache
(:mod:`repro.infra.cache`), the worker pool (:mod:`repro.infra.pool`)
and the result store (:mod:`repro.infra.results`):

* :func:`build_program` — one registry target through
  :func:`repro.build.build_program` behind the program memo: every
  function unit is compiled once per (MIR, arch, flavour, toolchain)
  across *all* artifacts and invocations, and linked images are reused
  per (module sources, arch, mcfi);
* :func:`run_target` — build + execute one matrix cell, returning
  JSONL-ready records;
* :func:`run_campaign` — the full matrix through the pool;
* :func:`parallel_artifact` — per-benchmark fan-out of an entry of
  :data:`repro.experiments.ARTIFACT_TABLE`, merging results in submission
  order so the output is byte-identical to a serial run.

The process-wide cache is configured once (:func:`configure`) — from
``--cache-dir`` flags or the ``REPRO_CACHE_DIR`` environment variable —
and every compile in the process, including the ones
:func:`repro.experiments.compiled` triggers, routes through it.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence

from repro.infra.cache import ArtifactCache, CacheStats, open_cache
from repro.infra.instances import Instance, expand, instance as get_instance
from repro.infra.pool import Job, WorkerPool
from repro.infra.results import ResultStore
from repro.infra.targets import target as get_target
from repro.linker.static_linker import LinkedProgram
from repro.obs import clock

# ---------------------------------------------------------------------------
# Process-wide cache configuration
# ---------------------------------------------------------------------------

_cache_dir: Optional[str] = None
_cache_max_mb: Optional[float] = None
_cache_singleton: Optional[ArtifactCache] = None


def configure(cache_dir: Optional[str],
              max_mb: Optional[float] = None) -> None:
    """Set (or clear, with None) the process-wide artifact cache.

    ``max_mb`` bounds it: stores that push the cache over budget evict
    least-recently-used entries (``--cache-max-mb`` on the CLIs).
    """
    global _cache_dir, _cache_max_mb, _cache_singleton
    _cache_dir = str(cache_dir) if cache_dir else None
    _cache_max_mb = max_mb
    _cache_singleton = None


def default_cache() -> Optional[ArtifactCache]:
    """The configured cache (``configure()`` or ``REPRO_CACHE_DIR``),
    a per-process singleton so statistics aggregate per invocation."""
    global _cache_singleton
    cache_dir = _cache_dir or os.environ.get("REPRO_CACHE_DIR") or None
    if cache_dir is None:
        return None
    if _cache_singleton is None or \
            str(_cache_singleton.root) != str(cache_dir):
        _cache_singleton = open_cache(cache_dir, max_mb=_cache_max_mb)
    return _cache_singleton


# ---------------------------------------------------------------------------
# Cache-aware build pipeline
# ---------------------------------------------------------------------------

def _program_key(cache: ArtifactCache, target_name: str, arch: str,
                 mcfi: bool) -> str:
    """Programs (and their runs) are keyed by the target's sources."""
    return cache.program_key(arch, mcfi, get_target(target_name).sources())


def build_program(target_name: str, arch: str = "x64", mcfi: bool = True,
                  cache: Optional[ArtifactCache] = None,
                  ) -> LinkedProgram:
    """Cache-aware build of one registry target.

    With a cache, a linked image is memoized per program key and a miss
    builds through the shared unit cache (whose verify-before-publish
    gate applies); with no cache configured this is a plain cold build.
    """
    # Lazy import: repro.infra.__init__ pulls this module in, and
    # repro.build's own imports reach back into repro.infra.cache.
    from repro.build import build_program as build
    if cache is None:
        cache = default_cache()
    spec = get_target(target_name)
    if not spec.linkable:
        raise ValueError(f"target {target_name!r} is library-only")
    if cache is not None:
        key = _program_key(cache, target_name, arch, mcfi)
        program = cache.get_program(key)
        if program is not None:
            return program
    program = build(spec.sources(), arch=arch, mcfi=mcfi, with_libc=False,
                    cache=cache).program
    if cache is not None:
        cache.put_program(key, program)
    return program


def run_result(target_name: str, arch: str = "x64", mcfi: bool = True,
               cache: Optional[ArtifactCache] = None,
               ) -> "RunResult":
    """Build and execute one target, memoizing the deterministic
    outcome.

    The SimVM interpreter is deterministic, so a plain run's cycles,
    instructions and output are a pure function of the linked image;
    with a cache configured, a warm campaign replays stored outcomes
    instead of re-simulating millions of model cycles.  Faulting runs
    are never memoized.
    """
    from repro.runtime.runtime import Runtime, RunResult  # noqa: F811
    if cache is None:
        cache = default_cache()
    if cache is None:
        return Runtime(build_program(target_name, arch=arch,
                                     mcfi=mcfi)).run()
    run_key = cache.run_key(_program_key(cache, target_name, arch, mcfi))
    cached = cache.get_run(run_key)
    if cached is not None:
        return cached
    result = Runtime(build_program(target_name, arch=arch, mcfi=mcfi,
                                   cache=cache)).run()
    # Cache the result without its obs snapshot: a replayed run did no
    # work, so a stale snapshot would misattribute metrics to it.
    obs_snapshot, result.obs = result.obs, None
    cache.put_run(run_key, result)
    result.obs = obs_snapshot
    return result


# ---------------------------------------------------------------------------
# One matrix cell
# ---------------------------------------------------------------------------

def run_target(target_name: str, instance_name: str,
               cache: Optional[ArtifactCache] = None,
               execute: bool = True) -> List[Dict[str, Any]]:
    """Build (and, for executable instances, run) one matrix cell.

    Returns JSONL-ready records: a ``build`` record with the cache
    delta, then a ``run``, ``cfgstats`` or ``policy`` record depending
    on the instance.
    """
    inst = get_instance(instance_name)
    if cache is None:
        cache = default_cache()
    before = cache.stats.snapshot() if cache is not None else CacheStats()
    start = clock.now()
    program = build_program(target_name, arch=inst.arch, mcfi=inst.mcfi,
                            cache=cache)
    build_seconds = clock.now() - start
    delta = (cache.stats.delta(before) if cache is not None
             else CacheStats())
    records: List[Dict[str, Any]] = [{
        "kind": "build", "target": target_name, "instance": inst.name,
        "arch": inst.arch, "mcfi": inst.mcfi,
        "seconds": round(build_seconds, 6), **delta.as_dict(),
    }]
    if inst.policy == "native" or inst.policy == "mcfi":
        if execute:
            start = clock.now()
            result = run_result(target_name, arch=inst.arch,
                                mcfi=inst.mcfi, cache=cache)
            fields = result.to_dict()
            fields.pop("kind", None)
            fields["output"] = fields["output"].strip()
            records.append({
                "kind": "run", "target": target_name,
                "instance": inst.name, "arch": inst.arch,
                "mcfi": inst.mcfi,
                "seconds": round(clock.now() - start, 6),
                **fields,
            })
        if inst.mcfi:
            from repro.cfg.generator import generate_cfg
            cfg = generate_cfg(program.module.aux)
            records.append({
                "kind": "cfgstats", "target": target_name,
                "instance": inst.name, "arch": inst.arch,
                **cfg.stats(),
            })
    else:
        records.append(_policy_record(target_name, inst, program))
    return records


#: The Sec. 8.3 AIR policy each analysis instance judges a build under.
_AIR_POLICY = {"classic-cfi": "classic-CFI", "bincfi": "binCFI",
               "nacl": "chunk16"}


def _policy_record(target_name: str, inst: Instance,
                   program: LinkedProgram) -> Dict[str, Any]:
    """Judge an MCFI build under a baseline policy (AIR metric)."""
    # Lazy import: repro.experiments is heavy, and every workload
    # module loads this one.
    from repro.experiments import program_air
    policy = _AIR_POLICY[inst.policy]
    return {"kind": "policy", "target": target_name,
            "instance": inst.name, "arch": inst.arch,
            "policy": policy, "air": program_air(program, [policy])[policy]}


# ---------------------------------------------------------------------------
# The full matrix
# ---------------------------------------------------------------------------

def run_campaign(target_names: Sequence[str],
                 instance_names: Sequence[str],
                 jobs: int = 1,
                 cache_dir: Optional[str] = None,
                 store: Optional[ResultStore] = None,
                 execute: bool = True,
                 timeout: Optional[float] = None,
                 retries: int = 1) -> Dict[str, Any]:
    """Fan ``targets × instances`` across ``jobs`` workers.

    Every cell's records land in ``store`` (if given); the returned
    summary carries wall time, failure count and the aggregated cache
    statistics, which is where a warm cache shows up as a >=90% hit
    rate and a smaller wall time.
    """
    if cache_dir is not None:
        configure(cache_dir)
    instances = expand(list(instance_names))
    cells = [(t, i.name) for t in target_names for i in instances]
    start = clock.now()
    # Group jobs by target so a target whose every cell fails trips the
    # breaker instead of timing out once per instance.
    pool = WorkerPool(workers=max(1, jobs), timeout=timeout,
                      retries=retries, breaker_threshold=3)
    outcomes = pool.run([
        Job(fn=run_target, args=(t, i), kwargs={"execute": execute},
            id=f"{t}/{i}", group=t)
        for t, i in cells])
    wall = clock.now() - start
    stats = CacheStats()
    failures: List[str] = []
    for (t, i), outcome in zip(cells, outcomes):
        if outcome.ok:
            for record in outcome.value:
                stats.hits += record.get("cache_hits", 0)
                stats.misses += record.get("cache_misses", 0)
                stats.evictions += record.get("cache_evictions", 0)
                if record.get("attempts") is None and outcome.attempts:
                    record["attempts"] = outcome.attempts
                if store is not None:
                    store.append(**record)
        else:
            failures.append(outcome.id)
            if store is not None:
                store.append_job(outcome, target=t, instance=i)
    summary = {
        "kind": "summary", "cells": len(cells), "jobs": jobs,
        "wall_seconds": round(wall, 3), "failures": failures,
        **stats.as_dict(),
    }
    if store is not None:
        store.append(**summary)
    return summary


# ---------------------------------------------------------------------------
# Parallel artifact computation (the repro.tools.spec fast path)
# ---------------------------------------------------------------------------

def _artifact_job(artifact: str, name: str,
                  archs: Sequence[str]) -> Dict[str, Any]:
    """Worker body: one benchmark's slice of one artifact."""
    from repro.experiments import ARTIFACT_TABLE
    cache = default_cache()
    before = cache.stats.snapshot() if cache is not None else None
    start = clock.now()
    result = ARTIFACT_TABLE[artifact].compute([name], tuple(archs))
    delta = (cache.stats.delta(before).as_dict()
             if cache is not None else {})
    return {"result": result,
            "seconds": round(clock.now() - start, 6),
            "cache": delta}


def parallel_artifact(artifact: str, names: Sequence[str],
                      archs: Sequence[str] = ("x64",), jobs: int = 2,
                      store: Optional[ResultStore] = None,
                      timeout: Optional[float] = None,
                      retries: int = 1) -> Dict[Any, Any]:
    """Compute one artifact with one pool job per benchmark.

    Merging follows the submission (benchmark) order, so the resulting
    mapping iterates exactly like the serial ``compute`` call and
    renders byte-identically.
    """
    from repro.experiments import ARTIFACT_TABLE
    if not ARTIFACT_TABLE[artifact].per_benchmark:
        raise ValueError(f"artifact {artifact!r} cannot be parallelized")
    pool = WorkerPool(workers=max(1, jobs), timeout=timeout,
                      retries=retries)
    outcomes = pool.run([
        Job(fn=_artifact_job, args=(artifact, name, tuple(archs)),
            id=f"{artifact}/{name}")
        for name in names])
    merged: Dict[Any, Any] = {}
    errors: List[str] = []
    for name, outcome in zip(names, outcomes):
        if not outcome.ok:
            errors.append(f"{outcome.id}: {outcome.error}")
            if store is not None:
                store.append_job(outcome, artifact=artifact,
                                 benchmark=name)
            continue
        payload = outcome.value
        merged.update(payload["result"])
        if store is not None:
            store.append("artifact", artifact=artifact, benchmark=name,
                         seconds=payload["seconds"],
                         attempts=outcome.attempts, **payload["cache"])
    if errors:
        raise RuntimeError(
            f"{len(errors)} {artifact} job(s) failed:\n  "
            + "\n  ".join(errors))
    return merged
