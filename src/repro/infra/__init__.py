"""``repro.infra`` — parallel experiment-orchestration subsystem.

The campaign runner for the paper's SPEC-shaped evaluation, modeled on
the instrumentation-infra framework: target×instance registries, a
forked worker pool with per-job timeouts and bounded retries, a
content-addressed artifact cache for build units, linked images and
run outcomes, and a structured JSONL result store with reporters.

Quickstart (see ``docs/INFRA.md``)::

    python -m repro.tools.infra build --jobs 4 --cache-dir .cache/infra
    python -m repro.tools.infra run   --jobs 4 --cache-dir .cache/infra
    python -m repro.tools.infra report --cache-dir .cache/infra
"""

from repro.infra.breaker import (CLOSED, HALF_OPEN, OPEN,
                                 CircuitBreaker)
from repro.infra.cache import (ArtifactCache, CacheStats, open_cache,
                               source_digest)
from repro.infra.campaign import (build_program, configure,
                                  default_cache, parallel_artifact,
                                  run_campaign, run_target,
                                  PARALLEL_ARTIFACTS)
from repro.infra.instances import (ARCHS, INSTANCES, Instance, expand,
                                   instance)
from repro.infra.pool import Job, JobResult, WorkerPool
from repro.infra.results import (ResultStore, load_records, regenerate,
                                 render_fig5, render_summary,
                                 render_table3, summarize)
from repro.infra.targets import TARGETS, Target, target

__all__ = [
    "ARCHS", "ArtifactCache", "CLOSED", "CacheStats", "CircuitBreaker",
    "HALF_OPEN",
    "INSTANCES", "Instance", "Job", "JobResult", "OPEN",
    "PARALLEL_ARTIFACTS",
    "ResultStore", "TARGETS", "Target", "WorkerPool",
    "build_program", "configure", "default_cache",
    "expand", "instance", "load_records", "open_cache",
    "parallel_artifact", "regenerate", "render_fig5", "render_summary",
    "render_table3", "run_campaign", "run_target", "source_digest",
    "summarize", "target",
]
