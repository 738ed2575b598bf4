"""``repro.service`` — the multi-tenant CFI table service.

The paper's runtime serves exactly one process: a single Bary/Tary
table pair, one global update lock, one dlopen at a time.  This
subsystem turns that into a *table service* shared by many concurrent
tenants:

* :mod:`repro.service.shards` — :class:`ShardedIdTables`, the Bary/Tary
  tables partitioned by address range into shards, each with its own
  version counter and update lock, so updates to disjoint shards never
  serialize against each other;
* :mod:`repro.service.coalescer` — :class:`UpdateCoalescer`, a bounded
  queue of dlopen/dlclose write-sets that commits **one** batched
  update transaction per shard per round, with backpressure and
  snapshot rollback on partial failure;
* :mod:`repro.service.loop` — :class:`ServiceLoop`, the one
  cooperative (seeded, deterministic, thread-free) admission loop that
  runs many tenants — each modeled on a :mod:`repro.infra` instance —
  issuing dlopen/dlclose churn and Fig.-4 check-transaction load
  against the shared shards.  Given a :class:`HealthPolicy` it also
  runs the self-healing plane (parity-spaced IDs, quarantine and
  journal-driven recovery, forbidden-pair checks, request retries and
  deadlines) and returns a :class:`ResilienceReport`; with or without
  one it co-schedules the bit-flip and stale-version chaos storms it
  is given;
* :mod:`repro.service.health` — :class:`ShardHealthMonitor`, the
  per-shard circuit breakers that policy drives;
* :mod:`repro.service.chaos` — the seeded chaos campaign: one cell
  runs the loop with and without a policy under the same faults.

``python -m repro service`` and ``benchmarks/bench_service.py`` drive
the loop at 10/100/1000 tenants and compare the sharded/batched path
against the paper's global-lock baseline.  See ``docs/SERVICE.md`` and
``docs/RESILIENCE.md``.
"""

from repro.service.coalescer import (  # noqa: F401
    UpdateCoalescer,
    UpdateRequest,
)
from repro.service.health import (  # noqa: F401
    HealthPolicy,
    ShardHealthMonitor,
)
from repro.service.loop import (  # noqa: F401
    ParityWritesetTemplate,
    ResilienceReport,
    ServiceLoop,
    ServiceReport,
    TenantSpec,
    WritesetTemplate,
)
from repro.service.shards import ShardedIdTables, TableShard  # noqa: F401
from repro.service.tenancy import TenantChurn, tenant_source  # noqa: F401

__all__ = [
    "ShardedIdTables", "TableShard",
    "UpdateCoalescer", "UpdateRequest",
    "ServiceLoop", "ServiceReport", "TenantSpec", "WritesetTemplate",
    "HealthPolicy", "ShardHealthMonitor",
    "ParityWritesetTemplate", "ResilienceReport",
    "TenantChurn", "tenant_source",
]
