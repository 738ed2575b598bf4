"""Tenant compilation: dlopen churn wired through :mod:`repro.build`.

The service loop models each tenant as a stream of dlopen/dlclose
write-sets; this module closes the loop back to the *toolchain*: a
tenant's module is real TinyC source, its write-set template is derived
from the actually-compiled program's type-matching CFG, and each churn
event re-compiles the (slightly edited) module before its dlopen — the
paper's §5 assumption that re-instrumentation keeps up with TxUpdate,
made measurable.

Two compile paths are compared by ``bench_service.py``:

* **legacy** — every churn event pays a cold
  :func:`repro.build.build_program` (a throwaway session per event);
* **session** — every tenant owns a :class:`repro.build.BuildSession`
  (optionally sharing one unit cache), so a churn edit is an
  incremental single-unit rebuild spliced into the previous link.

:class:`TenantChurn` is one tenant's compile stream;
:func:`churn_compile_latencies` drives a fleet of them and returns the
per-event latencies the benchmark cell reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.build import BuildResult, BuildSession, build_program
from repro.obs import clock
from repro.service.loop import WritesetTemplate

#: One tenant's module: a tiny library with two equivalence classes of
#: address-taken functions (``long(long)`` and ``int(int)``), a
#: dispatcher exercising both indirect-call sites, and a ``version``
#: body that churn events edit — the single dirty unit per event.
TENANT_MODULE_TEMPLATE = """
long t{tenant}_scale(long x) {{ return x * {tenant} + 1; }}
long t{tenant}_shift(long x) {{ return x + {tenant}; }}
int t{tenant}_pos(int k) {{ return k > 0; }}
int t{tenant}_neg(int k) {{ return k < 0; }}

long t{tenant}_version(void) {{ return {version}; }}

int main(void) {{
    long (*op)(long);
    int (*cmp)(int);
    if (t{tenant}_version() > 0) {{ op = t{tenant}_scale; }}
    else {{ op = t{tenant}_shift; }}
    if (op(2) > 2) {{ cmp = t{tenant}_pos; }}
    else {{ cmp = t{tenant}_neg; }}
    return cmp((int) op(1));
}}
"""


def tenant_source(tenant: int, version: int = 1) -> str:
    """The tenant's module text at one churn version."""
    return TENANT_MODULE_TEMPLATE.format(tenant=tenant, version=version)


def writeset_from_program(program) -> WritesetTemplate:
    """Derive a :class:`WritesetTemplate` from a compiled program.

    Target entries come from the CFG's Tary classes (address-taken
    function entries, re-based to offset 0), branch sites from its Bary
    classes, and the permitted check pairs from ECN equality — the
    tenant's dlopen installs exactly what its compiled module's
    type-matching CFG says it should.
    """
    from repro.cfg.generator import generate_cfg
    cfg = generate_cfg(program.module.aux)
    ecns = sorted({*cfg.tary_ecns.values(), *cfg.bary_ecns.values()})
    renumber = {ecn: index for index, ecn in enumerate(ecns)}
    base = program.module.base
    tary = tuple(sorted((addr - base, renumber[ecn])
                        for addr, ecn in cfg.tary_ecns.items()))
    bary = tuple(sorted((site, renumber[ecn])
                        for site, ecn in cfg.bary_ecns.items()))
    checks = tuple(sorted(
        (site, addr - base)
        for site, site_ecn in cfg.bary_ecns.items()
        for addr, target_ecn in cfg.tary_ecns.items()
        if site_ecn == target_ecn))
    return WritesetTemplate(tary=tary, bary=bary, checks=checks,
                            n_classes=len(ecns))


class TenantChurn:
    """One tenant's compile stream: an edit per churn event.

    ``session=None`` selects the legacy path (a cold
    :func:`build_program` per event); otherwise every event goes
    through the shared-state session and lands as a warm or
    incremental rebuild.
    """

    def __init__(self, tenant: int, arch: str = "x64",
                 cache=None, legacy: bool = False):
        self.tenant = tenant
        self.name = f"tenant{tenant}"
        self.arch = arch
        self.cache = cache
        self.session: Optional[BuildSession] = None
        if not legacy:
            self.session = BuildSession(arch=arch, mcfi=True, cache=cache)
        self._version = 0

    def churn_once(self) -> BuildResult:
        """Compile the next version of this tenant's module."""
        self._version += 1
        source = tenant_source(self.tenant, self._version)
        if self.session is None:
            return build_program({self.name: source}, arch=self.arch,
                                 cache=self.cache)
        return self.session.build({self.name: source})


def churn_compile_latencies(tenants: int, rounds: int,
                            cache=None, legacy: bool = False,
                            ) -> Dict[str, object]:
    """Per-event compile latencies for a fleet of churning tenants.

    Returns ``{"seconds": [...], "kinds": {...}}`` over
    ``tenants * rounds`` churn events, in tenant-major order.
    """
    fleet = [TenantChurn(tenant, cache=cache, legacy=legacy)
             for tenant in range(tenants)]
    seconds: List[float] = []
    kinds: Dict[str, int] = {}
    for _ in range(rounds):
        for churn in fleet:
            start = clock.now()
            result = churn.churn_once()
            seconds.append(clock.now() - start)
            kinds[result.kind] = kinds.get(result.kind, 0) + 1
    return {"seconds": seconds, "kinds": kinds}
