"""Tenant compilation: a tenant's module compiled the way churn edits it.

A tenant's module is real TinyC source (:func:`tenant_source`), one
version per churn event.  The table service itself does not compile:
:class:`~repro.service.loop.ServiceLoop` installs
:meth:`~repro.service.loop.WritesetTemplate.default` for every tenant.
What compiles tenant modules is the dlopen-churn workload of
``benchmarks/suite`` (through :func:`tenant_source`) and the
churn-compile cell of ``bench_service.py`` (through
:class:`TenantChurn`), which compares two compile paths for the
paper's §5 assumption that re-instrumentation keeps up with TxUpdate:

* **legacy** — every churn event pays a cold
  :func:`repro.build.build_program` (a throwaway session per event);
* **session** — every tenant owns a :class:`repro.build.BuildSession`
  (optionally sharing one unit cache), so a churn edit is an
  incremental single-unit rebuild spliced into the previous link.
"""

from __future__ import annotations

from typing import Optional

from repro.build import BuildResult, BuildSession, build_program

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

