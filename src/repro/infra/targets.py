"""Target registry: what a campaign can build and run.

Modeled on instrumentation-infra's ``Target`` abstraction: a target
names a buildable thing — here the twelve SPEC-shaped workloads plus
the shared simlibc library module.  Workload targets link against libc,
whose function units are built, cached and shared exactly once per
architecture across the whole campaign — the paper's
instrument-once-reuse-anywhere property at campaign scale; the libc
target itself is library-only (no entry point) and cannot be linked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.workloads.spec import BENCHMARKS, workload

LIBC_MODULE = "libc"


@dataclass(frozen=True)
class Target:
    """One buildable unit of the campaign matrix."""

    name: str
    #: module names in link order (workload first, then libraries)
    modules: Tuple[str, ...]
    #: linkable targets produce an executable image; library-only
    #: targets only contribute modules to other targets' links
    linkable: bool = True

    def sources(self) -> Dict[str, str]:
        """Module name -> TinyC source, in link order."""
        out: Dict[str, str] = {}
        for module_name in self.modules:
            out[module_name] = module_source(module_name)
        return out


def module_source(module_name: str) -> str:
    """Source text of one module (workload kernel or simlibc)."""
    if module_name == LIBC_MODULE:
        from repro.workloads.libc import LIBC_SOURCE
        return LIBC_SOURCE
    return workload(module_name).source


def _registry() -> Dict[str, Target]:
    targets = {name: Target(name=name, modules=(name, LIBC_MODULE))
               for name in BENCHMARKS}
    targets[LIBC_MODULE] = Target(name=LIBC_MODULE,
                                  modules=(LIBC_MODULE,), linkable=False)
    return targets


TARGETS: Dict[str, Target] = _registry()


def target(name: str) -> Target:
    try:
        return TARGETS[name]
    except KeyError:
        raise KeyError(
            f"unknown target {name!r}; known: {', '.join(sorted(TARGETS))}"
        ) from None

