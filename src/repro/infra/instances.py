"""Instance registry: the policy/arch configurations of the matrix.

An *instance* (instrumentation-infra vocabulary) is one way of building
or judging a target.  Executable instances produce a runnable image —
``native`` (uninstrumented baseline) and ``mcfi`` (full check
transactions), each in the two architecture modes the paper evaluates
(x86-32-shaped ``x32``, x86-64-shaped ``x64`` with tail-call
optimization).  Analysis instances reuse the MCFI build but judge it
under a *different CFI policy* from :mod:`repro.baselines.policies`
(classic CFI, binCFI/CCFIR-style, NaCl-style chunking) — the
policy×benchmark comparison grid of the Burow et al. CFI survey.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

ARCHS = ("x32", "x64")


@dataclass(frozen=True)
class Instance:
    """One build/evaluation configuration."""

    name: str
    arch: str
    #: whether the image carries MCFI instrumentation
    mcfi: bool
    #: "native", "mcfi", or a baseline policy judged on the mcfi build
    policy: str

    @property
    def executable(self) -> bool:
        """Analysis-only instances are judged, not run."""
        return self.policy in ("native", "mcfi")


def _registry() -> Dict[str, Instance]:
    out: Dict[str, Instance] = {}
    for arch in ARCHS:
        out[f"native-{arch}"] = Instance(
            name=f"native-{arch}", arch=arch, mcfi=False, policy="native")
        out[f"mcfi-{arch}"] = Instance(
            name=f"mcfi-{arch}", arch=arch, mcfi=True, policy="mcfi")
        for policy in ("classic-cfi", "bincfi", "nacl"):
            out[f"{policy}-{arch}"] = Instance(
                name=f"{policy}-{arch}", arch=arch, mcfi=True,
                policy=policy)
    return out


INSTANCES: Dict[str, Instance] = _registry()


def instance(name: str) -> Instance:
    try:
        return INSTANCES[name]
    except KeyError:
        raise KeyError(
            f"unknown instance {name!r}; known: "
            f"{', '.join(sorted(INSTANCES))}") from None


def expand(names: Sequence[str]) -> List[Instance]:
    """Resolve instance names; bare policy names get every arch."""
    out: List[Instance] = []
    for name in names:
        if name in INSTANCES:
            out.append(INSTANCES[name])
        elif any(f"{name}-{arch}" in INSTANCES for arch in ARCHS):
            out.extend(INSTANCES[f"{name}-{arch}"] for arch in ARCHS
                       if f"{name}-{arch}" in INSTANCES)
        else:
            instance(name)  # raises with the known-instances message
    return out
