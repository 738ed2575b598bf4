"""Function-grain build graph: fingerprints, dirty sets, unit compiles.

A :class:`BuildGraph` is the change-detection view of one module: each
function's MIR (plus its signature, storage class, per-function
address-taken contributions and the architecture mode) hashed into a
unit fingerprint.  Comparing two graphs yields the dirty set — the only
functions whose units must be recompiled after an edit.

:func:`compile_module_units` drives the unit compiles cache-first and,
when enough units are dirty, fans them across a
:class:`repro.infra.pool.WorkerPool`.  Workers only *return* artifacts;
the parent validates each result against its expected fingerprint
before publishing anything to the cache, so a crashed or fault-injected
worker can never publish a partial unit.

Fingerprint validation proves *identity*, not *safety*: a tampering
worker could still return bytes that merely look like the unit it was
asked for.  With ``verify_units`` (the default) every pool-returned MCFI
artifact, and every MCFI artifact about to be published to the shared
cache, must additionally pass the machine-code verifier
(:func:`repro.analysis.binverify.verify_unit`) — a pool result that
fails is discarded and recompiled inline; an inline-compiled unit that
fails raises :class:`repro.errors.UnitVerificationError` (a genuine
miscompile must never be published).  Native units carry no checks for
the verifier to prove and skip it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.build.fingerprint import unit_fingerprint
from repro.build.link import ModuleUnits
from repro.build.units import UnitArtifact, compile_unit
from repro.mir import ir
from repro.tinyc.typecheck import CheckedUnit


@dataclass
class BuildGraph:
    """Per-function fingerprint view of one module, in definition order."""

    module: str
    arch: str
    fingerprints: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def of(cls, mir: ir.MirModule, checked: CheckedUnit,
           arch: str, mcfi: bool = True) -> "BuildGraph":
        graph = cls(module=mir.name, arch=arch)
        for func in mir.functions:
            meta = checked.functions[func.name]
            graph.fingerprints[func.name] = unit_fingerprint(
                func, mir.strings, arch, meta.takes, meta.uses_setjmp, mcfi)
        return graph

    def dirty_against(self, previous: Optional["BuildGraph"]) -> Set[str]:
        """Function names whose fingerprint changed (or are new)."""
        if previous is None:
            return set(self.fingerprints)
        return {name for name, fingerprint in self.fingerprints.items()
                if previous.fingerprints.get(name) != fingerprint}


def _compile_one(func: ir.MirFunction, module: str, arch: str,
                 strings: Dict[int, bytes], takes: Tuple[str, ...],
                 uses_setjmp: bool, fingerprint: str,
                 mcfi: bool) -> UnitArtifact:
    return compile_unit(func, module, arch, strings, takes, uses_setjmp,
                        fingerprint, mcfi)


def unit_verifies(artifact: UnitArtifact, arch: str, module: str) -> bool:
    """True iff the binary verifier accepts the unit artifact."""
    from repro.analysis.binverify import verify_unit
    from repro.errors import UnitVerificationError
    try:
        verify_unit(artifact, arch=arch, module=module)
    except UnitVerificationError:
        return False
    return True


def compile_module_units(mir: ir.MirModule, checked: CheckedUnit, arch: str,
                         cache=None, pool=None, parallel_threshold: int = 4,
                         verify_units: bool = True, mcfi: bool = True,
                         ) -> Tuple[ModuleUnits, BuildGraph, Dict[str, int]]:
    """Compile one module's function units (MCFI or native), cache-first.

    Dirty units fan out across ``pool`` when at least
    ``parallel_threshold`` of them miss the cache; pool failures (worker
    crash, fault injection, unpicklable result) degrade to an inline
    recompile — the build still succeeds and only parent-validated
    artifacts are ever published.  ``verify_units`` additionally runs
    the binary verifier over every pool-returned MCFI artifact and
    before every MCFI cache publish (the untrusted-toolchain trust
    boundary).
    """
    verify_units = verify_units and mcfi
    graph = BuildGraph.of(mir, checked, arch, mcfi)
    units: Dict[str, UnitArtifact] = {}
    misses: List[ir.MirFunction] = []
    for func in mir.functions:
        fingerprint = graph.fingerprints[func.name]
        cached = cache.get_unit(fingerprint) if cache is not None else None
        if cached is not None and cached.fn == func.name:
            units[func.name] = cached
        else:
            misses.append(func)

    def job_args(func: ir.MirFunction) -> tuple:
        meta = checked.functions[func.name]
        return (func, mir.name, arch, mir.strings,
                tuple(sorted(meta.takes)), meta.uses_setjmp,
                graph.fingerprints[func.name], mcfi)

    compiled: Dict[str, UnitArtifact] = {}
    pool_ok = 0
    pool_rejected = 0
    if pool is not None and len(misses) >= parallel_threshold:
        results = pool.map(_compile_one, [job_args(f) for f in misses])
        for func, result in zip(misses, results):
            artifact = result.value if result.ok else None
            if (isinstance(artifact, UnitArtifact) and artifact.code
                    and artifact.fn == func.name
                    and artifact.fingerprint ==
                    graph.fingerprints[func.name]):
                if verify_units and not unit_verifies(artifact, arch,
                                                      mir.name):
                    # Verifiable-looking but unsafe bytes from a
                    # tampering worker: drop and recompile inline.
                    pool_rejected += 1
                    continue
                compiled[func.name] = artifact
                pool_ok += 1
    for func in misses:
        if func.name not in compiled:
            compiled[func.name] = _compile_one(*job_args(func))

    for name, artifact in compiled.items():
        units[name] = artifact
        if cache is not None:
            if verify_units:
                # Publish gate: nothing lands in the shared cache
                # unverified.  An inline-compiled unit failing here is
                # a genuine miscompile and must abort the build.
                from repro.analysis.binverify import verify_unit
                verify_unit(artifact, arch=arch, module=mir.name)
            cache.put_unit(artifact.fingerprint, artifact)

    module_units = ModuleUnits(
        name=mir.name, arch=arch,
        units=[units[func.name] for func in mir.functions],
        globals=mir.globals,
        intern_refs={scope: list(refs)
                     for scope, refs in mir.intern_refs.items()},
        global_takes=tuple(sorted(checked.global_takes)))
    stats = {"units": len(mir.functions),
             "unit_hits": len(mir.functions) - len(misses),
             "unit_compiled": len(misses),
             "unit_parallel": pool_ok,
             "unit_rejected": pool_rejected}
    return module_units, graph, stats
