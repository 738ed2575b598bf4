"""Cache-first compiles of one module's function units.

Each function's MIR (plus its signature, storage class, per-function
address-taken contributions and the architecture mode) hashes into a
unit fingerprint (:func:`repro.build.fingerprint.unit_fingerprint`),
which the unit carries as :attr:`UnitArtifact.fingerprint`: it is the
unit cache's key and what an incremental rebuild compares.

:func:`compile_module_units` drives the unit compiles cache-first; every
miss is compiled in process by :func:`repro.build.units.compile_unit`.
Before an MCFI unit is published to the shared cache it must pass the
machine-code verifier (:func:`repro.analysis.binverify.verify_unit`):
a unit that fails raises :class:`repro.errors.UnitVerificationError`,
since a genuine miscompile must never be published.  Native units
carry no checks for the verifier to prove and skip it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.build.fingerprint import unit_fingerprint
from repro.build.link import ModuleUnits
from repro.build.units import UnitArtifact, compile_unit
from repro.mir import ir
from repro.tinyc.typecheck import CheckedUnit


def compile_module_units(mir: ir.MirModule, checked: CheckedUnit, arch: str,
                         cache=None, mcfi: bool = True,
                         ) -> Tuple[ModuleUnits, Dict[str, int]]:
    """Compile one module's function units (MCFI or native), cache-first.

    Every cache miss compiles in process.  With a ``cache``, each MCFI
    unit passes the binary verifier before it is published (the
    untrusted-toolchain trust boundary).
    """
    units: List[UnitArtifact] = []
    compiled = 0
    for func in mir.functions:
        meta = checked.functions[func.name]
        fingerprint = unit_fingerprint(func, mir.strings, arch, meta.takes,
                                       meta.uses_setjmp, mcfi)
        cached = cache.get_unit(fingerprint) if cache is not None else None
        if cached is not None and cached.fn == func.name:
            units.append(cached)
            continue
        artifact = compile_unit(func, mir.name, arch, mir.strings,
                                tuple(sorted(meta.takes)), meta.uses_setjmp,
                                fingerprint, mcfi)
        units.append(artifact)
        compiled += 1
        if cache is not None:
            if mcfi:
                # Publish gate: nothing lands in the shared cache
                # unverified.
                from repro.analysis.binverify import verify_unit
                verify_unit(artifact, arch=arch, module=mir.name)
            cache.put_unit(fingerprint, artifact)

    module_units = ModuleUnits(
        name=mir.name, arch=arch, units=units,
        globals=mir.globals,
        intern_refs={scope: list(refs)
                     for scope, refs in mir.intern_refs.items()},
        global_takes=tuple(sorted(checked.global_takes)))
    stats = {"units": len(mir.functions),
             "unit_hits": len(mir.functions) - compiled,
             "unit_compiled": compiled}
    return module_units, stats
