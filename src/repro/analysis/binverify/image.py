"""What the binary verifier sees: an :class:`ImageSpec`.

Both verification grains — a fully linked :class:`McfiModule` and a
single relocatable :class:`~repro.build.units.UnitArtifact` — reduce to
the same shape: bytes, code ranges, reachability roots, declared
indirect-branch targets, and the Bary immediate fields the loader will
patch.  The analysis itself (:mod:`repro.analysis.binverify.passes`)
never looks at anything else, which is what lets one abstract
interpreter gate both the build cache and ``dlopen``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from repro.build.units import UnitArtifact
from repro.module.module import McfiModule, code_ranges


@dataclass
class ImageSpec:
    """One verifiable image plus its trusted auxiliary facts.

    ``roots`` are the addresses control can legally enter at: function
    entries, return sites, setjmp resumes, switch targets, PLT stubs.
    Under CFI, every runtime indirect-branch target has a Tary entry
    and every Tary entry comes from this set, so code unreachable from
    the roots (alignment padding, dead blocks) cannot execute — the
    properties are proved over the reachable portion while disassembly
    stays complete.
    """

    name: str
    arch: str
    base: int
    code: bytes
    #: absolute ``[start, end)`` instruction ranges (jump tables excluded)
    code_ranges: List[Tuple[int, int]]
    roots: FrozenSet[int]
    #: declared indirect-branch targets (must be 4-aligned boundaries)
    aux_targets: List[int]
    #: every declared label address (legal direct-branch landing spots)
    label_addrs: FrozenSet[int]
    #: absolute addresses of the 4-byte Bary immediates the loader patches
    bary_fields: List[int]
    #: declared check-transaction (branch-site) count
    n_sites: int
    #: sorted (entry, name) pairs for diagnostic attribution
    functions: List[Tuple[int, str]] = field(default_factory=list)
    #: absolute addresses of unresolved rel32 fields (units only; the
    #: holes assemble to 0 and are skipped by target checks)
    rel32_holes: FrozenSet[int] = frozenset()
    #: True for a single pre-link unit (cross-unit edges unresolved)
    partial: bool = False
    #: False when the image's final placement alignment is unknown
    #: (a unit whose lead alignment is not a multiple of 4), in which
    #: case 4-alignment is left to the post-link module pass
    alignment_known: bool = True

    @property
    def limit(self) -> int:
        return self.base + len(self.code)

    def contains(self, address: int) -> bool:
        return self.base <= address < self.limit

    def function_at(self, address: int) -> str:
        """Name of the function whose entry most closely precedes
        ``address`` (best-effort attribution for diagnostics)."""
        if not self.functions:
            return self.name
        entries = [entry for entry, _ in self.functions]
        index = bisect.bisect_right(entries, address) - 1
        if index < 0:
            return self.functions[0][1]
        return self.functions[index][1]


def image_of_module(module: McfiModule) -> ImageSpec:
    """The post-link verification grain: one loadable module."""
    aux = module.aux
    roots = set()
    aux_targets: List[int] = []
    for func in aux.functions.values():
        aux_targets.append(func.entry)
    for retsite in aux.retsites:
        aux_targets.append(retsite.address)
    aux_targets.extend(aux.setjmp_resumes)
    for site in aux.branch_sites:
        aux_targets.extend(site.targets)
    roots.update(aux_targets)
    for label, address in module.labels.items():
        if label.startswith("__plt."):
            roots.add(address)
    functions = sorted((f.entry, f.name) for f in aux.functions.values())
    return ImageSpec(
        name=module.name, arch=module.arch, base=module.base,
        code=bytes(module.code), code_ranges=list(module.code_ranges),
        roots=frozenset(roots), aux_targets=sorted(set(aux_targets)),
        label_addrs=frozenset(module.labels.values()),
        bary_fields=sorted(module.base + offset
                           for offset in module.bary_slots.values()),
        n_sites=len(aux.branch_sites), functions=functions)


def image_of_unit(artifact: UnitArtifact, arch: str = "x64") -> ImageSpec:
    """The pre-link verification grain: one compilation unit at base 0.

    Cross-unit references are unresolved relocation holes; direct
    branches through a hole are exempt from the target-discipline check
    (the post-link module pass re-proves them), everything intra-unit —
    check transactions, masks, alignment — is proved here, before the
    artifact may be published to the shared build cache.
    """
    labels = artifact.labels
    size = len(artifact.code)

    jt_starts: Dict[object, int] = {}
    jt_ends: Dict[object, int] = {}
    retsites: List[int] = []
    for kind, info, offset in artifact.marks:
        if kind == "jt_start":
            jt_starts[info] = offset
        elif kind == "jt_end":
            jt_ends[info] = offset
        elif kind == "retsite":
            retsites.append(offset)
    data_ranges = [(start, jt_ends[key])
                   for key, start in jt_starts.items()]

    roots = {0}
    roots.add(labels.get(artifact.fn, 0))
    roots.update(retsites)
    for label in artifact.setjmp_resumes:
        roots.add(labels[label])
    aux_targets = set(roots)
    for site in artifact.sites:
        for target in site.targets:
            address = labels[target]
            roots.add(address)
            aux_targets.add(address)

    holes = frozenset(offset for offset, kind, _ref, _extra
                      in artifact.relocs if kind == "rel32")
    return ImageSpec(
        name=artifact.fn, arch=arch, base=0, code=bytes(artifact.code),
        code_ranges=code_ranges(0, size, data_ranges),
        roots=frozenset(roots),
        aux_targets=sorted(aux_targets),
        label_addrs=frozenset(labels.values()),
        bary_fields=sorted(offset for _site, offset in artifact.bary_slots),
        n_sites=len(artifact.sites),
        functions=[(labels.get(artifact.fn, 0), artifact.fn)],
        rel32_holes=holes, partial=True,
        alignment_known=artifact.lead_align % 4 == 0)
