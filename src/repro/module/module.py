"""The MCFI module: assembled code + data + auxiliary information.

An :class:`McfiModule` is a loadable image with its auxiliary
information: the combined module of a static link
(:func:`repro.build.link.link_units`), or a library the dynamic linker
loads at runtime.  A library's is built from its instrumented assembly
via :func:`build_module`, which resolves the symbolic site/mark
information into the concrete :class:`~repro.module.auxinfo.AuxInfo`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.instrument import InstrumentedAsm
from repro.isa.assembler import Assembled
from repro.mir.codegen import RawModule
from repro.module.auxinfo import (
    AuxInfo,
    BranchSiteAux,
    FunctionAux,
    RetSiteAux,
)


@dataclass
class DataLayout:
    """Addresses assigned to globals, strings and GOT slots."""

    base: int
    size: int
    symbols: Dict[str, int] = field(default_factory=dict)
    image: bytes = b""
    #: writable region offset bounds within the image (rodata excluded)
    rodata_end: int = 0


@dataclass
class McfiModule:
    """One loadable MCFI module."""

    name: str
    arch: str
    base: int
    code: bytes
    aux: AuxInfo
    #: module-local site number -> byte offset of its Bary-index immediate
    bary_slots: Dict[int, int]
    labels: Dict[str, int]
    #: code ranges (absolute) that are instructions, for the verifier
    code_ranges: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.code)

    @property
    def limit(self) -> int:
        return self.base + len(self.code)


def build_module(raw: RawModule, instrumented: InstrumentedAsm,
                 assembled: Assembled, site_base: int = 0) -> McfiModule:
    """Resolve assembly output into a concrete :class:`McfiModule`.

    ``site_base`` offsets the module-local site numbers into the global
    Bary numbering chosen by the loader.
    """
    labels = assembled.labels
    aux = AuxInfo()

    for meta in raw.functions.values():
        entry = labels[meta.entry_label or meta.name]
        taken = meta.address_taken or meta.name in raw.taken_names
        aux.functions[meta.name] = FunctionAux(
            name=meta.name, sig=meta.sig, entry=entry,
            address_taken=taken, exported=meta.exported,
            module=meta.module or raw.name)
        if meta.exported:
            aux.exports[meta.name] = entry

    # Return sites: the Mark("retsite", ...) binds to the address
    # immediately after the call instruction.  Indirect-call marks carry
    # the pointer signature as a third element.
    for info, address in assembled.marks_of("retsite"):
        if len(info) == 3:
            caller, callee, sig = info
        else:
            caller, callee = info
            sig = None
        aux.retsites.append(RetSiteAux(address=address, caller=caller,
                                       callee=callee, sig=sig))

    for site_info in instrumented.sites:
        targets = tuple(labels[t] for t in site_info.targets)
        aux.branch_sites.append(BranchSiteAux(
            site=site_base + site_info.site, kind=site_info.kind,
            fn=site_info.fn, sig=site_info.sig, targets=targets,
            plt_symbol=site_info.plt_symbol,
            ptargets=site_info.ptargets))

    for label in instrumented.setjmp_resumes:
        aux.setjmp_resumes.append(labels[label])

    aux.direct_calls = list(raw.direct_calls)
    aux.imports = list(raw.imports)

    # Jump-table data ranges (skipped by the verifier's disassembly).
    starts = dict(assembled.marks_of("jt_start"))
    ends = dict(assembled.marks_of("jt_end"))
    for table_label, start in starts.items():
        aux.data_ranges.append((start, ends[table_label]))
    aux.data_ranges.sort()

    bary_slots = {site_base + local: offset
                  for local, offset in assembled.bary_slots.items()}
    module = McfiModule(
        name=raw.name, arch=raw.arch, base=assembled.base,
        code=assembled.code, aux=aux, bary_slots=bary_slots,
        labels=dict(labels),
        code_ranges=code_ranges(assembled.base, len(assembled.code),
                                aux.data_ranges))
    if len(bary_slots) != len(instrumented.sites):
        raise ValueError(
            f"{raw.name}: {len(instrumented.sites)} sites but "
            f"{len(bary_slots)} patched Bary slots")
    return module


def code_ranges(base: int, size: int,
                data_ranges: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Instruction ranges of the image ``[base, base + size)``: the
    complement of its jump-table ``data_ranges``."""
    ranges: List[Tuple[int, int]] = []
    cursor = base
    end = base + size
    for start, stop in sorted(data_ranges):
        if start > cursor:
            ranges.append((cursor, start))
        cursor = max(cursor, stop)
    if cursor < end:
        ranges.append((cursor, end))
    return ranges
