"""Static link products: the linked program and its data region.

:func:`repro.build.link.link_units` lays out every static image (paper
Secs. 6-7): it concatenates separately instrumented function units,
renumbers indirect-branch sites into one Bary numbering, resolves
cross-module symbols and unions the modules' auxiliary information.
This module holds what that linker and the dynamic linker share: the
:class:`LinkedProgram` they produce and the data-region layout (read-only
strings first, then writable globals and GOT slots).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import LinkError
from repro.mir.codegen import RawModule
from repro.module.module import DataLayout, McfiModule
from repro.vm.memory import DATA_BASE, PAGE_SIZE


@dataclass
class LinkedProgram:
    """A fully linked, loadable program image."""

    arch: str
    mcfi: bool
    module: McfiModule            # the combined module (code + aux)
    data: DataLayout
    entry: int
    heap_base: int
    #: names of the modules linked in, in order
    parts: List[str] = field(default_factory=list)
    #: dynamic symbol -> its GOT slot address (PLT-routed imports)
    got_slots: Dict[str, int] = field(default_factory=dict)

    @property
    def labels(self) -> Dict[str, int]:
        return self.module.labels


def layout_data(raws: List[RawModule], base: int = DATA_BASE,
                got_names: Optional[Dict[str, str]] = None) -> DataLayout:
    """Assign data-region addresses: strings (read-only), then globals
    and GOT slots (writable)."""
    symbols: Dict[str, int] = {}
    cursor = base
    for raw in raws:
        for label, blob in raw.strings.items():
            if label in symbols:
                raise LinkError(f"duplicate string label {label!r}")
            symbols[label] = cursor
            cursor += (len(blob) + 7) & ~7
    rodata_end = (cursor - base + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
    cursor = base + rodata_end
    for raw in raws:
        for name, data in raw.globals.items():
            if name in symbols:
                raise LinkError(f"duplicate global {name!r}")
            symbols[name] = cursor
            cursor += (data.size + 7) & ~7
    for got_label in (got_names or {}).values():
        symbols[got_label] = cursor
        cursor += 8
    size = cursor - base
    return DataLayout(base=base, size=size, symbols=symbols,
                      rodata_end=rodata_end)


def build_data_image(raws: List[RawModule], layout: DataLayout,
                     code_labels: Dict[str, int]) -> bytes:
    """Materialize the data region: strings, globals, relocations."""
    image = bytearray(layout.size)

    def poke(address: int, payload: bytes) -> None:
        offset = address - layout.base
        image[offset:offset + len(payload)] = payload

    for raw in raws:
        for label, blob in raw.strings.items():
            poke(layout.symbols[label], blob)
        for name, data in raw.globals.items():
            base_addr = layout.symbols[name]
            for offset, width, value in data.words:
                poke(base_addr + offset,
                     (value & ((1 << (8 * width)) - 1)).to_bytes(
                         width, "little"))
            for offset, kind, symbol in data.relocs:
                if kind == "func":
                    value = code_labels.get(symbol)
                    if value is None:
                        raise LinkError(
                            f"unresolved function {symbol!r} in initializer "
                            f"of {name!r}")
                elif kind == "global":
                    value = layout.symbols.get(symbol)
                    if value is None:
                        raise LinkError(f"unresolved global {symbol!r}")
                elif kind == "str":
                    value = layout.symbols[f"{raw.name}.str{symbol}"]
                else:
                    raise LinkError(f"unknown reloc kind {kind!r}")
                poke(base_addr + offset, value.to_bytes(8, "little"))
    return bytes(image)
