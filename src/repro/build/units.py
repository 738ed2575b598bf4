"""Function-grain compilation units: codegen, instrument (or lower
natively) and assemble one function position-independently, so its
bytes can be cached and spliced into any link.

Why this is byte-exact: every instrumented unit begins with ``Align(4)``
followed by the function's entry label (function entries are always
indirect-branch targets, so :func:`instrument_stream` aligns them), and
``Align(4)``/``AlignEnd(4)`` are the only alignment directives the
pipeline emits; native units carry no alignment directive at all.
Assembling the unit's items at base 0 therefore reproduces exactly the
bytes a whole-module assembly would emit at any ``lead_align``-aligned
address — the linker only has to insert the leading NOP pad
(``(-cursor) % lead_align``, the pad the leading ``Align(4)`` would have
produced) and patch the recorded relocations:

* intra-unit REL32 displacements are position-independent and resolved
  here, once, at unit-assembly time;
* cross-unit and data references (direct calls, globals, strings, GOT
  slots, jump-table words, IMM64 label immediates) become relocation
  entries patched at link;
* string references are *content-addressed* — a relocation stores an
  index into the unit's ordered string-content list, never a module
  string id, so a cached unit survives string-table renumbering;
* ``BarySlot`` immediates always assemble to 0 (the loader patches
  them), so renumbering branch sites never changes bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.instrument import (
    SiteInfo,
    _collect_aligned_labels,
    instrument_stream,
    lower_native,
)
from repro.isa.assembler import Align, Item, emit
from repro.isa.instructions import Op, OperandKind
from repro.mir import ir
from repro.mir.codegen import FunctionCodegen, RawItem
from repro.tinyc.types import FuncSig

NOP = bytes([Op.NOP])

#: Relocation kinds: how the linker patches the hole at ``field_off``.
#: 'rel32'  4-byte PC-relative (extra = offset just past the instruction)
#: 'abs64'  8-byte absolute immediate
#: 'abs32'  4-byte absolute immediate
#: 'word'   8-byte data word
Reloc = Tuple[int, str, Tuple[str, object], int]


@dataclass
class UnitArtifact:
    """One function's compiled, instrumented, relocatable bytes +
    everything the incremental linker needs to splice it into an image.

    Offsets are relative to the unit body start, which the linker
    places at the next ``lead_align``-aligned address.  ``sites`` use
    unit-local numbering from 0; the linker renumbers globally.
    """

    fn: str
    fingerprint: str
    code: bytes = b""
    lead_align: int = 1
    labels: Dict[str, int] = field(default_factory=dict)
    relocs: List[Reloc] = field(default_factory=list)
    marks: List[Tuple[str, object, int]] = field(default_factory=list)
    #: (unit-local site, byte offset of its Bary immediate)
    bary_slots: List[Tuple[int, int]] = field(default_factory=list)
    sites: List[SiteInfo] = field(default_factory=list)
    setjmp_resumes: List[str] = field(default_factory=list)
    #: ordered string contents this unit references ('S' reloc targets)
    strings: List[bytes] = field(default_factory=list)
    # -- metadata merged into the linked module's auxiliary info --
    sig: Optional[FuncSig] = None
    exported: bool = True
    takes: Tuple[str, ...] = ()
    referenced: Tuple[str, ...] = ()
    direct_calls: List[Tuple[str, str, bool]] = field(default_factory=list)
    uses_setjmp: bool = False

    @property
    def size(self) -> int:
        return len(self.code)


class UnitResolver:
    """Unit grain: REL32 references to the unit's own labels resolve now
    (they are position-independent); every other label reference, Bary
    slot and data word becomes a relocation hole assembled as 0."""

    def __init__(self, module_name: str, sid_contents: Dict[int, bytes],
                 artifact: UnitArtifact) -> None:
        self.str_re = re.compile(
            r"\A" + re.escape(module_name) + r"\.str(\d+)\Z")
        self.sid_contents = sid_contents
        self.str_index: Dict[bytes, int] = {}
        self.artifact = artifact

    def ref_of(self, name: str) -> Tuple[str, object]:
        match = self.str_re.match(name)
        if match is None:
            return ("L", name)
        content = self.sid_contents[int(match.group(1))]
        index = self.str_index.get(content)
        if index is None:
            index = self.str_index[content] = len(self.artifact.strings)
            self.artifact.strings.append(content)
        return ("S", index)

    def label(self, kind, name, field_addr, end):
        if kind is OperandKind.REL32:
            target = self.artifact.labels.get(name)
            if target is not None:
                return target - end
            self.artifact.relocs.append(
                (field_addr, "rel32", self.ref_of(name), end))
        else:
            self.artifact.relocs.append(
                (field_addr, "abs64" if kind is OperandKind.IMM64
                 else "abs32", self.ref_of(name), 0))
        return 0

    def bary(self, site, field_addr):
        self.artifact.bary_slots.append((site, field_addr))

    def word(self, name, addr):
        self.artifact.relocs.append((addr, "word", self.ref_of(name), 0))
        return 0


def assemble_unit(items: Sequence[Item], module_name: str,
                  sid_contents: Dict[int, bytes],
                  artifact: UnitArtifact) -> UnitArtifact:
    """Assemble one unit's instrumented items at base 0 into
    ``artifact`` (code, labels, relocs, marks, slots) — the
    module assembler's core at any lead_align-congruent address, with
    cross-unit references left as relocation holes."""
    if items and isinstance(items[0], Align):
        artifact.lead_align = items[0].n
    artifact.code = emit(items, 0, artifact.labels,
                         UnitResolver(module_name, sid_contents, artifact),
                         artifact.marks)
    return artifact


def compile_unit(func: ir.MirFunction, module_name: str, arch: str,
                 sid_contents: Dict[int, bytes],
                 takes: Sequence[str], uses_setjmp: bool,
                 fingerprint: str, mcfi: bool = True) -> UnitArtifact:
    """Run one function through codegen and :func:`unit_from_items`,
    producing its cacheable :class:`UnitArtifact`."""
    codegen = FunctionCodegen(func, module_name, arch)
    raw_items = codegen.generate()
    artifact = UnitArtifact(
        fn=func.name, fingerprint=fingerprint,
        sig=FuncSig.of(func.ftype), exported=not func.is_static,
        takes=tuple(sorted(takes)),
        referenced=tuple(sorted(codegen.referenced)),
        direct_calls=list(codegen.direct_calls),
        uses_setjmp=uses_setjmp)
    return unit_from_items(raw_items, module_name, arch, sid_contents,
                           artifact, mcfi)


def unit_from_items(raw_items: Sequence[RawItem], module_name: str,
                    arch: str, sid_contents: Dict[int, bytes],
                    artifact: UnitArtifact, mcfi: bool) -> UnitArtifact:
    """Instrument (``mcfi``) or natively lower one function's codegen
    items, then assemble them into ``artifact``.  Fresh compiles and
    functions split out of a compiled module share this step."""
    if not mcfi:
        return assemble_unit(lower_native(raw_items), module_name,
                             sid_contents, artifact)
    aligned = _collect_aligned_labels(raw_items, {artifact.fn})
    asm = instrument_stream(raw_items, aligned,
                            namespace=f"{module_name}.{artifact.fn}",
                            sandbox_writes=(arch == "x64"))
    assemble_unit(asm.items, module_name, sid_contents, artifact)
    artifact.sites = asm.sites
    artifact.setjmp_resumes = asm.setjmp_resumes
    return artifact


def assemble_plt_unit(items: Sequence[Item],
                      sites: List[SiteInfo]) -> UnitArtifact:
    """Assemble the program's PLT section as a pseudo-unit (no string
    refs; GOT labels resolve through the link's extern symbols)."""
    artifact = UnitArtifact(fn="__plt", fingerprint="", exported=False,
                            sig=None, takes=(), referenced=(),
                            direct_calls=[], uses_setjmp=False)
    assemble_unit(items, "__plt", {}, artifact)
    artifact.sites = sites
    return artifact
