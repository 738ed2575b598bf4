"""Two-pass assembler for symbolic SimISA assembly.

Code generation and MCFI instrumentation both operate on *symbolic
assembly*: a flat list of items mixing instructions (whose operands may
reference labels), labels, alignment directives, raw data, and *marks*.
The assembler lays the items out at a base address, resolves label
references, and returns the final byte image together with everything
downstream consumers need:

* label addresses (function entries, jump tables, ...),
* mark addresses — the auxiliary-information hooks used to build an MCFI
  module's type/CFG metadata after layout,
* Bary-slot patch sites — the ``tload`` immediates that MCFI's loader
  patches with the branch's Bary table index (Sec. 5.1 of the paper),
* absolute relocations, so a module can be re-based.

Two alignment directives mirror the paper's instrumentation needs:

* :class:`Align` pads to an ``n``-byte boundary (used before indirect
  branch *targets*: address-taken function entries, switch-case blocks,
  setjmp resume points).
* :class:`AlignEnd` pads so that the *end* of the next instruction falls
  on an ``n``-byte boundary — used before ``call`` instructions so the
  return site that follows the call is 4-byte aligned and therefore has
  a Tary table entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

from repro.errors import AssemblerError
from repro.isa.instructions import CODECS, Op, OperandKind, codec_of


@dataclass(frozen=True)
class LabelRef:
    """Symbolic reference to a label, usable as an instruction operand.

    In a REL32 operand slot it resolves to a PC-relative displacement; in
    an IMM64 slot it resolves to the label's absolute address (and emits
    an absolute relocation); in an IMM32 slot it resolves to the label's
    absolute address if it fits.
    """

    name: str


@dataclass(frozen=True)
class BarySlot:
    """Placeholder for a Bary table index, patched by the loader.

    ``site`` is the module-local indirect-branch site number.  The
    assembler records the byte offset of the 4-byte immediate so the
    loader can write the process-global Bary index there (the paper's
    "loader patches the code to embed constant Bary table indexes").
    """

    site: int


Operand = Union[int, LabelRef, BarySlot]


@dataclass(frozen=True)
class AsmInstr:
    """An instruction whose operands may be symbolic."""

    op: Op
    operands: Tuple[Operand, ...] = ()

    @property
    def length(self) -> int:
        return CODECS[self.op].length


@dataclass(frozen=True)
class Label:
    name: str


@dataclass(frozen=True)
class Align:
    """Pad with NOPs to an ``n``-byte boundary."""

    n: int = 4


@dataclass(frozen=True)
class AlignEnd:
    """Pad with NOPs so the next instruction *ends* on an ``n`` boundary."""

    n: int = 4


@dataclass(frozen=True)
class Data:
    """Raw bytes placed in the image (read-only data, strings)."""

    payload: bytes


@dataclass(frozen=True)
class DataWord:
    """An 8-byte little-endian word; may reference a label (jump tables)."""

    value: Union[int, LabelRef]


@dataclass(frozen=True)
class Mark:
    """Bind ``(kind, info)`` to the address of the next item emitted.

    Marks carry no bytes.  They are how the compiler and instrumenter
    communicate machine-level facts (function entries, return sites,
    indirect-branch sites) to the MCFI auxiliary-information builder.
    """

    kind: str
    info: object = None


Item = Union[AsmInstr, Label, Align, AlignEnd, Data, DataWord, Mark]


@dataclass
class Assembled:
    """Result of assembling one item list at a base address."""

    base: int
    code: bytes
    labels: Dict[str, int]
    marks: List[Tuple[str, object, int]] = field(default_factory=list)
    bary_slots: Dict[int, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.code)

    def marks_of(self, kind: str) -> List[Tuple[object, int]]:
        """Return ``(info, address)`` for every mark of ``kind``."""
        return [(info, addr) for k, info, addr in self.marks if k == kind]


_NOP = bytes([Op.NOP])
_MASK64 = 0xFFFFFFFFFFFFFFFF


class AbsoluteResolver:
    """Module grain: every label resolves to its absolute address, from
    the items' own labels first and then ``extern``."""

    def __init__(self, extern: Dict[str, int], result: Assembled) -> None:
        self.labels = result.labels
        self.extern = extern
        self.result = result

    def lookup(self, name: str) -> int:
        target = self.labels.get(name)
        if target is None:
            target = self.extern.get(name)
            if target is None:
                raise AssemblerError(f"undefined label {name!r}")
        return target

    def label(self, kind, name, field_addr, end):
        target = self.lookup(name)
        return target - end if kind is OperandKind.REL32 else target

    def bary(self, site, field_addr):
        self.result.bary_slots[site] = field_addr - self.result.base

    def word(self, name, addr):
        return self.lookup(name)


def assemble(items: Sequence[Item], base: int = 0,
             extern: Dict[str, int] | None = None) -> Assembled:
    """Assemble ``items`` into bytes at ``base``.

    Layout is a single deterministic pass (all instruction lengths are
    static); label resolution is a second pass.  ``extern`` supplies
    addresses of labels defined outside these items (globals in the
    data region, imported functions) — the linker's job.  Locally
    defined labels shadow extern labels (a library may define a symbol
    the main program routes through a PLT alias).
    """
    result = Assembled(base=base, code=b"", labels={})
    resolver = AbsoluteResolver(extern or {}, result)
    result.code = emit(items, base, result.labels, resolver, result.marks)
    return result


def emit(items: Sequence[Item], base: int, labels: Dict[str, int],
         resolver, marks: List[Tuple[str, object, int]]) -> bytes:
    """The assembler core shared by module and unit grain.

    Lays ``items`` out at ``base`` (binding ``labels``), then encodes
    them through the codec table.  Appends ``(kind, info, address)`` per
    mark to ``marks``; returns the code bytes.

    Symbolic operands go to ``resolver``, which is what distinguishes
    the grains (:class:`AbsoluteResolver` here,
    :class:`repro.build.units.UnitResolver` for units):

    * ``resolver.label(kind, name, field_addr, end)`` returns the value
      of a :class:`LabelRef` in a REL32, IMM32 or IMM64 field at
      ``field_addr`` of the instruction ending at ``end``;
    * ``resolver.bary(site, field_addr)`` records the imm32 field of a
      :class:`BarySlot` (which encodes as 0);
    * ``resolver.word(name, addr)`` returns the value of a label-valued
      :class:`DataWord` at ``addr``.
    """
    addresses = _layout(items, base, labels)
    # Pre-filled with NOPs, so alignment pads need no writes.
    code = bytearray(_NOP * (addresses[-1] - base))
    for item, addr in zip(items, addresses):
        cls = item.__class__
        if cls is AsmInstr:
            codec = CODECS[item.op]
            try:
                values = codec.check(item.operands)
            except TypeError:
                # a LabelRef or BarySlot does not compare with the
                # field bounds: resolve the symbolic operands first
                values = codec.check(
                    _resolve(codec, item.operands, addr, resolver))
            at = addr - base
            code[at] = codec.opcode
            codec.struct.pack_into(code, at + 1, *values)
        elif cls is Mark:
            marks.append((item.kind, item.info, addr))
        elif cls is Data:
            at = addr - base
            code[at:at + len(item.payload)] = item.payload
        elif cls is DataWord:
            value = item.value
            if value.__class__ is LabelRef:
                value = resolver.word(value.name, addr)
            at = addr - base
            code[at:at + 8] = (value & _MASK64).to_bytes(8, "little")
    return bytes(code)


def _resolve(codec, operands, addr: int, resolver) -> list:
    """``operands`` with each :class:`LabelRef` and :class:`BarySlot`
    replaced by the value ``resolver`` gives it."""
    resolved = []
    for (kind, offset, *_), value in zip(codec.fields, operands):
        if value.__class__ is LabelRef:
            if kind not in (OperandKind.REL32, OperandKind.IMM32,
                            OperandKind.IMM64):
                raise AssemblerError(
                    f"label {value.name!r} used in a {kind.value} slot")
            value = resolver.label(kind, value.name, addr + offset,
                                   addr + codec.length)
        elif value.__class__ is BarySlot:
            if kind is not OperandKind.IMM32:
                raise AssemblerError("BarySlot must fill an imm32 slot")
            resolver.bary(value.site, addr + offset)
            value = 0
        resolved.append(value)
    return resolved


def _layout(items: Sequence[Item], base: int,
            labels: Dict[str, int]) -> List[int]:
    """Address of every item, plus the end address as a final entry;
    binds ``labels``."""
    addresses: List[int] = []
    append = addresses.append
    codecs = CODECS
    address = base
    for index, item in enumerate(items):
        append(address)
        cls = item.__class__
        if cls is AsmInstr:
            codec = codecs.get(item.op)
            if codec is None:
                codec_of(item.op)  # raises the unknown-opcode error
            address += codec.length
        elif cls is Label:
            if item.name in labels:
                raise AssemblerError(f"duplicate label {item.name!r}")
            labels[item.name] = address
        elif cls is Mark:
            pass
        elif cls is Align:
            address += (-address) % item.n
        elif cls is AlignEnd:
            address += (-(address + _next_instr_length(items, index))
                        ) % item.n
        elif cls is Data:
            address += len(item.payload)
        elif cls is DataWord:
            address += 8
        else:
            raise AssemblerError(f"unknown assembly item {item!r}")
    append(address)
    return addresses


def _next_instr_length(items: Sequence[Item], index: int) -> int:
    """Length of the first instruction after ``index``, which only
    labels and marks may precede."""
    for position in range(index + 1, len(items)):
        item = items[position]
        cls = item.__class__
        if cls is AsmInstr:
            return codec_of(item.op).length
        if cls is Data or cls is DataWord or cls is Align or \
                cls is AlignEnd:
            break
    raise AssemblerError("AlignEnd directive not followed by an instruction")
