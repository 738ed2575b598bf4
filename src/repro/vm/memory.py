"""Flat paged memory with page protections for the SimVM.

The address-space layout mirrors the paper's x86-64 sandbox design
(Sec. 5.1): application code and data live in the low 4GB; the ID tables
live in a *separate* table region addressed through a reserved segment
register (``%gs`` in the paper, the ``TLOAD`` instructions here), so
sandboxed application writes — which are restricted to ``[0, 4GB)`` by
``MOVZX32`` instrumentation — can never reach the tables.

Layout constants::

    [0, 0x1000)                  unmapped null page
    [CODE_BASE, CODE_LIMIT)      code region (R+X; may embed RO jump tables)
    [DATA_BASE, DATA_LIMIT)      globals + heap (R+W)
    [STACK_BASE, STACK_LIMIT)    thread stacks (R+W)
    [0, 4GB)                     reach of any sandboxed write

The table region is a separate :class:`TableMemory`, not part of the
flat address space: the only way application code can touch it is via
``TLOAD`` reads, exactly like ``%gs``-based addressing.

As on x86, a writable page is always readable: :meth:`Memory.map` and
:meth:`Memory.protect` make it so.  A load of bytes that a store just
wrote therefore cannot fault, which is what lets a generated block
answer such a load from the stored value (see
:mod:`repro.vm.dispatch`).  Each protection is a dict from page number
to the page's bytes, so a checked access costs one dict probe.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Optional, Tuple

from repro.errors import MemoryFault

PAGE_SIZE = 0x1000
PAGE_SHIFT = 12

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_unpack_u16, _pack_u16 = _U16.unpack_from, _U16.pack_into
_unpack_u32, _pack_u32 = _U32.unpack_from, _U32.pack_into
_unpack_u64, _pack_u64 = _U64.unpack_from, _U64.pack_into

CODE_BASE = 0x10000
CODE_LIMIT = 0x400000          # 4 MiB of code address space
DATA_BASE = 0x1000000
DATA_LIMIT = 0x1800000         # 8 MiB of globals + heap
STACK_BASE = 0x1800000
STACK_LIMIT = 0x2000000        # 8 MiB of stacks

_MASK64 = 0xFFFFFFFFFFFFFFFF


class Memory:
    """Byte-addressable paged memory with R/W/X page protections.

    Normal accessors (``read_*``/``write_*``) enforce protections; the
    ``host_*`` accessors bypass them and model the trusted runtime
    (loader, dynamic linker) which runs outside the sandbox.
    ``_readable``, ``_writable`` and ``_executable`` map a page number
    to the same ``bytearray`` ``_pages`` holds, so a checked access
    finds its permission and its bytes in one probe.
    """

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}
        self._readable: Dict[int, bytearray] = {}
        self._writable: Dict[int, bytearray] = {}
        self._executable: Dict[int, bytearray] = {}

    # -- mapping ----------------------------------------------------------

    def map(self, address: int, size: int, *, readable: bool = True,
            writable: bool = False, executable: bool = False) -> None:
        """Map ``[address, address + size)`` (page-rounded) with protections."""
        if address % PAGE_SIZE:
            raise MemoryFault(address, "map", "address not page aligned")
        first = address >> PAGE_SHIFT
        last = (address + size + PAGE_SIZE - 1) >> PAGE_SHIFT
        for page in range(first, last):
            data = self._pages.get(page)
            if data is None:
                data = self._pages[page] = bytearray(PAGE_SIZE)
            if readable or writable:
                self._readable[page] = data
            if writable:
                self._writable[page] = data
            if executable:
                self._executable[page] = data

    def protect(self, address: int, size: int, *, readable: bool = True,
                writable: bool = False, executable: bool = False) -> None:
        """Change protections on already-mapped pages (``mprotect``)."""
        first = address >> PAGE_SHIFT
        last = (address + size + PAGE_SIZE - 1) >> PAGE_SHIFT
        for page in range(first, last):
            data = self._pages.get(page)
            if data is None:
                raise MemoryFault(page << PAGE_SHIFT, "protect", "unmapped")
            for flag, group in ((readable or writable, self._readable),
                                (writable, self._writable),
                                (executable, self._executable)):
                if flag:
                    group[page] = data
                else:
                    group.pop(page, None)

    def is_mapped(self, address: int) -> bool:
        return (address >> PAGE_SHIFT) in self._pages

    def is_writable(self, address: int) -> bool:
        return (address >> PAGE_SHIFT) in self._writable

    def is_executable(self, address: int) -> bool:
        return (address >> PAGE_SHIFT) in self._executable

    # -- checked access (application) --------------------------------------

    # The word accessors below take a no-copy fast path when the access
    # stays inside one page (the overwhelmingly common case on the VM's
    # hot load/store/stack paths): one probe of the protection dict
    # yields the page, and the page constants are literals
    # (``0xFFF`` is ``PAGE_SIZE - 1``, ``12`` is ``PAGE_SHIFT``).  A
    # page-straddling access goes through ``_read``/``_write``, which
    # fault at the first offending byte and write no byte of a store
    # that faults.

    def read_u8(self, address: int) -> int:
        data = self._readable.get(address >> 12)
        if data is None:
            raise MemoryFault(address, "read")
        return data[address & 0xFFF]

    def read_u16(self, address: int) -> int:
        offset = address & 0xFFF
        if offset <= 0xFFE:
            data = self._readable.get(address >> 12)
            if data is None:
                raise MemoryFault(address, "read")
            return _unpack_u16(data, offset)[0]
        return int.from_bytes(self._read(address, 2), "little")

    def read_u32(self, address: int) -> int:
        offset = address & 0xFFF
        if offset <= 0xFFC:
            data = self._readable.get(address >> 12)
            if data is None:
                raise MemoryFault(address, "read")
            return _unpack_u32(data, offset)[0]
        return int.from_bytes(self._read(address, 4), "little")

    def read_u64(self, address: int) -> int:
        offset = address & 0xFFF
        if offset <= 0xFF8:
            data = self._readable.get(address >> 12)
            if data is None:
                raise MemoryFault(address, "read")
            return _unpack_u64(data, offset)[0]
        return int.from_bytes(self._read(address, 8), "little")

    def write_u8(self, address: int, value: int) -> None:
        data = self._writable.get(address >> 12)
        if data is None:
            raise MemoryFault(address, "write")
        data[address & 0xFFF] = value & 0xFF

    def write_u16(self, address: int, value: int) -> None:
        offset = address & 0xFFF
        if offset <= 0xFFE:
            data = self._writable.get(address >> 12)
            if data is None:
                raise MemoryFault(address, "write")
            _pack_u16(data, offset, value & 0xFFFF)
            return
        self._write(address, (value & 0xFFFF).to_bytes(2, "little"))

    def write_u32(self, address: int, value: int) -> None:
        offset = address & 0xFFF
        if offset <= 0xFFC:
            data = self._writable.get(address >> 12)
            if data is None:
                raise MemoryFault(address, "write")
            _pack_u32(data, offset, value & 0xFFFFFFFF)
            return
        self._write(address, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def write_u64(self, address: int, value: int) -> None:
        offset = address & 0xFFF
        if offset <= 0xFF8:
            data = self._writable.get(address >> 12)
            if data is None:
                raise MemoryFault(address, "write")
            _pack_u64(data, offset, value & 0xFFFFFFFFFFFFFFFF)
            return
        self._write(address, (value & _MASK64).to_bytes(8, "little"))

    def read_bytes(self, address: int, size: int) -> bytes:
        return self._read(address, size)

    def write_bytes(self, address: int, payload: bytes) -> None:
        self._write(address, payload)

    def code_page(self, address: int) -> Optional[bytearray]:
        """The whole page holding ``address`` if it is executable, else
        None.  Instruction fetch decodes straight from it; callers must
        not write through it."""
        return self._executable.get(address >> PAGE_SHIFT)

    # -- unchecked access (trusted runtime) ---------------------------------

    def host_read(self, address: int, size: int) -> bytes:
        return self._read(address, size, self._pages)

    def host_write(self, address: int, payload: bytes) -> None:
        self._write(address, payload, self._pages)

    # -- internals ----------------------------------------------------------
    #
    # ``pages`` is the dict the access may use: a protection's, or, for
    # the trusted runtime, every mapped page.  A fault names the first
    # offending byte.

    def _read(self, address: int, size: int,
              pages: Optional[Dict[int, bytearray]] = None) -> bytes:
        if pages is None:
            pages = self._readable
        out = bytearray()
        cursor, end = address, address + size
        while cursor < end:
            data = pages.get(cursor >> PAGE_SHIFT)
            if data is None:
                raise MemoryFault(cursor, "read", "unmapped"
                                  if pages is self._pages else "")
            offset = cursor & (PAGE_SIZE - 1)
            chunk = min(end - cursor, PAGE_SIZE - offset)
            out += data[offset:offset + chunk]
            cursor += chunk
        return bytes(out)

    def _write(self, address: int, payload: bytes,
               pages: Optional[Dict[int, bytearray]] = None) -> None:
        if pages is None:
            pages = self._writable
        if not payload:
            return
        # Every page is validated before any byte is written, so a
        # fault on a later page cannot leave a torn partial write (one
        # VM instruction is one atomic store).
        end = address + len(payload)
        targets = []
        for page in range(address >> PAGE_SHIFT,
                          ((end - 1) >> PAGE_SHIFT) + 1):
            data = pages.get(page)
            if data is None:
                raise MemoryFault(max(address, page << PAGE_SHIFT), "write",
                                  "unmapped" if pages is self._pages else "")
            targets.append(data)
        cursor = address
        for data in targets:
            offset = cursor & (PAGE_SIZE - 1)
            chunk = min(end - cursor, PAGE_SIZE - offset)
            data[offset:offset + chunk] = \
                payload[cursor - address:cursor - address + chunk]
            cursor += chunk


class TableMemory:
    """The MCFI ID-table region, reachable only through ``TLOAD``.

    * The **Tary** table occupies offsets ``[0, tary_size)`` and is
      indexed directly by code address (paper: the table "is an array of
      IDs indexed by code addresses"; we keep the identity mapping, so
      ``tary_size`` must cover ``CODE_LIMIT``).
    * The **Bary** table lives in a region that 32-bit sandboxed
      addresses cannot name: ``TLOAD_RI`` indexes it through a separate
      base, mirroring how the paper keeps branch-ID reads at
      loader-patched constant indexes.

    A ``TLOAD_RR`` with an index outside the Tary table faults, which
    models the segfault a real out-of-range ``%gs`` access would take —
    fail-safe, not fail-open.
    """

    def __init__(self, tary_size: int = CODE_LIMIT,
                 bary_entries: int = 65536) -> None:
        self.tary = bytearray(tary_size)
        self.bary = bytearray(4 * bary_entries)
        self.tary_size = tary_size
        self.bary_entries = bary_entries
        #: Monotonic write-generation stamp.  Every privileged table
        #: store bumps it, and so do bulk restores (journal rollback)
        #: and :meth:`repro.core.tables.IdTables.note_update`.  The
        #: dispatch plane's fused check transactions compare it to
        #: decide whether a cached branch-ID read is still current —
        #: any update transaction therefore invalidates fused fast
        #: paths (see :mod:`repro.vm.dispatch`).
        self.generation = 0
        #: The open journal's undo log, or None: ``(tary, bary)`` maps
        #: from byte index to the word's bytes before its first store
        #: since the journal opened.  Every privileged store records
        #: into it; :class:`repro.core.tables.TableSnapshot` opens and
        #: closes it.
        self.undo: Optional[Tuple[Dict[int, bytearray],
                                  Dict[int, bytearray]]] = None

    # Reads are what TxCheck performs; they are atomic at 4-byte
    # granularity because the scheduler interleaves whole instructions.

    def read_tary(self, index: int) -> int:
        if not 0 <= index <= self.tary_size - 4:
            raise MemoryFault(index, "tary-read", "outside Tary table")
        return int.from_bytes(self.tary[index:index + 4], "little")

    def read_bary(self, index: int) -> int:
        if not 0 <= index <= len(self.bary) - 4:
            raise MemoryFault(index, "bary-read", "outside Bary table")
        return int.from_bytes(self.bary[index:index + 4], "little")

    # Writes are privileged: only the trusted runtime (TxUpdate) calls
    # them.  Each store is one atomic 4-byte store (the paper's
    # ``movnti``); a batch is the stores one TxUpdate step makes.

    def write_tary(self, index: int, ident: int) -> None:
        self.store_tary(((index, ident),))

    def write_bary(self, index: int, ident: int) -> None:
        self.store_bary(((index, ident),))

    def store_tary(self, writes: Iterable[Tuple[int, int]]) -> None:
        """Store each ``(index, ident)`` of ``writes`` into Tary, in order."""
        self._store(self.tary, writes, 0, "tary-write")

    def store_bary(self, writes: Iterable[Tuple[int, int]]) -> None:
        """Store each ``(index, ident)`` of ``writes`` into Bary, in order."""
        self._store(self.bary, writes, 1, "bary-write")

    def _store(self, table: bytearray, writes: Iterable[Tuple[int, int]],
               log: int, kind: str) -> None:
        undo = None if self.undo is None else self.undo[log]
        pack = _U32.pack_into
        try:
            for index, ident in writes:
                if index % 4:
                    raise MemoryFault(index, kind, "unaligned ID store")
                if undo is not None and index not in undo:
                    undo[index] = table[index:index + 4]
                pack(table, index, ident & 0xFFFFFFFF)
                self.generation += 1
        except struct.error:
            raise MemoryFault(index, kind, "outside the table") from None
