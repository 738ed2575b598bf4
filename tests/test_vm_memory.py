"""Tests for paged memory, protections and the table region."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import MemoryFault
from repro.vm.memory import (
    CODE_LIMIT,
    Memory,
    PAGE_SIZE,
    TableMemory,
)


@pytest.fixture()
def memory():
    mem = Memory()
    mem.map(0x10000, 2 * PAGE_SIZE, readable=True, writable=True)
    return mem


class TestAccess:
    def test_read_write_roundtrip(self, memory):
        memory.write_u64(0x10008, 0x1122334455667788)
        assert memory.read_u64(0x10008) == 0x1122334455667788
        memory.write_u32(0x10100, 0xCAFEBABE)
        assert memory.read_u32(0x10100) == 0xCAFEBABE
        memory.write_u8(0x10200, 0xAB)
        assert memory.read_u8(0x10200) == 0xAB

    def test_cross_page_access(self, memory):
        address = 0x10000 + PAGE_SIZE - 4
        memory.write_u64(address, 0x0102030405060708)
        assert memory.read_u64(address) == 0x0102030405060708

    def test_unmapped_read_faults(self, memory):
        with pytest.raises(MemoryFault):
            memory.read_u64(0x90000)

    def test_write_to_readonly_faults(self):
        mem = Memory()
        mem.map(0x10000, PAGE_SIZE, readable=True, writable=False)
        with pytest.raises(MemoryFault):
            mem.write_u8(0x10000, 1)
        assert mem.read_u8(0x10000) == 0

    def test_unaligned_map_rejected(self):
        with pytest.raises(MemoryFault):
            Memory().map(0x10001, 100)

    @given(st.integers(min_value=0, max_value=0xFFFFFFFFFFFFFFFF))
    def test_values_masked_to_64_bits(self, value):
        mem = Memory()
        mem.map(0x10000, PAGE_SIZE, writable=True)
        mem.write_u64(0x10000, value)
        assert mem.read_u64(0x10000) == value & 0xFFFFFFFFFFFFFFFF


class TestProtection:
    def test_protect_changes_flags(self, memory):
        memory.protect(0x10000, PAGE_SIZE, readable=True, writable=False)
        with pytest.raises(MemoryFault):
            memory.write_u8(0x10000, 1)
        # second page unaffected
        memory.write_u8(0x10000 + PAGE_SIZE, 1)

    def test_protect_unmapped_faults(self, memory):
        with pytest.raises(MemoryFault):
            memory.protect(0x50000, PAGE_SIZE)

    def test_host_access_bypasses_protection(self):
        mem = Memory()
        mem.map(0x10000, PAGE_SIZE, readable=True, writable=False,
                executable=True)
        mem.host_write(0x10000, b"\x01\x02")
        assert mem.host_read(0x10000, 2) == b"\x01\x02"

    def test_fetch_requires_executable(self):
        mem = Memory()
        mem.map(0x10000, PAGE_SIZE, readable=True, writable=True)
        mem.host_write(0x10000, b"\x01\x02")
        assert mem.code_page(0x10004) is None
        mem.protect(0x10000, PAGE_SIZE, readable=True, executable=True)
        assert mem.code_page(0x10004) == b"\x01\x02" + bytes(PAGE_SIZE - 2)

    def test_is_queries(self, memory):
        assert memory.is_mapped(0x10000)
        assert memory.is_writable(0x10000)
        assert not memory.is_executable(0x10000)
        assert not memory.is_mapped(0x99000)


class TestTableMemory:
    def test_tary_roundtrip(self):
        tables = TableMemory()
        tables.write_tary(0x100, 0xDEADBEE1)
        assert tables.read_tary(0x100) == 0xDEADBEE1

    def test_bary_roundtrip(self):
        tables = TableMemory()
        tables.write_bary(8, 0x12345671)
        assert tables.read_bary(8) == 0x12345671

    def test_unwritten_entries_are_zero(self):
        tables = TableMemory()
        assert tables.read_tary(0) == 0
        assert tables.read_bary(0) == 0

    def test_out_of_range_tary_read_faults(self):
        """An out-of-range %gs access segfaults on real hardware —
        fail-safe, not fail-open."""
        tables = TableMemory()
        with pytest.raises(MemoryFault):
            tables.read_tary(CODE_LIMIT)
        with pytest.raises(MemoryFault):
            tables.read_tary(-4)

    def test_unaligned_id_store_rejected(self):
        tables = TableMemory()
        with pytest.raises(MemoryFault):
            tables.write_tary(2, 1)
        with pytest.raises(MemoryFault):
            tables.write_bary(6, 1)

    def test_misaligned_read_spans_entries(self):
        """Unaligned Tary reads see bytes of two adjacent IDs — the
        reserved-bit scheme relies on this producing invalid words."""
        from repro.core.idencoding import is_valid_id, pack_id
        tables = TableMemory()
        tables.write_tary(0, pack_id(1, 1))
        tables.write_tary(4, pack_id(2, 1))
        for offset in (1, 2, 3):
            assert not is_valid_id(tables.read_tary(offset))


class TestAtomic16BitAccess:
    """PR 5 bugfix: 16-bit accessors validate both byte addresses
    before touching memory — no torn page-boundary stores."""

    def _boundary_memory(self, second_writable):
        mem = Memory()
        mem.map(0x10000, PAGE_SIZE, readable=True, writable=True)
        mem.map(0x10000 + PAGE_SIZE, PAGE_SIZE, readable=True,
                writable=second_writable)
        return mem, 0x10000 + PAGE_SIZE - 1

    def test_u16_roundtrip_within_page(self):
        mem, _ = self._boundary_memory(True)
        mem.write_u16(0x10010, 0xBEEF)
        assert mem.read_u16(0x10010) == 0xBEEF
        assert mem.read_u8(0x10010) == 0xEF
        assert mem.read_u8(0x10011) == 0xBE

    def test_u16_roundtrip_across_pages(self):
        mem, boundary = self._boundary_memory(True)
        mem.write_u16(boundary, 0xBBAA)
        assert mem.read_u16(boundary) == 0xBBAA
        assert mem.read_u8(boundary) == 0xAA
        assert mem.read_u8(boundary + 1) == 0xBB

    def test_store_into_readonly_second_page_not_torn(self):
        mem, boundary = self._boundary_memory(False)
        mem.write_u8(boundary, 0x55)
        with pytest.raises(MemoryFault) as err:
            mem.write_u16(boundary, 0xBBAA)
        assert err.value.address == boundary + 1
        # The bug: the low byte was written before the fault.
        assert mem.read_u8(boundary) == 0x55

    def test_store_into_unmapped_second_page_not_torn(self):
        mem = Memory()
        mem.map(0x10000, PAGE_SIZE, readable=True, writable=True)
        boundary = 0x10000 + PAGE_SIZE - 1
        with pytest.raises(MemoryFault):
            mem.write_u16(boundary, 0xBBAA)
        assert mem.read_u8(boundary) == 0

    def test_read_across_unreadable_second_page_faults_cleanly(self):
        mem = Memory()
        mem.map(0x10000, PAGE_SIZE, readable=True, writable=True)
        boundary = 0x10000 + PAGE_SIZE - 1
        with pytest.raises(MemoryFault) as err:
            mem.read_u16(boundary)
        assert err.value.address == boundary + 1

    def test_wide_straddling_stores_are_atomic_too(self):
        """The same audit applied to 32/64-bit stores: every page is
        validated before any byte is written."""
        mem, boundary = self._boundary_memory(False)
        for width, writer in ((4, mem.write_u32), (8, mem.write_u64)):
            start = 0x10000 + PAGE_SIZE - width + 1
            before = mem.read_bytes(start, width - 1)
            with pytest.raises(MemoryFault):
                writer(start, (1 << (8 * width)) - 1)
            assert mem.read_bytes(start, width - 1) == before

    def test_fault_address_is_first_offending_byte(self):
        mem, _ = self._boundary_memory(False)
        start = 0x10000 + PAGE_SIZE - 4
        with pytest.raises(MemoryFault) as err:
            mem.write_u64(start, 0)
        assert err.value.address == 0x10000 + PAGE_SIZE
