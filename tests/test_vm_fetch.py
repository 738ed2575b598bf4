"""Instruction fetch: ``CPU._fetch_decode`` decodes in place.

An instruction that lies inside one executable page is decoded straight
from that page; one that straddles a page end is decoded from a window
over the two pages.  Either way the cached entry must be what
:func:`repro.isa.encoding.decode` gives for the same bytes, and every
fetch fault keeps its type, its message or fault address, and charges
nothing, on ``step()`` and on ``step_reference`` alike.
"""

import pytest

from repro.errors import InvalidInstruction, MemoryFault
from repro.experiments import compiled
from repro.isa.disasm import sweep_ranges
from repro.isa.encoding import decode, encode
from repro.isa.instructions import Instruction, Op
from repro.isa.registers import Reg
from repro.runtime.runtime import Runtime
from repro.vm.cpu import CPU
from repro.vm.memory import Memory, PAGE_SIZE, TableMemory
from repro.workloads.spec import BENCHMARKS

CODE = 0x10000
PAGE_END = CODE + PAGE_SIZE

#: A ten-byte instruction, so it can end at or straddle a page end.
MOV_RI = encode(Instruction(Op.MOV_RI, (Reg.RAX, 0x1122334455667788)))

#: ``load64 rax, [base + 0]`` with an invalid base register byte, 0x10,
#: at offset 2.
BAD_BASE_LOAD = bytes((Op.LOAD64, Reg.RAX, 0x10)) + bytes(4)


def entry_of(instr: Instruction, length: int) -> tuple:
    return (int(instr.op), instr.operands, length, instr.cost)


@pytest.mark.parametrize("arch", ["x64", "x32"])
@pytest.mark.parametrize("name", BENCHMARKS)
def test_cached_entry_matches_decode(name, arch):
    """Every instruction of a loaded fixed image (Bary indexes patched)
    decodes to decode()'s entry, inside a page or straddling one."""
    program = compiled(name, arch)
    module = program.module
    cpu = Runtime(program).main_cpu()
    image = cpu.memory.host_read(module.base, len(module.code))
    straddling = 0
    for decoded in sweep_ranges(image, module.base, module.code_ranges):
        expected = entry_of(decoded.instr, decoded.length)
        assert cpu._fetch_decode(decoded.address) == expected
        assert cpu.decoded[decoded.address] == expected
        straddling += (decoded.address // PAGE_SIZE
                       != (decoded.end - 1) // PAGE_SIZE)
    assert straddling, "no instruction straddles a page end"


def cpu_at(address: int, payload: bytes, second_executable: bool) -> CPU:
    """A CPU at ``address`` over two code pages holding ``payload``.

    The first page is executable; the second is readable, and
    executable only when ``second_executable``.
    """
    memory = Memory()
    memory.map(CODE, PAGE_SIZE, readable=True, executable=True)
    memory.map(PAGE_END, PAGE_SIZE, readable=True,
               executable=second_executable)
    memory.host_write(address, payload)
    cpu = CPU(memory, TableMemory())
    cpu.rip = address
    return cpu


def step(cpu: CPU, reference: bool) -> None:
    (cpu.step_reference if reference else cpu.step)()


def assert_nothing_charged(cpu: CPU, address: int) -> None:
    assert (cpu.rip, cpu.instructions, cpu.cycles, cpu.tx_checks) == \
        (address, 0, 0, 0)
    assert address not in cpu.decoded


@pytest.mark.parametrize("reference", [False, True],
                         ids=["step", "step_reference"])
class TestPageEdges:
    @pytest.mark.parametrize("address, second_executable", [
        (PAGE_END - len(MOV_RI), False),   # ends exactly at the page end
        (PAGE_END - 4, True),              # straddles into an X page
    ], ids=["ends-at-page-end", "straddles-executable"])
    def test_decodes_and_executes(self, reference, address,
                                  second_executable):
        cpu = cpu_at(address, MOV_RI, second_executable)
        step(cpu, reference)
        instr, length = decode(MOV_RI)
        assert cpu.decoded[address] == entry_of(instr, length)
        assert cpu.regs[Reg.RAX] == 0x1122334455667788
        assert cpu.rip == address + len(MOV_RI)
        assert (cpu.instructions, cpu.cycles) == (1, instr.cost)

    @pytest.mark.parametrize("address, payload, message", [
        (PAGE_END - 4, MOV_RI, "truncated instruction"),
        (PAGE_END - 3, BAD_BASE_LOAD, "bad register byte 0x10"),
        (CODE + 0x100, b"\xfe", "invalid opcode byte 0xfe"),
        (CODE + 0x100, BAD_BASE_LOAD, "bad register byte 0x10"),
    ], ids=["straddles-non-executable", "bad-register-before-cut",
            "invalid-opcode", "bad-register"])
    def test_undecodable(self, reference, address, payload, message):
        cpu = cpu_at(address, payload, second_executable=False)
        with pytest.raises(InvalidInstruction) as raised:
            step(cpu, reference)
        assert str(raised.value) == \
            f"undecodable bytes at {address:#x}: {message}"
        assert_nothing_charged(cpu, address)

    def test_first_byte_not_executable(self, reference):
        cpu = cpu_at(PAGE_END, MOV_RI, second_executable=False)
        with pytest.raises(MemoryFault) as raised:
            step(cpu, reference)
        assert (raised.value.address, raised.value.kind) == \
            (PAGE_END, "execute")
        assert_nothing_charged(cpu, PAGE_END)
