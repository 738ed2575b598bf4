"""Tests for the repro.vm.dispatch fast-path plane (PR 5).

The dispatch plane replaces the monolithic ``if/elif`` interpreter with
per-opcode closures, a decoded basic-block cache and fused check
transactions.  The original chain survives as ``CPU.step_reference``;
every test here holds the two to the same architectural observables:
registers, flags, ``rip``, ``cycles``, ``instructions``, ``tx_checks``,
output bytes and fault identity.

Also hosts the regression tests for the PR 5 interpreter-semantics
bugfix batch that lives on the same paths: FCMP_RR NaN flags, torn
16-bit stores at page boundaries, and block/closure-cache invalidation
when code is re-mapped under a previously executed address.
"""

import struct

import pytest

from repro.errors import CfiViolation, MemoryFault, VMError
from repro.isa.assembler import AsmInstr, Label, LabelRef, assemble
from repro.isa.instructions import Op
from repro.isa.registers import Reg
from repro.vm.cpu import CPU, ProgramExit
from repro.vm.dispatch import DispatchCache
from repro.vm.memory import Memory, PAGE_SIZE, TableMemory
from repro.vm.trace import BranchTracer

CODE = 0x10000
DATA = 0x20000
STACK = 0x30000

_MASK = 0xFFFFFFFFFFFFFFFF


def _bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


NAN = _bits(float("nan"))


def make_cpu(code: bytes, tables=None, icache=None, dispatch_cache=None,
             data_pages=1):
    """Map ``code`` at CODE plus a data and a stack page; return a CPU."""
    mem = Memory()
    mem.map(CODE, ((len(code) // PAGE_SIZE) + 1) * PAGE_SIZE,
            readable=True, executable=True)
    mem.host_write(CODE, code)
    mem.map(DATA, data_pages * PAGE_SIZE, readable=True, writable=True)
    mem.map(STACK, PAGE_SIZE, readable=True, writable=True)

    def handler(cpu):
        raise ProgramExit(cpu.regs[Reg.RAX] & 0xFF)

    cpu = CPU(mem, tables if tables is not None else TableMemory(),
              syscall_handler=handler, icache=icache,
              dispatch_cache=dispatch_cache)
    cpu.rip = CODE
    cpu.regs[Reg.RSP] = STACK + PAGE_SIZE - 16
    return cpu


def run_both(items, regs=None, max_steps=10_000, data_pages=1):
    """Run one program through dispatch and through the reference chain.

    Returns ``(dispatch_cpu, reference_cpu, dispatch_outcome,
    reference_outcome)`` where an outcome is the exit code or the raised
    exception instance.
    """
    code = assemble(list(items) + [AsmInstr(Op.SYSCALL, ())],
                    base=CODE).code

    def execute(reference):
        cpu = make_cpu(code, data_pages=data_pages)
        if reference:
            cpu.step = cpu.step_reference
        for index, value in (regs or {}).items():
            cpu.regs[index] = value & _MASK
        try:
            outcome = cpu.run(max_steps=max_steps)
        except Exception as exc:  # noqa: BLE001 - compared structurally
            outcome = exc
        return cpu, outcome

    fast_cpu, fast_out = execute(reference=False)
    ref_cpu, ref_out = execute(reference=True)
    return fast_cpu, ref_cpu, fast_out, ref_out


def assert_identical(fast_cpu, ref_cpu, fast_out, ref_out):
    if isinstance(ref_out, Exception):
        assert type(fast_out) is type(ref_out), (fast_out, ref_out)
    else:
        assert fast_out == ref_out
    assert fast_cpu.snapshot() == ref_cpu.snapshot()
    assert fast_cpu.tx_checks == ref_cpu.tx_checks


class TestDispatchConformance:
    """The dispatch plane is bit-identical to ``step_reference``."""

    def test_straightline_arithmetic(self):
        items = [
            AsmInstr(Op.MOV_RI, (Reg.RAX, 7)),
            AsmInstr(Op.MOV_RI, (Reg.RBX, 5)),
            AsmInstr(Op.IMUL_RR, (Reg.RAX, Reg.RBX)),
            AsmInstr(Op.ADD_RI, (Reg.RAX, 1)),
            AsmInstr(Op.NEG, (Reg.RBX,)),
            AsmInstr(Op.XOR_RI, (Reg.RBX, 0xFF)),
            AsmInstr(Op.SHL_RI, (Reg.RCX, 3)),
        ]
        assert_identical(*run_both(items, regs={Reg.RCX: 9}))

    def test_memory_and_stack_traffic(self):
        items = [
            AsmInstr(Op.MOV_RI, (Reg.RBX, DATA)),
            AsmInstr(Op.MOV_RI, (Reg.RAX, 0x1122334455667788)),
            AsmInstr(Op.STORE64, (Reg.RBX, 0, Reg.RAX)),
            AsmInstr(Op.STORE16, (Reg.RBX, 16, Reg.RAX)),
            AsmInstr(Op.PUSH, (Reg.RAX,)),
            AsmInstr(Op.POP, (Reg.RCX,)),
            AsmInstr(Op.LOAD16, (Reg.RDX, Reg.RBX, 16)),
            AsmInstr(Op.LOAD64, (Reg.RSI, Reg.RBX, 0)),
        ]
        assert_identical(*run_both(items))

    def test_branches_and_calls(self):
        items = [
            AsmInstr(Op.MOV_RI, (Reg.RAX, 0)),
            AsmInstr(Op.MOV_RI, (Reg.RBX, 5)),
            Label("loop"),
            AsmInstr(Op.ADD_RI, (Reg.RAX, 3)),
            AsmInstr(Op.SUB_RI, (Reg.RBX, 1)),
            AsmInstr(Op.CMP_RI, (Reg.RBX, 0)),
            AsmInstr(Op.JNE, (LabelRef("loop"),)),
            AsmInstr(Op.CALL, (LabelRef("fn"),)),
            AsmInstr(Op.JMP, (LabelRef("done"),)),
            Label("fn"),
            AsmInstr(Op.ADD_RI, (Reg.RAX, 100)),
            AsmInstr(Op.RET, ()),
            Label("done"),
        ]
        fast_cpu, ref_cpu, fast_out, ref_out = run_both(items)
        assert_identical(fast_cpu, ref_cpu, fast_out, ref_out)
        assert fast_cpu.regs[Reg.RAX] == 115

    def test_faulting_load_leaves_identical_state(self):
        items = [
            AsmInstr(Op.MOV_RI, (Reg.RAX, 1)),
            AsmInstr(Op.MOV_RI, (Reg.RBX, 0x900000)),
            AsmInstr(Op.ADD_RI, (Reg.RAX, 1)),
            AsmInstr(Op.LOAD64, (Reg.RCX, Reg.RBX, 0)),  # unmapped
            AsmInstr(Op.ADD_RI, (Reg.RAX, 1)),           # never reached
        ]
        fast_cpu, ref_cpu, fast_out, ref_out = run_both(items)
        assert isinstance(ref_out, MemoryFault)
        assert_identical(fast_cpu, ref_cpu, fast_out, ref_out)
        # rip names the faulting instruction, counters include it
        assert fast_cpu.rip == ref_cpu.rip
        assert fast_cpu.instructions == 4

    def test_division_fault_mid_block(self):
        items = [
            AsmInstr(Op.MOV_RI, (Reg.RAX, 10)),
            AsmInstr(Op.MOV_RI, (Reg.RBX, 0)),
            AsmInstr(Op.IDIV_RR, (Reg.RAX, Reg.RBX)),
        ]
        assert_identical(*run_both(items))

    def test_step_limit_raises_at_same_instruction(self):
        items = [
            Label("loop"),
            AsmInstr(Op.ADD_RI, (Reg.RAX, 1)),
            AsmInstr(Op.JMP, (LabelRef("loop"),)),
        ]
        for limit in (1, 2, 3, 64, 65, 129, 1000):
            fast_cpu, ref_cpu, fast_out, ref_out = run_both(
                items, max_steps=limit)
            assert isinstance(ref_out, VMError)
            assert_identical(fast_cpu, ref_cpu, fast_out, ref_out)

    def test_run_off_end_decode_fault(self):
        # Straight-line code that runs past the last assembled byte
        # into zero padding: the dispatch plane pre-decodes ahead, but
        # the decode fault must only fire when execution actually
        # reaches the undecodable address, charging no counters for it.
        from repro.errors import InvalidInstruction

        items = [AsmInstr(Op.ADD_RI, (Reg.RAX, 1))] * 3
        code = assemble(items, base=CODE).code

        def execute(reference):
            cpu = make_cpu(code)
            if reference:
                cpu.step = cpu.step_reference
            try:
                cpu.run(max_steps=100)
            except (MemoryFault, InvalidInstruction) as fault:
                return cpu, fault
            raise AssertionError("expected a fetch fault")

        fast_cpu, fast_fault = execute(False)
        ref_cpu, ref_fault = execute(True)
        assert type(fast_fault) is type(ref_fault)
        assert fast_cpu.snapshot() == ref_cpu.snapshot()
        assert fast_cpu.instructions == 3

    def test_demo_program_identical(self, demo_program):
        from repro.runtime.runtime import Runtime

        fast = Runtime(demo_program)
        fast_result = fast.run()

        ref = Runtime(demo_program)
        cpu = ref.main_cpu()
        cpu.step = cpu.step_reference
        ref_result = ref.run()

        assert fast_result.ok and ref_result.ok
        assert fast_result.exit_code == ref_result.exit_code
        assert fast_result.output == ref_result.output
        assert fast_result.cycles == ref_result.cycles
        assert fast_result.instructions == ref_result.instructions
        assert fast_result.tx_checks == ref_result.tx_checks

    @pytest.mark.parametrize("name", ["libquantum", "mcf"])
    def test_workload_identical(self, name):
        from repro.experiments import compiled
        from repro.runtime.runtime import Runtime

        program = compiled(name, "x64", mcfi=True)
        fast_result = Runtime(program).run()
        ref = Runtime(program)
        cpu = ref.main_cpu()
        cpu.step = cpu.step_reference
        ref_result = ref.run()
        assert fast_result.ok and ref_result.ok
        assert (fast_result.exit_code, fast_result.output,
                fast_result.cycles, fast_result.instructions,
                fast_result.tx_checks) == \
               (ref_result.exit_code, ref_result.output,
                ref_result.cycles, ref_result.instructions,
                ref_result.tx_checks)

    def test_violation_identical(self, demo_program):
        """A CFI violation (stale fptr) reports the same rip/target."""
        from repro.runtime.runtime import Runtime

        def corrupted(reference):
            runtime = Runtime(demo_program)
            cpu = runtime.main_cpu()
            if reference:
                cpu.step = cpu.step_reference
            # Corrupt the first Bary entry after a few checks so a
            # later check transaction mismatches.
            result = runtime.run()
            return result

        # Plain runs agree; now force a mismatch through table state.
        fast = corrupted(False)
        ref = corrupted(True)
        assert fast.status == ref.status


class TestFcmpNanSemantics:
    """PR 5 bugfix: unordered FCMP must behave like x86 ucomisd
    (ZF=CF=1, SF=OF=0), not like 'greater'."""

    def _flags_after(self, left_bits, right_bits, reference):
        items = [AsmInstr(Op.FCMP_RR, (Reg.RAX, Reg.RBX))]
        code = assemble(items + [AsmInstr(Op.SYSCALL, ())], base=CODE).code
        cpu = make_cpu(code)
        if reference:
            cpu.step = cpu.step_reference
        cpu.regs[Reg.RAX] = left_bits
        cpu.regs[Reg.RBX] = right_bits
        cpu.run(max_steps=8)
        return cpu.zf, cpu.lt, cpu.ltu

    @pytest.mark.parametrize("reference", [False, True],
                             ids=["dispatch", "reference"])
    def test_unordered_sets_zf_and_cf(self, reference):
        for left, right in ((NAN, _bits(1.0)), (_bits(1.0), NAN),
                            (NAN, NAN)):
            zf, lt, ltu = self._flags_after(left, right, reference)
            assert (zf, lt, ltu) == (True, False, True)

    @pytest.mark.parametrize("reference", [False, True],
                             ids=["dispatch", "reference"])
    def test_ordered_flags_unchanged(self, reference):
        assert self._flags_after(_bits(2.0), _bits(3.0), reference) == \
            (False, True, True)
        assert self._flags_after(_bits(3.0), _bits(2.0), reference) == \
            (False, False, False)
        assert self._flags_after(_bits(2.0), _bits(2.0), reference) == \
            (True, False, False)

    #: (opcode, taken-on-unordered?) for every float-conditional jump,
    #: per ucomisd: ZF=CF=1 means je/jb/jbe taken, jne/jae/jl/jg not,
    #: jle/jge taken (jle via ZF, jge via SF=OF).
    JUMPS = [
        (Op.JE, True),
        (Op.JNE, False),
        (Op.JB, True),
        (Op.JAE, False),
        (Op.JL, False),
        (Op.JLE, True),
        (Op.JG, False),
        (Op.JGE, True),
    ]

    @pytest.mark.parametrize("opcode,taken", JUMPS,
                             ids=[op.name for op, _ in JUMPS])
    def test_every_float_conditional_jump_on_nan(self, opcode, taken):
        items = [
            AsmInstr(Op.FCMP_RR, (Reg.RAX, Reg.RBX)),
            AsmInstr(opcode, (LabelRef("taken"),)),
            AsmInstr(Op.MOV_RI, (Reg.RCX, 1)),
            AsmInstr(Op.JMP, (LabelRef("out"),)),
            Label("taken"),
            AsmInstr(Op.MOV_RI, (Reg.RCX, 2)),
            Label("out"),
        ]
        fast_cpu, ref_cpu, fast_out, ref_out = run_both(
            items, regs={Reg.RAX: NAN, Reg.RBX: _bits(1.0)})
        assert_identical(fast_cpu, ref_cpu, fast_out, ref_out)
        assert fast_cpu.regs[Reg.RCX] == (2 if taken else 1)

    def test_nan_comparison_is_not_greater(self):
        """The old bug: NaN left all flags false, so JG was taken."""
        fast_cpu, _, _, _ = run_both([
            AsmInstr(Op.FCMP_RR, (Reg.RAX, Reg.RBX)),
            AsmInstr(Op.JG, (LabelRef("greater"),)),
            AsmInstr(Op.MOV_RI, (Reg.RDX, 0)),
            AsmInstr(Op.JMP, (LabelRef("out"),)),
            Label("greater"),
            AsmInstr(Op.MOV_RI, (Reg.RDX, 1)),
            Label("out"),
        ], regs={Reg.RAX: NAN, Reg.RBX: _bits(0.0)})
        assert fast_cpu.regs[Reg.RDX] == 0


class TestTornStore16:
    """PR 5 bugfix: STORE16 must validate both byte addresses before
    mutating memory — a page-boundary fault may not leave one byte."""

    BOUNDARY = DATA + PAGE_SIZE - 1  # low byte on page 1, high on page 2

    def _cpu_with_readonly_second_page(self, items, regs, reference):
        code = assemble(list(items) + [AsmInstr(Op.SYSCALL, ())],
                        base=CODE).code
        mem = Memory()
        mem.map(CODE, PAGE_SIZE, readable=True, executable=True)
        mem.host_write(CODE, code)
        mem.map(DATA, PAGE_SIZE, readable=True, writable=True)
        mem.map(DATA + PAGE_SIZE, PAGE_SIZE, readable=True, writable=False)
        mem.map(STACK, PAGE_SIZE, readable=True, writable=True)
        cpu = CPU(mem, TableMemory(),
                  syscall_handler=lambda c: (_ for _ in ()).throw(
                      ProgramExit(0)))
        if reference:
            cpu.step = cpu.step_reference
        cpu.rip = CODE
        cpu.regs[Reg.RSP] = STACK + PAGE_SIZE - 16
        for index, value in regs.items():
            cpu.regs[index] = value & _MASK
        return cpu

    @pytest.mark.parametrize("reference", [False, True],
                             ids=["dispatch", "reference"])
    def test_store16_page_straddle_is_atomic(self, reference):
        cpu = self._cpu_with_readonly_second_page(
            [AsmInstr(Op.STORE16, (Reg.RBX, 0, Reg.RAX))],
            {Reg.RBX: self.BOUNDARY, Reg.RAX: 0xBBAA}, reference)
        # Pre-fill the writable low byte so a torn store is detectable.
        cpu.memory.write_u8(self.BOUNDARY, 0x55)
        with pytest.raises(MemoryFault) as err:
            cpu.run(max_steps=4)
        assert err.value.address == self.BOUNDARY + 1
        # The bug left 0xAA here after the fault.
        assert cpu.memory.read_u8(self.BOUNDARY) == 0x55

    @pytest.mark.parametrize("reference", [False, True],
                             ids=["dispatch", "reference"])
    def test_load16_page_straddle_fault_address(self, reference):
        mem_items = [AsmInstr(Op.LOAD16, (Reg.RCX, Reg.RBX, 0))]
        code = assemble(mem_items + [AsmInstr(Op.SYSCALL, ())],
                        base=CODE).code
        mem = Memory()
        mem.map(CODE, PAGE_SIZE, readable=True, executable=True)
        mem.host_write(CODE, code)
        mem.map(DATA, PAGE_SIZE, readable=True, writable=True)
        # second page unmapped: high byte unreadable
        cpu = CPU(mem, TableMemory())
        if reference:
            cpu.step = cpu.step_reference
        cpu.rip = CODE
        cpu.regs[Reg.RBX] = self.BOUNDARY
        with pytest.raises(MemoryFault) as err:
            cpu.run(max_steps=4)
        assert err.value.address == self.BOUNDARY + 1
        assert cpu.regs[Reg.RCX] == 0  # no partial result

    def test_store16_load16_roundtrip_across_pages(self):
        """Both pages writable: the straddling access works and agrees
        with the reference interpreter."""
        items = [
            AsmInstr(Op.MOV_RI, (Reg.RBX, self.BOUNDARY)),
            AsmInstr(Op.MOV_RI, (Reg.RAX, 0xBEEF)),
            AsmInstr(Op.STORE16, (Reg.RBX, 0, Reg.RAX)),
            AsmInstr(Op.LOAD16, (Reg.RCX, Reg.RBX, 0)),
        ]
        fast_cpu, ref_cpu, fast_out, ref_out = run_both(items,
                                                        data_pages=2)
        assert_identical(fast_cpu, ref_cpu, fast_out, ref_out)
        assert fast_cpu.regs[Reg.RCX] == 0xBEEF


def check_sequence(bary_index=0):
    """The instrumenter's five-instruction check-transaction Try block,
    followed by the Check fallback (HLT)."""
    return [
        Label("try"),
        AsmInstr(Op.TLOAD_RI, (Reg.RDI, bary_index)),
        AsmInstr(Op.TLOAD_RR, (Reg.RSI, Reg.RCX)),
        AsmInstr(Op.CMP_RR, (Reg.RDI, Reg.RSI)),
        AsmInstr(Op.JNE, (LabelRef("check"),)),
        AsmInstr(Op.JMP_R, (Reg.RCX,)),
        Label("check"),
        AsmInstr(Op.HLT, ()),
    ]


class TestFusedCheckTransaction:
    """The fused macro-op: identical observables, generation-stamped
    branch-ID caching invalidated by every table update."""

    def _program(self):
        # Target lands after the check block; give it a valid Tary ID.
        items = check_sequence() + [
            Label("target"),
            AsmInstr(Op.MOV_RI, (Reg.RAX, 0)),
            AsmInstr(Op.SYSCALL, ()),
        ]
        out = assemble(items, base=CODE)
        target = out.labels["target"]
        return out.code, target

    def _run(self, code, target, tables, icache=None, cache=None,
             reference=False):
        cpu = make_cpu(code, tables=tables, icache=icache,
                       dispatch_cache=cache)
        if reference:
            cpu.step = cpu.step_reference
        cpu.regs[Reg.RCX] = target
        try:
            exit_code = cpu.run(max_steps=2000)
            return cpu, exit_code
        except CfiViolation as violation:
            return cpu, violation

    def test_fused_match_identical_to_reference(self):
        code, target = self._program()
        tables_a = TableMemory()
        tables_a.write_bary(0, 0x41)
        tables_a.write_tary(target, 0x41)
        fast_cpu, fast_out = self._run(code, target, tables_a)
        tables_b = TableMemory()
        tables_b.write_bary(0, 0x41)
        tables_b.write_tary(target, 0x41)
        ref_cpu, ref_out = self._run(code, target, tables_b,
                                     reference=True)
        assert fast_out == ref_out == 0
        assert fast_cpu.snapshot() == ref_cpu.snapshot()
        assert fast_cpu.tx_checks == ref_cpu.tx_checks == 1
        assert fast_cpu.dispatch_cache.fused_sites == 1

    def test_fused_mismatch_identical_to_reference(self):
        code, target = self._program()

        def tables_with(branch, tgt):
            tables = TableMemory()
            tables.write_bary(0, branch)
            tables.write_tary(target, tgt)
            return tables

        fast_cpu, fast_out = self._run(code, target,
                                       tables_with(0x41, 0x99))
        ref_cpu, ref_out = self._run(code, target,
                                     tables_with(0x41, 0x99),
                                     reference=True)
        assert isinstance(fast_out, CfiViolation)
        assert isinstance(ref_out, CfiViolation)
        assert fast_cpu.snapshot() == ref_cpu.snapshot()
        assert fast_cpu.tx_checks == ref_cpu.tx_checks == 1

    def test_generation_stamp_invalidates_cached_branch_id(self):
        """An update transaction's table stores must defeat the fused
        op's cached Bary read — a stale cached ID would either forge or
        spuriously halt after re-instrumentation."""
        code, target = self._program()
        tables = TableMemory()
        tables.write_bary(0, 0x41)
        tables.write_tary(target, 0x41)
        icache, cache = {}, DispatchCache()

        cpu, out = self._run(code, target, tables, icache, cache)
        assert out == 0
        assert cache.fused_sites == 1

        # Re-ID the world, as an UpdateTransaction would: both tables
        # move to a new ID.  write_tary/write_bary bump `generation`.
        tables.write_bary(0, 0x99)
        tables.write_tary(target, 0x99)
        cpu2, out2 = self._run(code, target, tables, icache, cache)
        assert out2 == 0, "fused path served a stale branch ID"
        assert cpu2.tx_checks == 1

        # And a divergent update (only Tary moves) must now *halt*.
        tables.write_tary(target, 0x123)
        cpu3, out3 = self._run(code, target, tables, icache, cache)
        assert isinstance(out3, CfiViolation)

    def test_note_update_bumps_generation(self):
        from repro.core.tables import IdTables

        tables = IdTables(TableMemory())
        tables.install({0x1000: 1}, {0: 1})
        before = tables.memory.generation
        tables.note_update()
        assert tables.memory.generation > before

    def test_fused_counts_each_attempt(self):
        """tx_checks counts once per fused execution, like TLOAD_RI."""
        code, target = self._program()
        tables = TableMemory()
        tables.write_bary(0, 0x41)
        tables.write_tary(target, 0x41)
        icache, cache = {}, DispatchCache()
        for expected in (1, 1, 1):
            cpu, out = self._run(code, target, tables, icache, cache)
            assert out == 0
            assert cpu.tx_checks == expected

    def test_partial_template_not_fused(self):
        """A TLOAD_RI not followed by the full Try block executes
        unfused and still matches the reference."""
        items = [
            AsmInstr(Op.TLOAD_RI, (Reg.RDI, 0)),
            AsmInstr(Op.ADD_RI, (Reg.RDI, 1)),
        ]
        fast_cpu, ref_cpu, fast_out, ref_out = run_both(items)
        assert_identical(fast_cpu, ref_cpu, fast_out, ref_out)
        assert fast_cpu.dispatch_cache.fused_sites == 0


class TestBlockCacheInvalidation:
    """Re-mapping or JIT-installing code at a previously executed
    address must never execute stale decoded entries."""

    def _mov_exit(self, value):
        return assemble([
            AsmInstr(Op.MOV_RI, (Reg.RAX, value)),
            AsmInstr(Op.SYSCALL, ()),
        ], base=CODE).code

    def test_invalidate_range_drops_closures_and_blocks(self):
        code_v1 = self._mov_exit(1)
        icache, cache = {}, DispatchCache()
        cpu = make_cpu(code_v1, icache=icache, dispatch_cache=cache)
        assert cpu.run(max_steps=2000) == 1
        assert cache.blocks and cache.closures

        # JIT-install new code over the same address range.
        code_v2 = self._mov_exit(2)
        cpu.memory.host_write(CODE, code_v2)
        for address in [a for a in icache
                        if CODE <= a < CODE + len(code_v1)]:
            del icache[address]
        cache.invalidate_range(CODE, CODE + len(code_v1))
        assert not cache.blocks and not cache.closures

        cpu2 = make_cpu(code_v2, icache=icache, dispatch_cache=cache)
        cpu2.memory = cpu.memory  # same address space
        cpu2.rip = CODE
        assert cpu2.run(max_steps=2000) == 2

    def test_stale_entries_without_invalidation_would_win(self):
        """Sanity check on the hazard itself: with the icache scrubbed
        but the dispatch cache left stale, the old closures execute —
        which is exactly why the linker must invalidate both."""
        code_v1 = self._mov_exit(1)
        icache, cache = {}, DispatchCache()
        cpu = make_cpu(code_v1, icache=icache, dispatch_cache=cache)
        assert cpu.run(max_steps=2000) == 1

        code_v2 = self._mov_exit(2)
        cpu.memory.host_write(CODE, code_v2)
        icache.clear()  # icache scrubbed, dispatch cache NOT
        cpu.rip = CODE
        assert cpu.run(max_steps=2000) == 1  # stale block still wins

    def test_block_overlap_invalidation_covers_interior(self):
        """Invalidating a range inside a block drops the whole block,
        not only blocks whose entry falls inside the range."""
        items = [AsmInstr(Op.ADD_RI, (Reg.RAX, 1))] * 8 + [
            AsmInstr(Op.SYSCALL, ())]
        code = assemble(items, base=CODE).code
        icache, cache = {}, DispatchCache()
        cpu = make_cpu(code, icache=icache, dispatch_cache=cache)
        cpu.run(max_steps=2000)
        assert CODE in cache.blocks
        # invalidate one byte in the middle of the block's span
        middle = CODE + len(code) // 2
        cache.invalidate_range(middle, middle + 1)
        assert CODE not in cache.blocks

    def test_dlclose_leaves_no_stale_decoded_code(self):
        """After the demo dlopen/dlclose program runs, no cached block
        or closure survives on a page that is no longer executable."""
        from repro.linker.dynamic_linker import DynamicLinker
        from repro.runtime.runtime import Runtime
        from repro.build import build_program, compile_object

        source = r"""
            int main(void) {
                long h = dlopen("plugin");
                long sym = dlsym(h, "libfn");
                int (*f)(int) = (int (*)(int))sym;
                print_int(f(10));
                dlclose(h);
                return 0;
            }
        """
        program = build_program({"main": source}, mcfi=True).program
        runtime = Runtime(program)
        linker = DynamicLinker(runtime)
        linker.register("plugin", compile_object(
            "int libfn(int x) { return x * 3 + 1; }", name="plugin"))
        result = runtime.run()
        assert result.output.startswith(b"31")
        memory = runtime.memory
        for address in runtime.dispatch_cache.closures:
            assert memory.is_executable(address)
        for block in runtime.dispatch_cache.blocks.values():
            assert memory.is_executable(block.entry)
        for address in runtime.icache:
            assert memory.is_executable(address)

    def test_reload_after_unload_executes_new_code(self):
        """dlclose + re-register + dlopen: calling through the fresh
        module must execute the *new* body, through the dispatch plane."""
        from repro.linker.dynamic_linker import DynamicLinker
        from repro.runtime.runtime import Runtime
        from repro.build import build_program, compile_object

        source = r"""
            int main(void) {
                long h = dlopen("plugin");
                int (*f)(int) = (int (*)(int))dlsym(h, "libfn");
                print_int(f(10));
                print_char(' ');
                dlclose(h);
                long h2 = dlopen("plugin");
                int (*g)(int) = (int (*)(int))dlsym(h2, "libfn");
                print_int(g(10));
                return 0;
            }
        """
        program = build_program({"main": source}, mcfi=True).program
        runtime = Runtime(program)
        linker = DynamicLinker(runtime)
        plugin_v1 = compile_object(
            "int libfn(int x) { return x * 3 + 1; }", name="plugin")
        plugin_v2 = compile_object(
            "int libfn(int x) { return x + 1000; }", name="plugin2")
        versions = [plugin_v1, plugin_v2]

        original_dlopen = linker.dlopen

        def swapping_dlopen(name, *args, **kwargs):
            linker.registry[name] = versions.pop(0)
            return original_dlopen(name, *args, **kwargs)

        linker.dlopen = swapping_dlopen
        result = runtime.run()
        assert result.ok, (result.violation, result.fault)
        assert result.output == b"31 1010"


class TestTracerInteraction:
    """Instance-level step hooks force the per-instruction path and
    detach cleanly back to block dispatch."""

    def test_tracer_attach_detach_restores_block_dispatch(self):
        code = assemble([
            AsmInstr(Op.MOV_RI, (Reg.RAX, 0)),
            AsmInstr(Op.SYSCALL, ()),
        ], base=CODE).code
        cpu = make_cpu(code)
        assert "step" not in cpu.__dict__
        tracer = BranchTracer(cpu)
        assert "step" in cpu.__dict__
        tracer.detach()
        assert "step" not in cpu.__dict__

    def test_traced_run_matches_untraced_counters(self, demo_program):
        from repro.runtime.runtime import Runtime

        untraced = Runtime(demo_program).run()
        runtime = Runtime(demo_program)
        tracer = BranchTracer(runtime.main_cpu())
        traced = runtime.run()
        assert traced.ok and untraced.ok
        assert (traced.cycles, traced.instructions, traced.tx_checks) == \
            (untraced.cycles, untraced.instructions, untraced.tx_checks)
        assert len(tracer.events) > 0

    def test_nested_tracer_detach_preserves_outer_hook(self):
        code = assemble([AsmInstr(Op.SYSCALL, ())], base=CODE).code
        cpu = make_cpu(code)
        outer = BranchTracer(cpu)
        inner = BranchTracer(cpu)
        inner.detach()
        assert cpu.step == outer._traced_step
        outer.detach()
        assert "step" not in cpu.__dict__
