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

The conformance classes run on both block tiers: as written (blocks
run cold until they reach ``HOT_BLOCK_RUNS``, which these short
programs seldom do) and, in the ``...Generated`` subclasses at the end,
with every block's source generated before its first run.
``TestStoreForwarding`` holds the generated tier's store-to-load
forwarding to the reference on seeded random blocks, comparing the
bytes of every mapped page as well.
"""

import re
import struct
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import CfiViolation, MemoryFault, VMError
from repro.isa.assembler import AsmInstr, Label, LabelRef, assemble
from repro.isa.instructions import SPECS, Op
from repro.isa.registers import Reg
from repro.vm import dispatch
from repro.vm.cpu import CPU, ProgramExit
from repro.vm.dispatch import DispatchCache
from repro.vm.memory import Memory, PAGE_SIZE, TableMemory
from repro.vm.syscalls import SYS_TIME
from repro.vm.trace import BranchTracer

CODE = 0x10000
DATA = 0x20000
STACK = 0x30000

_MASK = 0xFFFFFFFFFFFFFFFF


def _bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


NAN = _bits(float("nan"))


def exit_handler(cpu):
    raise ProgramExit(cpu.regs[Reg.RAX] & 0xFF)


@pytest.fixture
def generated_tier(monkeypatch):
    """Generate every block's source before its first run."""
    monkeypatch.setattr(dispatch, "HOT_BLOCK_RUNS", 0)


def make_cpu(code: bytes, tables=None, dispatch_cache=None,
             data_pages=1, handler=exit_handler):
    """Map ``code`` at CODE plus a data and a stack page; return a CPU."""
    mem = Memory()
    mem.map(CODE, ((len(code) // PAGE_SIZE) + 1) * PAGE_SIZE,
            readable=True, executable=True)
    mem.host_write(CODE, code)
    mem.map(DATA, data_pages * PAGE_SIZE, readable=True, writable=True)
    mem.map(STACK, PAGE_SIZE, readable=True, writable=True)
    cpu = CPU(mem, tables if tables is not None else TableMemory(),
              syscall_handler=handler, dispatch_cache=dispatch_cache)
    cpu.rip = CODE
    cpu.regs[Reg.RSP] = STACK + PAGE_SIZE - 16
    return cpu


def run_both(items, regs=None, max_steps=10_000, data_pages=1,
             handler=exit_handler):
    """Run one program through dispatch and through the reference chain.

    Returns ``(dispatch_cpu, reference_cpu, dispatch_outcome,
    reference_outcome)`` where an outcome is the exit code or the raised
    exception instance.  On the generated tier, every block the
    dispatch run built must have been generated.
    """
    code = assemble(list(items) + [AsmInstr(Op.SYSCALL, ())],
                    base=CODE).code

    def execute(reference):
        cpu = make_cpu(code, data_pages=data_pages, handler=handler)
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
    if dispatch.HOT_BLOCK_RUNS == 0:
        cache = fast_cpu.dispatch_cache
        assert cache.blocks_generated == cache.blocks_built
    return fast_cpu, ref_cpu, fast_out, ref_out


def assert_identical(fast_cpu, ref_cpu, fast_out, ref_out):
    if isinstance(ref_out, Exception):
        assert type(fast_out) is type(ref_out), (fast_out, ref_out)
    else:
        assert fast_out == ref_out
    assert fast_cpu.snapshot() == ref_cpu.snapshot()
    assert fast_cpu.tx_checks == ref_cpu.tx_checks


_MEMORY_CALL = re.compile(r"\{mem\}\.(read|write)_u(\d+)\(")


class TestTemplatesMatchSpecs:
    """Each opcode template writes what its ``SPECS`` entry says: the
    same register operands, RSP (through ``{sp}``) or not, and memory
    of the stated width, so the VM's semantics and the verifier's model
    of them cannot drift apart.  ``syscall`` and ``hlt`` are excepted:
    what they write is up to their handlers (the runtime's system calls
    and the CFI halt), which the template only calls."""

    @pytest.mark.parametrize("name", [op.name for op, spec in SPECS.items()
                                      if not spec.traps])
    def test_template_writes_what_spec_states(self, name):
        spec, sem = SPECS[Op[name]], dispatch.SEMANTICS[Op[name]]
        assert sem.reg_stores == spec.writes
        assert ("sp" in sem.stores) == spec.writes_sp
        widths = {"read": set(), "write": set()}
        for kind, bits in _MEMORY_CALL.findall(sem.body):
            widths[kind].add(int(bits) // 8)
        # a push or a call stores one stack word; a pop or a ret loads one
        stack = {8} if spec.writes_sp else set()
        pushes = stack if spec.implicit_store else set()
        assert widths["read"] == {spec.load} - {0} | (stack - pushes)
        assert widths["write"] == {spec.store} - {0} | pushes


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


QNAN1 = 0x7FF8000000000001
QNAN2 = 0xFFF8000000000002
SNAN3 = 0x7FF0000000000003
DEFAULT_NAN = 0xFFF8000000000000
INDEFINITE = 0x8000000000000000
INF = _bits(float("inf"))


class TestFloatEdgeSemantics:
    """x86 SSE results where CPython's float arithmetic has none of its
    own: NaN payload propagation and out-of-range truncation.  Each
    case runs on the reference tier and on the dispatch tier (cold
    here, generated in the subclass)."""

    def _result(self, opcode, left, right=None):
        operands = (Reg.RAX,) if right is None else (Reg.RAX, Reg.RBX)
        regs = {Reg.RAX: left, Reg.RBX: right or 0}
        fast_cpu, ref_cpu, fast_out, ref_out = run_both(
            [AsmInstr(opcode, operands)], regs=regs)
        assert_identical(fast_cpu, ref_cpu, fast_out, ref_out)
        return fast_cpu.regs[Reg.RAX]

    ARITH = [Op.FADD_RR, Op.FSUB_RR, Op.FMUL_RR, Op.FDIV_RR]

    @pytest.mark.parametrize("opcode", ARITH, ids=[op.name for op in ARITH])
    @pytest.mark.parametrize("left,right,expected", [
        (QNAN1, QNAN2, QNAN1),            # first NaN operand wins
        (QNAN2, QNAN1, QNAN2),
        (SNAN3, QNAN1, SNAN3 | 1 << 51),  # ... quieted
        (QNAN1, SNAN3, QNAN1),
        (_bits(2.0), SNAN3, SNAN3 | 1 << 51),
        (_bits(2.0), QNAN2, QNAN2),
    ], ids=["q1-q2", "q2-q1", "s3-q1", "q1-s3", "num-s3", "num-q2"])
    def test_nan_operand_propagates(self, opcode, left, right, expected):
        assert self._result(opcode, left, right) == expected

    @pytest.mark.parametrize("opcode,left,right", [
        (Op.FSUB_RR, INF, INF),
        (Op.FADD_RR, INF, INF | INDEFINITE),
        (Op.FMUL_RR, _bits(0.0), INF),
        (Op.FDIV_RR, INF, INF),
    ], ids=["inf-inf", "inf+-inf", "0*inf", "inf/inf"])
    def test_invalid_operation_gives_default_nan(self, opcode, left,
                                                 right):
        assert self._result(opcode, left, right) == DEFAULT_NAN

    @pytest.mark.parametrize("value,expected", [
        (INF, INDEFINITE),
        (INF | INDEFINITE, INDEFINITE),                 # -inf
        (QNAN1, INDEFINITE),
        (_bits(1.0e308), INDEFINITE),
        (_bits(2.0 ** 63), INDEFINITE),
        (_bits(-(2.0 ** 63)), INDEFINITE),              # in range
        (_bits(2.0 ** 63 - 1024), 2 ** 63 - 1024),
        (_bits(-3.75), -3 & _MASK),
        (_bits(3.75), 3),
    ], ids=["inf", "-inf", "nan", "1e308", "2^63", "-2^63",
            "below-2^63", "-3.75", "3.75"])
    def test_cvtf2si_truncates_like_cvttsd2si(self, value, expected):
        assert self._result(Op.CVTF2SI, value) == expected


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

    def _run(self, code, target, tables, cache=None, reference=False):
        cpu = make_cpu(code, tables=tables, dispatch_cache=cache)
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
        cache = DispatchCache()

        cpu, out = self._run(code, target, tables, cache)
        assert out == 0
        assert cache.fused_sites == 1

        # Re-ID the world, as an UpdateTransaction would: both tables
        # move to a new ID.  write_tary/write_bary bump `generation`.
        tables.write_bary(0, 0x99)
        tables.write_tary(target, 0x99)
        cpu2, out2 = self._run(code, target, tables, cache)
        assert out2 == 0, "fused path served a stale branch ID"
        assert cpu2.tx_checks == 1

        # And a divergent update (only Tary moves) must now *halt*.
        tables.write_tary(target, 0x123)
        cpu3, out3 = self._run(code, target, tables, cache)
        assert isinstance(out3, CfiViolation)

    def test_fused_tary_fault_identical_to_reference(self):
        """A Tary read outside the table faults inside the fused op:
        the Bary read, the counters through the TLOAD_RR and rip must
        match the reference."""
        code, _ = self._program()

        def run(reference):
            tables = TableMemory()
            tables.write_bary(0, 0x41)
            cpu = make_cpu(code, tables=tables)
            if reference:
                cpu.step = cpu.step_reference
            cpu.regs[Reg.RCX] = tables.tary_size
            with pytest.raises(MemoryFault):
                cpu.run(max_steps=2000)
            return cpu

        fast_cpu, ref_cpu = run(False), run(True)
        assert fast_cpu.snapshot() == ref_cpu.snapshot()
        assert fast_cpu.tx_checks == ref_cpu.tx_checks == 1
        assert fast_cpu.regs[Reg.RDI] == 0x41
        assert fast_cpu.instructions == 2

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
        cache = DispatchCache()
        for expected in (1, 1, 1):
            cpu, out = self._run(code, target, tables, cache)
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
        cache = DispatchCache()
        cpu = make_cpu(code_v1, dispatch_cache=cache)
        assert cpu.run(max_steps=2000) == 1
        assert cache.blocks and cache.closures and cache.decoded

        # JIT-install new code over the same address range.
        code_v2 = self._mov_exit(2)
        cpu.memory.host_write(CODE, code_v2)
        cache.invalidate_range(CODE, CODE + len(code_v1))
        assert not cache.blocks and not cache.closures
        assert not cache.decoded

        cpu2 = make_cpu(code_v2, dispatch_cache=cache)
        cpu2.memory = cpu.memory  # same address space
        cpu2.rip = CODE
        assert cpu2.run(max_steps=2000) == 2

    def test_stale_entries_without_invalidation_would_win(self):
        """Sanity check on the hazard itself: with no
        ``invalidate_range``, the old decoded block executes — which is
        exactly why the runtime retires code through it."""
        code_v1 = self._mov_exit(1)
        cache = DispatchCache()
        cpu = make_cpu(code_v1, dispatch_cache=cache)
        assert cpu.run(max_steps=2000) == 1

        code_v2 = self._mov_exit(2)
        cpu.memory.host_write(CODE, code_v2)  # no invalidate_range
        cpu.rip = CODE
        assert cpu.run(max_steps=2000) == 1  # stale block still wins

    def test_block_overlap_invalidation_covers_interior(self):
        """Invalidating a range inside a block drops the whole block,
        not only blocks whose entry falls inside the range."""
        items = [AsmInstr(Op.ADD_RI, (Reg.RAX, 1))] * 8 + [
            AsmInstr(Op.SYSCALL, ())]
        code = assemble(items, base=CODE).code
        cache = DispatchCache()
        cpu = make_cpu(code, dispatch_cache=cache)
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
        for address in runtime.dispatch_cache.decoded:
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


class TestHotBlocks:
    """The generated tier: fault repair, a syscall that reads the
    counters, promotion mid-run and invalidation of hot blocks."""

    def test_fault_mid_block_repairs_state(self, generated_tier):
        """Registers written earlier in the block, the flags, the
        counters and rip are those of the reference at the fault."""
        items = [
            AsmInstr(Op.MOV_RI, (Reg.RAX, 5)),
            AsmInstr(Op.MOV_RI, (Reg.RBX, 0x900000)),
            AsmInstr(Op.CMP_RI, (Reg.RAX, 9)),
            AsmInstr(Op.PUSH, (Reg.RAX,)),
            AsmInstr(Op.ADD_RR, (Reg.RCX, Reg.RAX)),
            AsmInstr(Op.LOAD64, (Reg.RDX, Reg.RBX, 8)),  # unmapped
            AsmInstr(Op.MOV_RI, (Reg.RAX, 99)),
            AsmInstr(Op.CMP_RR, (Reg.RAX, Reg.RAX)),
        ]
        fault_at = assemble(items[:5], base=CODE).code
        fast_cpu, ref_cpu, fast_out, ref_out = run_both(
            items, regs={Reg.RCX: 3})
        assert isinstance(ref_out, MemoryFault)
        assert_identical(fast_cpu, ref_cpu, fast_out, ref_out)
        assert fast_cpu.dispatch_cache.blocks_generated == 1
        assert fast_cpu.rip == CODE + len(fault_at)
        assert fast_cpu.instructions == 6
        assert fast_cpu.regs[Reg.RCX] == 8
        assert fast_cpu.regs[Reg.RSP] == STACK + PAGE_SIZE - 24
        assert (fast_cpu.zf, fast_cpu.lt, fast_cpu.ltu) == \
            (False, True, True)

    def test_sys_time_reads_reference_cycles(self, generated_tier):
        """SYS_TIME returns ``cycles``: the block charges its counters,
        the syscall's own included, before the handler runs."""
        def handler(cpu):
            if cpu.regs[Reg.RAX] == SYS_TIME:
                cpu.regs[Reg.RAX] = cpu.cycles
                return
            exit_handler(cpu)

        items = [
            AsmInstr(Op.MOV_RI, (Reg.RBX, 3)),
            AsmInstr(Op.IMUL_RR, (Reg.RBX, Reg.RBX)),
            AsmInstr(Op.MOV_RI, (Reg.RAX, SYS_TIME)),
            AsmInstr(Op.SYSCALL, ()),
            AsmInstr(Op.MOV_RR, (Reg.RDX, Reg.RAX)),
            AsmInstr(Op.MOV_RI, (Reg.RAX, 0)),
        ]
        fast_cpu, ref_cpu, fast_out, ref_out = run_both(items,
                                                        handler=handler)
        assert fast_out == ref_out == 0
        assert_identical(fast_cpu, ref_cpu, fast_out, ref_out)
        assert fast_cpu.regs[Reg.RDX] == 1 + 3 + 1 + 50
        assert fast_cpu.dispatch_cache.blocks_generated == 2

    def test_loop_promoted_mid_run(self):
        """With the real threshold the loop block runs cold, then is
        generated and finishes hot, matching the reference."""
        items = [
            AsmInstr(Op.MOV_RI, (Reg.RBX, DATA)),
            AsmInstr(Op.MOV_RI, (Reg.RCX, 100)),
            Label("loop"),
            AsmInstr(Op.LOAD64, (Reg.RAX, Reg.RBX, 0)),
            AsmInstr(Op.ADD_RR, (Reg.RAX, Reg.RCX)),
            AsmInstr(Op.STORE64, (Reg.RBX, 0, Reg.RAX)),
            AsmInstr(Op.SUB_RI, (Reg.RCX, 1)),
            AsmInstr(Op.CMP_RI, (Reg.RCX, 0)),
            AsmInstr(Op.JNE, (LabelRef("loop"),)),
        ]
        loop = assemble(items, base=CODE).labels["loop"]
        fast_cpu, ref_cpu, fast_out, ref_out = run_both(items)
        assert_identical(fast_cpu, ref_cpu, fast_out, ref_out)
        assert fast_cpu.regs[Reg.RAX] == 5050
        block = fast_cpu.dispatch_cache.blocks[loop]
        assert block.runs == dispatch.HOT_BLOCK_RUNS < 99
        assert block.run.__name__ == "block"
        assert fast_cpu.dispatch_cache.blocks_generated == 1

    def test_code_installed_over_hot_block_runs(self):
        """Code written over a promoted block and invalidated, as the
        JIT and the dynamic linker do, executes in place of the old."""
        def program(step):
            return assemble([
                AsmInstr(Op.MOV_RI, (Reg.RAX, 0)),
                AsmInstr(Op.MOV_RI, (Reg.RCX, 40)),
                Label("loop"),
                AsmInstr(Op.ADD_RI, (Reg.RAX, step)),
                AsmInstr(Op.SUB_RI, (Reg.RCX, 1)),
                AsmInstr(Op.CMP_RI, (Reg.RCX, 0)),
                AsmInstr(Op.JNE, (LabelRef("loop"),)),
                AsmInstr(Op.SYSCALL, ()),
            ], base=CODE)

        old, new = program(1), program(2)
        cache = DispatchCache()
        cpu = make_cpu(old.code, dispatch_cache=cache)
        assert cpu.run(max_steps=2000) == 40
        assert cache.blocks[old.labels["loop"]].run.__name__ == "block"

        cpu.memory.host_write(CODE, new.code)
        cache.invalidate_range(CODE, CODE + len(old.code))
        assert not cache.blocks
        cpu.rip = CODE
        assert cpu.run(max_steps=2000) == 80

    def test_gen_smoke_has_no_findings(self, generated_tier):
        """Every gen-smoke member agrees with its oracle, across archs
        and devirtualization, and with step_reference.  The lint and
        incremental legs run no VM code, so they are left out."""
        from repro.workloads.corpus import CorpusConfig, run_set

        report = run_set("gen-smoke", config=CorpusConfig(
            lint=False, incremental=False))
        assert len(report.reports) == 20
        assert [r.findings for r in report.reports if not r.ok] == []


# -- store-to-load forwarding in generated blocks ---------------------------

#: Base registers of the forwarding blocks, and the registers whose
#: values they store and load.
_BASES = (Reg.RBX, Reg.RBP, Reg.RDI, Reg.RSP)
_VALUES = (Reg.RAX, Reg.RCX, Reg.RDX, Reg.RSI)
_LOADS = {1: Op.LOAD8, 2: Op.LOAD16, 4: Op.LOAD32, 8: Op.LOAD64}
_STORES = {1: Op.STORE8, 2: Op.STORE16, 4: Op.STORE32, 8: Op.STORE64}
#: The forwarding blocks' memory: two writable data pages, then a
#: read-only one, and the stack page; nothing else is mapped.
_READ_ONLY = DATA + 2 * PAGE_SIZE
_MAPPED = ((CODE, PAGE_SIZE), (DATA, 3 * PAGE_SIZE), (STACK, PAGE_SIZE))


def _store(width, base, disp, src):
    return AsmInstr(_STORES[width], (base, disp, src))


def _load(width, dst, base, disp):
    return AsmInstr(_LOADS[width], (dst, base, disp))


#: Base addresses, repeated to weight the draw: two eight bytes apart
#: (aliased slots), one whose wide accesses straddle two writable
#: pages, one that straddles into the read-only page, one inside it,
#: one unmapped, and RSP's (pushes alias its slots).
_RSP0 = STACK + PAGE_SIZE - 16
_ADDRESSES = (DATA + 0x100,) * 3 + (DATA + 0x108,) * 3 + (
    DATA + PAGE_SIZE - 3, _READ_ONLY - 5, _READ_ONLY + 8, 0x900000,
    _RSP0)
_DISPS = (-8, -1, 0, 2, 4, 7, 8)

_ACCESS = st.tuples(st.sampled_from(sorted(_LOADS)), st.sampled_from(_BASES),
                    st.sampled_from(_DISPS))
_INSTR = st.one_of(
    st.builds(lambda access, src: _store(*access, src),
              _ACCESS, st.sampled_from(_VALUES)),
    st.builds(lambda access, dst: _load(access[0], dst, *access[1:]),
              _ACCESS, st.sampled_from(_VALUES + _BASES[:3])),
    st.builds(lambda reg: AsmInstr(Op.MOVZX32, (reg,)),
              st.sampled_from(_BASES + _VALUES)),
    st.builds(lambda reg, imm: AsmInstr(Op.ADD_RI, (reg, imm)),
              st.sampled_from(_BASES[:3]), st.sampled_from((-8, 8))),
    st.builds(lambda dst, src: AsmInstr(Op.MOV_RR, (dst, src)),
              st.sampled_from(_BASES[:3]), st.sampled_from(_BASES)),
    st.builds(lambda reg, address: AsmInstr(Op.MOV_RI, (reg, address)),
              st.sampled_from(_BASES[:3]), st.sampled_from(_ADDRESSES)),
    st.builds(lambda reg: AsmInstr(Op.PUSH, (reg,)),
              st.sampled_from(_VALUES)),
    st.builds(lambda reg: AsmInstr(Op.POP, (reg,)),
              st.sampled_from(_VALUES)),
)


@st.composite
def _reload(draw):
    """A store, up to three instructions, and a load of the same slot.
    Half of the instructions are a store through another base register
    first set to the store's base, at a displacement within seven
    bytes of the slot, so it often aliases it."""
    width, base, disp = draw(_ACCESS)
    items = [_store(width, base, disp, draw(st.sampled_from(_VALUES)))]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            other = draw(st.sampled_from(_BASES[:3]).filter(
                lambda reg: reg != base))
            items += [AsmInstr(Op.MOV_RR, (other, base)),
                      _store(draw(st.sampled_from(sorted(_STORES))), other,
                             disp + draw(st.integers(-7, 7)),
                             draw(st.sampled_from(_VALUES)))]
        else:
            items.append(draw(_INSTR))
    items.append(_load(width, draw(st.sampled_from(_VALUES + _BASES[:3])),
                       base, disp))
    return items


_BLOCKS = st.tuples(
    st.lists(st.one_of(_reload(), _INSTR.map(lambda instr: [instr])),
             min_size=1, max_size=8).map(lambda runs: sum(runs, [])),
    st.tuples(*[st.sampled_from(_ADDRESSES)] * 3),
    st.tuples(*[st.integers(0, _MASK)] * len(_VALUES)))


def run_block_both(items, bases, values):
    """Run one straight-line block under ``step_reference`` and on the
    generated tier; return both CPUs and outcomes."""
    code = assemble(list(items) + [AsmInstr(Op.SYSCALL, ())],
                    base=CODE).code

    def execute(reference):
        cpu = make_cpu(code, data_pages=2)
        cpu.memory.map(_READ_ONLY, PAGE_SIZE, readable=True)
        pattern = bytes(range(7, 256)) * 50  # no two pages alike
        cpu.memory.host_write(DATA, pattern[:3 * PAGE_SIZE])
        if reference:
            cpu.step = cpu.step_reference
        for reg, value in zip(_BASES[:3] + _VALUES, bases + values):
            cpu.regs[reg] = value
        try:
            outcome = cpu.run(max_steps=1000)
        except Exception as exc:  # noqa: BLE001 - compared structurally
            outcome = exc
        return cpu, outcome

    with mock.patch.object(dispatch, "HOT_BLOCK_RUNS", 0):
        fast_cpu, fast_out = execute(reference=False)
    ref_cpu, ref_out = execute(reference=True)
    cache = fast_cpu.dispatch_cache
    assert cache.blocks_generated == cache.blocks_built
    return fast_cpu, ref_cpu, fast_out, ref_out


def assert_block_identical(fast_cpu, ref_cpu, fast_out, ref_out):
    """Registers, flags, counters, rip, the exception's type and
    address, and the bytes of every mapped page agree."""
    assert_identical(fast_cpu, ref_cpu, fast_out, ref_out)
    assert getattr(fast_out, "address", None) == \
        getattr(ref_out, "address", None)
    for lo, size in _MAPPED:
        assert fast_cpu.memory.host_read(lo, size) == \
            ref_cpu.memory.host_read(lo, size), hex(lo)


_SLOT = (DATA + 0x100, DATA + 0x108, _READ_ONLY - 5)
_V = (0x1122334455667788, 0xA5A5A5A5F0F0F0F0, 0xFFFFFFFFFFFFFFFF,
      0x8000000000000001)


class TestStoreForwarding:
    """The generated tier answers a load from the block's own earlier
    store, and skips a re-mask, without moving any observable."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_BLOCKS)
    # overlapping and disjoint displacements
    @example(([_store(8, Reg.RBX, 0, Reg.RAX), _store(4, Reg.RBX, 8, Reg.RCX),
               _store(2, Reg.RBX, 4, Reg.RDX), _load(8, Reg.RSI, Reg.RBX, 0),
               _load(4, Reg.RDX, Reg.RBX, 8)], _SLOT, _V))
    # a store through another register aliases the slot
    @example(([_store(8, Reg.RBX, 8, Reg.RAX), _store(1, Reg.RBP, 0, Reg.RCX),
               _load(8, Reg.RDX, Reg.RBX, 8)], _SLOT, _V))
    # the base is redefined between the store and the load
    @example(([_store(8, Reg.RBX, 0, Reg.RAX),
               AsmInstr(Op.ADD_RI, (Reg.RBX, 8)),
               AsmInstr(Op.ADD_RI, (Reg.RBX, -8)),
               _load(8, Reg.RDX, Reg.RBX, 0),
               _load(8, Reg.RBX, Reg.RBX, 0),
               _load(8, Reg.RCX, Reg.RBX, 0)], _SLOT, _V))
    # re-masking, and a push and pop in between
    @example(([AsmInstr(Op.MOVZX32, (Reg.RBX,)),
               _store(4, Reg.RBX, 0, Reg.RAX),
               AsmInstr(Op.MOVZX32, (Reg.RBX,)), _load(4, Reg.RCX, Reg.RBX, 0),
               AsmInstr(Op.MOVZX32, (Reg.RCX,)), AsmInstr(Op.PUSH, (Reg.RDX,)),
               AsmInstr(Op.POP, (Reg.RCX,)), AsmInstr(Op.MOVZX32, (Reg.RCX,)),
               _store(8, Reg.RSP, 8, Reg.RDX), AsmInstr(Op.PUSH, (Reg.RAX,)),
               AsmInstr(Op.POP, (Reg.RSI,)), _load(8, Reg.RAX, Reg.RSP, 8),
               _store(8, Reg.RSP, -8, Reg.RCX), AsmInstr(Op.PUSH, (Reg.RDX,)),
               _load(8, Reg.RSI, Reg.RSP, 0)], _SLOT, _V))
    # a push writes a slot stored through another register
    @example(([AsmInstr(Op.MOV_RR, (Reg.RBP, Reg.RSP)),
               _store(8, Reg.RBP, -8, Reg.RAX), AsmInstr(Op.PUSH, (Reg.RCX,)),
               _load(8, Reg.RDX, Reg.RBP, -8)], _SLOT, _V))
    # a faulting access between a store and its reload
    @example(([_store(8, Reg.RBX, 0, Reg.RAX), _store(1, Reg.RDI, 6, Reg.RAX),
               _load(8, Reg.RCX, Reg.RBX, 0)], _SLOT, _V))
    # page-straddling pairs, and a read-only page
    @example(([_store(8, Reg.RBX, PAGE_SIZE - 0x104, Reg.RAX),
               _load(8, Reg.RCX, Reg.RBX, PAGE_SIZE - 0x104),
               _load(8, Reg.RDX, Reg.RDI, 0), _store(2, Reg.RDI, 4, Reg.RSI),
               _load(2, Reg.RSI, Reg.RDI, 4)], _SLOT, _V))
    def test_generated_block_matches_reference(self, block):
        assert_block_identical(*run_block_both(*block))

    def test_reload_and_remask_render_no_access(self):
        """The reload reads the stored local and the second mask is
        gone; the counters still charge both instructions."""
        items = [AsmInstr(Op.MOVZX32, (Reg.RBX,)),
                 _store(8, Reg.RBX, 0, Reg.RAX),
                 AsmInstr(Op.MOVZX32, (Reg.RBX,)),
                 _load(8, Reg.RCX, Reg.RBX, 0),
                 _load(4, Reg.RDX, Reg.RBX, 0)]
        fast_cpu, ref_cpu, fast_out, ref_out = run_block_both(
            items, _SLOT, _V)
        assert_block_identical(fast_cpu, ref_cpu, fast_out, ref_out)
        assert fast_cpu.instructions == len(items) + 1
        block = fast_cpu.dispatch_cache.blocks[CODE]
        source, forwarded = dispatch._block_source(block)
        assert forwarded == 1
        assert source.count("&= 0xFFFFFFFF") == 1
        assert source.count("mem.read_") == 1
        assert fast_cpu.dispatch_cache.forwarded_loads == 1


@pytest.mark.usefixtures("generated_tier")
class TestDispatchConformanceGenerated(TestDispatchConformance):
    pass


@pytest.mark.usefixtures("generated_tier")
class TestFcmpNanSemanticsGenerated(TestFcmpNanSemantics):
    pass


@pytest.mark.usefixtures("generated_tier")
class TestFloatEdgeSemanticsGenerated(TestFloatEdgeSemantics):
    pass


@pytest.mark.usefixtures("generated_tier")
class TestTornStore16Generated(TestTornStore16):
    pass


@pytest.mark.usefixtures("generated_tier")
class TestFusedCheckTransactionGenerated(TestFusedCheckTransaction):
    pass


@pytest.mark.usefixtures("generated_tier")
class TestBlockCacheInvalidationGenerated(TestBlockCacheInvalidation):
    pass
