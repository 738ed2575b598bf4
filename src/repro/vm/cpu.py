"""The SimVM CPU: a deterministic SimISA interpreter with a cycle model.

Each :class:`CPU` is one hardware thread.  Threads share a
:class:`~repro.vm.memory.Memory`, a
:class:`~repro.vm.memory.TableMemory` and a
:class:`~repro.vm.dispatch.DispatchCache` of decoded code; each has its
own registers, flags and stack.

Determinism and atomicity
-------------------------
One ``step()`` executes exactly one instruction, and the scheduler
interleaves whole steps, so every memory and table access is atomic at
instruction granularity — the same atomicity the paper gets from 4-byte
aligned ID loads/stores on x86.

Dispatch
--------
``step()`` executes through the :mod:`repro.vm.dispatch` plane: each
decoded instruction is specialized once into a closure and cached, so
the historic ``if/elif`` chain is gone from the hot path.  The chain
survives as :meth:`CPU.step_reference` — the executable semantics spec
that conformance tests diff the dispatch plane against.  Its branches
are the seed's, unchanged, but it compares opcodes against plain ints:
on CPython 3.11 ``op == Op.X`` costs about 120 ns (the ``EnumType``
class attribute load) and ``op == _X`` against a module-global int
about 19 ns, and a step makes up to 66 compares.  Single-threaded
``run()`` additionally executes whole decoded basic blocks (with fused
check transactions) from the shared
:class:`~repro.vm.dispatch.DispatchCache`, and blocks that have run
often as generated Python source; the scheduler always goes through
``step()``, preserving per-instruction interleaving.

Every tier decodes through :meth:`CPU._fetch_decode`, which reads an
instruction in place from its executable page (from a window over two
pages only when it straddles a page end) and caches one ``(opcode,
operands, length, cost)`` entry per address.

Flags
-----
Unlike x86, only the compare/test family sets flags (``cmp``, ``test``,
``cmpw``, ``testb1``, ``fcmp``).  Generated code always pairs a compare
with its conditional jump, so this deviation is unobservable.

Cycle model
-----------
``cycles`` accumulates each instruction's static cost (see
:data:`repro.isa.instructions.SPECS`).  Only *relative* cycle counts are
meaningful; Fig. 5/6 overheads are ratios of instrumented to native
cycles on identical inputs.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional, Tuple

from repro.errors import (
    CfiViolation,
    EncodingError,
    InvalidInstruction,
    MemoryFault,
    VMError,
)
from repro.isa.encoding import decode_fields
from repro.isa.instructions import CODEC_BY_BYTE, MAX_INSTRUCTION_LENGTH, Op
from repro.isa.registers import Reg
from repro.obs import OBS
from repro.vm.dispatch import (
    MAX_BLOCK_ADVANCE,
    DispatchCache,
    build_block,
    compile_entry,
    nan_result,
)
from repro.vm.memory import Memory, PAGE_SIZE, TableMemory

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK32 = 0xFFFFFFFF
_SIGN64 = 1 << 63

_PACK_D = struct.Struct("<d")
_PACK_Q = struct.Struct("<Q")

#: Encoded length by opcode byte; 1 for an invalid byte, which then
#: fails to decode in place.
_LENGTH_BY_BYTE = [codec.length if codec else 1 for codec in CODEC_BY_BYTE]

# ``step_reference`` compares against plain-int module globals:
# ``_MOV_RR`` is ``int(Op.MOV_RR)``, one ``_<name>`` per opcode.
globals().update(("_" + op.name, int(op)) for op in Op)
_RSP = int(Reg.RSP)

#: The :class:`DispatchCache` counts ``run()`` reports as
#: ``vm.dispatch.<name>`` counters.
_DISPATCH_COUNTS = ("blocks_built", "fused_sites", "blocks_generated",
                    "forwarded_loads")


class ProgramExit(Exception):
    """Raised by the exit syscall; carries the process exit code."""

    def __init__(self, code: int) -> None:
        self.code = code
        super().__init__(f"program exited with code {code}")


class ThreadExit(Exception):
    """Raised by the thread-exit syscall; terminates one thread only."""


def _signed(value: int) -> int:
    return value - (1 << 64) if value & _SIGN64 else value


def _float_of(bits: int) -> float:
    return _PACK_D.unpack(_PACK_Q.pack(bits & _MASK64))[0]


def _bits_of(value: float) -> int:
    return _PACK_Q.unpack(_PACK_D.pack(value))[0]


class CPU:
    """One SimVM hardware thread."""

    def __init__(self, memory: Memory, tables: TableMemory,
                 syscall_handler: Optional[Callable[["CPU"], None]] = None,
                 thread_id: int = 0,
                 dispatch_cache: Optional[DispatchCache] = None) -> None:
        self.memory = memory
        self.tables = tables
        self.syscall_handler = syscall_handler
        #: Decoded instructions, closures and blocks; shared across the
        #: CPUs of one address space and invalidated by the runtime.
        self.dispatch_cache = (dispatch_cache if dispatch_cache is not None
                               else DispatchCache())
        self.decoded = self.dispatch_cache.decoded
        self.ccache = self.dispatch_cache.closures
        self.thread_id = thread_id
        self.regs = [0] * 16
        self.rip = 0
        self.zf = False
        self.lt = False
        self.ltu = False
        self.cycles = 0
        self.instructions = 0
        #: check-transaction attempts: one per Bary-table read (the
        #: TLOAD_RI that opens a Try block), so retries count again
        self.tx_checks = 0
        #: set when the current instruction raised during fetch/decode,
        #: i.e. *before* any counter was charged; ``run()`` uses it to
        #: report the retired-instruction count exactly.
        self._decode_fault = False

    # -- fetch --------------------------------------------------------------

    def _fetch_decode(self, address: int) -> Tuple[int, Tuple[int, ...], int, int]:
        """Decode and cache the instruction at ``address``.

        Raises :class:`MemoryFault` if its first byte is not
        executable, and :class:`InvalidInstruction` if its bytes do not
        decode; an instruction cut short by a non-executable page is
        truncated.
        """
        memory = self.memory
        code = memory.code_page(address)
        if code is None:
            raise MemoryFault(address, "execute")
        offset = address & (PAGE_SIZE - 1)
        if offset + _LENGTH_BY_BYTE[code[offset]] > PAGE_SIZE:
            # Straddles a page end: decode this page's tail joined to
            # the next page's head, if that page is executable.
            following = memory.code_page(address - offset + PAGE_SIZE)
            code = code[offset:] + (following[:MAX_INSTRUCTION_LENGTH]
                                    if following is not None else b"")
            offset = 0
        try:
            codec, operands = decode_fields(code, offset)
        except EncodingError as exc:
            raise InvalidInstruction(
                f"undecodable bytes at {address:#x}: {exc}") from exc
        entry = (codec.opcode, operands, codec.length, codec.spec.cost)
        self.decoded[address] = entry
        return entry

    # -- execution ----------------------------------------------------------

    def step(self) -> None:
        """Execute exactly one instruction at ``rip``.

        Dispatch is closure-driven: the decoded instruction is
        specialized once by :func:`repro.vm.dispatch.compile_entry` and
        cached, then every later execution is a single dict probe plus
        a call.  Architectural semantics are bit-identical to
        :meth:`step_reference`.
        """
        rip = self.rip
        fn = self.ccache.get(rip)
        if fn is None:
            entry = self.decoded.get(rip)
            if entry is None:
                try:
                    entry = self._fetch_decode(rip)
                except BaseException:
                    self._decode_fault = True
                    raise
            fn = compile_entry(entry, rip)
            self.ccache[rip] = fn
        self.rip = fn(self)

    def step_reference(self) -> None:
        """Execute one instruction via the original ``if/elif`` chain.

        This is the executable semantics spec: the dispatch plane must
        match it bit-for-bit on every architectural observable, and the
        conformance tests (and ``bench_vm_dispatch.py --conformance``)
        diff the two.  Its branches and their bodies are the seed's and
        share no code with :mod:`repro.vm.dispatch`; only the names it
        compares against are plain ints (``_MOV_RR`` for ``Op.MOV_RR``,
        ``_RSP`` for ``Reg.RSP``), which keeps the slow enum attribute
        load (see the module docstring) out of every compare.  Force a
        CPU onto it with ``cpu.step = cpu.step_reference`` — an
        instance-level ``step`` also makes ``run()`` take the
        per-instruction path.
        """
        rip = self.rip
        entry = self.decoded.get(rip)
        if entry is None:
            entry = self._fetch_decode(rip)
        op, ops, length, cost = entry
        self.cycles += cost
        self.instructions += 1
        regs = self.regs
        next_rip = rip + length

        if op == _MOV_RR:
            regs[ops[0]] = regs[ops[1]]
        elif op == _MOV_RI:
            regs[ops[0]] = ops[1] & _MASK64
        elif op == _LOAD64:
            regs[ops[0]] = self.memory.read_u64(
                (regs[ops[1]] + ops[2]) & _MASK64)
        elif op == _STORE64:
            self.memory.write_u64((regs[ops[0]] + ops[1]) & _MASK64,
                                  regs[ops[2]])
        elif op == _ADD_RR:
            regs[ops[0]] = (regs[ops[0]] + regs[ops[1]]) & _MASK64
        elif op == _ADD_RI:
            regs[ops[0]] = (regs[ops[0]] + ops[1]) & _MASK64
        elif op == _SUB_RR:
            regs[ops[0]] = (regs[ops[0]] - regs[ops[1]]) & _MASK64
        elif op == _SUB_RI:
            regs[ops[0]] = (regs[ops[0]] - ops[1]) & _MASK64
        elif op == _CMP_RR:
            self._compare(regs[ops[0]], regs[ops[1]])
        elif op == _CMP_RI:
            self._compare(regs[ops[0]], ops[1] & _MASK64)
        elif op == _JE:
            if self.zf:
                next_rip += ops[0]
        elif op == _JNE:
            if not self.zf:
                next_rip += ops[0]
        elif op == _JL:
            if self.lt:
                next_rip += ops[0]
        elif op == _JLE:
            if self.lt or self.zf:
                next_rip += ops[0]
        elif op == _JG:
            if not (self.lt or self.zf):
                next_rip += ops[0]
        elif op == _JGE:
            if not self.lt:
                next_rip += ops[0]
        elif op == _JB:
            if self.ltu:
                next_rip += ops[0]
        elif op == _JAE:
            if not self.ltu:
                next_rip += ops[0]
        elif op == _JMP:
            next_rip += ops[0]
        elif op == _PUSH:
            rsp = (regs[_RSP] - 8) & _MASK64
            self.memory.write_u64(rsp, regs[ops[0]])
            regs[_RSP] = rsp
        elif op == _POP:
            rsp = regs[_RSP]
            regs[ops[0]] = self.memory.read_u64(rsp)
            regs[_RSP] = (rsp + 8) & _MASK64
        elif op == _CALL:
            rsp = (regs[_RSP] - 8) & _MASK64
            self.memory.write_u64(rsp, next_rip)
            regs[_RSP] = rsp
            next_rip += ops[0]
        elif op == _CALL_R:
            rsp = (regs[_RSP] - 8) & _MASK64
            self.memory.write_u64(rsp, next_rip)
            regs[_RSP] = rsp
            next_rip = regs[ops[0]]
        elif op == _RET:
            rsp = regs[_RSP]
            next_rip = self.memory.read_u64(rsp)
            regs[_RSP] = (rsp + 8) & _MASK64
        elif op == _JMP_R:
            next_rip = regs[ops[0]]
        elif op == _TLOAD_RI:
            self.tx_checks += 1
            regs[ops[0]] = self.tables.read_bary(ops[1])
        elif op == _TLOAD_RR:
            regs[ops[0]] = self.tables.read_tary(regs[ops[1]])
        elif op == _MOVZX32:
            regs[ops[0]] &= _MASK32
        elif op == _TESTB1:
            self.zf = (regs[ops[0]] & 1) == 0
        elif op == _CMPW_RR:
            self.zf = (regs[ops[0]] & 0xFFFF) == (regs[ops[1]] & 0xFFFF)
        elif op == _LEA:
            regs[ops[0]] = (regs[ops[1]] + ops[2]) & _MASK64
        elif op == _LOAD8:
            regs[ops[0]] = self.memory.read_u8(
                (regs[ops[1]] + ops[2]) & _MASK64)
        elif op == _LOAD32:
            regs[ops[0]] = self.memory.read_u32(
                (regs[ops[1]] + ops[2]) & _MASK64)
        elif op == _STORE8:
            self.memory.write_u8((regs[ops[0]] + ops[1]) & _MASK64,
                                 regs[ops[2]])
        elif op == _STORE32:
            self.memory.write_u32((regs[ops[0]] + ops[1]) & _MASK64,
                                  regs[ops[2]])
        elif op == _LOAD16:
            regs[ops[0]] = self.memory.read_u16(
                (regs[ops[1]] + ops[2]) & _MASK64)
        elif op == _STORE16:
            # One atomic store: write_u16 validates both byte
            # addresses before mutating, so a page-boundary fault can
            # never leave a torn one-byte partial write.
            self.memory.write_u16((regs[ops[0]] + ops[1]) & _MASK64,
                                  regs[ops[2]])
        elif op == _SAR_RI:
            regs[ops[0]] = (_signed(regs[ops[0]]) >> (ops[1] & 63)) & _MASK64
        elif op == _SAR_RR:
            regs[ops[0]] = (_signed(regs[ops[0]]) >>
                            (regs[ops[1]] & 63)) & _MASK64
        elif op == _IMUL_RR:
            regs[ops[0]] = (_signed(regs[ops[0]]) *
                            _signed(regs[ops[1]])) & _MASK64
        elif op == _IDIV_RR:
            regs[ops[0]] = self._divide(regs[ops[0]], regs[ops[1]], mod=False)
        elif op == _IMOD_RR:
            regs[ops[0]] = self._divide(regs[ops[0]], regs[ops[1]], mod=True)
        elif op == _AND_RR:
            regs[ops[0]] &= regs[ops[1]]
        elif op == _AND_RI:
            regs[ops[0]] &= ops[1] & _MASK64
        elif op == _OR_RR:
            regs[ops[0]] |= regs[ops[1]]
        elif op == _OR_RI:
            regs[ops[0]] = (regs[ops[0]] | ops[1]) & _MASK64
        elif op == _XOR_RR:
            regs[ops[0]] ^= regs[ops[1]]
        elif op == _XOR_RI:
            regs[ops[0]] = (regs[ops[0]] ^ ops[1]) & _MASK64
        elif op == _SHL_RI:
            regs[ops[0]] = (regs[ops[0]] << (ops[1] & 63)) & _MASK64
        elif op == _SHR_RI:
            regs[ops[0]] >>= (ops[1] & 63)
        elif op == _SHL_RR:
            regs[ops[0]] = (regs[ops[0]] << (regs[ops[1]] & 63)) & _MASK64
        elif op == _SHR_RR:
            regs[ops[0]] >>= (regs[ops[1]] & 63)
        elif op == _NEG:
            regs[ops[0]] = (-regs[ops[0]]) & _MASK64
        elif op == _NOT:
            regs[ops[0]] ^= _MASK64
        elif op == _TEST_RR:
            self.zf = (regs[ops[0]] & regs[ops[1]]) == 0
        elif op == _TEST_RI:
            self.zf = (regs[ops[0]] & ops[1] & _MASK64) == 0
        elif op == _NOP:
            pass
        elif op == _HLT:
            self._cfi_halt(rip)
        elif op == _SYSCALL:
            self.rip = next_rip  # handler may change rip (e.g. longjmp)
            if self.syscall_handler is None:
                raise VMError(f"syscall at {rip:#x} with no handler")
            self.syscall_handler(self)
            return
        elif op == _FADD_RR:
            self._float_result(ops, _float_of(regs[ops[0]]) +
                               _float_of(regs[ops[1]]))
        elif op == _FSUB_RR:
            self._float_result(ops, _float_of(regs[ops[0]]) -
                               _float_of(regs[ops[1]]))
        elif op == _FMUL_RR:
            self._float_result(ops, _float_of(regs[ops[0]]) *
                               _float_of(regs[ops[1]]))
        elif op == _FDIV_RR:
            divisor = _float_of(regs[ops[1]])
            if divisor == 0.0:
                raise VMError(f"float division by zero at {rip:#x}")
            self._float_result(ops, _float_of(regs[ops[0]]) / divisor)
        elif op == _FCMP_RR:
            left = _float_of(regs[ops[0]])
            right = _float_of(regs[ops[1]])
            if left != left or right != right:
                # Unordered (NaN operand): x86 ucomisd sets ZF=CF=1 and
                # SF=OF=0, so je/jb/jbe observe "equal/below" and
                # jl/jg observe "not less/not greater".
                self.zf = True
                self.lt = False
                self.ltu = True
            else:
                self.zf = left == right
                self.lt = self.ltu = left < right
        elif op == _CVTSI2F:
            regs[ops[0]] = _bits_of(float(_signed(regs[ops[0]])))
        elif op == _CVTF2SI:
            value = _float_of(regs[ops[0]])
            # cvttsd2si: NaN and values outside [-2^63, 2^63) give the
            # integer indefinite.
            regs[ops[0]] = (int(value) & _MASK64
                            if -_SIGN64 <= value < _SIGN64 else _SIGN64)
        else:  # pragma: no cover - SPECS and this chain are kept in sync
            raise InvalidInstruction(f"unimplemented opcode {op:#x}")
        self.rip = next_rip

    def run(self, max_steps: int = 0) -> int:
        """Run until the program exits; return its exit code.

        ``max_steps`` of 0 means no limit.  A limit guards tests against
        runaway programs (raises :class:`VMError` when exceeded).
        CFI violations and memory faults propagate as exceptions.

        Single-threaded execution takes the basic-block fast path:
        straight-line runs execute as one loop over cached closures
        without re-entering ``step()``, or, once hot, as one generated
        function, and recognized check transactions execute fused (see
        :mod:`repro.vm.dispatch`).  If an instance-level ``step`` hook
        is installed (a :class:`~repro.vm.trace.BranchTracer`, or
        ``cpu.step = cpu.step_reference``), execution stays strictly
        per-instruction through the hook.  Either way the architectural
        observables are identical.

        Observability is recorded once per call (a ``vm.run`` span and
        instruction/cycle counters), never per step — the dispatch loop
        stays untouched.
        """
        cycles_before = self.cycles
        instructions_before = self.instructions
        cache = self.dispatch_cache
        dispatch_before = [getattr(cache, name) for name in _DISPATCH_COUNTS]
        self._decode_fault = False
        limit_error = False
        span = OBS.tracer.begin("vm.run", thread=self.thread_id)
        try:
            if "step" in self.__dict__:
                step = self.step
                executed = 0
                while True:
                    step()
                    executed += 1
                    if max_steps and executed >= max_steps:
                        limit_error = True
                        raise VMError(f"exceeded step limit of {max_steps}")
            blocks = cache.blocks
            # With a step limit, finish the last stretch per-instruction
            # so the limit check lands on the exact instruction the
            # reference interpreter would raise at.
            threshold = max_steps - MAX_BLOCK_ADVANCE if max_steps else 0
            while True:
                if max_steps and (self.instructions -
                                  instructions_before) >= threshold:
                    step = self.step
                    while True:
                        step()
                        if (self.instructions -
                                instructions_before) >= max_steps:
                            limit_error = True
                            raise VMError(
                                f"exceeded step limit of {max_steps}")
                rip = self.rip
                block = blocks.get(rip)
                if block is None:
                    block = build_block(self, rip)
                self.rip = block.run(self)
        except ProgramExit as program_exit:
            return program_exit.code
        finally:
            # ``executed`` counts *retired* steps, exactly like the
            # seed's per-step loop: an instruction that charged its
            # counters but then raised (including the exiting syscall)
            # is not retired; one that failed to even decode charged
            # nothing and is likewise excluded.
            executed = self.instructions - instructions_before
            if executed and not limit_error and not self._decode_fault:
                executed -= 1
            if OBS.enabled:
                metrics = OBS.metrics
                metrics.counter("vm.runs").inc()
                metrics.counter("vm.instructions").inc(executed)
                metrics.counter("vm.cycles").inc(
                    self.cycles - cycles_before)
                for name, before in zip(_DISPATCH_COUNTS, dispatch_before):
                    count = getattr(cache, name) - before
                    if count:
                        metrics.counter("vm.dispatch." + name).inc(count)
            span.end(instructions=executed,
                     cycles=self.cycles - cycles_before)

    # -- helpers --------------------------------------------------------

    def _float_result(self, ops: Tuple[int, ...], value: float) -> None:
        """Write an SSE arithmetic result; a NaN follows x86's rule."""
        regs = self.regs
        regs[ops[0]] = (_bits_of(value) if value == value
                        else nan_result(regs[ops[0]], regs[ops[1]]))

    def _compare(self, left: int, right: int) -> None:
        self.zf = left == right
        self.lt = _signed(left) < _signed(right)
        self.ltu = left < right

    @staticmethod
    def _divide(dividend: int, divisor: int, mod: bool) -> int:
        sd = _signed(dividend)
        sr = _signed(divisor)
        if sr == 0:
            raise VMError("integer division by zero")
        quotient = abs(sd) // abs(sr)
        if (sd < 0) != (sr < 0):
            quotient = -quotient
        if mod:
            return (sd - quotient * sr) & _MASK64
        return quotient & _MASK64

    def _cfi_halt(self, rip: int) -> None:
        """Translate the check transaction's ``hlt`` into a CFI violation."""
        target = self.regs[Reg.RCX]
        target_id = self.regs[Reg.RSI]
        if target_id & 1 == 0:
            reason = ("invalid target ID: destination is not a permitted "
                      "indirect-branch target (or is unaligned)")
        else:
            reason = "equivalence-class mismatch between branch and target"
        raise CfiViolation(rip, target, reason)

    def snapshot(self) -> dict:
        """Return a debugging snapshot of the architectural state."""
        return {
            "rip": self.rip,
            "regs": {str(Reg(i)): self.regs[i] for i in range(16)},
            "flags": {"zf": self.zf, "lt": self.lt, "ltu": self.ltu},
            "cycles": self.cycles,
            "instructions": self.instructions,
        }
