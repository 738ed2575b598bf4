"""Template-driven dispatch plane for the SimVM.

The reference interpreter, :meth:`~repro.vm.cpu.CPU.step_reference`,
walks one long ``if/elif`` chain per instruction.  This module executes
the same instructions much faster without changing a single
architectural observable (``cycles``, ``instructions``, ``tx_checks``,
registers, flags, faults and output are bit-identical to the
reference, which conformance tests diff against):

1. **One template per opcode** (:data:`SEMANTICS`).  Each opcode's
   semantics is written once, as a Python statement template over its
   operands, flags and the memory/table objects.  The Fig. 4 Try block
   (``TLOAD_RI``/``TLOAD_RR``/``CMP_RR``/``JNE``/``JMP_R``) has one
   template too, :data:`FUSED_CHECK`, which caches the branch-ID read
   behind a ``[cached_id, generation]`` cell: every privileged table
   store bumps :attr:`repro.vm.memory.TableMemory.generation`, so an
   update transaction invalidates the cached ID.

2. **Two renderings of every template.**  Rendered with registers as
   ``regs[i]`` and flags as CPU attributes, a template becomes a
   closure factory, compiled once per opcode; :func:`compile_entry`
   specializes a decoded instruction into a closure
   ``fn(cpu) -> next_rip``.  ``CPU.step()`` runs one closure, so the
   scheduler keeps instruction-granularity atomicity.  Rendered with
   registers and flags as locals, the templates of a whole basic block
   inline into one generated function (the hot tier, below).

3. **Decoded basic blocks** (:class:`Block`, cached in
   :class:`DispatchCache`).  ``CPU.run()`` executes a straight-line run
   as one loop over its closures.  Once a block has run
   :data:`HOT_BLOCK_RUNS` times, its source is generated, compiled once
   and run from then on: registers and flags live in locals, the
   counters are charged once at exit, and the check is fused inline.

4. **Hot blocks skip the memory they can answer** (:func:`_forwarding`).
   A load that reads back what the block itself stored, through the
   same base register unchanged since and at the same displacement and
   width, becomes a read of the stored value's local, and a
   ``MOVZX32`` of a register already masked becomes nothing.  Any
   store that may alias the slot, a push, a call or a syscall ends the
   reuse, and none crosses a block boundary.  The reload cannot fault,
   because the store proved its pages writable and
   :class:`~repro.vm.memory.Memory` keeps every writable page
   readable; and nothing else writes memory while a generated block
   runs, because only single-threaded ``CPU.run`` runs blocks.

Both renderings share one fault protocol: a progress index ``k`` names
the instruction that may raise next, and on any exception the
registers and flags are written back, the counters are charged through
instruction ``k`` and ``rip`` is set to its address — exactly the state
the reference leaves.  The two instructions whose handlers read the
architectural state (``syscall``: ``SYS_TIME`` returns ``cycles``;
``hlt``: the CFI halt reads RCX and RSI) run after the write-back.

All decoded state of one address space lives in one
:class:`DispatchCache`: decoded instructions, closures and blocks, cold
or hot.  :meth:`DispatchCache.invalidate_range` drops all three
together; the runtime calls it whenever it retires a code range
(``Runtime.retire_code``), so no layer can outlive another.
"""

from __future__ import annotations

import ast
import string
import struct
import textwrap
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import InvalidInstruction, MemoryFault, VMError
from repro.isa.instructions import (BLOCK_TERMINATORS, CODEC_BY_BYTE,
                                    SPECS, Op, OperandKind)
from repro.obs import OBS

_MASK64 = 0xFFFFFFFFFFFFFFFF
_SIGN64 = 1 << 63
_TWO64 = 1 << 64

_PACK_D = struct.Struct("<d")
_PACK_Q = struct.Struct("<Q")


def _signed(value: int) -> int:
    return value - _TWO64 if value & _SIGN64 else value


def _float_of(bits: int) -> float:
    return _PACK_D.unpack(_PACK_Q.pack(bits & _MASK64))[0]


def _bits_of(value: float) -> int:
    return _PACK_Q.unpack(_PACK_D.pack(value))[0]


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


_EXPONENT = 0x7FF0000000000000


def nan_result(left: int, right: int) -> int:
    """Bits of the NaN an x86 SSE ``addsd``/``subsd``/``mulsd``/``divsd``
    of the operand bits ``left`` and ``right`` returns.

    The first NaN operand wins, quieted; an invalid operation on two
    non-NaN operands (inf - inf, 0 * inf, inf / inf) gives the default
    NaN.  Callers check for a NaN result first, so ordinary arithmetic
    never gets here.
    """
    for bits in (left, right):
        if bits & _EXPONENT == _EXPONENT and bits & 0xFFFFFFFFFFFFF:
            return bits | 0x8000000000000
    return 0xFFF8000000000000


#: Globals of every rendered function.
_HELPERS = {"_signed": _signed, "_float_of": _float_of,
            "_bits_of": _bits_of, "_divide": _divide,
            "nan_result": nan_result, "VMError": VMError}

#: Helpers a template may call without raising.
_PURE = frozenset({"_signed", "_float_of", "_bits_of", "nan_result",
                   "float", "int"})

_CONSTANTS = {"M64": "0xFFFFFFFFFFFFFFFF", "M32": "0xFFFFFFFF",
              "SIGN64": "0x8000000000000000",
              "TWO64": "0x10000000000000000"}

_FLAGS = ("zf", "lt", "ltu")
_RSP = 4  # Reg.RSP
_AT = tuple(f"at{i}" for i in range(5))


# ---------------------------------------------------------------------------
# Opcode semantics
# ---------------------------------------------------------------------------


class Semantics:
    """One statement template, analysed once.

    Template fields: ``{0}``..``{4}`` are the operands (a register or an
    immediate, by operand kind); ``{uI}`` is operand ``I`` as an
    unsigned 64-bit value; ``{t}`` the direct branch target, ``{n}``
    the fall-through address and ``{pc}`` the instruction's own;
    ``{sp}`` is RSP and ``{zf}``/``{lt}``/``{ltu}`` the flags;
    ``{cpu}``, ``{mem}`` and ``{tables}`` the machine; ``{cell}`` the
    fused check's ``[cached_id, generation]`` cell; ``{v}`` and
    ``{mask}`` a forwarded load's stored value and width mask;
    ``{atI}`` marks the statements of sub-instruction ``I`` of a
    multi-instruction template.  Terminators ``return`` the next rip
    on every path.
    """

    __slots__ = ("body", "regs", "width", "sync", "ends", "fields",
                 "stores", "raises", "reg_fields", "reg_stores")

    def __init__(self, body: str, kinds, width: int = 1,
                 sync: bool = False, ends: bool = False) -> None:
        self.body = textwrap.dedent(body).strip("\n")
        #: per operand: whether it names a register
        self.regs = tuple(kind is OperandKind.REG for kind in kinds)
        self.width = width
        #: runs only after registers, flags and counters are written
        #: back, because its handler reads them
        self.sync = sync
        self.ends = ends
        self.fields = {name for _, name, _, _
                       in string.Formatter().parse(self.body) if name}
        named = {name: "_f" + name for name in ("sp",) + _FLAGS}
        named.update((name, "") for name in _AT)
        named.update((name, "_x") for name in
                     self.fields - set(named) - set(_CONSTANTS))
        probe = ast.parse(self.render(
            [f"_f{i}" for i in range(len(kinds))], named))
        #: fields the template assigns: operand indices, sp, flags
        self.stores = {node.id[2:] for node in ast.walk(probe)
                       if isinstance(node, ast.Name)
                       and isinstance(node.ctx, ast.Store)
                       and node.id.startswith("_f")}
        #: whether executing it can raise (any call outside _PURE)
        self.raises = any(
            isinstance(node, ast.Raise) or (
                isinstance(node, ast.Call) and not (
                    isinstance(node.func, ast.Name)
                    and node.func.id in _PURE))
            for node in ast.walk(probe))
        #: operand indices of the registers it names, and assigns
        self.reg_fields = tuple(index for index, is_reg in enumerate(self.regs)
                                if is_reg and str(index) in self.fields)
        self.reg_stores = tuple(index for index in self.reg_fields
                                if str(index) in self.stores)

    def render(self, operands, named) -> str:
        return self.body.format(*operands, **named, **_CONSTANTS)

    def touched(self, ops) -> Tuple[set, set]:
        """Registers this instance reads or writes, and writes."""
        used = {ops[index] for index in self.reg_fields}
        written = {ops[index] for index in self.reg_stores}
        if "sp" in self.fields:
            used.add(_RSP)
            if "sp" in self.stores:
                written.add(_RSP)
        return used, written


_LOAD = "{0} = {mem}.read_%s(({1} + {2}) & {M64})"
_STORE = "{mem}.write_%s(({0} + {1}) & {M64}, {2})"
_PUSH = "a = ({sp} - 8) & {M64}\n{mem}.write_u64(a, %s)\n{sp} = a\n"
_FLOAT = """
    x = _float_of({0}) %s _float_of({1})
    {0} = _bits_of(x) if x == x else nan_result({0}, {1})
"""
_JUMP = "return {t} if %s else {n}"
_SHL = "{0} = ({0} << ({1} & 63)) & {M64}"
_SAR = "{0} = ((({0} ^ {SIGN64}) - {SIGN64}) >> ({1} & 63)) & {M64}"

_TEMPLATES = {
    Op.NOP: "",
    Op.HLT: """
        {cpu}.rip = {pc}
        {cpu}._cfi_halt({pc})
    """,
    Op.SYSCALL: """
        {cpu}.rip = {n}
        h = {cpu}.syscall_handler
        if h is None:
            raise VMError("syscall at %#x with no handler" % {pc})
        h({cpu})
        return {cpu}.rip
    """,
    Op.MOV_RR: "{0} = {1}",
    Op.MOV_RI: "{0} = {u1}",
    Op.MOVZX32: "{0} &= {M32}",
    Op.LEA: "{0} = ({1} + {2}) & {M64}",
    Op.ADD_RR: "{0} = ({0} + {1}) & {M64}",
    Op.ADD_RI: "{0} = ({0} + {1}) & {M64}",
    Op.SUB_RR: "{0} = ({0} - {1}) & {M64}",
    Op.SUB_RI: "{0} = ({0} - {1}) & {M64}",
    # The low 64 bits of a product do not depend on signedness.
    Op.IMUL_RR: "{0} = ({0} * {1}) & {M64}",
    Op.IDIV_RR: "{0} = _divide({0}, {1}, False)",
    Op.IMOD_RR: "{0} = _divide({0}, {1}, True)",
    Op.AND_RR: "{0} &= {1}",
    Op.AND_RI: "{0} &= {u1}",
    Op.OR_RR: "{0} |= {1}",
    Op.OR_RI: "{0} |= {u1}",
    Op.XOR_RR: "{0} ^= {1}",
    Op.XOR_RI: "{0} ^= {u1}",
    Op.SHL_RI: _SHL,
    Op.SHL_RR: _SHL,
    Op.SHR_RI: "{0} >>= {1} & 63",
    Op.SHR_RR: "{0} >>= {1} & 63",
    Op.SAR_RI: _SAR,
    Op.SAR_RR: _SAR,
    Op.NEG: "{0} = -{0} & {M64}",
    Op.NOT: "{0} ^= {M64}",
    Op.CMP_RR: """
        a = {0}
        b = {1}
        {zf} = a == b
        {lt} = (a - {TWO64} if a & {SIGN64} else a) < \\
            (b - {TWO64} if b & {SIGN64} else b)
        {ltu} = a < b
    """,
    Op.CMP_RI: """
        a = {0}
        {zf} = a == {u1}
        {lt} = (a - {TWO64} if a & {SIGN64} else a) < {1}
        {ltu} = a < {u1}
    """,
    Op.TEST_RR: "{zf} = ({0} & {1}) == 0",
    Op.TEST_RI: "{zf} = ({0} & {u1}) == 0",
    Op.CMPW_RR: "{zf} = ({0} & 0xFFFF) == ({1} & 0xFFFF)",
    Op.TESTB1: "{zf} = ({0} & 1) == 0",
    Op.LOAD8: _LOAD % "u8",
    Op.LOAD16: _LOAD % "u16",
    Op.LOAD32: _LOAD % "u32",
    Op.LOAD64: _LOAD % "u64",
    Op.STORE8: _STORE % "u8",
    Op.STORE16: _STORE % "u16",
    Op.STORE32: _STORE % "u32",
    Op.STORE64: _STORE % "u64",
    Op.PUSH: _PUSH % "{0}",
    Op.POP: """
        a = {sp}
        {0} = {mem}.read_u64(a)
        {sp} = (a + 8) & {M64}
    """,
    Op.CALL: _PUSH % "{n}" + "return {t}",
    Op.CALL_R: _PUSH % "{n}" + "return {0}",
    Op.RET: """
        a = {sp}
        x = {mem}.read_u64(a)
        {sp} = (a + 8) & {M64}
        return x
    """,
    Op.JMP: "return {t}",
    Op.JMP_R: "return {0}",
    Op.JE: _JUMP % "{zf}",
    Op.JNE: _JUMP % "not {zf}",
    Op.JL: _JUMP % "{lt}",
    Op.JLE: _JUMP % "{lt} or {zf}",
    Op.JG: _JUMP % "not ({lt} or {zf})",
    Op.JGE: _JUMP % "not {lt}",
    Op.JB: _JUMP % "{ltu}",
    Op.JAE: _JUMP % "not {ltu}",
    Op.TLOAD_RI: """
        {cpu}.tx_checks += 1
        {0} = {tables}.read_bary({1})
    """,
    Op.TLOAD_RR: "{0} = {tables}.read_tary({1})",
    Op.FADD_RR: _FLOAT % "+",
    Op.FSUB_RR: _FLOAT % "-",
    Op.FMUL_RR: _FLOAT % "*",
    Op.FDIV_RR: """
        b = _float_of({1})
        if b == 0.0:
            raise VMError("float division by zero at %#x" % {pc})
        x = _float_of({0}) / b
        {0} = _bits_of(x) if x == x else nan_result({0}, {1})
    """,
    Op.FCMP_RR: """
        a = _float_of({0})
        b = _float_of({1})
        if a != a or b != b:
            # Unordered (NaN operand): x86 ucomisd sets ZF=CF=1,
            # SF=OF=0, so je/jb/jbe are taken and jl/jg are not.
            {zf} = True
            {lt} = False
            {ltu} = True
        else:
            {zf} = a == b
            {lt} = {ltu} = a < b
    """,
    Op.CVTSI2F: "{0} = _bits_of(float(_signed({0})))",
    Op.CVTF2SI: """
        a = _float_of({0})
        # cvttsd2si: NaN and values outside [-2^63, 2^63) give the
        # integer indefinite.
        {0} = int(a) & {M64} if -{SIGN64} <= a < {SIGN64} else {SIGN64}
    """,
}

#: The semantics table, indexed by opcode byte.
SEMANTICS: List[Optional[Semantics]] = [None] * 0x100
for _op, _body in _TEMPLATES.items():
    SEMANTICS[int(_op)] = Semantics(
        _body, SPECS[_op].operands, sync=SPECS[_op].traps,
        ends=int(_op) in BLOCK_TERMINATORS)

#: A load the block answers from its own earlier store
#: (:func:`_forwarding`): the stored value's local, cut to the width.
RELOAD = Semantics("{0} = {v} & {mask}", (OperandKind.REG,))

#: The Fig. 4 Try block as one template of five instructions.
#: Operands: the branch-ID register, the Bary index, the target-ID
#: register, the target register, and the Check block's address.
FUSED_CHECK = Semantics("""
    {cpu}.tx_checks += 1
    g = {tables}.generation
    if g == {cell}[1]:
        x = {cell}[0]
    else:
        x = {tables}.read_bary({1})
        {cell}[0] = x
        {cell}[1] = g
    {0} = x
    {at1}y = {tables}.read_tary({3})
    {2} = y
    if x == y:
        {zf} = True
        {lt} = False
        {ltu} = False
        {at4}return {3}
    {zf} = False
    # Stored IDs are 32-bit words, so signed and unsigned 64-bit
    # comparisons agree (both operands are small positives).
    {lt} = {ltu} = x < y
    {at3}return {4}
""", (OperandKind.REG, OperandKind.IMM32, OperandKind.REG,
      OperandKind.REG, OperandKind.IMM32), width=5, ends=True)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

#: One template instance: (semantics, operands, addresses and
#: cumulative cycle charges of its instructions, fall-through address).
Site = Tuple[Semantics, Tuple[int, ...], Tuple[int, ...], Tuple[int, ...],
             int]


def _indent(text: str, depth: int) -> List[str]:
    return [" " * depth + line for line in text.splitlines()]


def _function(signature: str, sites, count: int, prologue: List[str],
              addrs: str, charges: str, writeback: List[str],
              exit_rip: str) -> List[str]:
    """Render ``sites`` into one function with the fault protocol.

    ``sites`` holds ``(semantics, operands, named)`` renderings of
    ``count`` instructions in all.  ``addrs`` and ``charges`` are the
    instructions' addresses and cumulative cycle charges: sequences
    indexed by the progress index ``k``, or, for one instruction, the
    values themselves.
    """
    dynamic = count > 1
    body: List[str] = []
    current = 0
    base = 0
    last = sites[-1][0]
    for sem, operands, named in sites:
        if sem.sync:
            break
        if dynamic:
            if sem.width > 1:
                named.update((at, f"k = {base + i}; ")
                             for i, at in enumerate(_AT))
            if (sem.raises or sem.ends) and current != base:
                body.append(f"k = {base}")
                current = base
        body.extend(sem.render(operands, named).splitlines())
        base += sem.width
    if last.sync or not last.ends:
        if dynamic and current != count - 1:
            body.append(f"k = {count - 1}")
        if not last.sync:
            body.append(f"return {exit_rip}")
    index = "[k]" if dynamic else ""
    charge = writeback + [f"cpu.cycles += {charges}{index}",
                          "cpu.instructions += "
                          + ("k + 1" if dynamic else "1")]
    lines = [f"def {signature}:"] + _indent("\n".join(prologue), 4)
    if body:
        if dynamic:
            lines.append("    k = 0")
        lines += ["    try:"] + _indent("\n".join(body), 8)
        lines += ["    except BaseException:",
                  f"        cpu.rip = {addrs}{index}",
                  "        raise",
                  "    finally:"] + _indent("\n".join(charge), 8)
    else:
        lines += _indent("\n".join(charge), 4)
    if last.sync:
        sem, operands, named = sites[-1]
        lines += _indent(sem.render(operands, named), 4)
    return lines


def _factory_source(sem: Semantics) -> str:
    """Source of ``factory(ops, pc, cost, n) -> closure`` or, for a
    multi-instruction template, ``factory(ops, addrs, charges, n)``.

    Registers index ``cpu.regs``, flags are CPU attributes, and operands
    are constants bound per instruction.
    """
    operands = [f"regs[o{i}]" if is_reg else f"o{i}"
                for i, is_reg in enumerate(sem.regs)]
    named = {"cpu": "cpu", "mem": "cpu.memory", "tables": "cpu.tables",
             "sp": f"regs[{_RSP}]", "n": "n", "pc": "pc", "t": "t",
             "cell": "cell"}
    named.update((flag, "cpu." + flag) for flag in _FLAGS)
    named.update((f"u{i}", f"u{i}") for i in range(len(sem.regs)))
    single = sem.width == 1
    addrs, charges = ("pc", "cost") if single else ("addrs", "charges")
    setup = []
    if sem.regs:
        setup.append(", ".join(f"o{i}" for i in range(len(sem.regs)))
                     + ", = ops")
    setup += [f"u{i} = o{i} & {_MASK64:#x}" for i in range(len(sem.regs))
              if f"u{i}" in sem.fields]
    if "t" in sem.fields:
        setup.append("t = n + o0")
    if "cell" in sem.fields:
        # [cached_id, stamp]: a stamp of -1 never matches a real
        # generation, so the first execution always reads the table.
        setup.append("cell = [0, -1]")
    uses_regs = "sp" in sem.fields or any(
        str(i) in sem.fields for i, is_reg in enumerate(sem.regs) if is_reg)
    # Constants are bound as defaults, not closed over: reading one is a
    # local load, and a closure then costs two tracked objects instead
    # of one cell per constant, which keeps the collector quiet while
    # thousands of instructions are decoded.
    bound = [f"o{i}" for i in range(len(sem.regs))] + [
        name for name in ("u0", "u1", "u2", "u3", "u4", "t", "cell")
        if name in sem.fields] + ["n", addrs, charges]
    signature = "fn(" + ", ".join(["cpu"] + [f"{name}={name}"
                                             for name in bound]) + ")"
    lines = _function(signature, [(sem, operands, named)], sem.width,
                      ["regs = cpu.regs"] if uses_regs else [],
                      addrs, charges, [], "n")
    return "\n".join([f"def factory(ops, {addrs}, {charges}, n):"]
                     + _indent("\n".join(setup + lines + ["return fn"]), 4))


def _compile_factory(sem: Semantics):
    namespace = dict(_HELPERS)
    exec(compile(_factory_source(sem), "<dispatch factory>", "exec"),
         namespace)
    return namespace["factory"]


#: Closure factories, by opcode byte, compiled on first use.
_FACTORIES: List[Optional[Callable]] = [None] * 0x100
_FUSED_FACTORY = _compile_factory(FUSED_CHECK)

_Closure = Callable[[object], int]


def compile_entry(entry: Tuple[int, Tuple[int, ...], int, int],
                  rip: int) -> _Closure:
    """Specialize one decoded instruction into an execution closure."""
    op, ops, length, cost = entry
    factory = _FACTORIES[op]
    if factory is None:
        sem = SEMANTICS[op]
        if sem is None:  # pragma: no cover - SPECS and SEMANTICS in sync
            raise InvalidInstruction(f"unimplemented opcode {op:#x}")
        factory = _FACTORIES[op] = _compile_factory(sem)
    return factory(ops, rip, cost, rip + length)


_MOVZX32_INT = int(Op.MOVZX32)


def _forwarding(entries) -> Tuple[Dict[int, int], set]:
    """Plan which memory accesses of one block its locals answer.

    Returns ``(reloads, skips)``: ``reloads`` maps the index of each
    load that reads back what the block itself stored to the index of
    that store, and ``skips`` holds the indices of the ``MOVZX32``
    instructions whose register is already masked.

    Every register write bumps the register's version; a ``MOVZX32``
    of a register whose last write was a ``MOVZX32`` writes nothing.
    A live store is keyed by (base register, its version,
    displacement), and a load with the same key and width reads the
    bytes it wrote.  A store keeps only the live stores through the
    same base and version whose bytes it does not overlap; any other
    memory write forgets them all, and loads forget nothing.
    """
    version = [0] * 16
    masked = set()
    live: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
    reloads: Dict[int, int] = {}
    skips = set()
    for index, (op, ops, _, _) in enumerate(entries):
        spec = CODEC_BY_BYTE[op].spec
        if spec.load:
            store = live.get((ops[1], version[ops[1]], ops[2]))
            if store is not None and store[0] == spec.load:
                reloads[index] = store[1]
        elif spec.store:
            base, disp, width = ops[0], ops[1], spec.store
            live = {key: store for key, store in live.items()
                    if key[:2] == (base, version[base])
                    and (key[2] + store[0] <= disp
                         or disp + width <= key[2])}
            live[base, version[base], disp] = (width, index)
        elif spec.implicit_store:
            live.clear()  # a push, a call, or a handler
        if op == _MOVZX32_INT and ops[0] in masked:
            skips.add(index)
            continue
        for reg in SEMANTICS[op].touched(ops)[1]:
            version[reg] += 1
            masked.discard(reg)
        if op == _MOVZX32_INT:
            masked.add(ops[0])
    return reloads, skips


def _block_source(block: "Block") -> Tuple[str, int]:
    """Source of one hot block, registers and flags as locals, and the
    number of its loads answered from its own stores."""
    sites: List[Site] = []
    addr = block.entry
    for op, ops, length, cost in block.entries:
        sites.append((SEMANTICS[op], ops, (addr,), (cost,), addr + length))
        addr += length
    if block.fused is not None:
        sites.append(block.fused)
    reloads, skips = _forwarding(block.entries)
    bound = set(reloads.values())
    machine = {"cpu": "cpu", "mem": "mem", "tables": "tables",
               "sp": f"r{_RSP}", "cell": "cell"}
    machine.update((flag, flag) for flag in _FLAGS)
    rendered = []
    used, written = set(), set()
    flags, flags_written = set(), set()
    addrs: List[int] = []
    charges: List[int] = []
    for index, (sem, ops, site_addrs, site_charges, nxt) in enumerate(sites):
        offset = charges[-1] if charges else 0
        addrs.extend(site_addrs)
        charges.extend(offset + charge for charge in site_charges)
        site_used, site_written = sem.touched(ops)
        used |= site_used
        written |= site_written
        flags |= sem.fields & set(_FLAGS)
        flags_written |= sem.stores & set(_FLAGS)
        operands = [f"r{value}" if is_reg else repr(value)
                    for value, is_reg in zip(ops, sem.regs)]
        named = dict(machine, n=repr(nxt), pc=repr(site_addrs[0]))
        named.update((f"u{i}", repr(value & _MASK64))
                     for i, value in enumerate(ops) if f"u{i}" in sem.fields)
        if "t" in sem.fields:
            named["t"] = repr(nxt + ops[0])
        if index in reloads:
            width = CODEC_BY_BYTE[block.entries[index][0]].spec.load
            named.update(v=f"v{reloads[index]}",
                         mask=hex((1 << 8 * width) - 1))
            sem, operands = RELOAD, operands[:1]
        elif index in skips:
            sem, operands = SEMANTICS[Op.NOP], []
        elif index in bound:
            # Bind the stored value as it is passed to the store.
            operands[2] = f"(v{index} := {operands[2]})"
        rendered.append((sem, operands, named))
    fields = set().union(*(sem.fields for sem, _, _, _, _ in sites))
    prologue = ["regs = cpu.regs"] if used else []
    prologue += [f"r{reg} = regs[{reg}]" for reg in sorted(used)]
    prologue += [f"{flag} = cpu.{flag}" for flag in _FLAGS if flag in flags]
    prologue += [f"{name} = cpu.{attr}" for name, attr in
                 (("mem", "memory"), ("tables", "tables"))
                 if name in fields]
    writeback = [f"regs[{reg}] = r{reg}" for reg in sorted(written)]
    writeback += [f"cpu.{flag} = {flag}" for flag in _FLAGS
                  if flag in flags_written]
    if len(addrs) == 1:
        addrs_src, charges_src = repr(addrs[0]), repr(charges[0])
    else:
        addrs_src, charges_src = repr(tuple(addrs)), repr(tuple(charges))
    source = "\n".join(_function("block(cpu)", rendered, len(addrs),
                                 prologue, addrs_src, charges_src,
                                 writeback, repr(block.exit_rip)))
    return source, len(reloads)


# ---------------------------------------------------------------------------
# Superinstruction fusion: the Fig. 4 Try block
# ---------------------------------------------------------------------------


def try_fuse_check(cpu, addr: int,
                   entry0: Tuple[int, Tuple[int, ...], int, int]
                   ) -> Optional[Site]:
    """Recognize a check-transaction Try block starting at ``addr``.

    Returns its :data:`FUSED_CHECK` site when the five-instruction
    template matches (with the three scratch registers pairwise
    distinct, which the instrumenter guarantees), else None.
    """
    decoded = cpu.decoded
    entries = [entry0]
    addrs = [addr]
    cursor = addr + entry0[2]
    try:
        for _ in range(4):
            entry = decoded.get(cursor)
            if entry is None:
                entry = cpu._fetch_decode(cursor)
            entries.append(entry)
            addrs.append(cursor)
            cursor += entry[2]
    except (MemoryFault, InvalidInstruction):
        return None
    e0, e1, e2, e3, e4 = entries
    if (e1[0], e2[0], e3[0], e4[0]) != (int(Op.TLOAD_RR), int(Op.CMP_RR),
                                        int(Op.JNE), int(Op.JMP_R)):
        return None
    r_a, bary_imm = e0[1]
    r_b, r_c = e1[1]
    if e2[1] != (r_a, r_b) or e4[1] != (r_c,):
        return None
    if len({r_a, r_b, r_c}) != 3:
        return None
    check_target = addrs[3] + e3[2] + e3[1][0]
    charges = []
    for entry in entries:
        charges.append((charges[-1] if charges else 0) + entry[3])
    return (FUSED_CHECK, (r_a, bary_imm, r_b, r_c, check_target),
            tuple(addrs), tuple(charges), cursor)


# ---------------------------------------------------------------------------
# Decoded basic blocks
# ---------------------------------------------------------------------------

#: Maximum instructions decoded into one block.  Together with the
#: fused check's five instructions this bounds how far a single block
#: execution can advance the instruction counter, which ``CPU.run``
#: uses to honour ``max_steps`` exactly.
MAX_BLOCK_INSTRS = 64
MAX_BLOCK_ADVANCE = MAX_BLOCK_INSTRS + FUSED_CHECK.width

#: Cold runs after which a block's source is generated and compiled.
#: On the twelve fixed programs 6-40% of the decoded blocks reach 32
#: runs, and their generated code retires 77-99% of the instructions.
#: Generating a block costs ~0.85 ms, so generating every block on its
#: first run is slower: 8.8 s of VM time for the twelve, against 6.2 s.
HOT_BLOCK_RUNS = 32


class Block:
    """One decoded straight-line run.

    ``run(cpu) -> next_rip`` starts as the cold executor over per-
    instruction closures and is replaced by the generated function
    once the block is hot.  ``entries`` (the decoded entries of the
    unfused instructions, which are contiguous from ``entry``) and
    ``fused`` (a trailing check site) are what its source is generated
    from.
    """

    __slots__ = ("entry", "limit", "entries", "fused", "linear", "term",
                 "exit_rip", "runs", "run")

    def __init__(self, entry: int, limit: int, entries: tuple,
                 fused: Optional[Site], linear: Tuple[_Closure, ...],
                 term: Optional[_Closure], exit_rip: int) -> None:
        self.entry = entry
        self.limit = limit          # one past the last decoded byte
        self.entries = entries
        self.fused = fused
        self.linear = linear
        self.term = term
        self.exit_rip = exit_rip    # fall-through when term is None
        self.runs = 0
        self.run = self._cold

    def _cold(self, cpu) -> int:
        if self.runs >= HOT_BLOCK_RUNS:
            self.run = hot = generate_block(self, cpu.dispatch_cache)
            return hot(cpu)
        self.runs += 1
        for fn in self.linear:
            fn(cpu)
        term = self.term
        return self.exit_rip if term is None else term(cpu)

    def overlaps(self, lo: int, hi: int) -> bool:
        return self.entry < hi and lo < self.limit


def generate_block(block: Block, cache: "DispatchCache") -> _Closure:
    """Generate, compile and return the hot function of ``block``."""
    with OBS.tracer.span("vm.generate", entry=block.entry):
        namespace = dict(_HELPERS, cell=[0, -1])
        source, forwarded = _block_source(block)
        exec(compile(source, f"<block {block.entry:#x}>", "exec"), namespace)
    cache.blocks_generated += 1
    cache.forwarded_loads += forwarded
    return namespace["block"]


class DispatchCache:
    """Shared decoded state for one address space.

    Three layers keyed by code address: ``decoded`` (one decoded
    ``(op, operands, length, cost)`` entry per instruction),
    ``closures`` (one compiled closure per instruction, used by
    ``step()``) and ``blocks`` (one :class:`Block` per basic-block
    entry, cold or hot, used by ``run()``).  :meth:`invalidate_range`
    drops all three at once.
    """

    __slots__ = ("decoded", "closures", "blocks", "blocks_built",
                 "fused_sites", "blocks_generated", "forwarded_loads")

    def __init__(self) -> None:
        self.decoded: Dict[int, Tuple[int, Tuple[int, ...], int, int]] = {}
        self.closures: Dict[int, _Closure] = {}
        self.blocks: Dict[int, Block] = {}
        self.blocks_built = 0
        self.fused_sites = 0
        self.blocks_generated = 0
        self.forwarded_loads = 0

    def invalidate_range(self, lo: int, hi: int) -> None:
        """Drop every decoded instruction, closure and block touching
        ``[lo, hi)``."""
        for layer in (self.decoded, self.closures):
            for address in [a for a in layer if lo <= a < hi]:
                del layer[address]
        blocks = self.blocks
        for address in [a for a, b in blocks.items() if b.overlaps(lo, hi)]:
            del blocks[address]


_TLOAD_RI_INT = int(Op.TLOAD_RI)


def build_block(cpu, entry_rip: int) -> Block:
    """Decode, compile and cache the basic block starting at ``entry_rip``.

    An address that fails to decode ends the block before it, so the
    fault is raised when — and only when — execution reaches it, as a
    block of its own that fails to build.
    """
    cache: DispatchCache = cpu.dispatch_cache
    ccache = cache.closures
    decoded = cache.decoded
    entries: List[Tuple[int, Tuple[int, ...], int, int]] = []
    fused: Optional[Site] = None
    linear: List[_Closure] = []
    term: Optional[_Closure] = None
    addr = limit = entry_rip
    for _ in range(MAX_BLOCK_INSTRS):
        entry = decoded.get(addr)
        if entry is None:
            try:
                entry = cpu._fetch_decode(addr)
            except (MemoryFault, InvalidInstruction):
                if addr == entry_rip:
                    cpu._decode_fault = True
                    raise
                limit = addr + 1  # keep the failed address inside the span
                break
        op, ops, length, cost = entry
        if op == _TLOAD_RI_INT:
            fused = try_fuse_check(cpu, addr, entry)
            if fused is not None:
                term = _FUSED_FACTORY(*fused[1:])
                cache.fused_sites += 1
                addr = limit = fused[4]
                break
        closure = ccache.get(addr)
        if closure is None:
            closure = ccache[addr] = compile_entry(entry, addr)
        entries.append(entry)
        addr = limit = addr + length
        if op in BLOCK_TERMINATORS:
            term = closure
            break
        linear.append(closure)
    block = Block(entry_rip, limit, tuple(entries), fused, tuple(linear),
                  term, exit_rip=addr)
    cache.blocks[entry_rip] = block
    cache.blocks_built += 1
    return block
