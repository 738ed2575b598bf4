"""Binary-level CFG reconstruction over swept records.

Blocks are cut at the classic leader set (range starts, direct branch
targets, instruction-after-branch, reachability roots) and the graph
conforms to the duck type :func:`repro.analysis.dataflow.solver.solve`
expects (``rpo`` / ``blocks`` / ``successors`` / ``predecessors`` /
``entry`` / ``exits``), so the MIR worklist engine runs unchanged over
machine code.  A block is keyed by its start address.

Leaders, blocks and successors are cut from one table indexed by
opcode byte, :data:`_KIND`, over each record's ``(address, codec,
operands)``: whether the instruction ends a block, and whether it
falls through, jumps, branches conditionally or calls.  Each block
carries its composed register-fact effect
(:func:`~repro.analysis.binverify.absint.summarize`), so the solver
never walks its instructions.

Check transactions are recognized *structurally*: a block ending in
the Fig. 4 guard suffix (``tload rdi, Bary[i]`` / ``tload rsi, (r)`` /
``cmp rdi, rsi`` / ``jne``) is a :class:`Guard`, and it is **intact**
only if its full Check/Halt retry chain validates — the ``testb1`` /
``je`` pair at the jne target, the ``cmpw`` version retry jumping back
to the same guard, and both failure paths ending in ``hlt``.  Only
blocks that end in ``jne`` are looked at.  An intact guard contributes
a synthetic :class:`EdgeBlock` on its fall-through edge whose
``checks`` mask names the guarded register; the solver's transfer
upgrades that register to CHECKED if it is MASKED, making the
dominance argument ("every path to this indirect branch passes an
intact check") fall out of the ordinary forward dataflow join.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.isa.disasm import DecodedInstr
from repro.isa.instructions import Op, SPECS
from repro.isa.registers import Reg

from repro.analysis.binverify.absint import KEEP_ALL, summarize
from repro.analysis.binverify.image import ImageSpec

ENTRY = "entry"

#: how an instruction ends its block (by opcode byte); 0: it does not
_STOP, _CALL_R, _CALL, _COND, _JUMP = 1, 2, 3, 4, 5
#: kinds from ``_CALL`` up name a direct target through a rel32 operand
_DIRECT = _CALL


def _kind(op: Op) -> int:
    spec = SPECS[op]
    if op == Op.HLT or (spec.is_indirect and not spec.is_call):
        return _STOP          # hlt / ret / jmp *r: no static successors
    if not spec.is_branch:
        return 0
    if spec.is_call:
        return _CALL_R if spec.is_indirect else _CALL
    return _COND if spec.is_cond else _JUMP


_KIND: List[int] = [0] * 256
for _op in SPECS:
    _KIND[int(_op)] = _kind(_op)

_RDI_RSI = (Reg.RDI, Reg.RSI)


class BinBlock:
    """A maximal straight-line run of swept records and its effect."""

    __slots__ = ("start", "instrs", "keep", "gen", "checks", "falls_off")

    def __init__(self, start: int, instrs: List[DecodedInstr]) -> None:
        self.start = start
        self.instrs = instrs
        self.keep, self.gen = summarize(instrs)
        self.checks = 0
        #: last instruction is not a terminator and its end is not a
        #: decoded boundary: execution would run off into non-code
        self.falls_off = False


@dataclass
class Guard:
    """One recognized check-transaction guard (the Try block suffix)."""

    block: int                 # start of the guard block
    start: int                 # address of the tload rdi (suffix start)
    reg: int                   # register the transaction checks
    bary_field: int            # address of the Bary imm32 field
    check_addr: int            # jne target (the Check block)
    fallthrough: int           # address the guard falls through to
    intact: bool = False
    reason: str = ""           # why the chain failed, when not intact
    span: Tuple[int, int] = (0, 0)   # [suffix start, halt end)


class EdgeBlock:
    """Synthetic pass-through block on an intact guard's fall-through
    edge; carries the CHECKED upgrade without touching the solver."""

    __slots__ = ("guard", "checks")
    keep, gen = KEEP_ALL, 0

    def __init__(self, guard: Guard) -> None:
        self.guard = guard
        self.checks = 1 << guard.reg


class BinaryCfg:
    """The reconstructed control-flow graph of one image."""

    def __init__(self) -> None:
        self.entry = ENTRY
        #: block start (or synthetic label) -> BinBlock / EdgeBlock
        self.blocks: Dict[object, object] = {}
        self.successors: Dict[object, List[object]] = {}
        self.predecessors: Dict[object, List[object]] = {}
        self.rpo: List[object] = []
        self.exits: List[object] = []
        #: decoded boundary address -> index of its record in the sweep
        self.boundaries: Dict[int, int] = {}
        self.guards: List[Guard] = []


def build_cfg(image: ImageSpec, decoded: List[DecodedInstr]) -> BinaryCfg:
    cfg = BinaryCfg()
    boundaries = dict(zip(map(itemgetter(0), decoded), range(len(decoded))))
    cfg.boundaries = boundaries
    holes = image.rel32_holes
    kinds = _KIND

    # -- leaders ----------------------------------------------------------
    leaders = {start for start, _end in image.code_ranges}
    leaders.update(image.roots)
    for address, codec, operands in [d for d in decoded
                                     if kinds[d[1].opcode]]:
        end = address + codec.length
        leaders.add(end)
        if kinds[codec.opcode] >= _DIRECT and address + 1 not in holes:
            leaders.add(end + operands[0])

    # -- blocks -----------------------------------------------------------
    cuts = sorted({boundaries[a] for a in leaders if a in boundaries}
                  | {0} if decoded else ())
    cuts.append(len(decoded))
    blocks = cfg.blocks
    order: List[BinBlock] = []
    for first, limit in zip(cuts, cuts[1:]):
        block = BinBlock(decoded[first][0], decoded[first:limit])
        order.append(block)
        blocks[block.start] = block

    # -- successors -------------------------------------------------------
    successors = cfg.successors
    call_targets = []
    suffix_of: Dict[int, Guard] = {}
    for block in order:
        address, codec, operands = block.instrs[-1]
        opcode = codec.opcode
        kind = kinds[opcode]
        end = address + codec.length
        succs: List[int] = []
        if kind != _STOP and kind != _JUMP:
            if end in blocks:
                succs.append(end)
            else:
                block.falls_off = True
        if kind >= _DIRECT and address + 1 not in holes:
            target = end + operands[0]
            if target in blocks:
                if kind == _CALL:
                    call_targets.append(target)
                else:
                    succs.append(target)
        successors[block.start] = succs
        if opcode == Op.JNE:
            guard = _match_guard(block, holes)
            if guard is not None:
                suffix_of[block.start] = guard
                cfg.guards.append(guard)

    # -- intact-chain validation ------------------------------------------
    for guard in cfg.guards:
        _validate_chain(cfg, guard, suffix_of)

    # -- synthetic edge blocks on intact guards' fall-through edges -------
    for guard in cfg.guards:
        target = guard.fallthrough
        succs = successors[guard.block]
        if not guard.intact or target not in succs:
            continue
        edge_label = f"g{guard.start:#x}"
        blocks[edge_label] = EdgeBlock(guard)
        successors[edge_label] = [target]
        successors[guard.block] = [
            edge_label if s == target else s for s in succs]

    # -- entry, predecessors, rpo -----------------------------------------
    blocks[ENTRY] = BinBlock(image.base - 1, [])
    successors[ENTRY] = sorted(
        {a for a in image.roots if a in blocks} | set(call_targets))

    predecessors = cfg.predecessors
    for label in blocks:
        predecessors[label] = []
    for label, succs in successors.items():
        for succ in succs:
            predecessors[succ].append(label)

    cfg.rpo = _rpo(cfg)
    cfg.exits = [label for label in cfg.rpo
                 if label != ENTRY and not successors[label]]
    return cfg


def _match_guard(block: BinBlock, holes) -> Optional[Guard]:
    """Recognize the 4-instruction guard suffix ending ``block``
    (whose last instruction is a ``jne``)."""
    if len(block.instrs) < 4:
        return None
    (bary_at, bary_codec, bary_ops), (_, tary_codec, tary_ops), \
        (_, cmp_codec, cmp_ops), (jne_at, jne_codec, jne_ops) = \
        block.instrs[-4:]
    if not (bary_codec.op == Op.TLOAD_RI
            and bary_ops[0] == Reg.RDI
            and tary_codec.op == Op.TLOAD_RR
            and tary_ops[0] == Reg.RSI
            and cmp_codec.op == Op.CMP_RR
            and cmp_ops == _RDI_RSI):
        return None
    if jne_at + 1 in holes:
        return None
    fallthrough = jne_at + jne_codec.length
    return Guard(
        block=block.start, start=bary_at,
        reg=tary_ops[1],
        bary_field=bary_at + 2,
        check_addr=fallthrough + jne_ops[0],
        fallthrough=fallthrough)


def _validate_chain(cfg: BinaryCfg, guard: Guard,
                    suffix_of: Dict[int, Guard]) -> None:
    """Prove the guard's Check/Halt chain intact (sets ``intact``)."""

    blocks = cfg.blocks

    def fail(reason: str) -> None:
        guard.reason = reason

    def halts(address: int) -> Optional[DecodedInstr]:
        block = blocks.get(address)
        if block is None or block.instrs[0][1].op != Op.HLT:
            return None
        return block.instrs[0]

    check = blocks.get(guard.check_addr)
    if check is None or len(check.instrs) != 2:
        return fail("jne does not reach a testb1/je check block")
    (_, testb_codec, testb_ops), (je_at, je_codec, je_ops) = check.instrs
    if not (testb_codec.op == Op.TESTB1
            and testb_ops[0] == Reg.RSI
            and je_codec.op == Op.JE):
        return fail("check block is not the testb1 %rsi / je pair")
    je_end = je_at + je_codec.length
    halt = halts(je_end + je_ops[0])
    if halt is None:
        return fail("validity-check failure path does not halt")

    retry = blocks.get(je_end)
    if retry is None or len(retry.instrs) != 2:
        return fail("je does not fall through to a cmpw/jne retry block")
    (_, cmpw_codec, cmpw_ops), (jne_at, jne_codec, jne_ops) = retry.instrs
    if not (cmpw_codec.op == Op.CMPW_RR
            and cmpw_ops == _RDI_RSI
            and jne_codec.op == Op.JNE):
        return fail("retry block is not the cmpw rdi, rsi / jne pair")
    jne_end = jne_at + jne_codec.length
    try_guard = suffix_of.get(jne_end + jne_ops[0])
    if try_guard is None or try_guard.bary_field != guard.bary_field \
            or try_guard.reg != guard.reg:
        return fail("version retry does not re-enter the same guard")
    if halts(jne_end) is None:
        return fail("version-mismatch failure path does not halt")

    guard.intact = True
    guard.span = (guard.start, halt[0] + halt[1].length)


def _rpo(cfg: BinaryCfg) -> List[object]:
    """Reverse postorder from the synthetic entry; unreachable blocks
    appended in address order, edge blocks first (the solver leaves
    them stateless)."""
    successors = cfg.successors
    seen = {ENTRY}
    post: List[object] = []
    stack = [(ENTRY, iter(successors[ENTRY]))]
    while stack:
        label, succs = stack[-1]
        for succ in succs:
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, iter(successors[succ])))
                break
        else:
            stack.pop()
            post.append(label)
    post.reverse()
    rest = [label for label in cfg.blocks if label not in seen]
    rest.sort(key=lambda label: getattr(cfg.blocks[label], "start", 0))
    return post + rest
