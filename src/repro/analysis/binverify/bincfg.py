"""Binary-level CFG reconstruction over decoded instructions.

Blocks are cut at the classic leader set (range starts, direct branch
targets, instruction-after-branch, reachability roots) and the graph
conforms to the duck type :func:`repro.analysis.dataflow.solver.solve`
expects (``rpo`` / ``blocks`` / ``successors`` / ``predecessors`` /
``entry`` / ``exits``), so the MIR worklist engine runs unchanged over
machine code.

Check transactions are recognized *structurally*: a block ending in
the Fig. 4 guard suffix (``tload rdi, Bary[i]`` / ``tload rsi, (r)`` /
``cmp rdi, rsi`` / ``jne``) is a :class:`Guard`, and it is **intact**
only if its full Check/Halt retry chain validates — the ``testb1`` /
``je`` pair at the jne target, the ``cmpw`` version retry jumping back
to the same guard, and both failure paths ending in ``hlt``.  An
intact guard contributes a synthetic :class:`EdgeBlock` on its
fall-through edge; the abstract interpreter's transfer for that edge
is what upgrades the checked register to CHECKED, making the dominance
argument ("every path to this indirect branch passes an intact check")
fall out of the ordinary forward dataflow join.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.disasm import DecodedInstr
from repro.isa.instructions import Op
from repro.isa.registers import Reg

from repro.analysis.binverify.image import ImageSpec

ENTRY = "entry"

#: opcode -> rel32 field offset within the encoding (single REL operand)
_REL_FIELD_OFFSET = 1


@dataclass
class BinBlock:
    """A maximal straight-line run of decoded instructions."""

    label: str
    start: int
    instrs: List[DecodedInstr] = field(default_factory=list)
    #: last instruction is not a terminator and its end is not a
    #: decoded boundary: execution would run off into non-code
    falls_off: bool = False

    @property
    def end(self) -> int:
        return self.instrs[-1].end if self.instrs else self.start


@dataclass
class Guard:
    """One recognized check-transaction guard (the Try block suffix)."""

    block: str                 # label of the guard block
    start: int                 # address of the tload rdi (suffix start)
    reg: int                   # register the transaction checks
    bary_field: int            # address of the Bary imm32 field
    check_addr: int            # jne target (the Check block)
    fallthrough: int           # address the guard falls through to
    intact: bool = False
    reason: str = ""           # why the chain failed, when not intact
    span: Tuple[int, int] = (0, 0)   # [suffix start, halt end)


@dataclass
class EdgeBlock:
    """Synthetic pass-through block on an intact guard's fall-through
    edge; carries the CHECKED upgrade without touching the solver."""

    label: str
    guard: Guard
    instrs: Tuple = ()


class BinaryCfg:
    """The reconstructed control-flow graph of one image."""

    def __init__(self) -> None:
        self.entry = ENTRY
        self.blocks: Dict[str, object] = {}
        self.successors: Dict[str, List[str]] = {}
        self.predecessors: Dict[str, List[str]] = {}
        self.rpo: List[str] = []
        self.exits: List[str] = []
        self.boundaries: frozenset = frozenset()
        self.block_at: Dict[int, str] = {}
        self.guards: List[Guard] = []
        #: direct-call targets discovered while wiring successors
        self.call_targets: List[int] = []

    def block_of(self, address: int) -> Optional[BinBlock]:
        label = self.block_at.get(address)
        block = self.blocks.get(label) if label is not None else None
        return block if isinstance(block, BinBlock) else None


def _rel_hole(decoded: DecodedInstr, image: ImageSpec) -> bool:
    return (decoded.address + _REL_FIELD_OFFSET) in image.rel32_holes


def _label(address: int) -> str:
    return f"{address:#x}"


def build_cfg(image: ImageSpec, decoded: List[DecodedInstr]) -> BinaryCfg:
    cfg = BinaryCfg()
    boundaries = frozenset(d.address for d in decoded)
    cfg.boundaries = boundaries

    # -- leaders ----------------------------------------------------------
    leaders = set()
    for start, _end in image.code_ranges:
        if start in boundaries:
            leaders.add(start)
    for root in image.roots:
        if root in boundaries:
            leaders.add(root)
    for d in decoded:
        spec = d.spec
        if spec.is_branch or d.op == Op.HLT:
            if d.end in boundaries:
                leaders.add(d.end)
            if spec.is_branch and not spec.is_indirect \
                    and not _rel_hole(d, image):
                target = d.target
                if target in boundaries:
                    leaders.add(target)

    # -- blocks -----------------------------------------------------------
    order: List[BinBlock] = []
    current: Optional[BinBlock] = None
    prev_end: Optional[int] = None
    for d in decoded:
        if current is None or d.address in leaders or d.address != prev_end:
            current = BinBlock(label=_label(d.address), start=d.address)
            order.append(current)
        current.instrs.append(d)
        prev_end = d.end
    for block in order:
        cfg.blocks[block.label] = block
        cfg.block_at[block.start] = block.label

    # -- successors -------------------------------------------------------
    starts = cfg.block_at
    for block in order:
        succs: List[str] = []
        last = block.instrs[-1]
        op = last.op
        spec = last.spec

        def direct_target() -> Optional[int]:
            if _rel_hole(last, image):
                return None
            return last.target

        if op == Op.HLT or (spec.is_indirect and not spec.is_call):
            pass  # hlt / ret / jmp *r: no static successors
        elif spec.is_call:
            if not spec.is_indirect:
                target = direct_target()
                if target is not None and target in starts:
                    cfg.call_targets.append(target)
            if last.end in starts:
                succs.append(starts[last.end])
            else:
                block.falls_off = True
        elif spec.is_branch:
            if spec.is_cond:
                if last.end in starts:
                    succs.append(starts[last.end])
                else:
                    block.falls_off = True
            target = direct_target()
            if target is not None and target in starts:
                succs.append(starts[target])
        else:
            if last.end in starts:
                succs.append(starts[last.end])
            else:
                block.falls_off = True
        cfg.successors[block.label] = succs

    # -- guards + intact-chain validation ---------------------------------
    suffix_of: Dict[str, Guard] = {}
    for block in order:
        guard = _match_guard(block, image)
        if guard is not None:
            suffix_of[block.label] = guard
            cfg.guards.append(guard)
    for guard in cfg.guards:
        _validate_chain(cfg, guard, suffix_of)

    # -- synthetic edge blocks on intact guards' fall-through edges -------
    for guard in cfg.guards:
        if not guard.intact:
            continue
        target_label = starts.get(guard.fallthrough)
        if target_label is None:
            continue
        succs = cfg.successors[guard.block]
        if target_label not in succs:
            continue
        edge_label = f"g{guard.start:#x}"
        edge = EdgeBlock(label=edge_label, guard=guard)
        cfg.blocks[edge_label] = edge
        cfg.successors[edge_label] = [target_label]
        cfg.successors[guard.block] = [
            edge_label if s == target_label else s for s in succs]

    # -- entry, predecessors, rpo -----------------------------------------
    entry_succs = sorted(
        {starts[a] for a in image.roots if a in starts}
        | {starts[a] for a in cfg.call_targets if a in starts},
        key=lambda lbl: cfg.blocks[lbl].start)
    cfg.blocks[ENTRY] = BinBlock(label=ENTRY, start=image.base - 1)
    cfg.successors[ENTRY] = entry_succs

    for label in cfg.blocks:
        cfg.predecessors.setdefault(label, [])
    for label, succs in cfg.successors.items():
        for succ in succs:
            cfg.predecessors[succ].append(label)

    cfg.rpo = _rpo(cfg)
    cfg.exits = [label for label in cfg.rpo
                 if label != ENTRY and not cfg.successors[label]]
    return cfg


def _match_guard(block: BinBlock, image: ImageSpec) -> Optional[Guard]:
    """Recognize the 4-instruction guard suffix ending ``block``."""
    if len(block.instrs) < 4:
        return None
    tload_b, tload_t, compare, jne = block.instrs[-4:]
    if not (tload_b.op == Op.TLOAD_RI
            and tload_b.operands[0] == Reg.RDI
            and tload_t.op == Op.TLOAD_RR
            and tload_t.operands[0] == Reg.RSI
            and compare.op == Op.CMP_RR
            and compare.operands == (Reg.RDI, Reg.RSI)
            and jne.op == Op.JNE):
        return None
    if _rel_hole(jne, image):
        return None
    return Guard(
        block=block.label, start=tload_b.address,
        reg=tload_t.operands[1],
        bary_field=tload_b.address + 2,
        check_addr=jne.target,
        fallthrough=jne.end)


def _validate_chain(cfg: BinaryCfg, guard: Guard,
                    suffix_of: Dict[str, Guard]) -> None:
    """Prove the guard's Check/Halt chain intact (sets ``intact``)."""

    def fail(reason: str) -> None:
        guard.reason = reason

    check = cfg.block_of(guard.check_addr)
    if check is None or len(check.instrs) != 2:
        return fail("jne does not reach a testb1/je check block")
    testb, je = check.instrs
    if not (testb.op == Op.TESTB1
            and testb.operands[0] == Reg.RSI
            and je.op == Op.JE):
        return fail("check block is not the testb1 %rsi / je pair")
    halt = cfg.block_of(je.target)
    if halt is None or not halt.instrs \
            or halt.instrs[0].op != Op.HLT:
        return fail("validity-check failure path does not halt")

    retry = cfg.block_of(je.end)
    if retry is None or len(retry.instrs) != 2:
        return fail("je does not fall through to a cmpw/jne retry block")
    cmpw, jne2 = retry.instrs
    if not (cmpw.op == Op.CMPW_RR
            and cmpw.operands == (Reg.RDI, Reg.RSI)
            and jne2.op == Op.JNE):
        return fail("retry block is not the cmpw rdi, rsi / jne pair")
    try_label = cfg.block_at.get(jne2.target)
    try_guard = suffix_of.get(try_label) if try_label else None
    if try_guard is None or try_guard.bary_field != guard.bary_field \
            or try_guard.reg != guard.reg:
        return fail("version retry does not re-enter the same guard")
    fall = cfg.block_of(jne2.end)
    if fall is None or not fall.instrs \
            or fall.instrs[0].op != Op.HLT:
        return fail("version-mismatch failure path does not halt")

    guard.intact = True
    guard.span = (guard.start, halt.instrs[0].end)


def _rpo(cfg: BinaryCfg) -> List[str]:
    """Reverse postorder from the synthetic entry; unreachable blocks
    appended in address order (the solver leaves them stateless)."""
    seen = set()
    post: List[str] = []
    stack: List[Tuple[str, int]] = [(ENTRY, 0)]
    seen.add(ENTRY)
    while stack:
        label, index = stack[-1]
        succs = cfg.successors[label]
        if index < len(succs):
            stack[-1] = (label, index + 1)
            succ = succs[index]
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, 0))
        else:
            stack.pop()
            post.append(label)
    rpo = list(reversed(post))
    rest = [label for label in cfg.blocks if label not in seen]

    def start_of(label: str) -> int:
        block = cfg.blocks[label]
        return getattr(block, "start", 0)

    rpo.extend(sorted(rest, key=start_of))
    return rpo
