"""MCFI instrumentation pass (the paper's rewriter, Secs. 5.2 and 7).

Consumes the :class:`~repro.mir.codegen.RawModule` symbolic assembly and
produces either:

* :func:`instrument_stream` — MCFI-instrumented assembly: every indirect
  branch becomes an inlined check transaction (Fig. 4), indirect-branch
  targets gain 4-byte alignment no-ops, memory writes are sandboxed into
  ``[0, 4GB)`` (x64 mode), and each branch site gets a numbered
  ``BarySlot`` that the loader patches with its Bary table index; or
* :func:`lower_native` — the uninstrumented baseline used to measure
  Fig. 5/6 overhead.

The expansion of a return matches Fig. 4 instruction for instruction::

    popq %rcx                 POP rcx
    movl %ecx, %ecx           MOVZX32 rcx
    Try: movl %gs:idx, %edi   TLOAD_RI rdi, BarySlot(site)
    movl %gs:(%rcx), %esi     TLOAD_RR rsi, rcx
    cmpl %edi, %esi           CMP_RR rdi, rsi
    jne Check                 JNE Check
    jmpq *%rcx                JMP_R rcx
    Check: testb $1, %sil     TESTB1 rsi
    jz Halt                   JE Halt
    cmpw %di, %si             CMPW_RR rdi, rsi
    jne Try                   JNE Try
    Halt: hlt                 HLT
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CodegenError
from repro.isa.assembler import (
    Align,
    AlignEnd,
    AsmInstr,
    BarySlot,
    Item,
    Label,
    LabelRef,
    Mark,
)
from repro.isa.instructions import SPECS, Op
from repro.isa.registers import Reg
from repro.mir.codegen import (
    PseudoIndirectCall,
    PseudoIndirectJump,
    PseudoReturn,
    RawItem,
    RawModule,
)
from repro.tinyc.types import FuncSig

@dataclass(frozen=True)
class SiteInfo:
    """One indirect-branch site: what the CFG generator needs to know.

    ``site`` numbers are module-local; the loader assigns global Bary
    indexes at load time.
    """

    site: int
    kind: str                       # 'ret' | 'icall' | 'tail' | 'switch'
                                    # | 'longjmp' | 'plt'
    fn: str                         # enclosing function ('' for PLT)
    sig: Optional[FuncSig] = None   # pointer signature (icall/tail)
    targets: Tuple[str, ...] = ()   # case labels (switch)
    plt_symbol: Optional[str] = None
    #: points-to refinement: proven callee names (icall/tail), or ()
    ptargets: Tuple[str, ...] = ()


@dataclass
class InstrumentedAsm:
    """Instrumented symbolic assembly plus its site table."""

    items: List[Item]
    sites: List[SiteInfo]
    #: labels of setjmp resume points (their own equivalence class)
    setjmp_resumes: List[str] = field(default_factory=list)


class _Expander:
    """Shared emission of Fig. 4 check sequences.

    ``namespace`` keeps generated labels unique when several separately
    instrumented modules are statically linked into one image.
    """

    def __init__(self, namespace: str = "") -> None:
        self.items: List[Item] = []
        self.sites: List[SiteInfo] = []
        self._label_counter = 0
        self.namespace = namespace

    def _fresh(self, hint: str) -> str:
        self._label_counter += 1
        return f"__mcfi.{self.namespace}.{hint}.{self._label_counter}"

    def new_site(self, kind: str, fn: str, sig: Optional[FuncSig] = None,
                 targets: Tuple[str, ...] = (),
                 plt_symbol: Optional[str] = None,
                 ptargets: Tuple[str, ...] = ()) -> SiteInfo:
        info = SiteInfo(site=len(self.sites), kind=kind, fn=fn, sig=sig,
                        targets=targets, plt_symbol=plt_symbol,
                        ptargets=ptargets)
        self.sites.append(info)
        return info

    def emit(self, op: Op, *operands) -> None:
        self.items.append(AsmInstr(op, tuple(operands)))

    def check_and_jump(self, site: SiteInfo,
                       reload_got: Optional[str] = None) -> None:
        """Emit Try/Check/Halt with a final ``jmp *%rcx``.

        With ``reload_got`` the Try block re-reads the branch target
        from the GOT slot (whose address is already in ``rbx``) — the
        paper's PLT adaptation, so a retried transaction observes the
        GOT value the update transaction installed.
        """
        try_label = self._fresh("try")
        check_label = self._fresh("check")
        halt_label = self._fresh("halt")
        self.items.append(Label(try_label))
        if reload_got is not None:
            self.emit(Op.LOAD64, Reg.RCX, Reg.RBX, 0)
            self.emit(Op.MOVZX32, Reg.RCX)
        self.emit(Op.TLOAD_RI, Reg.RDI, BarySlot(site.site))
        self.emit(Op.TLOAD_RR, Reg.RSI, Reg.RCX)
        self.emit(Op.CMP_RR, Reg.RDI, Reg.RSI)
        self.emit(Op.JNE, LabelRef(check_label))
        self.emit(Op.JMP_R, Reg.RCX)
        self.items.append(Label(check_label))
        self.emit(Op.TESTB1, Reg.RSI)
        self.emit(Op.JE, LabelRef(halt_label))
        self.emit(Op.CMPW_RR, Reg.RDI, Reg.RSI)
        self.emit(Op.JNE, LabelRef(try_label))
        self.items.append(Label(halt_label))
        self.emit(Op.HLT)

    def expand_return(self, fn: str) -> None:
        site = self.new_site("ret", fn)
        self.emit(Op.POP, Reg.RCX)
        self.emit(Op.MOVZX32, Reg.RCX)
        self.check_and_jump(site)

    def expand_indirect_jump(self, pseudo: PseudoIndirectJump) -> None:
        site = self.new_site(pseudo.kind, pseudo.fn, sig=pseudo.sig,
                             targets=pseudo.targets,
                             ptargets=pseudo.ptargets)
        if pseudo.reg != Reg.RCX:
            self.emit(Op.MOV_RR, Reg.RCX, pseudo.reg)
        self.emit(Op.MOVZX32, Reg.RCX)
        self.check_and_jump(site)

    def expand_indirect_call(self, pseudo: PseudoIndirectCall,
                             retsite_mark: Optional[Mark]) -> None:
        site = self.new_site("icall", pseudo.fn, sig=pseudo.sig,
                             ptargets=pseudo.ptargets)
        try_label = self._fresh("try")
        check_label = self._fresh("check")
        halt_label = self._fresh("halt")
        done_label = self._fresh("done")
        if pseudo.reg != Reg.RCX:
            self.emit(Op.MOV_RR, Reg.RCX, pseudo.reg)
        self.emit(Op.MOVZX32, Reg.RCX)
        self.items.append(Label(try_label))
        self.emit(Op.TLOAD_RI, Reg.RDI, BarySlot(site.site))
        self.emit(Op.TLOAD_RR, Reg.RSI, Reg.RCX)
        self.emit(Op.CMP_RR, Reg.RDI, Reg.RSI)
        self.emit(Op.JNE, LabelRef(check_label))
        # The return site (instruction after the call) must be 4-byte
        # aligned so it has a Tary entry.
        self.items.append(AlignEnd(4))
        self.emit(Op.CALL_R, Reg.RCX)
        if retsite_mark is not None:
            caller, callee = retsite_mark.info
            self.items.append(Mark("retsite", (caller, callee, pseudo.sig)))
        self.emit(Op.JMP, LabelRef(done_label))
        self.items.append(Label(check_label))
        self.emit(Op.TESTB1, Reg.RSI)
        self.emit(Op.JE, LabelRef(halt_label))
        self.emit(Op.CMPW_RR, Reg.RDI, Reg.RSI)
        self.emit(Op.JNE, LabelRef(try_label))
        self.items.append(Label(halt_label))
        self.emit(Op.HLT)
        self.items.append(Label(done_label))


def _collect_aligned_labels(items: List[RawItem],
                            functions: Dict[str, object]) -> set:
    """Labels that are indirect-branch targets and need 4-byte alignment."""
    aligned = set(functions)  # all function entries
    for item in items:
        if isinstance(item, PseudoIndirectJump) and item.kind == "switch":
            aligned.update(item.targets)
        elif isinstance(item, Mark) and item.kind == "setjmp_resume":
            aligned.add(item.info)
    return aligned


def instrument_items(raw: RawModule) -> InstrumentedAsm:
    """Apply MCFI instrumentation to a raw module's assembly."""
    aligned = _collect_aligned_labels(raw.items, raw.functions)
    return instrument_stream(raw.items, aligned, namespace=raw.name,
                             sandbox_writes=raw.arch == "x64")


def instrument_stream(items: List[RawItem], aligned: set, namespace: str,
                      sandbox_writes: bool) -> InstrumentedAsm:
    """Instrument one symbolic item stream (a whole module, or a single
    function's items in the per-unit build pipeline).

    ``aligned`` lists the labels that are indirect-branch targets;
    ``namespace`` keeps generated ``__mcfi.*`` labels unique across the
    separately instrumented streams of one image.
    """
    expander = _Expander(namespace=namespace)
    setjmp_resumes: List[str] = []
    index = 0
    out = expander.items
    while index < len(items):
        item = items[index]
        if isinstance(item, PseudoReturn):
            expander.expand_return(item.fn)
        elif isinstance(item, PseudoIndirectJump):
            expander.expand_indirect_jump(item)
        elif isinstance(item, PseudoIndirectCall):
            retsite_mark = None
            if index + 1 < len(items) and isinstance(items[index + 1], Mark) \
                    and items[index + 1].kind == "retsite":
                retsite_mark = items[index + 1]
                index += 1
            expander.expand_indirect_call(item, retsite_mark)
        elif isinstance(item, Label) and item.name in aligned:
            out.append(Align(4))
            out.append(item)
        elif isinstance(item, Mark) and item.kind == "setjmp_resume":
            # The alignment must come before the mark so both the mark
            # and the label bind to the padded address.
            setjmp_resumes.append(item.info)
            out.append(Align(4))
            out.append(item)
            follower = items[index + 1] if index + 1 < len(items) else None
            if not (isinstance(follower, Label)
                    and follower.name == item.info):
                raise CodegenError("setjmp resume mark not before its label")
            out.append(follower)
            index += 1
        elif isinstance(item, AsmInstr) and item.op == Op.CALL:
            out.append(AlignEnd(4))
            out.append(item)
        elif isinstance(item, AsmInstr) and sandbox_writes and \
                SPECS[item.op].store:
            base = item.operands[0]
            if base != Reg.RSP:
                out.append(AsmInstr(Op.MOVZX32, (base,)))
            out.append(item)
        else:
            out.append(item)
        index += 1

    result = InstrumentedAsm(items=out, sites=expander.sites,
                             setjmp_resumes=setjmp_resumes)
    return result


def lower_native(items: List[RawItem]) -> List[Item]:
    """Lower pseudo-items to bare indirect branches (no CFI).

    This is the baseline for overhead measurements and the "original
    benchmarks" side of the gadget-elimination experiment.
    """
    out: List[Item] = []
    for item in items:
        if isinstance(item, PseudoReturn):
            out.append(AsmInstr(Op.RET, ()))
        elif isinstance(item, PseudoIndirectCall):
            out.append(AsmInstr(Op.CALL_R, (item.reg,)))
        elif isinstance(item, PseudoIndirectJump):
            out.append(AsmInstr(Op.JMP_R, (item.reg,)))
        else:
            out.append(item)
    return out


def make_plt_entry(symbol: str, got_label: str,
                   expander: _Expander) -> None:
    """Emit one MCFI-instrumented PLT entry (Sec. 5.2, PLT paragraph).

    The entry loads the branch target from the GOT *inside* the Try
    block, so when a check transaction retries during dynamic linking it
    observes the updated GOT entry.
    """
    site = expander.new_site("plt", "", plt_symbol=symbol)
    expander.items.append(Align(4))
    expander.items.append(Label(f"__plt.{symbol}"))
    expander.emit(Op.MOV_RI, Reg.RBX, LabelRef(got_label))
    expander.check_and_jump(site, reload_got=got_label)


def build_plt(symbols: List[str],
              got_labels: Dict[str, str]) -> InstrumentedAsm:
    """Build an instrumented PLT section for ``symbols``."""
    expander = _Expander(namespace="plt")
    for symbol in symbols:
        make_plt_entry(symbol, got_labels[symbol], expander)
    return InstrumentedAsm(items=expander.items, sites=expander.sites)
