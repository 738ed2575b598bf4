"""MCFI auxiliary module information (paper Secs. 4, 6).

"An MCFI module not only contains code and data, but also auxiliary
information" — the types of its functions and function pointers, plus
everything needed to (re)generate a CFG when modules are linked:
address-taken flags, call sites and return sites, jump tables, and
setjmp resume points.  Combining the auxiliary information of two
modules is "a simple union operation", which is what makes separate
compilation work: the static linker concatenates its units' fragments
(:func:`repro.build.link.link_units`), and the dynamic linker folds each
resident library's facts into the program's CFG generation
(:meth:`repro.cfg.generator.CfgBase.extend`).

All addresses here are absolute (post-layout).  The auxiliary info also
tells the verifier which address ranges are embedded read-only data
(jump tables), enabling complete disassembly of the module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.tinyc.types import FuncSig


@dataclass(frozen=True)
class FunctionAux:
    """One function: name, canonical signature, entry, AT flag."""

    name: str
    sig: FuncSig
    entry: int
    address_taken: bool
    exported: bool
    module: str


@dataclass(frozen=True)
class RetSiteAux:
    """The address following a call instruction.

    ``callee`` is the direct callee's name, or None for indirect calls
    (whose possible callees come from type matching).  ``sig`` is set
    for indirect calls.
    """

    address: int
    caller: str
    callee: Optional[str]
    sig: Optional[FuncSig] = None


@dataclass(frozen=True)
class BranchSiteAux:
    """One instrumented indirect branch (a Bary table consumer)."""

    site: int                       # global site number after linking
    kind: str                       # 'ret'|'icall'|'tail'|'switch'|'longjmp'|'plt'
    fn: str
    sig: Optional[FuncSig] = None
    targets: Tuple[int, ...] = ()   # resolved switch-case addresses
    plt_symbol: Optional[str] = None
    #: points-to refinement for icall/tail sites: proven callee names.
    #: Empty means unrefined; the CFG generator intersects a non-empty
    #: hint with the type-matched set (never widening it).
    ptargets: Tuple[str, ...] = ()


@dataclass
class AuxInfo:
    """Auxiliary information for one (possibly merged) module."""

    functions: Dict[str, FunctionAux] = field(default_factory=dict)
    retsites: List[RetSiteAux] = field(default_factory=list)
    branch_sites: List[BranchSiteAux] = field(default_factory=list)
    setjmp_resumes: List[int] = field(default_factory=list)
    #: (caller, callee, is_tail) direct-call edges
    direct_calls: List[Tuple[str, str, bool]] = field(default_factory=list)
    #: address ranges of embedded read-only data (jump tables)
    data_ranges: List[Tuple[int, int]] = field(default_factory=list)
    exports: Dict[str, int] = field(default_factory=dict)
    imports: List[str] = field(default_factory=list)

    @property
    def n_sites(self) -> int:
        return len(self.branch_sites)
