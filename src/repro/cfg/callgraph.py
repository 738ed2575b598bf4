"""Call-graph construction with tail-call chains (paper Sec. 6).

"To compute control-flow edges out of return instructions, we construct
a call graph [...].  Tail calls are handled in the following way: if in
function f there is a call node calling g, and g calls h through a
series of tail calls, then an edge from the call node in f to h is
added to the call graph."

The graph is built purely from auxiliary module information: direct
call edges, indirect call signatures resolved by type matching, and
tail-call edges (direct and indirect).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.module.auxinfo import AuxInfo, FunctionAux
from repro.tinyc.types import FuncSig, signatures_match


@dataclass
class CallGraph:
    """Resolved call graph over one merged module."""

    #: function name -> return-site addresses its returns may target
    return_targets: Dict[str, Set[int]] = field(default_factory=dict)


class TypeMatcher:
    """Answers type-matching queries: signature -> address-taken functions.

    Address-taken functions are indexed by signature.  Under
    :func:`signatures_match` a non-variadic pointer signature matches
    only an equal signature, so its query is one dict lookup; only a
    variadic pointer signature scans, once, and its answer is cached.
    Either way the functions come in their order in ``functions``.
    """

    def __init__(self, functions: List[FunctionAux]) -> None:
        self._address_taken = [f for f in functions if f.address_taken]
        by_sig: Dict[FuncSig, List[FunctionAux]] = {}
        for func in self._address_taken:
            by_sig.setdefault(func.sig, []).append(func)
        self._matches: Dict[FuncSig, Tuple[FunctionAux, ...]] = {
            sig: tuple(funcs) for sig, funcs in by_sig.items()}
        self._variadic: Dict[FuncSig, Tuple[FunctionAux, ...]] = {}

    def matches(self, sig: Optional[FuncSig]) -> Tuple[FunctionAux, ...]:
        """Address-taken functions an fptr of signature ``sig`` may call."""
        if sig is None:
            return ()
        if not sig.variadic:
            return self._matches.get(sig, ())
        cached = self._variadic.get(sig)
        if cached is None:
            cached = tuple(f for f in self._address_taken
                           if signatures_match(sig, f.sig))
            self._variadic[sig] = cached
        return cached


def _tail_closure(aux: AuxInfo, matcher: TypeMatcher) -> Dict[str, Set[str]]:
    """For every function g on a tail edge: the set of functions a call
    to g may be *in* when it finally returns (g itself plus every
    function its tail chains reach).

    Closures are computed per strongly connected component of the
    tail-call graph (an iterative Tarjan), so every function on a tail
    cycle gets the same closure whatever order the names come in.  A
    function on no tail edge has no entry: its closure is ``{g}``.
    """
    tail_edges: Dict[str, Set[str]] = {}
    for caller, callee, is_tail in aux.direct_calls:
        if is_tail:
            tail_edges.setdefault(caller, set()).add(callee)
    for site in aux.branch_sites:
        if site.kind == "tail":
            targets = {f.name for f in matcher.matches(site.sig)}
            tail_edges.setdefault(site.fn, set()).update(targets)

    closure: Dict[str, Set[str]] = {}
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    stack: List[str] = []
    on_stack: Set[str] = set()

    def enter(name: str) -> Tuple[str, Iterator[str]]:
        index[name] = low[name] = len(index)
        stack.append(name)
        on_stack.add(name)
        return name, iter(tail_edges.get(name, ()))

    for root in tail_edges:
        if root in index:
            continue
        work = [enter(root)]
        while work:
            name, succs = work[-1]
            for succ in succs:
                if succ not in index:
                    work.append(enter(succ))
                    break
                if succ in on_stack:
                    low[name] = min(low[name], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[name])
                if low[name] != index[name]:
                    continue
                members = set()
                while name not in members:
                    member = stack.pop()
                    on_stack.discard(member)
                    members.add(member)
                result = set(members)
                for member in members:
                    for succ in tail_edges.get(member, ()):
                        if succ not in members:
                            result |= closure[succ]
                for member in members:
                    closure[member] = result
    return closure


def build_call_graph(aux: AuxInfo, matcher: TypeMatcher) -> CallGraph:
    """Build the call graph and per-function return-target sets.

    ``matcher`` answers type-matching queries over ``aux``'s functions;
    the CFG generator passes its own, so one generation matches each
    pointer signature once.
    """
    closure = _tail_closure(aux, matcher)
    return_targets: Dict[str, Set[int]] = {name: set()
                                           for name in aux.functions}

    def landing_functions(callee: str) -> Set[str]:
        return closure.get(callee, {callee})

    for retsite in aux.retsites:
        if retsite.callee is not None:
            callees = {retsite.callee}
        else:
            callees = {f.name for f in matcher.matches(retsite.sig)}
        for callee in callees:
            for landing in landing_functions(callee):
                return_targets.setdefault(landing, set()).add(
                    retsite.address)
    return CallGraph(return_targets=return_targets)
