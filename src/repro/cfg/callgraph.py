"""Call-graph construction with tail-call chains (paper Sec. 6).

"To compute control-flow edges out of return instructions, we construct
a call graph [...].  Tail calls are handled in the following way: if in
function f there is a call node calling g, and g calls h through a
series of tail calls, then an edge from the call node in f to h is
added to the call graph."

The graph is built purely from auxiliary module information: direct
call edges, indirect call signatures resolved by type matching, and
tail-call edges (direct and indirect).  Each step is a function of the
facts it is handed, so the dynamic linker can apply it to a library's
facts (or to the host facts a library changes) and add the result to
the host's graph.
"""

from __future__ import annotations

from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Set, Tuple)

from repro.module.auxinfo import BranchSiteAux, FunctionAux, RetSiteAux
from repro.tinyc.types import FuncSig, signatures_match

#: function name -> the functions it tail-calls
TailEdges = Dict[str, Set[str]]


class TypeMatcher:
    """Answers type-matching queries: signature -> address-taken functions.

    Address-taken functions are indexed by signature.  Under
    :func:`signatures_match` a non-variadic pointer signature matches
    only an equal signature, so its query is one dict lookup; only a
    variadic pointer signature scans, once, and its answer is cached.
    Either way the functions come in their order in ``functions``.
    """

    def __init__(self, functions: List[FunctionAux]) -> None:
        self._index([f for f in functions if f.address_taken], None)

    def _index(self, taken: List[FunctionAux],
               parent: Optional["TypeMatcher"]) -> None:
        self._address_taken = taken
        self._parent = parent
        by_sig: Dict[FuncSig, List[FunctionAux]] = {}
        for func in taken:
            by_sig.setdefault(func.sig, []).append(func)
        self._matches: Dict[FuncSig, Tuple[FunctionAux, ...]] = {
            sig: tuple(funcs) for sig, funcs in by_sig.items()}
        self._variadic: Dict[FuncSig, Tuple[FunctionAux, ...]] = {}
        if parent is not None:
            inherited = parent._matches
            for sig, funcs in self._matches.items():
                self._matches[sig] = inherited.get(sig, ()) + funcs
            self._matches = {**inherited, **self._matches}

    def extend(self, taken: List[FunctionAux]) -> "TypeMatcher":
        """A matcher over this one's functions, then ``taken``, whatever
        their address-taken flags say.  This one does not change."""
        child = TypeMatcher.__new__(TypeMatcher)
        child._index(list(taken), self)
        return child

    def added(self, sig: Optional[FuncSig]) -> Tuple[FunctionAux, ...]:
        """The matches of ``sig`` that :meth:`extend` added to the
        parent's (all of them, for a matcher that extends none)."""
        matches = self.matches(sig)
        if self._parent is None:
            return matches
        return matches[len(self._parent.matches(sig)):]

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
            if self._parent is not None:
                cached = self._parent.matches(sig) + cached
            self._variadic[sig] = cached
        return cached


def tail_edges(direct_calls: Iterable[Tuple[str, str, bool]],
               tail_sites: Iterable[BranchSiteAux],
               matcher: TypeMatcher) -> TailEdges:
    """The tail-call edges of ``direct_calls`` and of the indirect tail
    sites ``tail_sites``: every function a site's signature matches."""
    edges: TailEdges = {}
    for caller, callee, is_tail in direct_calls:
        if is_tail:
            edges.setdefault(caller, set()).add(callee)
    for site in tail_sites:
        edges.setdefault(site.fn, set()).update(
            f.name for f in matcher.matches(site.sig))
    return edges


def close_tail_edges(edges: TailEdges, roots: Iterable[str],
                     final: Mapping[str, Set[str]]) -> Dict[str, Set[str]]:
    """For every function reached from ``roots`` over ``edges``: the set
    of functions a call to it may be *in* when it finally returns (the
    function itself plus every function its tail chains reach).

    A function in ``final`` is not entered: its closure is the one
    given.  Closures are computed per strongly connected component (an
    iterative Tarjan), so every function on a tail cycle gets the same
    closure whatever order the names come in.
    """
    closure: Dict[str, Set[str]] = {}
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    stack: List[str] = []
    on_stack: Set[str] = set()

    def enter(name: str) -> Tuple[str, Iterator[str]]:
        index[name] = low[name] = len(index)
        stack.append(name)
        on_stack.add(name)
        return name, iter(edges.get(name, ()))

    for root in roots:
        if root in index or root in final:
            continue
        work = [enter(root)]
        while work:
            name, succs = work[-1]
            for succ in succs:
                if succ in final:
                    continue
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
                    for succ in edges.get(member, ()):
                        if succ not in members:
                            result |= closure.get(succ) or final[succ]
                for member in members:
                    closure[member] = result
    return closure


def group_retsites(retsites: Iterable[RetSiteAux],
                   ) -> Tuple[Dict[str, Set[int]], Dict[FuncSig, Set[int]]]:
    """Return sites by direct callee, and by pointer signature."""
    direct: Dict[str, Set[int]] = {}
    indirect: Dict[FuncSig, Set[int]] = {}
    for retsite in retsites:
        if retsite.callee is not None:
            direct.setdefault(retsite.callee, set()).add(retsite.address)
        else:
            indirect.setdefault(retsite.sig, set()).add(retsite.address)
    return direct, indirect


def calls_by_callee(retsites: Iterable[RetSiteAux], matcher: TypeMatcher,
                    ) -> Dict[str, Set[int]]:
    """Function name -> the return sites of the calls that may enter it:
    its direct calls, and every indirect call whose pointer signature
    matches it."""
    calls, indirect = group_retsites(retsites)
    for sig, addresses in indirect.items():
        for func in matcher.matches(sig):
            calls.setdefault(func.name, set()).update(addresses)
    return calls


def add_return_edges(return_targets: Dict[str, Set[int]],
                     calls: Mapping[str, Set[int]],
                     closure: Mapping[str, Set[str]]) -> None:
    """Add the return sites of the calls to each function (``calls``,
    by callee) to the return targets of every function its tail
    closure holds: the functions such a call may be in when it
    returns."""
    for callee, addresses in calls.items():
        for landing in closure.get(callee, (callee,)):
            targets = return_targets.get(landing)
            if targets is None:
                return_targets[landing] = set(addresses)
            else:
                targets |= addresses
