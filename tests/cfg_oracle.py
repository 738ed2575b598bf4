"""Test oracles for the CFG generator.

* :func:`merge_aux` and :func:`merged_program` union the auxiliary
  information of a host and its resident libraries under the dynamic
  linker's two address-taken rules, and :func:`merged_cfg` runs
  :func:`generate_cfg` over the union: what every ``dlopen`` computed
  before the linker extended the host's generation instead.  Its
  ``tary_ecns``/``bary_ecns`` must equal the linker's as ordered dicts.
* :func:`reference_targets` is a slow reference generator that derives
  every branch site's target set by brute force: ``signatures_match``
  against every address-taken function, and an explicit search over
  tail-call paths for returns.  It shares no code with the generator.
  :func:`reference_cfg` numbers those sets the way the generator did
  before it kept a partition open: one :func:`partition` over every
  site's group in site order.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.cfg.eqclass import partition
from repro.cfg.generator import Cfg, generate_cfg
from repro.module.auxinfo import AuxInfo, FunctionAux
from repro.tinyc.types import signatures_match

#: a resident library: its auxiliary information and the names of the
#: functions it takes the address of
Library = Tuple[AuxInfo, Iterable[str]]


def merge_aux(parts: List[AuxInfo]) -> AuxInfo:
    """Union the auxiliary information of several modules.

    Branch sites must already carry globally unique site numbers (the
    linker/loader renumbers before merging).  Exported symbols must not
    collide.
    """
    merged = AuxInfo()
    for part in parts:
        for name, func in part.functions.items():
            if name in merged.functions:
                raise ValueError(f"duplicate function {name!r} when merging")
            merged.functions[name] = func
        merged.retsites.extend(part.retsites)
        merged.branch_sites.extend(part.branch_sites)
        merged.setjmp_resumes.extend(part.setjmp_resumes)
        merged.direct_calls.extend(part.direct_calls)
        merged.data_ranges.extend(part.data_ranges)
        for name, address in part.exports.items():
            if name in merged.exports:
                raise ValueError(f"duplicate export {name!r} when merging")
            merged.exports[name] = address
        merged.imports.extend(part.imports)
    defined = set(merged.functions)
    merged.imports = sorted({name for name in merged.imports
                             if name not in defined})
    sites = [s.site for s in merged.branch_sites]
    if len(sites) != len(set(sites)):
        raise ValueError("branch-site numbers collide after merge")
    return merged


def merged_program(host: AuxInfo, libraries: Sequence[Library]) -> AuxInfo:
    """The host and ``libraries`` (in load order) as one module.

    dlsym-reachable library exports are address-taken, and so is every
    function, the host's included, that a library takes the address of.
    """
    merged = merge_aux([host] + [aux for aux, _ in libraries])
    newly_taken = set()
    for aux, taken_names in libraries:
        newly_taken |= {name for name, func in aux.functions.items()
                        if func.exported}
        newly_taken |= set(taken_names) & set(merged.functions)
    for name in newly_taken:
        func = merged.functions[name]
        if not func.address_taken:
            merged.functions[name] = FunctionAux(
                name=func.name, sig=func.sig, entry=func.entry,
                address_taken=True, exported=func.exported,
                module=func.module)
    return merged


def resolve_plt(aux: AuxInfo) -> Dict[str, int]:
    """Every PLT symbol ``aux`` defines, mapped to its entry."""
    return {site.plt_symbol: aux.functions[site.plt_symbol].entry
            for site in aux.branch_sites
            if site.kind == "plt" and site.plt_symbol in aux.functions}


def merged_cfg(host: AuxInfo, libraries: Sequence[Library]) -> Cfg:
    merged = merged_program(host, libraries)
    return generate_cfg(merged, plt_resolution=resolve_plt(merged))


def linker_libraries(linker) -> List[Library]:
    """A dynamic linker's resident libraries, in load order, without
    the quarantined ones: a quarantined library's code is retired and
    no generation may give it IDs."""
    return [(library.module.aux, library.taken_names)
            for library in linker.loaded.values()
            if not library.quarantined]


def assert_same_cfg(got: Cfg, want: Cfg, where: str = "") -> None:
    """Equal ordered ``tary_ecns``/``bary_ecns``, equal target sets and
    class counts."""
    assert list(got.tary_ecns.items()) == list(want.tary_ecns.items()), \
        f"{where}: tary_ecns differ"
    assert list(got.bary_ecns.items()) == list(want.bary_ecns.items()), \
        f"{where}: bary_ecns differ"
    assert got.n_classes == want.n_classes, f"{where}: n_classes differ"
    assert_same_targets(got.branch_targets, want.branch_targets, where)


def assert_same_targets(got: Dict[int, Set[int]], want: Dict[int, Set[int]],
                        where: str = "") -> None:
    assert got.keys() == want.keys(), f"{where}: branch sites differ"
    for site, targets in want.items():
        assert set(got[site]) == set(targets), \
            f"{where}: site {site} targets {sorted(set(got[site]) ^ targets)}"


def reference_targets(aux: AuxInfo) -> Dict[int, Set[int]]:
    """Every branch site's target set in the (merged) module ``aux``,
    derived by brute force."""
    functions = list(aux.functions.values())
    taken = [f for f in functions if f.address_taken]

    def type_matches(sig) -> List[FunctionAux]:
        if sig is None:
            return []
        return [f for f in taken if signatures_match(sig, f.sig)]

    @functools.lru_cache(maxsize=None)
    def tail_successors(name: str) -> Set[str]:
        succs = {callee for caller, callee, is_tail in aux.direct_calls
                 if is_tail and caller == name}
        for site in aux.branch_sites:
            if site.kind == "tail" and site.fn == name:
                succs |= {f.name for f in type_matches(site.sig)}
        return succs

    def reachable(callee: str) -> Set[str]:
        """Every function a call to ``callee`` may return from: a path
        of tail calls, searched depth first."""
        seen = {callee}
        stack = [callee]
        while stack:
            for succ in tail_successors(stack.pop()):
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    returns: Dict[str, Set[int]] = {}
    for retsite in aux.retsites:
        callees = [retsite.callee] if retsite.callee is not None else \
            [f.name for f in type_matches(retsite.sig)]
        for callee in callees:
            for name in reachable(callee):
                returns.setdefault(name, set()).add(retsite.address)

    resolution = resolve_plt(aux)
    targets: Dict[int, Set[int]] = {}
    for site in aux.branch_sites:
        if site.kind in ("icall", "tail"):
            found = {f.entry for f in type_matches(site.sig)}
            hinted = {aux.functions[name].entry for name in site.ptargets
                      if name in aux.functions}
            if found & hinted:
                found &= hinted
        elif site.kind == "ret":
            found = set(returns.get(site.fn, ()))
        elif site.kind == "switch":
            found = set(site.targets)
        elif site.kind == "longjmp":
            found = set(aux.setjmp_resumes)
        elif site.kind == "plt":
            found = {resolution[site.plt_symbol]} \
                if site.plt_symbol in resolution else set()
        else:
            raise AssertionError(f"unknown site kind {site.kind!r}")
        targets[site.site] = found
    return targets


def reference_cfg(aux: AuxInfo) -> Cfg:
    """The whole CFG of ``aux`` from :func:`reference_targets`: targets
    registered in the generator's order (address-taken entries, return
    sites, switch targets, setjmp resumes), one group per site, and a
    fresh ECN per empty site in site order."""
    targets = reference_targets(aux)
    candidates = [f.entry for f in aux.functions.values() if f.address_taken]
    candidates += [retsite.address for retsite in aux.retsites]
    for site in aux.branch_sites:
        candidates += site.targets
    candidates += aux.setjmp_resumes
    tary = partition(candidates, [targets[site.site]
                                  for site in aux.branch_sites])
    n_classes = len(set(tary.values()))
    bary = {}
    for site in aux.branch_sites:
        group = targets[site.site]
        if group:
            bary[site.site] = tary[min(group)]
        else:
            bary[site.site] = n_classes
            n_classes += 1
    return Cfg(tary_ecns=tary, bary_ecns=bary, branch_targets=targets,
               n_classes=len(set(tary.values())))


def reference_cfg_for_linker(linker) -> Cfg:
    return reference_cfg(merged_program(
        linker.runtime.program.module.aux, linker_libraries(linker)))

