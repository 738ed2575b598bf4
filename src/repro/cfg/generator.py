"""The MCFI CFG generator (paper Secs. 6-7).

Takes auxiliary module information and produces the ECN assignment
that the runtime installs into the ID tables:

* indirect calls / indirect tail calls target type-matched
  address-taken function entries;
* returns target the return sites permitted by the call graph
  (with tail-call chains resolved);
* switch jumps target their jump-table entries;
* longjmp targets every setjmp resume point;
* PLT entries target the (dynamically resolved) imported function.

Branch target sets are then collapsed into equivalence classes exactly
as in the classic CFI: overlapping sets merge
(:class:`repro.cfg.eqclass.Partition`).  The generator reports the
Table 3 statistics (IBs, IBTs, EQCs) and is fast enough to run during
dynamic linking — the paper quotes ~150 ms for gcc, and this one is
linear in branches x matched targets.  The order of ``tary_ecns`` is
part of its output: an update transaction stores Tary entries in that
order, so it fixes where each store batch ends.

Combining modules is "a simple union operation" (Sec. 6), and the
generator is built that way.  A :class:`CfgBase` holds what one
module's facts determine: its matcher, tail edges and closures, return
targets, each branch site's target set and the classes those sets
induce.  :meth:`CfgBase.extend` folds in each library's
:class:`CfgFragment`: it adds the libraries' address-taken functions,
tail edges and return sites, re-evaluates the host sites whose facts
they change, unions every library group and every grown host group
into a copy of the host's classes, and numbers the classes.  The result
equals a generation over the merged module, dict order included.
:func:`generate_cfg` is one module extended by nothing; the dynamic
linker keeps the host's base and extends it at every load and unload.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import (Dict, Hashable, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from repro.cfg.callgraph import (TypeMatcher, add_return_edges,
                                 calls_by_callee, close_tail_edges,
                                 group_retsites, tail_edges)
from repro.cfg.eqclass import Partition, numbering
from repro.core.idencoding import MAX_ECN
from repro.errors import CfgGenerationError
from repro.module.auxinfo import AuxInfo, BranchSiteAux, FunctionAux
from repro.obs import OBS
from repro.tinyc.types import FuncSig

#: sites with equal keys have equal target sets: ("call", signature,
#: ptargets) for icall/tail, ("ret", fn), ("switch", site),
#: ("longjmp",) and ("plt", symbol)
SiteKey = Tuple[Hashable, ...]

#: a registered target's rank sorts it into registration order:
#: category (entry, return site, switch target, setjmp resume), then
#: module (host 0, libraries in load order), then position
_CATEGORY = 1 << 40
_MODULE = 1 << 20


@dataclass
class Cfg:
    """A generated control-flow policy, ready for table installation."""

    #: target address -> ECN
    tary_ecns: Dict[int, int] = field(default_factory=dict)
    #: branch site -> ECN
    bary_ecns: Dict[int, int] = field(default_factory=dict)
    #: per-branch resolved target sets (address sets), for metrics.
    #: Sites (and generations) may share a set; do not mutate them.
    branch_targets: Dict[int, Set[int]] = field(default_factory=dict)
    n_classes: int = 0

    def stats(self) -> Dict[str, int]:
        """Table 3 row: IBs, IBTs, EQCs."""
        return {
            "IBs": len(self.bary_ecns),
            "IBTs": len(self.tary_ecns),
            "EQCs": self.n_classes,
        }

    def permits(self, site: int, address: int) -> bool:
        """Ground-truth query: does the CFG allow site -> address?"""
        branch_ecn = self.bary_ecns.get(site)
        target_ecn = self.tary_ecns.get(address)
        return branch_ecn is not None and branch_ecn == target_ecn


def generate_cfg(aux: AuxInfo,
                 plt_resolution: Optional[Dict[str, int]] = None) -> Cfg:
    """Generate the CFG/ECN assignment for a (merged) module.

    ``plt_resolution`` maps imported symbol names to their resolved
    entry addresses; PLT branch sites target exactly their resolved
    symbol.
    """
    with OBS.tracer.span("cfg.generate") as span:
        return _reported(span, CfgBase(aux, plt_resolution).extend(), 0)


def _reported(span, cfg: Cfg, libraries: int) -> Cfg:
    stats = cfg.stats()
    span.set(ibs=stats["IBs"], ibts=stats["IBTs"], eqcs=stats["EQCs"],
             libraries=libraries)
    if OBS.enabled:
        metrics = OBS.metrics
        metrics.counter("cfg.generations").inc()
        metrics.gauge("cfg.eqcs").set(stats["EQCs"])
        metrics.histogram("cfg.ibts").observe(stats["IBTs"])
    return cfg


def _site_key(site: BranchSiteAux) -> SiteKey:
    kind = site.kind
    if kind in ("icall", "tail"):
        # a signature's fields, not the signature: they hash in C
        sig = site.sig
        return ("call", sig and (sig.ret, sig.params, sig.variadic),
                site.ptargets)
    if kind == "ret":
        return ("ret", site.fn)
    if kind == "switch":
        return ("switch", site.site)
    if kind == "longjmp":
        return ("longjmp",)
    if kind == "plt":
        return ("plt", site.plt_symbol)
    raise CfgGenerationError(f"unknown branch-site kind {kind!r}")


@dataclass
class _Facts:
    """What a site's target rule reads: one module's facts, or the
    host's extended by the resident libraries'."""

    functions: Mapping[str, FunctionAux]
    matcher: TypeMatcher
    return_targets: Mapping[str, Set[int]]
    setjmp_resumes: Sequence[int]
    plt_resolution: Optional[Mapping[str, int]]
    exports: Mapping[str, int]


def _targets_of(site: BranchSiteAux, facts: _Facts) -> Set[int]:
    if site.kind in ("icall", "tail"):
        matches = {f.entry for f in facts.matcher.matches(site.sig)}
        if site.ptargets:
            # Points-to refinement: intersect with the proven callee
            # set.  The hint may only *narrow* the policy — on an empty
            # intersection (e.g. a hint naming a function the matcher
            # rejects on type grounds) fall back to pure type matching
            # so the CFG never loses the paper's baseline guarantees.
            functions = facts.functions
            hinted = {functions[name].entry for name in site.ptargets
                      if name in functions}
            narrowed = matches & hinted
            if narrowed:
                return narrowed
        return matches
    if site.kind == "ret":
        return set(facts.return_targets.get(site.fn, ()))
    if site.kind == "switch":
        return set(site.targets)
    if site.kind == "longjmp":
        return set(facts.setjmp_resumes)
    if site.kind == "plt":
        resolution = facts.plt_resolution
        if resolution and site.plt_symbol in resolution:
            return {resolution[site.plt_symbol]}
        exported = facts.exports.get(site.plt_symbol)
        return {exported} if exported is not None else set()
    raise CfgGenerationError(f"unknown branch-site kind {site.kind!r}")


def _other_targets(aux: AuxInfo) -> List[int]:
    """Registered targets other than function entries, in order: return
    sites, switch targets, setjmp resumes."""
    targets = [retsite.address for retsite in aux.retsites]
    for site in aux.branch_sites:
        targets += site.targets
    return targets + aux.setjmp_resumes


def _ranks(aux: AuxInfo) -> Dict[int, int]:
    """Rank within one module of every function entry and of every
    other target it registers, first occurrence first."""
    rank: Dict[int, int] = {}
    for category, addresses in enumerate((
            [func.entry for func in aux.functions.values()],
            [retsite.address for retsite in aux.retsites],
            [target for site in aux.branch_sites for target in site.targets],
            aux.setjmp_resumes)):
        offset = category * _CATEGORY
        for index, address in enumerate(addresses):
            rank.setdefault(address, offset + index)
    return rank


class CfgFragment:
    """One library's facts for :meth:`CfgBase.extend`, gathered once
    when the library is mapped.  ``taken_names`` are the functions the
    library takes the address of, its own or any other module's."""

    def __init__(self, aux: AuxInfo, taken_names: Iterable[str]) -> None:
        self.functions = aux.functions
        self.exports = aux.exports
        self.taken_names = frozenset(taken_names)
        self.tail_calls = [call for call in aux.direct_calls if call[2]]
        self.tail_sites = [site for site in aux.branch_sites
                           if site.kind == "tail"]
        self.retsites = aux.retsites
        self.setjmp_resumes = aux.setjmp_resumes
        self.plt_symbols = [site.plt_symbol for site in aux.branch_sites
                            if site.kind == "plt"]
        self.sites = [(site.site, _site_key(site), site)
                      for site in aux.branch_sites]
        self.targets = _other_targets(aux)
        self.rank = _ranks(aux)


class CfgBase:
    """One module's part of every generation that extends it.

    It holds the module's matcher, tail edges and closures, return
    targets, each branch site's target set (and, from the first
    extension on, one set per site key), and the classes the sets of its
    stable sites induce.  Nothing changes it after it is built.  A site
    whose points-to hint fell back to type matching is not stable: a
    library that defines a hinted function can narrow its set, so its
    group is unioned by each generation instead.
    """

    def __init__(self, aux: AuxInfo,
                 plt_resolution: Optional[Dict[str, int]] = None) -> None:
        self.aux = aux
        functions = aux.functions
        self.matcher = matcher = TypeMatcher(list(functions.values()))
        self.tail_sites = [site for site in aux.branch_sites
                           if site.kind == "tail"]
        self.tail_edges = tail_edges(aux.direct_calls, self.tail_sites,
                                     matcher)
        self.closure = close_tail_edges(self.tail_edges, self.tail_edges,
                                        {})
        self.return_targets: Dict[str, Set[int]] = {}
        add_return_edges(self.return_targets,
                         calls_by_callee(aux.retsites, matcher), self.closure)
        facts = _Facts(functions, matcher, self.return_targets,
                       aux.setjmp_resumes, plt_resolution, aux.exports)

        #: per site, in site order: its number, its target set and a
        #: member of that set (None for an empty one)
        sites = aux.branch_sites
        self.site_numbers = [site.site for site in sites]
        self.site_groups = [_targets_of(site, facts) for site in sites]
        self.site_reps = [next(iter(group), None)
                          for group in self.site_groups]
        #: sites whose points-to hint fell back to type matching
        self._volatile_sites = [
            position for position, site in enumerate(sites)
            if site.ptargets and self.site_groups[position]
            and self.site_groups[position].isdisjoint(
                functions[name].entry for name in site.ptargets
                if name in functions)]

        # Enumerate all possible indirect-branch targets first:
        # address-taken function entries, return sites, switch cases,
        # setjmp resumes.  Their order is the order members are listed
        # within a class.
        self.partition = Partition(
            [func.entry for func in functions.values()
             if func.address_taken] + _other_targets(aux))
        volatile = set(self._volatile_sites)
        self.partition.union(group for position, group
                             in enumerate(self.site_groups)
                             if position not in volatile)
        self.classes = self.partition.classes()

    # What an extension reads by site key, built on first use: a static
    # generation needs none of it.

    @cached_property
    def _site_keys(self) -> List[SiteKey]:
        return list(map(_site_key, self.aux.branch_sites))

    @cached_property
    def _targets(self) -> Dict[SiteKey, Set[int]]:
        """Site key -> target set (sites with one key have equal sets)."""
        return dict(zip(self._site_keys, self.site_groups))

    @cached_property
    def _key_sites(self) -> Dict[SiteKey, BranchSiteAux]:
        """Site key -> a site with that key."""
        return dict(zip(self._site_keys, self.aux.branch_sites))

    @cached_property
    def _volatile(self) -> List[SiteKey]:
        return list(dict.fromkeys(self._site_keys[position]
                                  for position in self._volatile_sites))

    @cached_property
    def _rank(self) -> Dict[int, int]:
        return _ranks(self.aux)

    @cached_property
    def plt_symbols(self) -> List[str]:
        return [site.plt_symbol for site in self.aux.branch_sites
                if site.kind == "plt"]

    @cached_property
    def _call_keys(self) -> List[Tuple[SiteKey, FuncSig]]:
        return [(key, site.sig) for key, site in self._key_sites.items()
                if key[0] == "call"]

    @cached_property
    def _ret_names(self) -> Set[str]:
        return {key[1] for key in self._targets if key[0] == "ret"}

    @cached_property
    def _key_positions(self) -> Dict[SiteKey, List[int]]:
        positions: Dict[SiteKey, List[int]] = {}
        for position, key in enumerate(self._site_keys):
            positions.setdefault(key, []).append(position)
        return positions

    @cached_property
    def _retsites(self) -> Tuple[Dict[str, Set[int]],
                                 Dict[FuncSig, Set[int]]]:
        return group_retsites(self.aux.retsites)

    @cached_property
    def _tail_callers(self) -> Dict[str, Set[str]]:
        callers: Dict[str, Set[str]] = {}
        for caller, callees in self.tail_edges.items():
            for callee in callees:
                callers.setdefault(callee, set()).add(caller)
        return callers

    def generate(self, fragments: Sequence[CfgFragment],
                 plt_resolution: Optional[Dict[str, int]] = None) -> Cfg:
        """:meth:`extend`, as one ``cfg.generate`` span."""
        with OBS.tracer.span("cfg.generate") as span:
            return _reported(span, self.extend(fragments, plt_resolution),
                             len(fragments))

    def extend(self, fragments: Sequence[CfgFragment] = (),
               plt_resolution: Optional[Dict[str, int]] = None) -> Cfg:
        """The CFG of this module linked with ``fragments``, in load
        order.  ``plt_resolution`` is the merged program's.

        Library exports are address-taken, and so is every function
        (the host's included) that a library names in its
        ``taken_names``.
        """
        if not fragments and not plt_resolution:
            return self._number((), [], {key: self._targets[key]
                                         for key in self._volatile}, None)
        host = self.aux.functions
        taken_names = frozenset().union(
            *(fragment.taken_names for fragment in fragments))
        added = [func for fragment in fragments
                 for func in fragment.functions.values()
                 if func.address_taken or func.exported
                 or func.name in taken_names]
        added += [host[name] for name in sorted(taken_names)
                  if name in host and not host[name].address_taken]
        base_matcher = self.matcher
        matcher = base_matcher.extend(added)

        # Tail edges the libraries add, and the closures they change:
        # those of every function whose tail chains reach a new edge.
        new_edges = tail_edges(
            [call for fragment in fragments for call in fragment.tail_calls],
            [site for site in self.tail_sites if matcher.added(site.sig)]
            + [site for fragment in fragments
               for site in fragment.tail_sites],
            matcher)
        closure = self.closure
        grown: Set[str] = set()
        if new_edges:
            edges = dict(self.tail_edges)
            for name, callees in new_edges.items():
                edges[name] = edges[name] | callees if name in edges \
                    else callees
            dirty = set(new_edges)
            work = list(dirty)
            while work:
                for caller in self._tail_callers.get(work.pop(), ()):
                    if caller not in dirty:
                        dirty.add(caller)
                        work.append(caller)
            closure = dict(closure)
            closure.update(close_tail_edges(
                edges, dirty, {name: names for name, names in
                               self.closure.items() if name not in dirty}))
            grown = {name for name in dirty if len(closure[name])
                     != len(self.closure.get(name, (name,)))}

        # Calls whose return edges change: the libraries', the host's to
        # a function whose closure grew (an import's too), and the
        # host's indirect ones to a function new to their signature.
        # ``landings`` holds their return sites by function, with the
        # host's added in.
        direct, indirect = self._retsites
        calls = calls_by_callee([retsite for fragment in fragments
                                 for retsite in fragment.retsites], matcher)
        for name in grown & direct.keys():
            calls.setdefault(name, set()).update(direct[name])
        for sig, addresses in indirect.items():
            callees = [func.name for func in matcher.added(sig)]
            if grown:
                callees += [func.name for func in base_matcher.matches(sig)
                            if func.name in grown]
            for callee in callees:
                calls.setdefault(callee, set()).update(addresses)
        landings: Dict[str, Set[int]] = {}
        add_return_edges(landings, calls, closure)
        returns = self.return_targets
        stale: List[SiteKey] = list(self._volatile)
        for name in landings.keys() & returns.keys():
            landings[name] = returns[name] | landings[name]
        stale += [("ret", name) for name in landings.keys() & self._ret_names]
        facts = _Facts(
            ChainMap(host, *(fragment.functions for fragment in fragments)),
            matcher, ChainMap(landings, returns),
            self.aux.setjmp_resumes + [address for fragment in fragments
                                       for address in
                                       fragment.setjmp_resumes],
            plt_resolution,
            ChainMap(self.aux.exports,
                     *(fragment.exports for fragment in fragments)))

        # Re-evaluate every host key the libraries change, and evaluate
        # every key only a library has.
        stale += [key for key, sig in self._call_keys if matcher.added(sig)]
        if any(fragment.setjmp_resumes for fragment in fragments):
            stale.append(("longjmp",))
        if plt_resolution:
            stale += [("plt", symbol) for symbol in self.plt_symbols
                      if symbol in plt_resolution]
        sets: Dict[SiteKey, Set[int]] = {}
        for key in stale:
            if key in self._key_sites and key not in sets:
                sets[key] = _targets_of(self._key_sites[key], facts)
        for fragment in fragments:
            for _, key, site in fragment.sites:
                if key not in sets and key not in self._targets:
                    sets[key] = _targets_of(site, facts)
        return self._number(fragments, added, sets, plt_resolution)

    def _number(self, fragments: Sequence[CfgFragment],
                added: List[FunctionAux], sets: Dict[SiteKey, Set[int]],
                plt_resolution: Optional[Dict[str, int]]) -> Cfg:
        """Union ``sets`` into a copy of the base's classes, number the
        classes by smallest member and assign the ECNs."""
        classes = self.classes
        if sets or fragments:
            partition = self.partition.copy()
            label = partition.label
            fresh = [func.entry for func in added]
            for fragment in fragments:
                fresh += fragment.targets
            if plt_resolution:
                fresh += plt_resolution.values()
            new = list(dict.fromkeys(item for item in fresh
                                     if item not in label))
            label.update(zip(new, new))
            partition.union(sets.values())
            members = partition.members
            changed = partition.grown | partition.gone
            classes = [cls for cls in classes if cls[1] not in changed]
            classes += [(item, item, [item]) for item in new
                        if label[item] == item and item not in members]
            grown = partition.grown - partition.gone
            if grown:
                rank = self._merged_rank(fragments)
                for key in grown:
                    ordered = sorted(members[key], key=rank.__getitem__)
                    classes.append((min(ordered), key, ordered))
            classes.sort(key=itemgetter(0))
        n_classes = len(classes)
        if n_classes > MAX_ECN:
            raise CfgGenerationError(
                f"{n_classes} equivalence classes exceed the 14-bit ECN "
                f"space")
        tary_ecns = numbering(classes)

        numbers = self.site_numbers
        groups = self.site_groups
        reps = self.site_reps
        if sets or fragments:
            key_positions = self._key_positions
            numbers = list(numbers)
            groups = list(groups)
            reps = list(reps)
            for key, targets in sets.items():
                rep = next(iter(targets), None)
                for position in key_positions.get(key, ()):
                    groups[position] = targets
                    reps[position] = rep
            for fragment in fragments:
                for site, key, _ in fragment.sites:
                    targets = sets[key] if key in sets else self._targets[key]
                    numbers.append(site)
                    groups.append(targets)
                    reps.append(next(iter(targets), None))
        # Every member of a class carries its number.  Branches with an
        # empty target set get a fresh ECN that no target carries, in
        # site order: every transfer through them halts (correct: the
        # CFG allows nothing).
        ecns = list(map(tary_ecns.get, reps))
        next_free = n_classes
        if None in ecns:
            for position, ecn in enumerate(ecns):
                if ecn is None:
                    ecns[position] = next_free
                    next_free += 1
        return Cfg(tary_ecns=tary_ecns, bary_ecns=dict(zip(numbers, ecns)),
                   branch_targets=dict(zip(numbers, groups)),
                   n_classes=n_classes)

    def _merged_rank(self, fragments: Sequence[CfgFragment],
                     ) -> Dict[int, int]:
        rank = dict(self._rank)
        for module, fragment in enumerate(fragments, 1):
            offset = module * _MODULE
            for item, position in fragment.rank.items():
                rank.setdefault(item, position + offset)
        return rank
