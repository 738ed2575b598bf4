"""The MCFI CFG generator (paper Secs. 6-7).

Takes merged auxiliary module information and produces the ECN
assignment that the runtime installs into the ID tables:

* indirect calls / indirect tail calls target type-matched
  address-taken function entries;
* returns target the return sites permitted by the call graph
  (with tail-call chains resolved);
* switch jumps target their jump-table entries;
* longjmp targets every setjmp resume point;
* PLT entries target the (dynamically resolved) imported function.

Branch target sets are then collapsed into equivalence classes exactly
as in the classic CFI: overlapping sets merge
(:func:`repro.cfg.eqclass.partition`).  The generator reports the
Table 3 statistics (IBs, IBTs, EQCs) and is fast enough to run during
dynamic linking — the paper quotes ~150 ms for gcc, and this one is
linear in branches x matched targets.  The order of ``tary_ecns`` is
part of its output: an update transaction stores Tary entries in that
order, so it fixes where each store batch ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.cfg.callgraph import CallGraph, TypeMatcher, build_call_graph
from repro.cfg.eqclass import partition
from repro.core.idencoding import MAX_ECN
from repro.errors import CfgGenerationError
from repro.module.auxinfo import AuxInfo
from repro.obs import OBS


@dataclass
class Cfg:
    """A generated control-flow policy, ready for table installation."""

    #: target address -> ECN
    tary_ecns: Dict[int, int] = field(default_factory=dict)
    #: branch site -> ECN
    bary_ecns: Dict[int, int] = field(default_factory=dict)
    #: per-branch resolved target sets (address sets), for metrics
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
    """Generate the CFG/ECN assignment for a merged module.

    ``plt_resolution`` maps imported symbol names to their resolved
    entry addresses (supplied by the dynamic linker); PLT branch sites
    target exactly their resolved symbol.
    """
    with OBS.tracer.span("cfg.generate") as span:
        cfg = _generate_cfg(aux, plt_resolution)
        stats = cfg.stats()
        span.set(ibs=stats["IBs"], ibts=stats["IBTs"],
                 eqcs=stats["EQCs"])
        if OBS.enabled:
            metrics = OBS.metrics
            metrics.counter("cfg.generations").inc()
            metrics.gauge("cfg.eqcs").set(stats["EQCs"])
            metrics.histogram("cfg.ibts").observe(stats["IBTs"])
        return cfg


def _generate_cfg(aux: AuxInfo,
                  plt_resolution: Optional[Dict[str, int]]) -> Cfg:
    matcher = TypeMatcher(list(aux.functions.values()))
    graph = build_call_graph(aux, matcher)

    # Enumerate all possible indirect-branch targets first: address-taken
    # function entries, return sites, switch cases, setjmp resumes.
    # Their order is the order members are listed within a class.
    candidates = [func.entry for func in aux.functions.values()
                  if func.address_taken]
    candidates += [retsite.address for retsite in aux.retsites]
    for site in aux.branch_sites:
        candidates += site.targets
    candidates += aux.setjmp_resumes

    branch_targets: Dict[int, Set[int]] = {
        site.site: _targets_of(site, aux, graph, matcher, plt_resolution)
        for site in aux.branch_sites}
    tary_ecns = partition(candidates, branch_targets.values())
    n_classes = len(set(tary_ecns.values()))
    if n_classes > MAX_ECN:
        raise CfgGenerationError(
            f"{n_classes} equivalence classes exceed the 14-bit ECN space")

    # Branches with an empty target set get a fresh ECN that no target
    # carries: every transfer through them halts (correct: the CFG
    # allows nothing).
    bary_ecns: Dict[int, int] = {}
    next_free = n_classes
    for site in aux.branch_sites:
        targets = branch_targets[site.site]
        if targets:
            # partition numbers every member of a class alike
            bary_ecns[site.site] = tary_ecns[next(iter(targets))]
        else:
            bary_ecns[site.site] = next_free
            next_free += 1
    return Cfg(tary_ecns=tary_ecns, bary_ecns=bary_ecns,
               branch_targets=branch_targets, n_classes=n_classes)


def _targets_of(site, aux: AuxInfo, graph: CallGraph, matcher: TypeMatcher,
                plt_resolution: Optional[Dict[str, int]]) -> Set[int]:
    if site.kind in ("icall", "tail"):
        matches = {f.entry for f in matcher.matches(site.sig)}
        if site.ptargets:
            # Points-to refinement: intersect with the proven callee
            # set.  The hint may only *narrow* the policy — on an empty
            # intersection (e.g. a hint naming a function the matcher
            # rejects on type grounds) fall back to pure type matching
            # so the CFG never loses the paper's baseline guarantees.
            hinted = {aux.functions[name].entry for name in site.ptargets
                      if name in aux.functions}
            narrowed = matches & hinted
            if narrowed:
                return narrowed
        return matches
    if site.kind == "ret":
        return set(graph.return_targets.get(site.fn, ()))
    if site.kind == "switch":
        return set(site.targets)
    if site.kind == "longjmp":
        return set(aux.setjmp_resumes)
    if site.kind == "plt":
        if plt_resolution and site.plt_symbol in plt_resolution:
            return {plt_resolution[site.plt_symbol]}
        exported = aux.exports.get(site.plt_symbol)
        return {exported} if exported is not None else set()
    raise CfgGenerationError(f"unknown branch-site kind {site.kind!r}")
