"""Baseline CFI policies for comparison (paper Secs. 3 and 8.3).

The evaluation compares MCFI's type-matching CFGs against:

* **classic CFI** [Abadi et al.] — fine-grained returns (call graph),
  but "for implementation convenience its CFG generation also allows
  all indirect calls to target any function whose address is taken";
* **binCFI / CCFIR-style coarse CFI** — two equivalence classes: all
  address-taken function entries (for calls), and all return sites
  (for returns);
* **chunk CFI (NaCl / MIP)** — any chunk-aligned code address is a
  valid target for any indirect branch.

Each policy produces, per branch site, a resolved target set over the
same merged auxiliary information MCFI uses, so AIR values and attack
outcomes are directly comparable.  Coarse policies can also be
*installed* into the ID tables to demonstrate concretely which attacks
they fail to stop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set

from repro.cfg.eqclass import partition
from repro.cfg.generator import Cfg, generate_cfg
from repro.module.auxinfo import AuxInfo


@dataclass
class PolicyResult:
    """Per-branch target sets plus installable ECN maps."""

    name: str
    branch_targets: Dict[int, Set[int]] = field(default_factory=dict)
    tary_ecns: Dict[int, int] = field(default_factory=dict)
    bary_ecns: Dict[int, int] = field(default_factory=dict)
    n_classes: int = 0


def mcfi_policy(aux: AuxInfo) -> PolicyResult:
    """MCFI's own type-matching policy, for uniform comparison."""
    cfg: Cfg = generate_cfg(aux)
    return PolicyResult(name="MCFI", branch_targets=cfg.branch_targets,
                        tary_ecns=cfg.tary_ecns, bary_ecns=cfg.bary_ecns,
                        n_classes=cfg.n_classes)


def classic_cfi_policy(aux: AuxInfo) -> PolicyResult:
    """Classic CFI: precise returns, one class for all AT functions."""
    cfg = generate_cfg(aux)
    at_entries = {f.entry for f in aux.functions.values()
                  if f.address_taken}
    result = PolicyResult(name="classic-CFI")
    for site in aux.branch_sites:
        if site.kind in ("icall", "tail", "plt"):
            result.branch_targets[site.site] = set(at_entries)
        else:
            result.branch_targets[site.site] = \
                cfg.branch_targets.get(site.site, set())
    _assign_ecns(result)
    return result


def bincfi_policy(aux: AuxInfo) -> PolicyResult:
    """binCFI/CCFIR-style coarse CFI: two target categories.

    All function entries (address-taken or not — binCFI works on
    binaries and cannot tell) for call-like branches; all return sites
    (plus setjmp resumes) for return-like branches.  Switch targets stay
    precise (binCFI resolves jump tables statically).
    """
    entries = {f.entry for f in aux.functions.values()}
    retsites = {r.address for r in aux.retsites} | set(aux.setjmp_resumes)
    result = PolicyResult(name="binCFI")
    for site in aux.branch_sites:
        if site.kind in ("icall", "tail", "plt"):
            result.branch_targets[site.site] = set(entries)
        elif site.kind == "switch":
            result.branch_targets[site.site] = set(site.targets)
        else:  # ret, longjmp
            result.branch_targets[site.site] = set(retsites)
    _assign_ecns(result)
    return result


def chunk_policy(aux: AuxInfo, code_base: int, code_size: int,
                 chunk: int = 16) -> PolicyResult:
    """NaCl/MIP-style chunk CFI: any chunk boundary is a valid target."""
    chunks = set(range(code_base, code_base + code_size, chunk))
    result = PolicyResult(name=f"chunk{chunk}")
    for site in aux.branch_sites:
        result.branch_targets[site.site] = chunks
    _assign_ecns(result)
    return result


def _assign_ecns(result: PolicyResult) -> None:
    """Collapse target sets into installable equivalence classes.

    Identical target sets share an ECN; overlapping-but-different sets
    are merged (the same partition the MCFI generator uses).
    """
    tary = partition((), result.branch_targets.values())
    result.tary_ecns = tary
    result.n_classes = len(set(tary.values()))
    next_free = result.n_classes
    for site, targets in result.branch_targets.items():
        if targets:
            result.bary_ecns[site] = tary[next(iter(targets))]
        else:
            result.bary_ecns[site] = next_free
            next_free += 1

