"""Overhead metrics: execution time (Figs. 5-6) and space (Sec. 8.1).

Execution overhead is the ratio of instrumented to native *model
cycles* on identical inputs; space overhead compares static code sizes
and reports the ID-table footprint (which the paper notes equals the
code-region size, Tary being a 4-bytes-per-4-bytes mirror).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class OverheadResult:
    """One benchmark's Fig. 5/6 data point."""

    name: str
    arch: str
    native_cycles: int
    mcfi_cycles: int
    native_instructions: int = 0
    mcfi_instructions: int = 0
    updates: int = 0          # update transactions observed (Fig. 6)

    @property
    def overhead_pct(self) -> float:
        if self.native_cycles == 0:
            return 0.0
        return 100.0 * (self.mcfi_cycles / self.native_cycles - 1.0)


@dataclass
class SpaceResult:
    """One benchmark's space-overhead data point."""

    name: str
    native_code_bytes: int
    mcfi_code_bytes: int
    tary_bytes: int
    bary_bytes: int

    @property
    def code_increase_pct(self) -> float:
        if self.native_code_bytes == 0:
            return 0.0
        return 100.0 * (self.mcfi_code_bytes / self.native_code_bytes - 1.0)


def arithmetic_mean_overhead(results: Dict[str, OverheadResult]) -> float:
    if not results:
        return 0.0
    return sum(r.overhead_pct for r in results.values()) / len(results)
