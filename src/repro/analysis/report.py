"""Review-oriented rendering of one analyzer report.

The :class:`~repro.analysis.analyzer.AnalysisReport` holds the numbers;
this module lists its classified casts and the Sec. 6 advice for each
remaining K1 case, as the porting workflow prints them.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.analyzer import AnalysisReport


def classification_detail(report: AnalysisReport) -> str:
    """Per-cast listing grouped by category, for code review."""
    by_category: Dict[str, List[str]] = {}
    for item in report.classified:
        record = item.record
        where = f"{record.function or '<global>'}:{record.line}"
        detail = f"{where}: {record.src} -> {record.dst}"
        if record.operand_func:
            detail += f" (address of {record.operand_func})"
        by_category.setdefault(item.category, []).append(detail)
    lines = []
    for category in ("UC", "DC", "MF", "SU", "NF", "K1", "K2"):
        items = by_category.get(category, [])
        if not items:
            continue
        lines.append(f"{category} ({len(items)}):")
        lines.extend(f"  {item}" for item in items)
    return "\n".join(lines) if lines else "(no C1 violations)"


def fix_guidance(report: AnalysisReport) -> List[str]:
    """Actionable advice per remaining K1 case (the paper's Sec. 6
    wrapper-function recipe)."""
    out: List[str] = []
    for item in report.classified:
        if item.category != "K1":
            continue
        record = item.record
        where = f"{record.function or '<global>'}:{record.line}"
        out.append(
            f"{where}: {record.operand_func or 'a function'} has type "
            f"incompatible with {record.dst}; wrap it in a function of "
            f"the pointer's exact type (as the paper did for gcc's "
            f"splay-tree strcmp) or fix the pointer's type")
    return out
