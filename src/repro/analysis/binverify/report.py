""":class:`VerifyReport` — the verifier's structured verdict.

Replaces ``verify_module``'s bare ``Dict[str, int]`` return.  Carries
the acceptance bit, statistics, the MCFI005–008 diagnostics, the
recognized check-transaction spans and the per-branch verdicts, and
serializes through the repo-wide ``to_dict``/``from_dict`` protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.analysis.dataflow.diagnostics import Diagnostic, sorted_diagnostics


@dataclass
class VerifyReport:
    """Outcome of one binary verification run."""

    module: str
    arch: str = "x64"
    ok: bool = True
    #: 'module' (post-link) or 'unit' (pre-link compilation unit)
    grain: str = "module"
    stats: Dict[str, int] = field(default_factory=dict)
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: ``[start, end)`` of every intact check transaction
    check_spans: List[Tuple[int, int]] = field(default_factory=list)
    #: indirect-branch address -> "proved" or the failure reason
    verdicts: Dict[int, str] = field(default_factory=dict)

    KIND = "verify"

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    def first_error(self) -> str:
        errors = sorted_diagnostics(self.errors)
        if not errors:
            return ""
        return errors[0].render()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.KIND,
            "module": self.module,
            "arch": self.arch,
            "ok": self.ok,
            "grain": self.grain,
            "stats": dict(self.stats),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "check_spans": [[start, end]
                            for start, end in self.check_spans],
            "verdicts": {f"{address:#x}": verdict
                         for address, verdict in
                         sorted(self.verdicts.items())},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "VerifyReport":
        return cls(
            module=data["module"], arch=data.get("arch", "x64"),
            ok=bool(data["ok"]), grain=data.get("grain", "module"),
            stats={k: int(v) for k, v in data.get("stats", {}).items()},
            diagnostics=[Diagnostic.from_dict(d)
                         for d in data.get("diagnostics", [])],
            check_spans=[(int(start), int(end))
                         for start, end in data.get("check_spans", [])],
            verdicts={int(address, 16): verdict
                      for address, verdict in
                      data.get("verdicts", {}).items()})
