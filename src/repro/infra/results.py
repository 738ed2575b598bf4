"""Structured result store: append-only JSONL run records + reporters.

Every build, run and artifact job of a campaign appends one JSON object
per line to a ``results.jsonl``.  Records are self-describing via their
``kind`` field:

==============  =====================================================
``build``       one (target, instance) build: cache hits/misses,
                seconds, whether the link was served from cache
``run``         one workload execution: cycles, instructions, retries
``cfgstats``    Table-3 statistics for one (target, arch)
``artifact``    one parallel artifact job (fig5, table3, ...) with its
                per-job wall time and cache delta
``summary``     end-of-campaign aggregate (wall time, hit rate)
==============  =====================================================

:func:`regenerate` rebuilds the Fig. 5 and Table 3 results from stored
records and renders them through :data:`repro.experiments.ARTIFACT_TABLE`,
the renderers behind the committed ``benchmarks/results/*.txt`` files,
so a cached parallel campaign and a serial pytest run write the same
tables.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple, Union

from repro.infra.instances import ARCHS
from repro.infra.pool import JobResult


class ResultStore:
    """Append-only JSONL record sink (one campaign, one file).

    ``timestamps=False`` omits the wall-clock ``ts`` field so a seeded
    campaign writes byte-identical files across runs — the corpus
    findings store is ``cmp``-pinned against a golden file in CI.
    """

    def __init__(self, path: Union[str, Path], timestamps: bool = True):
        self.path = Path(path)
        self.timestamps = timestamps
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def append(self, kind: str, **fields: Any) -> Dict[str, Any]:
        record: Dict[str, Any] = {"kind": kind}
        if self.timestamps:
            record["ts"] = round(time.time(), 3)
        record.update(fields)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        return record

    def append_job(self, result: JobResult,
                   **extra: Any) -> Dict[str, Any]:
        """Record one pool job outcome (value omitted)."""
        fields = result.to_dict()
        fields.update(extra)
        return self.append("job", **fields)

    def append_record(self, obj: Any, **extra: Any) -> Dict[str, Any]:
        """Record any object exposing the ``to_dict()`` protocol.

        The record kind comes from the object's ``KIND`` attribute
        (falling back to the lowercased class name), and every result
        type in the repo — :class:`~repro.runtime.runtime.RunResult`,
        :class:`~repro.infra.pool.JobResult`,
        :class:`~repro.faults.harness.SurvivalRecord`,
        :class:`~repro.vm.attacker.AttackReport`,
        :class:`~repro.obs.Snapshot` — lands in the store through this
        one shape.
        """
        fields = obj.to_dict()
        kind = fields.pop("kind", None) or \
            getattr(obj, "KIND", None) or type(obj).__name__.lower()
        fields.update(extra)
        return self.append(kind, **fields)

    def records(self) -> List[Dict[str, Any]]:
        return load_records(self.path)


def load_records(path: Union[str, Path]) -> List[Dict[str, Any]]:
    path = Path(path)
    if not path.exists():
        return []
    out: List[Dict[str, Any]] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            out.append(json.loads(line))
    return out


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def summarize(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Campaign-level aggregate of a record stream."""
    totals = {"records": 0, "builds": 0, "runs": 0, "failures": 0,
              "retries": 0, "cache_hits": 0, "cache_misses": 0,
              "seconds": 0.0}
    kinds: Dict[str, int] = {}
    # A command's ``summary`` record totals the cache counts of the
    # records it appended before it (a serial ``repro spec`` appends
    # nothing else), so it stands in for them.
    unsummarized = {"cache_hits": 0, "cache_misses": 0}
    for record in records:
        totals["records"] += 1
        kind = record.get("kind", "?")
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "build":
            totals["builds"] += 1
        elif kind == "run":
            totals["runs"] += 1
        if record.get("status") not in (None, "ok"):
            totals["failures"] += 1
        attempts = record.get("attempts")
        if isinstance(attempts, int) and attempts > 1:
            totals["retries"] += attempts - 1
        for key in unsummarized:
            count = record.get(key, 0) or 0
            if kind == "summary":
                count -= unsummarized[key]
                unsummarized[key] = 0
            else:
                unsummarized[key] += count
            totals[key] += count
        if kind != "summary":
            totals["seconds"] += record.get("seconds", 0.0) or 0.0
    lookups = totals["cache_hits"] + totals["cache_misses"]
    totals["cache_hit_rate"] = (totals["cache_hits"] / lookups
                                if lookups else 0.0)
    totals["kinds"] = kinds
    return totals


def render_summary(records: Iterable[Dict[str, Any]]) -> str:
    t = summarize(records)
    lines = [
        f"records      : {t['records']} "
        f"({', '.join(f'{k}={n}' for k, n in sorted(t['kinds'].items()))})",
        f"builds/runs  : {t['builds']} / {t['runs']}",
        f"failures     : {t['failures']} (retries spent: {t['retries']})",
        f"artifact cache: {t['cache_hits']} hits / "
        f"{t['cache_misses']} misses "
        f"({100.0 * t['cache_hit_rate']:.1f}% hit rate)",
        f"job seconds  : {t['seconds']:.2f} (sum over jobs)",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Artifact files (benchmarks/results/*.txt) from stored records
# ---------------------------------------------------------------------------

def _fig5_results(records: List[Dict[str, Any]],
                  ) -> Dict[Tuple[str, str], "OverheadResult"]:
    """Fig. 5 results from the latest ok x64 native and MCFI ``run``
    records of each benchmark."""
    # Lazy import: every workload module loads this one.
    from repro.metrics.overhead import OverheadResult
    runs: Dict[str, Dict[bool, Dict[str, Any]]] = {}
    for record in records:
        if record.get("kind") == "run" and record.get("arch") == "x64" \
                and record.get("status") in (None, "ok"):
            runs.setdefault(record["target"], {})[
                bool(record.get("mcfi"))] = record
    return {(name, "x64"): OverheadResult(
                name=name, arch="x64",
                native_cycles=pair[False]["cycles"],
                mcfi_cycles=pair[True]["cycles"],
                native_instructions=pair[False]["instructions"],
                mcfi_instructions=pair[True]["instructions"])
            for name, pair in runs.items() if len(pair) == 2}


def _table3_results(records: List[Dict[str, Any]],
                    ) -> Dict[Tuple[str, str], Dict[str, Any]]:
    """Table 3 results of the benchmarks with ``cfgstats`` records on
    both architectures, the committed table's columns."""
    stats: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for record in records:
        if record.get("kind") == "cfgstats":
            stats.setdefault(record["target"], {})[record["arch"]] = record
    return {(name, arch): by_arch[arch]
            for name, by_arch in stats.items()
            if all(arch in by_arch for arch in ARCHS) for arch in ARCHS}


def regenerate(records: Iterable[Dict[str, Any]],
               results_dir: Union[str, Path]) -> List[Path]:
    """Write every artifact file derivable from ``records``, each
    rendered by its entry in :data:`repro.experiments.ARTIFACT_TABLE`."""
    from repro.experiments import ARTIFACT_TABLE
    records = list(records)
    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for artifact, results in (("fig5", _fig5_results(records)),
                              ("table3", _table3_results(records))):
        if results:
            entry = ARTIFACT_TABLE[artifact]
            path = results_dir / f"{entry.stem}.txt"
            path.write_text(entry.render(results) + "\n", encoding="utf-8")
            written.append(path)
    return written
