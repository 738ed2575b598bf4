"""Cross-configuration differential harness over corpus members.

One member — a fixed workload or a generated program — is pushed
through the full configuration matrix:

* devirtualize **on / off** (the PR 4 points-to optimizer),
* block-dispatch VM **vs** ``step_reference`` (the PR 5 oracle tier),
* **x64 vs x32** code generation,
* **cold build vs single-edit incremental rebuild** (the PR 8
  splice re-link path, compared by artifact digest),

with the lint plane over the member's MIR.  Builds run with
``verify_units=True``, which runs the binary verifier
(:mod:`repro.analysis.binverify`) only over unit-pool results and
unit-cache publishes.  The harness compiles without a unit pool, so
only a run with ``cache_dir`` verifies anything (the units it
publishes); a plain run verifies no image.  Any divergence in
output / exit code / cycles / instructions / tx_checks / violations
between two cells, or against the generated program's AST-evaluator
oracle, is reported as a structured :class:`Finding`; generated
findings can be shrunk with :mod:`repro.workloads.minimize`.

A harness keeps one :class:`~repro.build.session.BuildSession` per
build role for its whole life — one per (arch, devirtualize) cell and
one per arch for the incremental check — so simlibc is parsed and
compiled once per session, not once per member.  Each (arch,
devirtualize) cell is still a full rebuild of the member, linked
against the session's libc units and byte-identical to a cold build;
when a member's matrix ends, its module is dropped from every session,
so nothing it compiled outlives it.

Set-level runs (:func:`run_set`) are no-cherry-picking by
construction: the report carries one :class:`ProgramReport` per
member — pass or fail — in deterministic member order.  A serial run
pushes the whole set through one harness; ``jobs > 1`` fans members
out over a :class:`repro.infra.pool.WorkerPool`, one fresh harness
per job.  The findings file is JSONL via
:class:`repro.infra.results.ResultStore` (timestamps off: same seed ⇒
byte-identical bytes).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.build.session import BuildSession
from repro.infra.pool import Job, WorkerPool
from repro.infra.results import ResultStore
from repro.workloads.generate import (GenConfig, GenProgram, OracleResult,
                                      generate)
from repro.workloads.spec import BenchmarkSet, benchmark_set, workload

__all__ = [
    "CorpusConfig",
    "Finding",
    "ProgramReport",
    "SetReport",
    "DifferentialHarness",
    "run_set",
    "load_set_report",
    "render_report",
]

ARCHS = ("x64", "x32")

#: divergence categories, in triage-priority order
CATEGORIES = (
    "compile_error",    # frontend/codegen/link/verify rejected a valid program
    "oracle_output",    # VM output differs from the AST evaluator
    "oracle_exit",      # VM exit code differs from the AST evaluator
    "violation",        # unexpected CFI violation or fault
    "dispatch",         # block dispatch vs step_reference observables
    "devirt",           # devirtualize on vs off output/exit
    "devirt_txchecks",  # devirtualization *increased* dynamic checks
    "arch",             # x64 vs x32 output/exit
    "incremental",      # incremental re-link != cold artifact digest
    "lint",             # lint plane reports an error-severity finding
    "harness_error",    # the harness itself failed on this member
)


@dataclass
class CorpusConfig:
    """One harness run's knobs (all deterministic)."""

    archs: Tuple[str, ...] = ARCHS
    #: Must dominate the worst program the oracle's fuel budget admits:
    #: one fuel unit can cost ~10 VM steps, so 400k fuel needs ~4M
    #: steps (campaign seed 427 measured 3.98M).  20M leaves 5x slack —
    #: a genuine runaway still trips it, a legitimately long program
    #: never does.
    max_steps: int = 20_000_000
    lint: bool = True
    incremental: bool = True
    reference: bool = True          #: run the step_reference tier
    cache_dir: Optional[str] = None

    def gen_config(self, quick: bool) -> GenConfig:
        return GenConfig.quick() if quick else GenConfig()


@dataclass
class Finding:
    """One structured divergence."""

    member: str
    category: str
    cell: str            #: e.g. "x64/devirt/dispatch"
    detail: str
    seed: Optional[int] = None
    expected: str = ""
    actual: str = ""
    classification: str = "open"   #: open | fixed | benign
    note: str = ""

    KIND = "finding"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "member": self.member,
            "category": self.category,
            "cell": self.cell,
            "detail": self.detail,
            "seed": self.seed,
            "expected": self.expected,
            "actual": self.actual,
            "classification": self.classification,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Finding":
        return cls(**{k: doc[k] for k in (
            "member", "category", "cell", "detail", "seed",
            "expected", "actual", "classification", "note")
            if k in doc})


@dataclass
class ProgramReport:
    """Everything the matrix learned about one member."""

    member: str
    seed: Optional[int]
    status: str                    #: pass | diverged | error
    findings: List[Finding] = field(default_factory=list)
    cells: int = 0
    cycles: Dict[str, int] = field(default_factory=dict)
    tx_checks: Dict[str, int] = field(default_factory=dict)
    source_lines: int = 0

    KIND = "program"

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "member": self.member,
            "seed": self.seed,
            "status": self.status,
            "cells": self.cells,
            "cycles": dict(sorted(self.cycles.items())),
            "tx_checks": dict(sorted(self.tx_checks.items())),
            "source_lines": self.source_lines,
            "findings": [f.to_dict() for f in self.findings],
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ProgramReport":
        return cls(
            member=doc["member"], seed=doc.get("seed"),
            status=doc["status"], cells=doc.get("cells", 0),
            cycles=doc.get("cycles", {}),
            tx_checks=doc.get("tx_checks", {}),
            source_lines=doc.get("source_lines", 0),
            findings=[Finding.from_dict(f)
                      for f in doc.get("findings", [])])


@dataclass
class SetReport:
    """A completed set run: exactly one report per member."""

    set_name: str
    reports: List[ProgramReport]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)

    def findings(self) -> List[Finding]:
        return [f for r in self.reports for f in r.findings]

    def by_category(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings():
            counts[finding.category] = \
                counts.get(finding.category, 0) + 1
        return counts


def artifact_digest(program) -> str:
    """Deterministic digest of a linked program's loadable bytes
    (same bytes the build CLI hashes)."""
    h = hashlib.sha256()
    h.update(bytes(program.module.code))
    h.update(bytes(program.data.image))
    h.update(program.entry.to_bytes(8, "little"))
    return h.hexdigest()


def _observables(result) -> Tuple[int, bytes, int, int, int]:
    return (result.exit_code, result.output, result.cycles,
            result.instructions, result.tx_checks)


class DifferentialHarness:
    """Runs members through the full matrix and collects findings.

    The harness owns one build session per role, keyed ``x64/base``,
    ``x64/devirt``, ``x64/incremental`` and so on per arch; see the
    module docstring.
    """

    def __init__(self, config: Optional[CorpusConfig] = None):
        self.config = config or CorpusConfig()
        self._cache = None
        if self.config.cache_dir:
            from repro.infra.cache import open_cache
            self._cache = open_cache(self.config.cache_dir)
        self._sessions = {
            f"{arch}/{role}": BuildSession(
                arch=arch, devirtualize=role == "devirt",
                cache=self._cache, verify_units=True)
            for arch in self.config.archs
            for role in ("base", "devirt", "incremental")}

    # -- member resolution -------------------------------------------

    def resolve(self, member: str, quick: bool = False
                ) -> Tuple[str, Optional[GenProgram]]:
        """Return (source, generated-program-or-None) for a member."""
        if member.startswith("gen"):
            seed = int(member[3:])
            prog = generate(seed, self.config.gen_config(quick))
            return prog.source, prog
        return workload(member).source, None

    # -- one member --------------------------------------------------

    def run_member(self, member: str, quick: bool = False
                   ) -> ProgramReport:
        try:
            source, prog = self.resolve(member, quick)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            return ProgramReport(
                member=member, seed=None, status="error",
                findings=[Finding(member, "harness_error", "resolve",
                                  f"{type(exc).__name__}: {exc}")])
        return self._run(member, source, prog)

    def run_program(self, prog: GenProgram) -> ProgramReport:
        """Run an in-memory generated program (minimizer re-checks)."""
        return self._run(prog.name, prog.source, prog)

    def _run(self, member: str, source: str,
             prog: Optional[GenProgram]) -> ProgramReport:
        seed = prog.seed if prog is not None else None
        report = ProgramReport(
            member=member, seed=seed, status="pass",
            source_lines=len(source.splitlines()))
        expected: Optional[OracleResult] = None
        if prog is not None:
            try:
                expected = prog.evaluate()
            except Exception as exc:  # noqa: BLE001
                report.findings.append(Finding(
                    member, "harness_error", "oracle",
                    f"{type(exc).__name__}: {exc}", seed=seed))
                report.status = "error"
                return report
        try:
            self._run_matrix(member, source, prog, expected, report)
        except Exception as exc:  # noqa: BLE001 - keep set complete
            report.findings.append(Finding(
                member, "harness_error", "matrix",
                f"{type(exc).__name__}: {exc}", seed=seed))
        finally:
            # A repeated member, or a minimizer candidate under the same
            # name, must be rebuilt from source, never served stale units.
            for session in self._sessions.values():
                session.invalidate(member)
        if report.findings and report.status == "pass":
            report.status = "diverged"
        return report

    def _run_matrix(self, member: str, source: str,
                    prog: Optional[GenProgram],
                    expected: Optional[OracleResult],
                    report: ProgramReport) -> None:
        from repro.toolchain import run_program

        cfg = self.config
        seed = report.seed
        sources = {member: source}
        baseline: Dict[str, Any] = {}
        for arch in cfg.archs:
            for devirt in (False, True):
                cell = f"{arch}/{'devirt' if devirt else 'base'}"
                try:
                    built = self._sessions[cell].build(sources)
                except Exception as exc:  # noqa: BLE001
                    report.findings.append(Finding(
                        member, "compile_error", cell,
                        f"{type(exc).__name__}: {exc}", seed=seed))
                    continue
                report.cells += 1
                fast = run_program(built.program,
                                   max_steps=cfg.max_steps)
                report.cycles[cell] = fast.cycles
                report.tx_checks[cell] = fast.tx_checks
                self._check_run(member, cell, fast, expected,
                                report)
                if cfg.reference:
                    ref = self._reference_run(built.program)
                    if _observables(ref) != _observables(fast):
                        report.findings.append(Finding(
                            member, "dispatch", cell,
                            "block dispatch and step_reference "
                            "disagree", seed=seed,
                            expected=repr(_observables(ref)),
                            actual=repr(_observables(fast))))
                key = (arch, devirt)
                baseline[key] = fast
                if devirt and (arch, False) in baseline:
                    base = baseline[(arch, False)]
                    if (fast.output != base.output or
                            fast.exit_code != base.exit_code):
                        report.findings.append(Finding(
                            member, "devirt", cell,
                            "devirtualized output differs from "
                            "baseline", seed=seed,
                            expected=repr((base.exit_code,
                                           base.output)),
                            actual=repr((fast.exit_code,
                                         fast.output))))
                    if fast.tx_checks > base.tx_checks:
                        report.findings.append(Finding(
                            member, "devirt_txchecks", cell,
                            "devirtualization increased dynamic "
                            "TxChecks", seed=seed,
                            expected=str(base.tx_checks),
                            actual=str(fast.tx_checks)))
                if not devirt and cfg.incremental:
                    self._check_incremental(member, arch, source,
                                            prog, built, report)
        first = baseline.get((cfg.archs[0], False))
        for arch in cfg.archs[1:]:
            other = baseline.get((arch, False))
            if first is None or other is None:
                continue
            if (first.output != other.output or
                    first.exit_code != other.exit_code):
                report.findings.append(Finding(
                    member, "arch", f"{cfg.archs[0]}-vs-{arch}",
                    "architectures disagree on output/exit",
                    seed=seed,
                    expected=repr((first.exit_code, first.output)),
                    actual=repr((other.exit_code, other.output))))
        if cfg.lint:
            self._check_lints(member, source, report)

    def _check_run(self, member: str, cell: str, result,
                   expected: Optional[OracleResult],
                   report: ProgramReport) -> None:
        seed = report.seed
        if result.violations or result.violation or result.fault:
            report.findings.append(Finding(
                member, "violation", cell,
                f"unexpected violation/fault: "
                f"violations={result.violations} "
                f"fault={result.fault!r}", seed=seed))
            return
        if expected is None:
            return
        if result.output != expected.output:
            report.findings.append(Finding(
                member, "oracle_output", cell,
                "VM output differs from AST-evaluator oracle",
                seed=seed, expected=repr(expected.output),
                actual=repr(result.output)))
        if result.exit_code != expected.exit_code:
            report.findings.append(Finding(
                member, "oracle_exit", cell,
                "VM exit code differs from oracle", seed=seed,
                expected=str(expected.exit_code),
                actual=str(result.exit_code)))

    def _reference_run(self, program):
        """Execute under the if/elif reference interpreter tier."""
        from repro.runtime.runtime import Runtime

        runtime = Runtime(program)
        cpu = runtime.main_cpu()
        cpu.step = cpu.step_reference
        return runtime.run(max_steps=self.config.max_steps)

    def _check_incremental(self, member: str, arch: str, source: str,
                           prog: Optional[GenProgram], cold_result,
                           report: ProgramReport) -> None:
        """Cold vs edit-then-edit-back incremental re-link: the PR 8
        byte-identity guarantee, checked by artifact digest."""
        if prog is None:
            variant_source = source + "\nlong __corpus_probe" \
                                      "(long x) { return x; }\n"
        else:
            variant_source = prog.edit_variant().source
        seed = report.seed
        session = self._sessions[f"{arch}/incremental"]
        try:
            session.build({member: variant_source})
            incr = session.build({member: source})
        except Exception as exc:  # noqa: BLE001
            report.findings.append(Finding(
                member, "compile_error", f"{arch}/incremental",
                f"{type(exc).__name__}: {exc}", seed=seed))
            return
        report.cells += 1
        cold_digest = artifact_digest(cold_result.program)
        incr_digest = artifact_digest(incr.program)
        if cold_digest != incr_digest:
            report.findings.append(Finding(
                member, "incremental", f"{arch}/incremental",
                f"incremental re-link (kind={incr.kind}) is not "
                f"byte-identical to the cold build", seed=seed,
                expected=cold_digest, actual=incr_digest))

    def _check_lints(self, member: str, source: str,
                     report: ProgramReport) -> None:
        from repro.analysis.dataflow.lints import run_lints
        from repro.mir.lowering import lower_unit
        from repro.toolchain import frontend

        try:
            lint_report = run_lints(
                lower_unit(frontend(source, name=member)))
        except Exception as exc:  # noqa: BLE001
            report.findings.append(Finding(
                member, "harness_error", "lint",
                f"{type(exc).__name__}: {exc}", seed=report.seed))
            return
        for diag in lint_report.errors:
            report.findings.append(Finding(
                member, "lint", "lint",
                f"{diag.code}: {diag.message} "
                f"({diag.function}:{diag.block}:{diag.index})",
                seed=report.seed))


# ---------------------------------------------------------------------------
# Set runs (pool-parallel, no cherry-picking)
# ---------------------------------------------------------------------------

def _member_job(member: str, quick: bool,
                config: CorpusConfig) -> Dict[str, Any]:
    """Worker-side entry: one member through the matrix."""
    harness = DifferentialHarness(config)
    return harness.run_member(member, quick=quick).to_dict()


def run_set(set_name: str, jobs: int = 1,
            config: Optional[CorpusConfig] = None,
            out_path: Optional[str] = None,
            limit: Optional[int] = None,
            job_timeout: float = 600.0) -> SetReport:
    """Run every member of a registered set through the matrix.

    ``jobs <= 1`` runs the whole set through one harness, so each of
    its build sessions compiles libc once per run; otherwise each
    member is a worker-pool job with a fresh harness.  Compile
    artifacts are memoized across jobs and runs only with
    ``config.cache_dir`` (a shared
    :class:`repro.infra.cache.ArtifactCache`).

    Results keep member order regardless of worker scheduling, and a
    member whose job dies still gets a report (``harness_error``) —
    the set report is complete by construction. ``limit`` truncates
    to the first N members (CI smoke); the truncation is recorded in
    the summary line so a shortened run cannot masquerade as full
    coverage.
    """
    spec = benchmark_set(set_name)
    members = list(spec.members)
    if limit is not None:
        members = members[:limit]
    reports: List[ProgramReport] = []
    cfg = config or CorpusConfig()
    if jobs <= 1:
        harness = DifferentialHarness(cfg)
        for member in members:
            reports.append(harness.run_member(member, quick=spec.quick))
    else:
        pool = WorkerPool(workers=jobs, timeout=job_timeout)
        job_list = [Job(fn=_member_job,
                        args=(member, spec.quick, cfg),
                        id=member, timeout=job_timeout)
                    for member in members]
        for member, result in zip(members, pool.run(job_list)):
            if result.ok:
                reports.append(ProgramReport.from_dict(result.value))
            else:
                reports.append(ProgramReport(
                    member=member, seed=None, status="error",
                    findings=[Finding(
                        member, "harness_error", "pool",
                        f"{result.status}: {result.error}")]))
    report = SetReport(set_name=set_name, reports=reports)
    if out_path is not None:
        write_set_report(report, out_path,
                         truncated=limit is not None and
                         limit < len(spec.members))
    return report


def write_set_report(report: SetReport, path: str,
                     truncated: bool = False) -> None:
    """Persist a set run as deterministic JSONL (no timestamps)."""
    target = Path(path)
    if target.exists():
        target.unlink()
    store = ResultStore(target, timestamps=False)
    for program in report.reports:
        store.append_record(program, set=report.set_name)
    store.append(
        "set_summary", set=report.set_name,
        members=len(report.reports),
        passed=sum(1 for r in report.reports if r.ok),
        diverged=sum(1 for r in report.reports
                     if r.status == "diverged"),
        errors=sum(1 for r in report.reports
                   if r.status == "error"),
        truncated=truncated,
        by_category=dict(sorted(report.by_category().items())))


def load_set_report(path: str) -> SetReport:
    """Rehydrate a set report from its JSONL file."""
    from repro.infra.results import load_records

    records = load_records(path)
    programs = [ProgramReport.from_dict(r) for r in records
                if r.get("kind") == "program"]
    names = {r.get("set") for r in records if "set" in r}
    set_name = names.pop() if len(names) == 1 else "?"
    return SetReport(set_name=set_name, reports=programs)


def render_report(report: SetReport) -> str:
    """Human-readable no-cherry-picking table: every member, one row."""
    lines = [f"corpus set: {report.set_name}",
             f"{'member':<14} {'status':<9} {'lines':>5} "
             f"{'cells':>5}  findings"]
    for program in report.reports:
        cats = {}
        for finding in program.findings:
            cats[finding.category] = cats.get(finding.category, 0) + 1
        summary = ", ".join(f"{k}x{v}" for k, v in
                            sorted(cats.items())) or "-"
        lines.append(f"{program.member:<14} {program.status:<9} "
                     f"{program.source_lines:>5} "
                     f"{program.cells:>5}  {summary}")
    counts = report.by_category()
    lines.append("")
    lines.append(f"members: {len(report.reports)}  "
                 f"passed: {sum(1 for r in report.reports if r.ok)}  "
                 f"diverged: {sum(1 for r in report.reports if r.status == 'diverged')}  "
                 f"errors: {sum(1 for r in report.reports if r.status == 'error')}")
    if counts:
        lines.append("findings by category: " + ", ".join(
            f"{k}={v}" for k, v in sorted(counts.items())))
    else:
        lines.append("findings by category: none")
    return "\n".join(lines) + "\n"
