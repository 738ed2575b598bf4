"""Experiment harness: regenerates every table and figure of the paper.

Each artifact of the evaluation (Secs. 7-8: Figs. 5-6, Tables 1-3,
the STM micro-benchmark, AIR, gadget elimination, space, CFG-generation
time and the security case studies) is one entry of
:data:`ARTIFACT_TABLE`, keyed by its ``repro spec`` name.  An entry
holds the results-file stem, the compute call with the committed
parameters, the committed table's architectures, whether one job per
benchmark can compute it, and the renderer whose text is
``benchmarks/results/<stem>.txt``.  ``repro spec``, the
``benchmarks/bench_*.py`` scripts and ``infra report`` all go through
it, so the tables they print are the committed ones.

Compiled programs are cached per (benchmark, arch, mcfi) so that test
and benchmark runs pay the TinyC->SimISA pipeline once.  Builds route
through :func:`repro.infra.campaign.build_program`: when an artifact
cache is configured (``--cache-dir`` on the CLIs, or ``REPRO_CACHE_DIR``
in the environment), each function is compiled and instrumented exactly
once per configuration *across processes and invocations* and linked
images are memoized; without one the build is the plain serial
pipeline.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.analyzer import AnalysisReport, analyze_source
from repro.baselines.policies import (
    bincfi_policy,
    chunk_policy,
    classic_cfi_policy,
    mcfi_policy,
)
from repro.cfg.generator import generate_cfg
from repro.core.stm_baselines import ALGORITHMS, make_workload
from repro.core.transactions import periodic_updater
from repro.linker.static_linker import LinkedProgram
from repro.metrics.air import air_table
from repro.metrics.overhead import (OverheadResult, SpaceResult,
                                    arithmetic_mean_overhead)
from repro.obs import OBS, clock
from repro.runtime.runtime import Runtime, RunResult
from repro.workloads.spec import BENCHMARKS, workload

ARCHS = ("x32", "x64")

_PROGRAM_CACHE: Dict[Tuple[str, str, bool], LinkedProgram] = {}


def compiled(name: str, arch: str = "x64", mcfi: bool = True,
             ) -> LinkedProgram:
    """Compile + statically link one benchmark (cached in-process and,
    when an artifact cache is configured, on disk)."""
    key = (name, arch, mcfi)
    if key not in _PROGRAM_CACHE:
        from repro.infra.campaign import build_program
        _PROGRAM_CACHE[key] = build_program(name, arch=arch, mcfi=mcfi)
    return _PROGRAM_CACHE[key]


def run_once(name: str, arch: str = "x64", mcfi: bool = True) -> RunResult:
    """Load and run one benchmark once (fresh runtime).

    With an artifact cache configured the deterministic outcome is
    memoized on disk (see :func:`repro.infra.campaign.run_result`);
    otherwise this is a plain fresh-runtime execution.
    """
    from repro.infra.campaign import default_cache, run_result
    if default_cache() is not None:
        return run_result(name, arch=arch, mcfi=mcfi)
    return Runtime(compiled(name, arch, mcfi)).run()


# ---------------------------------------------------------------------------
# Fig. 5 -- execution overhead (no update transactions)
# ---------------------------------------------------------------------------

def fig5_overhead(benchmarks: Optional[Sequence[str]] = None,
                  archs: Sequence[str] = ("x64",),
                  ) -> Dict[Tuple[str, str], OverheadResult]:
    """Per-benchmark instrumented-vs-native cycle overhead."""
    out: Dict[Tuple[str, str], OverheadResult] = {}
    for name in benchmarks or BENCHMARKS:
        for arch in archs:
            native = run_once(name, arch, mcfi=False)
            hardened = run_once(name, arch, mcfi=True)
            if native.output != hardened.output or not hardened.ok:
                raise AssertionError(
                    f"{name}/{arch}: instrumented run diverged "
                    f"({hardened.violation or hardened.fault})")
            out[(name, arch)] = OverheadResult(
                name=name, arch=arch,
                native_cycles=native.cycles, mcfi_cycles=hardened.cycles,
                native_instructions=native.instructions,
                mcfi_instructions=hardened.instructions)
    return out


# ---------------------------------------------------------------------------
# Fig. 6 -- overhead with periodic update transactions
# ---------------------------------------------------------------------------

def fig6_update_overhead(benchmarks: Optional[Sequence[str]] = None,
                         arch: str = "x64", interval: int = 60_000,
                         burst: int = 32, batch: int = 256,
                         ) -> Dict[str, OverheadResult]:
    """Like Fig. 5, but an updater thread refreshes all ID versions every
    ``interval`` model cycles (the paper's 50 Hz V8-derived rate).

    Check transactions that land mid-update retry, so the measured
    cycles include the paper's "delay on check transactions".
    """
    from repro.vm.scheduler import GeneratorTask
    out: Dict[str, OverheadResult] = {}
    for name in benchmarks or BENCHMARKS:
        native = run_once(name, arch, mcfi=False)
        runtime = Runtime(compiled(name, arch, mcfi=True))
        cpu = runtime.main_cpu()
        counter: Dict[str, int] = {}
        updater = periodic_updater(
            runtime.id_tables, runtime.update_lock,
            cycles_of=lambda c=cpu: c.cycles, interval=interval,
            batch=batch, counter=counter)
        result = runtime.run_scheduled(
            seed=1, burst=burst,
            extra_tasks=[GeneratorTask(updater, name="fig6-updater")])
        if result.output != native.output or not result.ok:
            raise AssertionError(f"{name}: Fig.6 run diverged: "
                                 f"{result.violation or result.fault}")
        out[name] = OverheadResult(
            name=name, arch=arch, native_cycles=native.cycles,
            mcfi_cycles=result.cycles,
            native_instructions=native.instructions,
            mcfi_instructions=result.instructions,
            updates=counter.get("updates", 0))
    return out


# ---------------------------------------------------------------------------
# Tables 1 and 2 -- the C1/C2 analyzer
# ---------------------------------------------------------------------------

def table1_analysis(benchmarks: Optional[Sequence[str]] = None,
                    ) -> Dict[str, AnalysisReport]:
    out: Dict[str, AnalysisReport] = {}
    for name in benchmarks or BENCHMARKS:
        spec = workload(name)
        out[name] = analyze_source(spec.source, name=name)
    return out


def table2_analysis(benchmarks: Optional[Sequence[str]] = None,
                    ) -> Dict[str, Dict[str, int]]:
    return {name: report.table2_row()
            for name, report in table1_analysis(benchmarks).items()
            if report.vae}


# ---------------------------------------------------------------------------
# Sec. 8.1 -- transaction micro-benchmark
# ---------------------------------------------------------------------------

#: Interleaved rounds the Sec. 8.1 micro-benchmark splits its checks into.
STM_ROUNDS = 30


def stm_micro_rounds(iterations: int = 150_000,
                     n_sites: int = 64, n_targets: int = 1024,
                     ) -> Dict[str, List[float]]:
    """Per-round check-transaction times, each normalized to MCFI's.

    Each algorithm runs ``iterations`` checks, split into
    ``STM_ROUNDS`` rounds.  A round times the four algorithms back to
    back, in an order rotated by one each round, so drift or load on
    the machine lands in every algorithm alike instead of in whichever
    one happened to run during it.  As in a real run, (almost) every
    check is for a *permitted* transfer — branch and target ECNs match
    — so the fast path dominates.
    """
    bary, tary = make_workload(n_sites=n_sites, n_targets=n_targets)
    n_classes = max(bary.values()) + 1
    # Site/target pairs whose ECNs match (the allowed fast path).
    pairs = []
    for i in range(4096):
        site = i % n_sites
        target = (bary[site] + n_classes * (i % (n_targets // n_classes))) \
            % n_targets
        if tary[target] != bary[site]:
            target = bary[site]  # target index == its ECN by construction
        pairs.append((site, target))
    algorithms = [algorithm_cls(n_sites, n_targets, bary, tary)
                  for algorithm_cls in ALGORITHMS]
    per_round = iterations // STM_ROUNDS
    ratios: Dict[str, List[float]] = {a.name: [] for a in algorithms}
    for round_no in range(STM_ROUNDS):
        shift = round_no % len(algorithms)
        # Successive rounds walk on through the pair list, as one long
        # sequential run would.
        first = round_no * per_round
        timings: Dict[str, float] = {}
        for algorithm in algorithms[shift:] + algorithms[:shift]:
            check = algorithm.check
            with OBS.tracer.span("experiments.stm",
                                 algorithm=algorithm.name,
                                 iterations=per_round):
                start = clock.now()
                for i in range(first, first + per_round):
                    site, target = pairs[i & 4095]
                    if not check(site, target):
                        raise AssertionError(
                            "micro-benchmark pair not permitted")
                timings[algorithm.name] = clock.now() - start
        for name, duration in timings.items():
            ratios[name].append(duration / timings["MCFI"])
    return ratios


# ---------------------------------------------------------------------------
# Table 3 -- CFG statistics
# ---------------------------------------------------------------------------

def table3_cfg_stats(benchmarks: Optional[Sequence[str]] = None,
                     archs: Sequence[str] = ARCHS,
                     ) -> Dict[Tuple[str, str], Dict[str, int]]:
    """IBs / IBTs / EQCs per benchmark and architecture."""
    out: Dict[Tuple[str, str], Dict[str, int]] = {}
    for name in benchmarks or BENCHMARKS:
        for arch in archs:
            program = compiled(name, arch, mcfi=True)
            cfg = generate_cfg(program.module.aux)
            out[(name, arch)] = cfg.stats()
    return out


# ---------------------------------------------------------------------------
# Sec. 8.3 -- AIR comparison
# ---------------------------------------------------------------------------

#: The Sec. 8.3 policies, in the AIR table's column order, each judged
#: on an MCFI image's module.
AIR_POLICIES = {
    "chunk16": lambda module: chunk_policy(
        module.aux, module.base, len(module.code), chunk=16),
    "binCFI": lambda module: bincfi_policy(module.aux),
    "classic-CFI": lambda module: classic_cfi_policy(module.aux),
    "MCFI": lambda module: mcfi_policy(module.aux),
}


def program_air(program: LinkedProgram,
                policies: Sequence[str] = tuple(AIR_POLICIES),
                ) -> Dict[str, float]:
    """AIR of one MCFI image under each named policy (S = code bytes)."""
    module = program.module
    table = air_table([AIR_POLICIES[name](module) for name in policies],
                      target_space=len(module.code))
    return {name: table[name].air for name in policies}


def air_comparison(benchmarks: Optional[Sequence[str]] = None,
                   arch: str = "x64") -> Dict[str, Dict[str, float]]:
    """AIR per policy per benchmark (the Sec. 8.3 table)."""
    return {name: program_air(compiled(name, arch, mcfi=True))
            for name in benchmarks or BENCHMARKS}


def air_means(rows: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Mean AIR per policy over the benchmarks of :func:`air_comparison`."""
    return {policy: sum(row[policy] for row in rows.values()) / len(rows)
            for policy in AIR_POLICIES}


# ---------------------------------------------------------------------------
# Sec. 8.3 -- gadget elimination
# ---------------------------------------------------------------------------

def gadget_elimination(benchmarks: Optional[Sequence[str]] = None,
                       arch: str = "x64", depth: int = 4,
                       ) -> Dict[str, Dict[str, float]]:
    """Unique-gadget counts: native image vs reachable-under-MCFI."""
    from repro.attacks.gadgets import analyze_image
    out: Dict[str, Dict[str, float]] = {}
    for name in benchmarks or BENCHMARKS:
        native = compiled(name, arch, mcfi=False)
        hardened = compiled(name, arch, mcfi=True)
        cfg = generate_cfg(hardened.module.aux)
        permitted = set(cfg.tary_ecns)
        native_report = analyze_image(native.module.code,
                                      native.module.base, depth=depth)
        hardened_report = analyze_image(hardened.module.code,
                                        hardened.module.base,
                                        permitted_targets=permitted,
                                        depth=depth)
        out[name] = {
            "native_unique": native_report.unique_total,
            "mcfi_unique": hardened_report.unique_total,
            "mcfi_reachable": hardened_report.unique_reachable,
            "elimination_pct": 100.0 * hardened_report.elimination_rate,
        }
    return out


# ---------------------------------------------------------------------------
# Sec. 8.1 -- space overhead
# ---------------------------------------------------------------------------

def space_overhead(benchmarks: Optional[Sequence[str]] = None,
                   arch: str = "x64") -> Dict[str, SpaceResult]:
    out: Dict[str, SpaceResult] = {}
    for name in benchmarks or BENCHMARKS:
        native = compiled(name, arch, mcfi=False)
        hardened = compiled(name, arch, mcfi=True)
        code_bytes = len(hardened.module.code)
        out[name] = SpaceResult(
            name=name,
            native_code_bytes=len(native.module.code),
            mcfi_code_bytes=code_bytes,
            tary_bytes=code_bytes,  # Tary mirrors the code region 1:1
            bary_bytes=4 * len(hardened.module.aux.branch_sites))
    return out


# ---------------------------------------------------------------------------
# Sec. 7 -- CFG generation speed
# ---------------------------------------------------------------------------

def cfg_generation_time(benchmarks: Optional[Sequence[str]] = None,
                        arch: str = "x64", repeats: int = 2,
                        ) -> Dict[str, Tuple[float, int]]:
    """Seconds per CFG generation, the best of ``repeats``, and the code
    bytes it covers (paper: ~150 ms for gcc's 2.7 MB)."""
    out: Dict[str, Tuple[float, int]] = {}
    for name in benchmarks or BENCHMARKS:
        program = compiled(name, arch, mcfi=True)
        best = float("inf")
        for _ in range(repeats):
            start = clock.now()
            generate_cfg(program.module.aux)
            best = min(best, clock.now() - start)
        out[name] = (best, len(program.module.code))
    return out


# ---------------------------------------------------------------------------
# Sec. 8.3 -- security case studies
# ---------------------------------------------------------------------------

def security_case_study() -> Dict[str, Dict[str, Tuple[bool, bool]]]:
    """(hijacked, blocked) per scheme for both attack scenarios."""
    from repro.attacks.hijack import fptr_to_execve, return_to_secret
    out: Dict[str, Dict[str, Tuple[bool, bool]]] = {}
    out["fptr-to-execve"] = {
        scheme: (o.hijacked, o.blocked)
        for scheme, o in fptr_to_execve().items()}
    out["return-to-entry"] = {
        scheme: (o.hijacked, o.blocked)
        for scheme, o in return_to_secret().items()}
    return out


# ---------------------------------------------------------------------------
# The artifact table: compute call, committed parameters, renderer
# ---------------------------------------------------------------------------

#: The paper's Sec. 8.1 micro-benchmark row (normalized to MCFI).
_STM_PAPER = {"MCFI": 1, "TML": 2, "RWL": 29, "Mutex": 22}


def _fig6_rows(names: Sequence[str], archs: Tuple[str, ...],
               ) -> Dict[str, Tuple[OverheadResult, OverheadResult]]:
    """Each benchmark's Fig. 5 result beside its Fig. 6 result."""
    plain = fig5_overhead(names, archs)
    updated = fig6_update_overhead(names, arch=archs[0])
    return {name: (plain[(name, archs[0])], updated[name])
            for name in names}


def _layout_fig5(results: Dict[Tuple[str, str], OverheadResult]) -> str:
    rows = {name: result for (name, _), result in results.items()}
    lines = [f"{'benchmark':12s} {'native cycles':>14s} "
             f"{'mcfi cycles':>12s} {'overhead':>9s}"]
    for name, result in rows.items():
        lines.append(f"{name:12s} {result.native_cycles:14d} "
                     f"{result.mcfi_cycles:12d} "
                     f"{result.overhead_pct:8.2f}%")
    lines.append(f"{'average':12s} {'':14s} {'':12s} "
                 f"{arithmetic_mean_overhead(rows):8.2f}%")
    return "\n".join(lines)


def _layout_fig6(rows: Dict[str, Tuple[OverheadResult, OverheadResult]],
                 ) -> str:
    lines = [f"{'benchmark':12s} {'fig5':>8s} {'fig6':>8s} "
             f"{'updates':>8s}"]
    for name, (plain, updated) in rows.items():
        lines.append(f"{name:12s} {plain.overhead_pct:7.2f}% "
                     f"{updated.overhead_pct:7.2f}% {updated.updates:8d}")
    return "\n".join(lines)


_TABLE1_COLUMNS = ("SLOC", "VBE", "UC", "DC", "MF", "SU", "NF", "VAE")


def _layout_table1(reports: Dict[str, AnalysisReport]) -> str:
    def line(name: str, row: Dict[str, int]) -> str:
        return f"{name:12s} " + " ".join(f"{row[c]:6d}"
                                         for c in _TABLE1_COLUMNS)

    lines = [f"{'benchmark':12s} " +
             " ".join(f"{c:>6s}" for c in _TABLE1_COLUMNS)]
    lines += [line(name, report.table1_row())
              for name, report in reports.items()]
    lines += ["", "paper reference (absolute counts; perlbench/gcc "
                  "reproduced at 1/20 and 1/10 scale):"]
    lines += [line(name, workload(name).paper_table1) for name in reports]
    return "\n".join(lines)


def _layout_table2(rows: Dict[str, Dict[str, int]]) -> str:
    lines = [f"{'benchmark':12s} {'K1':>4s} {'K2':>4s} {'K1-fixed':>9s}"]
    for name, row in rows.items():
        lines.append(f"{name:12s} {row['K1']:4d} {row['K2']:4d} "
                     f"{row['K1-fixed']:9d}")
    return "\n".join(lines)


def _layout_table3(stats: Dict[Tuple[str, str], Dict[str, int]]) -> str:
    names = list(dict.fromkeys(name for name, _ in stats))
    archs = list(dict.fromkeys(arch for _, arch in stats))
    lines = [f"{'benchmark':12s} " + "   ".join(
        f"{'IBs' + arch[1:]:>6s} {'IBTs' + arch[1:]:>7s} "
        f"{'EQCs' + arch[1:]:>7s}" for arch in archs)]
    for name in names:
        lines.append(f"{name:12s} " + "   ".join(
            f"{row['IBs']:6d} {row['IBTs']:7d} {row['EQCs']:7d}"
            for row in (stats[(name, arch)] for arch in archs)))
    lines.append("")
    lines.append("paper reference (x64): " + ", ".join(
        f"{name}={workload(name).paper_table3_x64}"
        for name in ("perlbench", "gcc", "lbm")))
    return "\n".join(lines)


def _layout_stm(per_round: Dict[str, List[float]]) -> str:
    lines = [f"Normalized check-transaction time: median and interquartile "
             f"range over {STM_ROUNDS} interleaved rounds",
             f"{'algorithm':8s} {'normalized':>11s} {'IQR':>11s} "
             f"{'paper':>7s}"]
    for name, paper in _STM_PAPER.items():
        q1, _, q3 = statistics.quantiles(per_round[name], n=4)
        lines.append(f"{name:8s} {statistics.median(per_round[name]):11.2f} "
                     f"{f'{q1:.2f}-{q3:.2f}':>11s} {paper:7d}")
    return "\n".join(lines)


def _layout_air(rows: Dict[str, Dict[str, float]]) -> str:
    means = air_means(rows)
    lines = [f"{'policy':12s} {'mean AIR':>10s}"]
    lines += [f"{policy:12s} {mean:10.5f}" for policy, mean in means.items()]
    lines.append("")
    lines.append(f"{'benchmark':12s} " +
                 " ".join(f"{policy:>12s}" for policy in AIR_POLICIES))
    for name, row in rows.items():
        lines.append(f"{name:12s} " + " ".join(
            f"{row[policy]:12.5f}" for policy in AIR_POLICIES))
    return "\n".join(lines)


def _layout_gadgets(reports: Dict[str, Dict[str, float]]) -> str:
    lines = [f"{'benchmark':12s} {'native uniq':>12s} "
             f"{'mcfi uniq':>10s} {'reachable':>10s} {'eliminated':>11s}"]
    for name, row in reports.items():
        lines.append(
            f"{name:12s} {row['native_unique']:12d} "
            f"{row['mcfi_unique']:10d} {row['mcfi_reachable']:10d} "
            f"{row['elimination_pct']:10.2f}%")
    mean = sum(r["elimination_pct"] for r in reports.values()) / len(reports)
    lines.append(f"{'average':12s} {'':12s} {'':10s} {'':10s} "
                 f"{mean:10.2f}%  (paper: 96.9/95.8%)")
    return "\n".join(lines)


def _layout_space(results: Dict[str, SpaceResult]) -> str:
    lines = [f"{'benchmark':12s} {'native B':>10s} {'mcfi B':>10s} "
             f"{'increase':>9s} {'tary B':>10s} {'bary B':>8s}"]
    for name, row in results.items():
        lines.append(
            f"{name:12s} {row.native_code_bytes:10d} "
            f"{row.mcfi_code_bytes:10d} {row.code_increase_pct:8.2f}% "
            f"{row.tary_bytes:10d} {row.bary_bytes:8d}")
    mean = sum(r.code_increase_pct for r in results.values()) / len(results)
    lines.append(f"{'average':12s} {'':10s} {'':10s} {mean:8.2f}%  "
                 f"(paper: ~17%)")
    return "\n".join(lines)


def _layout_cfggen(rows: Dict[str, Tuple[float, int]]) -> str:
    lines = [f"{'benchmark':12s} {'cfg-gen (ms)':>13s} {'code KiB':>9s}"]
    for name, (seconds, code_bytes) in rows.items():
        lines.append(f"{name:12s} {seconds * 1000:13.2f} "
                     f"{code_bytes / 1024:9.1f}")
    return "\n".join(lines)


def _layout_security(matrix: Dict[str, Dict[str, Tuple[bool, bool]]],
                     ) -> str:
    lines = [f"{'attack':18s} {'scheme':8s} {'hijacked':>9s} "
             f"{'blocked':>8s}"]
    for attack, outcomes in matrix.items():
        for scheme, (hijacked, blocked) in outcomes.items():
            lines.append(f"{attack:18s} {scheme:8s} "
                         f"{str(hijacked):>9s} {str(blocked):>8s}")
    return "\n".join(lines)


@dataclass(frozen=True)
class Artifact:
    """One paper artifact: how to compute it and how its table reads."""

    #: the committed table is ``benchmarks/results/<stem>.txt``
    stem: str
    #: ``compute(benchmarks, archs)``, with the committed parameters
    compute: Callable[[Sequence[str], Tuple[str, ...]], Dict[Any, Any]]
    #: the table's text for a result of ``compute`` (no final newline)
    render: Callable[[Dict[Any, Any]], str]
    #: the committed table's architectures; () for arch-free artifacts
    archs: Tuple[str, ...] = ()
    #: whether one job per benchmark computes it, merged as a dict
    per_benchmark: bool = True


#: Every artifact of the evaluation, by its ``repro spec`` name.
ARTIFACT_TABLE: Dict[str, Artifact] = {
    "fig5": Artifact("fig5_overhead_x64", fig5_overhead, _layout_fig5,
                     ("x64",)),
    "fig6": Artifact("fig6_update_overhead", _fig6_rows, _layout_fig6,
                     ("x64",)),
    "table1": Artifact("table1_c1_violations",
                       lambda names, archs: table1_analysis(names),
                       _layout_table1),
    "table2": Artifact("table2_k1k2",
                       lambda names, archs: table2_analysis(names),
                       _layout_table2),
    "table3": Artifact("table3_cfg_stats", table3_cfg_stats, _layout_table3,
                       ARCHS),
    "stm": Artifact("stm_micro", lambda names, archs: stm_micro_rounds(),
                    _layout_stm, per_benchmark=False),
    "air": Artifact("air_comparison",
                    lambda names, archs: air_comparison(names, archs[0]),
                    _layout_air, ("x64",)),
    "gadgets": Artifact("gadget_elimination",
                        lambda names, archs: gadget_elimination(names,
                                                                archs[0]),
                        _layout_gadgets, ("x64",)),
    "space": Artifact("space_overhead",
                      lambda names, archs: space_overhead(names, archs[0]),
                      _layout_space, ("x64",)),
    "cfggen": Artifact("cfg_generation_time",
                       lambda names, archs: cfg_generation_time(names,
                                                                archs[0]),
                       _layout_cfggen, ("x64",)),
    "security": Artifact("security_case_study",
                         lambda names, archs: security_case_study(),
                         _layout_security, per_benchmark=False),
}
