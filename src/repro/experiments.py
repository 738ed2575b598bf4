"""Experiment harness: regenerates every table and figure of the paper.

Each public function corresponds to one artifact of the evaluation
(Sec. 8) and returns plain data structures that the benchmark suite
prints and EXPERIMENTS.md records:

========================  =================================================
``fig5_overhead``         Fig. 5  — execution overhead, no updates
``fig6_update_overhead``  Fig. 6  — overhead under periodic update
                          transactions (the 50 Hz simulation)
``table1_analysis``       Table 1 — C1 violations and FP elimination
``table2_analysis``       Table 2 — K1/K2 classification
``stm_micro``             Sec. 8.1 micro-benchmark — MCFI vs TML/RWL/Mutex
``table3_cfg_stats``      Table 3 — IBs / IBTs / EQCs per benchmark
``air_comparison``        Sec. 8.3 — AIR values per CFI policy
``gadget_elimination``    Sec. 8.3 — ROP gadget elimination rates
``space_overhead``        Sec. 8.1 — code-size and table-space overhead
``cfg_generation_time``   Sec. 7  — CFG generation speed
``security_case_study``   Sec. 8.3 — fptr-to-execve / return hijacks
========================  =================================================

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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.analyzer import AnalysisReport, analyze_source
from repro.baselines.policies import (
    PolicyResult,
    bincfi_policy,
    chunk_policy,
    classic_cfi_policy,
    mcfi_policy,
)
from repro.cfg.generator import Cfg, generate_cfg
from repro.core.stm_baselines import ALGORITHMS, make_workload
from repro.core.transactions import periodic_updater
from repro.linker.static_linker import LinkedProgram
from repro.metrics.air import AirResult, air_table
from repro.metrics.overhead import OverheadResult, SpaceResult
from repro.obs import OBS, clock
from repro.runtime.runtime import Runtime, RunResult
from repro.workloads.spec import BENCHMARKS, Workload, workload

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
                         arch: str = "x64", interval: int = 100_000,
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


def stm_micro_rounds(iterations: int = 200_000,
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


def stm_micro(iterations: int = 200_000,
              n_sites: int = 64, n_targets: int = 1024,
              ) -> Dict[str, float]:
    """Normalized check-transaction times (MCFI = 1.0): the median of
    :func:`stm_micro_rounds` per algorithm.

    The paper's table: MCFI 1, TML 2, RWL 29, Mutex 22.
    """
    return {name: statistics.median(values) for name, values in
            stm_micro_rounds(iterations, n_sites, n_targets).items()}


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

def air_comparison(benchmarks: Optional[Sequence[str]] = None,
                   arch: str = "x64") -> Dict[str, float]:
    """Mean AIR per policy across benchmarks (the Sec. 8.3 table)."""
    sums: Dict[str, float] = {}
    count = 0
    for name in benchmarks or BENCHMARKS:
        program = compiled(name, arch, mcfi=True)
        aux = program.module.aux
        code_size = len(program.module.code)
        policies: List[PolicyResult] = [
            mcfi_policy(aux),
            classic_cfi_policy(aux),
            bincfi_policy(aux),
            chunk_policy(aux, program.module.base, code_size, chunk=16),
        ]
        results = air_table(policies, target_space=code_size)
        for policy_name, air_result in results.items():
            sums[policy_name] = sums.get(policy_name, 0.0) + air_result.air
        count += 1
    return {policy_name: total / count
            for policy_name, total in sums.items()}


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
                        arch: str = "x64",
                        repeats: int = 3) -> Dict[str, float]:
    """Seconds per CFG generation (paper: ~150 ms for gcc)."""
    out: Dict[str, float] = {}
    for name in benchmarks or BENCHMARKS:
        program = compiled(name, arch, mcfi=True)
        best = float("inf")
        for _ in range(repeats):
            start = clock.now()
            generate_cfg(program.module.aux)
            best = min(best, clock.now() - start)
        out[name] = best
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
# Formatting helpers used by benchmarks and docs generation
# ---------------------------------------------------------------------------

def format_fig5(results: Dict[Tuple[str, str], OverheadResult]) -> str:
    lines = [f"{'benchmark':12s} {'arch':5s} {'overhead':>9s}"]
    for (name, arch), result in results.items():
        lines.append(f"{name:12s} {arch:5s} {result.overhead_pct:8.2f}%")
    return "\n".join(lines)


def format_table(rows: Dict[str, Dict[str, object]],
                 columns: Sequence[str], title: str = "") -> str:
    lines = []
    if title:
        lines.append(title)
    header = f"{'benchmark':12s} " + " ".join(f"{c:>10s}" for c in columns)
    lines.append(header)
    for name, row in rows.items():
        cells = " ".join(f"{row.get(c, ''):>10}" for c in columns)
        lines.append(f"{name:12s} {cells}")
    return "\n".join(lines)
