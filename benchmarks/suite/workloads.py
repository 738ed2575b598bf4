"""The five workloads, each a closed loop with one client.

A workload hands the loop in :mod:`harness` the items of one round at a
time, in seeded order.  Per item it makes the operation's input
(``prepare``, untimed), runs the operation (``execute``, which times its
own phases), verifies the output against an expectation that does not
come from the code under test (``check``, untimed) and returns exact
counts for the determinism checks and the per-layer report.  ``finish``
runs the checks that need the whole run.  The seed given to the
constructor is the only input to the generators.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.build import BuildSession, compile_object
from repro.build.source_index import index_source
from repro.core.idencoding import INVALID_ID, is_valid_id
from repro.linker.dynamic_linker import DynamicLinker
from repro.obs import OBS, clock
from repro.runtime.runtime import Runtime
from repro.service.loop import ServiceLoop
from repro.service.tenancy import tenant_source
from repro.tinyc.lexer import tokenize
from repro.workloads import libc  # noqa: F401  (builds import it lazily)
from repro.workloads.corpus import CorpusConfig, DifferentialHarness
from repro.workloads.spec import BENCHMARKS, benchmark_set, workload

from .stats import geomean, percentile

EXPECTED = Path(__file__).parent / "expected" / "fixed12.json"

Phases = Dict[str, float]


def image_bytes(program) -> int:
    """Code plus data bytes of a linked image."""
    return len(program.module.code) + len(program.data.image)


def image_of(program) -> Tuple[bytes, bytes, int]:
    return bytes(program.module.code), bytes(program.data.image), \
        program.entry


class Workload:
    """Interface the measuring loop drives; see the module docstring."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        #: every generated input, in order: equal seeds give equal logs
        self.log: List[Any] = []

    def next_round(self) -> List[str]:
        raise NotImplementedError

    def prepare(self, item: str) -> Any:
        return item

    def execute(self, job: Any) -> Tuple[Any, Phases]:
        raise NotImplementedError

    def check(self, job: Any, output: Any) -> Tuple[bool, Dict[str, int]]:
        raise NotImplementedError

    def finish(self) -> int:
        """Whole-run checks; returns the number of operations they fail."""
        return 0

    def detail(self, run) -> Dict[str, Tuple[float, str]]:
        """Workload-specific named metrics, printed beside the report."""
        return {}

    def rows(self, run) -> List[str]:
        """One printed line per input item."""
        return []


def _ms(seconds: float) -> float:
    return 1000.0 * seconds


def _median_ms(values: List[float]) -> float:
    return _ms(percentile(values, 50))


# ---------------------------------------------------------------------------
# fixed12-cold: source -> verified image -> load -> output, all cold
# ---------------------------------------------------------------------------


class Fixed12Cold(Workload):
    name = "fixed12-cold"
    QUICK = ("libquantum", "milc")

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed)
        self.names = list(self.QUICK if quick else BENCHMARKS)
        self.sources = {name: workload(name).source for name in self.names}
        self.expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
        #: exact per-program facts from the last checked run
        self.facts: Dict[str, Dict[str, int]] = {}

    def next_round(self) -> List[str]:
        order = list(self.names)
        self.rng.shuffle(order)
        self.log.append(tuple(order))
        return order

    def execute(self, name: str) -> Tuple[Any, Phases]:
        start = clock.now()
        built = BuildSession().build({name: self.sources[name]})
        built_at = clock.now()
        with OBS.tracer.span("runtime.load", module=name):
            runtime = Runtime(built.program)
        loaded_at = clock.now()
        result = runtime.run()
        done = clock.now()
        return (built.program, result), {"compile": built_at - start,
                                         "load": loaded_at - built_at,
                                         "exec": done - loaded_at}

    def check(self, name: str, output) -> Tuple[bool, Dict[str, int]]:
        program, result = output
        want = self.expected[name]
        ok = (result.ok and result.exit_code == want["exit_code"]
              and result.output.decode("utf-8", "replace") == want["output"])
        facts = {"image.bytes": image_bytes(program),
                 "sim_cycles": result.cycles,
                 "vm.tx_checks": result.tx_checks}
        self.facts[name] = facts
        return ok, facts

    def detail(self, run) -> Dict[str, Tuple[float, str]]:
        names = [name for name in self.names if run.samples.get(name)]
        if not names:
            return {}
        out = {"pipeline_ms_geomean": (geomean(
            [_median_ms(run.samples[name]) for name in names]), "ms")}
        for phase in ("compile", "load", "exec"):
            out[f"{phase}_ms_geomean"] = (geomean(
                [_median_ms(run.phases[name][phase]) for name in names]),
                "ms")
        out["image_bytes"] = (sum(self.facts[name]["image.bytes"]
                                  for name in names), "bytes")
        out["sim_cycles"] = (sum(self.facts[name]["sim_cycles"]
                                 for name in names), "cycles")
        return out

    def rows(self, run) -> List[str]:
        lines = []
        for name in self.names:
            if not run.samples.get(name):
                lines.append(f"{name:12s} no successful run")
                continue
            phases = run.phases[name]
            facts = self.facts[name]
            lines.append(
                f"{name:12s} n={len(run.samples[name])} "
                f"pipeline {_median_ms(run.samples[name]):8.1f} ms  "
                f"compile {_median_ms(phases['compile']):7.1f}  "
                f"load {_median_ms(phases['load']):5.1f}  "
                f"exec {_median_ms(phases['exec']):7.1f}  "
                f"cycles {facts['sim_cycles']}  "
                f"bytes {facts['image.bytes']}")
        return lines


# ---------------------------------------------------------------------------
# edit-rebuild: single-function literal edits through warm sessions
# ---------------------------------------------------------------------------


def literal_spans(body: str) -> List[Tuple[int, int]]:
    """(start, end) offsets of the editable integer literals in a function
    body: decimal, unsuffixed, not a ``case`` label and not inside
    brackets (array bounds and indexes), so any new value still
    compiles."""
    line_starts = [0]
    line_starts.extend(i + 1 for i, ch in enumerate(body) if ch == "\n")
    spans = []
    depth = 0
    previous = None
    for token in tokenize(body):
        if token.kind == "op" and token.text in ("[", "]"):
            depth += 1 if token.text == "[" else -1
        elif (token.kind == "int" and token.text.isdigit() and depth == 0
              and not (previous is not None and previous.text == "case")):
            # the lexer stamps a token with the column just past its end
            end = line_starts[token.line - 1] + token.column - 1
            spans.append((end - len(token.text), end))
        previous = token
    return spans


def edit_sites(source: str) -> Dict[str, List[Tuple[int, int]]]:
    """Function -> its editable literals as (index in body, value)."""
    sites = {}
    for span in index_source(source) or ():
        if span.kind != "func":
            continue
        literals = [(index, int(span.body[start:end])) for index, (start, end)
                    in enumerate(literal_spans(span.body))]
        if literals:
            sites[span.name] = literals
    return sites


def set_literal(source: str, fn: str, index: int, value: int) -> str:
    """``source`` with literal ``index`` of function ``fn`` set to ``value``."""
    for span in index_source(source) or ():
        if span.kind == "func" and span.name == fn:
            start, end = literal_spans(span.body)[index]
            body = span.body[:start] + str(value) + span.body[end:]
            return source.replace(span.text, span.head + body, 1)
    raise KeyError(fn)


class EditRebuild(Workload):
    name = "edit-rebuild"
    QUICK = ("lbm", "libquantum")

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed)
        self.names = list(self.QUICK if quick else BENCHMARKS)
        self.text = {name: workload(name).source for name in self.names}
        self.sites = {name: edit_sites(self.text[name])
                      for name in self.names}
        self.sessions = {}
        for name in self.names:
            session = BuildSession()
            session.build({name: self.text[name]})
            self.sessions[name] = session
        #: functions still to edit in each program's current pass
        self.pending: Dict[str, List[str]] = {name: [] for name in self.names}
        self.edits = 0
        self.last: Dict[str, Any] = {}
        self.ok_ops: Counter = Counter()
        self.spliced = 0

    def next_round(self) -> List[str]:
        order = list(self.names)
        self.rng.shuffle(order)
        return order

    def prepare(self, name: str) -> Tuple[str, str]:
        # Every function of a program is edited once per pass, in seeded
        # order, so the cost mix of a run barely depends on the seed.
        if not self.pending[name]:
            self.pending[name] = sorted(self.sites[name])
            self.rng.shuffle(self.pending[name])
        fn = self.pending[name].pop()
        index, original = self.rng.choice(self.sites[name][fn])
        # Each literal only ever grows, so every edit is text no session
        # has seen before and the body-text memo cannot answer it.
        self.edits += 1
        self.log.append((name, fn, index))
        return name, set_literal(self.text[name], fn, index,
                                 original + self.edits)

    def execute(self, job) -> Tuple[Any, Phases]:
        name, text = job
        start = clock.now()
        result = self.sessions[name].build({name: text})
        return result, {"rebuild": clock.now() - start}

    def check(self, job, result) -> Tuple[bool, Dict[str, int]]:
        name, text = job
        self.text[name] = text
        ok = result.kind == "incremental" and result.program is not None
        if ok:
            self.last[name] = result.program
            self.ok_ops[name] += 1
            self.spliced += result.stats.get("spliced", 0)
        return ok, {"image.bytes": image_bytes(result.program)
                    if result.program is not None else 0}

    def finish(self) -> int:
        # The incremental image after the last edit must be the image a
        # cold build of the same text gives; if not, every rebuild of
        # that program is suspect.
        failed = 0
        for name, program in self.last.items():
            cold = BuildSession().build({name: self.text[name]}).program
            if image_of(cold) != image_of(program):
                failed += self.ok_ops[name]
        return failed

    def detail(self, run) -> Dict[str, Tuple[float, str]]:
        rebuilds = run.all_phase("rebuild")
        if not rebuilds:
            return {}
        return {"rebuild_ms_p50": (_ms(percentile(rebuilds, 50)), "ms"),
                "rebuild_ms_p90": (_ms(percentile(rebuilds, 90)), "ms"),
                "spliced_frac": (self.spliced / len(rebuilds), "fraction")}

    def rows(self, run) -> List[str]:
        return [f"{name:12s} n={len(run.samples.get(name, []))} "
                f"rebuild p50 {_median_ms(run.samples[name]):7.2f} ms  "
                f"p90 {_ms(percentile(run.samples[name], 90)):7.2f} ms"
                for name in self.names if run.samples.get(name)]


# ---------------------------------------------------------------------------
# dlopen-churn: compile -> register -> dlopen -> dlsym, seeded dlclose
# ---------------------------------------------------------------------------


class DlopenChurn(Workload):
    name = "dlopen-churn"
    HOST = "gcc"
    RESIDENT = 4
    #: install events per host runtime: the loader never reuses the code
    #: pages of an unloaded library, so a fresh load keeps the 4 MiB code
    #: region from running out
    EPOCH = 256

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed)
        self.host = BuildSession().build(
            {self.HOST: workload(self.HOST).source}).program
        self.events = 0
        self._load_host()

    def _load_host(self) -> None:
        with OBS.tracer.span("runtime.load", module=self.HOST):
            self.runtime = Runtime(self.host)
        self.linker = DynamicLinker(self.runtime, verify=True)
        self.baseline = self.runtime.cfg.stats()
        #: (handle, address of the library's exported t<k>_scale)
        self.resident: List[Tuple[int, int]] = []

    def _retire_host(self) -> bool:
        """Close every resident library; the policy must be the host's."""
        codes = [self.linker.dlclose(handle) for handle, _ in self.resident]
        self.resident = []
        return all(code == 0 for code in codes) and \
            self.runtime.cfg.stats() == self.baseline

    def next_round(self) -> List[str]:
        return ["event"]

    def prepare(self, item: str):
        k = self.events
        self.events += 1
        version = self.rng.randrange(1, 1 << 16)
        victim: Optional[int] = None
        if len(self.resident) >= self.RESIDENT:
            victim = self.rng.randrange(self.RESIDENT + 1)
        self.log.append((k, version, victim))
        # A library's exported names must not collide with the host's or
        # another resident library's, so its entry is not called main.
        source = tenant_source(k, version).replace(
            "int main(", f"int t{k}_entry(")
        return k, source, victim

    def execute(self, job) -> Tuple[Any, Phases]:
        k, source, victim = job
        name = f"lib{k}"
        tables = self.runtime.id_tables
        start = clock.now()
        raw = compile_object(source, name=name, arch=self.host.arch)
        self.linker.register(name, raw)
        handle = self.linker.dlopen(name)
        address = self.linker.dlsym(handle, f"t{k}_scale")
        phases = {"install": clock.now() - start}
        installed = handle != 0 and address != 0 and \
            is_valid_id(tables.target_id(address))
        if handle:
            self.resident.append((handle, address))
        unloaded = True
        if victim is not None:
            gone, gone_address = self.resident.pop(victim)
            start = clock.now()
            code = self.linker.dlclose(gone)
            phases["unload"] = clock.now() - start
            unloaded = code == 0 and \
                tables.target_id(gone_address) == INVALID_ID
        return (installed, unloaded), phases

    def check(self, job, output) -> Tuple[bool, Dict[str, int]]:
        installed, unloaded = output
        ok = installed and unloaded
        if self.events % self.EPOCH == 0:
            ok = self._retire_host() and ok
            self._load_host()
        return ok, {}

    def finish(self) -> int:
        return 0 if self._retire_host() else 1

    def detail(self, run) -> Dict[str, Tuple[float, str]]:
        installs = run.all_phase("install")
        unloads = run.all_phase("unload")
        out = {}
        if installs:
            out["install_ms_p50"] = (_ms(percentile(installs, 50)), "ms")
            out["install_ms_p90"] = (_ms(percentile(installs, 90)), "ms")
        if unloads:
            out["unload_ms_p50"] = (_ms(percentile(unloads, 50)), "ms")
        return out


# ---------------------------------------------------------------------------
# tenant-service: coalesced batched table writes beside TxCheck reads
# ---------------------------------------------------------------------------


class TenantService(Workload):
    name = "tenant-service"
    SHARDS = 8
    CHURN = 2

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed)
        self.seed = seed
        self.tenants = 10 if quick else 100
        self.runs = 0
        self.latencies: List[int] = []
        self.committed = 0

    def next_round(self) -> List[str]:
        return ["loop"]

    def prepare(self, item: str) -> int:
        loop_seed = self.seed * 1_000_003 + self.runs
        self.runs += 1
        self.log.append(loop_seed)
        return loop_seed

    def execute(self, loop_seed: int) -> Tuple[Any, Phases]:
        start = clock.now()
        loop = ServiceLoop(tenants=self.tenants, shards=self.SHARDS,
                           churn=self.CHURN, seed=loop_seed)
        report = loop.run()
        return (loop, report), {"run": clock.now() - start}

    def check(self, loop_seed: int, output) -> Tuple[bool, Dict[str, int]]:
        loop, report = output
        # every tenant's dlopen and dlclose commits, per churn round
        want = 2 * self.CHURN * self.tenants
        ok = (report.committed == want and report.failed == 0
              and report.escalations == 0
              and report.checks == report.checks_allowed
              and loop.replay_serial() == loop.sharded.decoded_state())
        self.latencies.extend(report.latencies)
        self.committed += report.committed
        return ok, {"service.committed": report.committed,
                    "service.ticks": report.ticks}

    def detail(self, run) -> Dict[str, Tuple[float, str]]:
        busy = sum(run.all_phase("run"))
        if not busy or not self.latencies:
            return {}
        return {"updates_per_s": (self.committed / busy, "1/s"),
                "update_ticks_p99": (percentile(self.latencies, 99),
                                     "ticks")}


# ---------------------------------------------------------------------------
# corpus-smoke: generated programs through the differential matrix
# ---------------------------------------------------------------------------


class CorpusSmoke(Workload):
    """The registered ``gen-smoke`` set, whole, in seeded order.

    The set is declared in ``repro.workloads.spec`` so no run can pick
    its members; programs drawn from the seed instead made the spread
    between seeds depend on which programs were drawn.
    """

    name = "corpus-smoke"
    SET = "gen-smoke"

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed)
        spec = benchmark_set(self.SET)
        self.members = list(spec.members[:1] if quick else spec.members)
        self.gen_quick = spec.quick
        self.harness = DifferentialHarness(CorpusConfig())

    def next_round(self) -> List[str]:
        order = list(self.members)
        self.rng.shuffle(order)
        self.log.append(tuple(order))
        return order

    def execute(self, member: str) -> Tuple[Any, Phases]:
        start = clock.now()
        report = self.harness.run_member(member, quick=self.gen_quick)
        return report, {"member": clock.now() - start}

    def check(self, member: str, report) -> Tuple[bool, Dict[str, int]]:
        return report.ok and not report.findings, {
            "corpus.cells": report.cells,
            "vm.tx_checks": sum(report.tx_checks.values())}

    def detail(self, run) -> Dict[str, Tuple[float, str]]:
        busy = sum(run.all_phase("member"))
        if not busy:
            return {}
        return {"programs_per_s": (len(run.all_phase("member")) / busy,
                                   "1/s")}


WORKLOADS = {cls.name: cls for cls in (Fixed12Cold, EditRebuild,
                                       DlopenChurn, TenantService,
                                       CorpusSmoke)}
