"""Per-layer attribution for traced runs, read from the ``repro.obs`` plane.

A traced run enables ``repro.obs`` with the wall clock and adds spans
from the benchmark's side around public calls that have none of their
own (:data:`WRAPPED`).  After every operation the closed spans are
folded into per-name *self time* -- the part of a span's interval that
no span opened after it and still open covers -- so nested and
overlapping layers never count twice and the self times of one run sum
to the time its spans cover.  Counters come from the obs registry.
Every per-layer value is reported per operation.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import json
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional

from repro import obs
from repro.obs import OBS, SCHEMA_VERSION, clock

#: (module, class or None, attribute, span name): benchmark-side spans
#: around calls no ``repro.obs`` span covers, patched where the caller
#: looks them up and restored when the traced run ends.
WRAPPED = (
    ("repro.linker.dynamic_linker", None, "instrument_items", "instrument"),
    ("repro.linker.dynamic_linker", None, "assemble", "assemble"),
    ("repro.build.units", None, "instrument_stream", "instrument"),
    ("repro.build.units", None, "assemble_unit", "assemble"),
    ("repro.mir.codegen", "FunctionCodegen", "generate", "codegen"),
    ("repro.core.tables", "IdTables", "install", "tables.install"),
    ("repro.workloads.generate", "GenProgram", "evaluate", "corpus.oracle"),
    ("repro.toolchain", None, "run_program", "corpus.run_fast"),
    ("repro.workloads.corpus", "DifferentialHarness", "_reference_run",
     "corpus.run_reference"),
    ("repro.workloads.corpus", "DifferentialHarness", "_check_lints",
     "corpus.lint"),
)

#: spans whose self time is reported as ``<span>.self_ms``
SELF_SPANS = (
    "build.session", "build.frontend", "build.lower", "build.mini_frontend",
    "build.units", "build.link",
    "toolchain.compile", "toolchain.frontend", "toolchain.lower",
    "toolchain.codegen",
    "codegen", "instrument", "assemble", "binverify.image", "cfg.generate",
    "runtime.load", "tables.install", "runtime.run", "vm.run",
    "linker.dlopen", "linker.prepare", "linker.cfg", "linker.update",
    "linker.dlclose", "tx.update",
    "service.run", "service.round",
    "corpus.oracle", "corpus.run_fast", "corpus.run_reference", "corpus.lint",
    "bench.op",
)

#: obs registry counters reported per operation under their own name
COUNTERS = (
    "build.unit_compiled", "build.unit_hits", "build.splices",
    "cfg.generations", "tx.updates", "tables.tary_writes",
    "tables.bary_writes", "vm.instructions", "vm.cycles",
    "vm.dispatch.blocks_built", "vm.dispatch.fused_sites",
    "service.coalesce.rounds", "service.coalesce.backpressure",
    "tx.check.retries",
)

#: exact counts the workloads' checks return, reported per operation
CHECKED_COUNTS = ("vm.tx_checks", "corpus.cells", "image.bytes")


def self_times(spans: Iterable[Dict]) -> Dict[str, float]:
    """Seconds during which each span name was the innermost open span.

    "Innermost" is the open span opened last, which is the right answer
    for nested spans and for the overlapping begin/end intervals the
    linker and the update transactions record side by side.
    """
    spans = list(spans)
    events = []
    for span in spans:
        events.append((span["t0"], 1, span["id"]))
        events.append((span["t1"], 0, span["id"]))
    events.sort()
    start = {span["id"]: span["t0"] for span in spans}
    name = {span["id"]: span["name"] for span in spans}
    open_heap: List = []
    ended = set()
    out: Dict[str, float] = defaultdict(float)
    last = None
    for time, opening, span_id in events:
        while open_heap and -open_heap[0][1] in ended:
            heapq.heappop(open_heap)
        if open_heap:
            out[name[-open_heap[0][1]]] += time - last
        last = time
        if opening:
            heapq.heappush(open_heap, (-start[span_id], -span_id))
        else:
            ended.add(span_id)
    return dict(out)


def _wrap(owner, attr: str, span_name: str):
    original = getattr(owner, attr)

    @functools.wraps(original)
    def spanned(*args, **kwargs):
        with OBS.tracer.span(span_name):
            return original(*args, **kwargs)

    setattr(owner, attr, spanned)
    return owner, attr, original


def _count_kinds(owner):
    """Count ``BuildSession.build`` results by kind (cold/warm/incremental)."""
    original = owner.build

    @functools.wraps(original)
    def build(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        OBS.metrics.counter("build.kind." + result.kind).inc()
        return result

    owner.build = build
    return owner, "build", original


class Recorder:
    """Traces the measured loop when ``enabled``; inert otherwise."""

    def __init__(self, enabled: bool, trace_out: Optional[str] = None):
        self.enabled = enabled
        self.trace_out = trace_out
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: seconds of untraced check work and of folding spans: the
        #: benchmark's own share of the traced wall time
        self.check_s = 0.0
        self.fold_s = 0.0
        self.snapshot = obs.Snapshot()
        self._undo: List = []
        self._part = None
        self._spans = 0

    def __enter__(self) -> "Recorder":
        if self.enabled:
            obs.enable()
            for module, cls, attr, span_name in WRAPPED:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                self._undo.append(_wrap(owner, attr, span_name))
            from repro.build.session import BuildSession
            self._undo.append(_count_kinds(BuildSession))
            if self.trace_out:
                self._part = open(self.trace_out + ".part", "w",
                                  encoding="utf-8")
        return self

    def __exit__(self, *exc) -> None:
        if not self.enabled:
            return
        self.fold()
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []
        self.snapshot = obs.snapshot()
        obs.disable()
        if self._part is not None:
            self._part.close()
            self._part = None
            self._write_trace()

    def _write_trace(self) -> None:
        part = self.trace_out + ".part"
        header = {"kind": "trace-header", "version": SCHEMA_VERSION,
                  "clock": "wall", "seed": None, "spans": self._spans}
        with open(self.trace_out, "w", encoding="utf-8") as out, \
                open(part, encoding="utf-8") as spans:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for line in spans:
                out.write(line)
            out.write(json.dumps(self.snapshot.to_dict(), sort_keys=True)
                      + "\n")
        os.remove(part)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Run a check untraced, so its work never reaches a layer."""
        if not self.enabled:
            yield
            return
        saved = (OBS.enabled, OBS.tracer, OBS.metrics)
        obs.disable()
        started = clock.now()
        try:
            yield
        finally:
            self.check_s += clock.now() - started
            OBS.enabled, OBS.tracer, OBS.metrics = saved

    def fold(self) -> None:
        """Fold the spans closed so far into the totals, then drop them."""
        if not self.enabled:
            return
        started = clock.now()
        spans = OBS.tracer.spans
        for span_name, seconds in self_times(spans).items():
            self.self_s[span_name] += seconds
        for span in spans:
            self.total_s[span["name"]] += span["t1"] - span["t0"]
            self.calls[span["name"]] += 1
        if self._part is not None:
            for span in spans:
                self._part.write(json.dumps(span, sort_keys=True) + "\n")
        self._spans += len(spans)
        spans.clear()
        self.fold_s += clock.now() - started

    def coverage(self, wall: float) -> float:
        """Share of the loop's wall time the self times account for."""
        covered = sum(self.self_s.values()) + self.check_s + self.fold_s
        return covered / wall if wall else 0.0

    def per_layer(self, run) -> Dict[str, float]:
        """Every per-layer metric of a traced run, per operation, with
        times rescaled by the run's speed factor."""
        ops = max(run.attempted, 1)
        ms = 1000.0 * run.scale / ops
        counters = self.snapshot.counters
        histograms = self.snapshot.histograms
        values: Dict[str, float] = {}
        for span_name in SELF_SPANS:
            values[f"{span_name}.self_ms"] = \
                ms * self.self_s.get(span_name, 0.0)
        values["dataflow.lint.ms"] = ms * self.total_s.get("dataflow.lint",
                                                          0.0)
        values["binverify.image.calls"] = self.calls["binverify.image"] / ops
        for counter in COUNTERS:
            values[counter] = counters.get(counter, 0) / ops
        for count in CHECKED_COUNTS:
            values[count] = run.counts.get(count, 0) / ops
        incremental = counters.get("build.kind.incremental", 0)
        values["build.splice_ratio"] = \
            counters.get("build.splices", 0) / incremental \
            if incremental else 0.0
        vm_s = self.total_s.get("vm.run", 0.0) * run.scale
        values["vm.mips"] = \
            counters.get("vm.instructions", 0) / vm_s / 1e6 if vm_s else 0.0
        values["service.coalesce.round_requests"] = _mean(
            histograms.get("service.coalesce.round_requests"))
        values["service.latency_ticks_mean"] = _mean(
            histograms.get("service.update.latency_ticks"))
        values["trace.coverage"] = self.coverage(run.wall)
        values["trace.op_ms_p50"] = 1000.0 * run.op_seconds(50)
        return values

    def table(self, run) -> List[str]:
        """Self time per span name, largest first, as printed lines."""
        ms = 1000.0 * run.scale / max(run.attempted, 1)
        lines = []
        for span_name, seconds in sorted(self.self_s.items(),
                                         key=lambda kv: -kv[1]):
            lines.append(f"{span_name:28s} {ms * seconds:10.3f} ms/op  "
                         f"{100.0 * seconds / run.wall:5.1f}%  "
                         f"calls {self.calls[span_name]}")
        return lines


def _mean(histogram: Optional[Dict[str, float]]) -> float:
    if not histogram or not histogram.get("count"):
        return 0.0
    return histogram["total"] / histogram["count"]
