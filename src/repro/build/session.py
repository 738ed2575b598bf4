"""BuildSession: the toolchain's public compile surface.

A session owns the incremental state of one program being rebuilt over
time: per-module source indexes, per-function build graphs
(fingerprints), the function-grain unit artifacts, and the last link.
Rebuilds are priced by what actually changed:

* **warm** — nothing changed (or only comments/whitespace): the
  previous program is returned, or every unit hits the cache;
* **incremental** — a few function bodies changed: the mini-frontend
  re-checks only those bodies against a *stub* of the module (every
  clean function reduced to its declaration), recompiles the dirty
  units, and — when exactly one unit changed shape-compatibly — splices
  it into the previous link in place;
* **cold** — a new module, a structural edit (signatures, globals,
  added/removed functions) or a fresh session: full frontend, but still
  unit-cache-first and optionally pool-parallel.

MCFI and native (``mcfi=False``) sessions take the same path; only the
unit flavour differs.  Every product is byte-identical to a cold build
of the same sources: the property tests in ``tests/test_build_api.py``
hold the incremental paths to that, and ``tests/golden`` pins the cold
images.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.build.fingerprint import source_body_key
from repro.build.graph import BuildGraph, compile_module_units
from repro.build.link import LinkState, ModuleUnits, link_units, splice_unit
from repro.build.source_index import (
    SourceSpan,
    diff_bodies,
    index_source,
    stub_source,
)
from repro.build.units import UnitArtifact
from repro.linker.static_linker import LinkedProgram
from repro.obs import OBS


@dataclass
class BuildResult:
    """Outcome of one :meth:`BuildSession.build` call.

    ``program`` is the linked image (never serialized); everything else
    is provenance/accounting metadata and round-trips through
    :meth:`to_dict`/:meth:`from_dict`.
    """

    program: Optional[LinkedProgram]
    kind: str                      # 'cold' | 'warm' | 'incremental'
    arch: str
    mcfi: bool
    modules: List[str] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "arch": self.arch, "mcfi": self.mcfi,
                "modules": list(self.modules), "stats": dict(self.stats)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BuildResult":
        return cls(program=None, kind=data["kind"], arch=data["arch"],
                   mcfi=data["mcfi"], modules=list(data.get("modules", [])),
                   stats=dict(data.get("stats", {})))


@dataclass
class _ModuleState:
    source: str
    spans: Optional[List[SourceSpan]]
    graph: BuildGraph
    units: ModuleUnits


class BuildSession:
    """Incremental, parallel compile-as-a-service for one program.

    ``mcfi=False`` builds the uninstrumented baseline; ``cache`` is a
    :class:`repro.infra.cache.ArtifactCache` shared across sessions
    (function-grain unit entries), ``pool`` an optional
    :class:`repro.infra.pool.WorkerPool` dirty unit compiles fan out
    across once at least ``parallel_threshold`` of them miss.
    """

    def __init__(self, arch: str = "x64", mcfi: bool = True,
                 prelude: bool = True, devirtualize: bool = False,
                 with_libc: bool = True,
                 allow_unresolved: Optional[List[str]] = None,
                 cache=None, pool=None, parallel_threshold: int = 4,
                 verify_units: bool = True):
        self.arch = arch
        self.mcfi = mcfi
        self.prelude = prelude
        self.devirtualize = devirtualize
        self.with_libc = with_libc
        self.allow_unresolved = list(allow_unresolved or [])
        self.cache = cache
        self.pool = pool
        self.parallel_threshold = parallel_threshold
        #: run the binary verifier over MCFI pool results and before
        #: every MCFI cache publish (see repro.analysis.binverify)
        self.verify_units = verify_units
        self._modules: Dict[str, _ModuleState] = {}
        self._link: Optional[LinkState] = None
        self._order: List[str] = []
        self._built_once = False
        #: body-text memo: key -> (module, intern refs, artifact).  An
        #: entry is only valid against the declarations its module had
        #: when it was compiled, so a module's entries go when the
        #: module is fully rebuilt or invalidated.
        self._body_memo: Dict[str, Tuple[str, List[bytes], UnitArtifact]] = {}

    # -- public API --------------------------------------------------

    def build(self, sources: Dict[str, str]) -> BuildResult:
        """(Re)build the program from named sources; incremental where
        the session state allows, byte-identical to a cold build."""
        all_sources = dict(sources)
        if self.with_libc and "libc" not in all_sources:
            from repro.workloads.libc import LIBC_SOURCE
            all_sources["libc"] = LIBC_SOURCE
        with OBS.tracer.span("build.session", modules=len(all_sources),
                             arch=self.arch, mcfi=self.mcfi):
            return self._build(all_sources)

    def invalidate(self, name: Optional[str] = None) -> None:
        """Drop session state for ``name`` (or everything)."""
        if name is None:
            self._modules.clear()
            self._body_memo.clear()
        else:
            self._modules.pop(name, None)
            self._forget_bodies(name)
        self._link = None
        self._order = []

    def _forget_bodies(self, name: str) -> None:
        self._body_memo = {key: memo for key, memo in self._body_memo.items()
                           if memo[0] != name}

    # -- unit-grain build --------------------------------------------

    def _build(self, sources: Dict[str, str]) -> BuildResult:
        stats: Dict[str, int] = {"units": 0, "unit_hits": 0,
                                 "unit_compiled": 0, "unit_parallel": 0,
                                 "modules_rebuilt": 0, "modules_mini": 0}
        order = list(sources)
        structural = (order != self._order or self._link is None)
        #: (module name, new artifact, unit index) applied after the
        #: link-strategy decision
        pending: List[Tuple[str, UnitArtifact, int]] = []

        for name, text in sources.items():
            state = self._modules.get(name)
            if state is not None and state.source == text:
                continue
            updates = None
            if state is not None and not self.devirtualize:
                updates = self._mini_rebuild(state, name, text)
            if updates is None:
                self._full_rebuild(name, text, stats)
                structural = True
                stats["modules_rebuilt"] += 1
            else:
                stats["modules_mini"] += 1
                for fn, artifact in updates:
                    index = next(
                        i for i, unit in enumerate(state.units.units)
                        if unit.fn == fn)
                    pending.append((name, artifact, index))

        kind = "cold" if not self._built_once else (
            "incremental" if (pending or structural) else "warm")

        spliced = False
        if not structural and not pending and self._link is not None:
            program = self._link.program           # nothing changed
        elif (not structural and len(pending) == 1
                and self._link is not None):
            name, artifact, index = pending[0]
            program = splice_unit(self._link, name, artifact)
            if program is not None:
                spliced = True
                state = self._modules[name]
                state.graph.fingerprints[artifact.fn] = artifact.fingerprint
                OBS.metrics.counter("build.splices").inc()
            else:
                self._apply_pending(pending)
                program = self._full_link(order)
        else:
            self._apply_pending(pending)
            program = self._full_link(order)

        for key in ("units", "unit_hits", "unit_compiled", "unit_parallel"):
            if stats[key]:
                OBS.metrics.counter(f"build.{key}").inc(stats[key])
        self._built_once = True
        stats["spliced"] = int(spliced)
        return BuildResult(program=program, kind=kind, arch=self.arch,
                           mcfi=self.mcfi, modules=order, stats=stats)

    def _apply_pending(self,
                       pending: List[Tuple[str, UnitArtifact, int]]) -> None:
        for name, artifact, index in pending:
            state = self._modules[name]
            state.units.units[index] = artifact
            state.graph.fingerprints[artifact.fn] = artifact.fingerprint

    def _full_link(self, order: List[str]) -> LinkedProgram:
        # Invalidate first so a failed link can never leave a stale
        # program behind a later 'warm' short-circuit.
        self._link = None
        self._order = []
        with OBS.tracer.span("build.link", modules=len(order)):
            self._link = link_units(
                [self._modules[name].units for name in order],
                mcfi=self.mcfi, allow_unresolved=self.allow_unresolved)
        self._order = order
        return self._link.program

    def _frontend(self, text: str, name: str):
        from repro.mir.lowering import lower_unit
        from repro.toolchain import frontend
        with OBS.tracer.span("build.frontend", module=name):
            checked = frontend(text, name=name, prelude=self.prelude)
        with OBS.tracer.span("build.lower", module=name):
            mir = lower_unit(checked)
        if self.devirtualize:
            from repro.analysis.dataflow import devirtualize_module
            devirtualize_module(mir)
        return checked, mir

    def _full_rebuild(self, name: str, text: str,
                      stats: Dict[str, int]) -> None:
        self._forget_bodies(name)
        checked, mir = self._frontend(text, name)
        with OBS.tracer.span("build.units", module=name):
            units, graph, ustats = self._compile_units(mir, checked)
        for key, value in ustats.items():
            stats[key] = stats.get(key, 0) + value
        self._modules[name] = _ModuleState(
            source=text, spans=index_source(text), graph=graph, units=units)

    def _compile_units(self, mir, checked):
        return compile_module_units(
            mir, checked, self.arch, cache=self.cache, pool=self.pool,
            parallel_threshold=self.parallel_threshold,
            verify_units=self.verify_units, mcfi=self.mcfi)

    def _mini_rebuild(self, state: _ModuleState, name: str, text: str,
                      ) -> Optional[List[Tuple[str, UnitArtifact]]]:
        """Body-local rebuild: returns the changed (fn, artifact) list,
        or ``None`` when the edit is structural and the caller must do
        a full rebuild.  Clean functions are never recompiled; dirty
        bodies go through the body-text memo, then the unit cache, then
        a stub-source compile of just those functions."""
        if state.spans is None:
            return None
        new_spans = index_source(text)
        if new_spans is None:
            return None
        dirty = diff_bodies(state.spans, new_spans)
        if dirty is None:
            return None

        updates: List[Tuple[str, UnitArtifact]] = []
        unresolved: List[str] = []
        by_name = {span.name: span for span in new_spans
                   if span.kind == "func"}
        memo_hits = {}
        for fn in sorted(dirty):
            key = source_body_key(name, self.arch, by_name[fn].text,
                                  self.prelude)
            memo = self._body_memo.get(key)
            if memo is not None:
                memo_hits[fn] = memo
            else:
                unresolved.append(fn)

        compiled: Dict[str, Tuple[UnitArtifact, List[bytes]]] = {}
        if unresolved:
            with OBS.tracer.span("build.mini_frontend", module=name,
                                 dirty=len(unresolved)):
                stub = stub_source(new_spans, set(unresolved))
                try:
                    checked, mir = self._frontend(stub, name)
                except Exception:
                    return None  # stub didn't compile: rebuild fully
            if set(checked.functions) != set(unresolved):
                return None
            units, _, _ = self._compile_units(mir, checked)
            for unit in units.units:
                compiled[unit.fn] = (unit,
                                     list(units.intern_refs.get(unit.fn, [])))

        for fn in sorted(dirty):
            if fn in compiled:
                artifact, refs = compiled[fn]
                key = source_body_key(name, self.arch, by_name[fn].text,
                                      self.prelude)
                self._body_memo[key] = (name, refs, artifact)
            else:
                _, refs, artifact = memo_hits[fn]
            old_refs = state.units.intern_refs.get(fn, [])
            if list(refs) != list(old_refs):
                return None  # string table changed shape: full rebuild
            if state.graph.fingerprints.get(fn) != artifact.fingerprint:
                updates.append((fn, artifact))

        state.source = text
        state.spans = new_spans
        return updates
