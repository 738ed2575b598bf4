"""BuildSession: the toolchain's public compile surface.

A session owns the incremental state of one program being rebuilt over
time: per-module source indexes, the function-grain unit artifacts
(each carrying its fingerprint), and the last link.
Rebuilds are priced by what actually changed:

* **warm** — nothing changed (or only comments/whitespace): the
  previous program is returned, or every unit hits the cache;
* **incremental** — a few function bodies changed: the edit is
  re-indexed by rescanning only the function span it falls in
  (:func:`~repro.build.source_index.reindex_source`), the mini-frontend
  parses and checks only the dirty bodies against the module's cached
  :class:`~repro.toolchain.ModuleInterface` (captured by the first such
  edit after a full rebuild), the dirty units are recompiled, and —
  when exactly one unit changed shape-compatibly — it is spliced into
  the previous program (:func:`~repro.build.link.splice_unit`), which
  is itself left as it was;
* **cold** — a new module, a structural edit (signatures, globals,
  added/removed functions) or a fresh session: full frontend, but still
  unit-cache-first.

MCFI and native (``mcfi=False``) sessions take the same path; only the
unit flavour differs.  Every product is byte-identical to a cold build
of the same sources: the property tests in ``tests/test_build_api.py``
hold the incremental paths to that, ``tests/test_incremental_oracles.py``
holds the re-index to the full scan and each splice to a full link of
the same state, and ``tests/golden`` pins the cold images.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.build.graph import compile_module_units
from repro.build.link import LinkState, ModuleUnits, link_units, splice_unit
from repro.build.source_index import (
    SourceSpan,
    diff_bodies,
    index_source,
    reindex_source,
)
from repro.build.units import UnitArtifact
from repro.errors import ReproError
from repro.linker.static_linker import LinkedProgram
from repro.obs import OBS
from repro.toolchain import ModuleInterface, frontend


@dataclass
class BuildResult:
    """Outcome of one :meth:`BuildSession.build` call: the linked
    image plus provenance and accounting metadata."""

    program: Optional[LinkedProgram]
    kind: str                      # 'cold' | 'warm' | 'incremental'
    arch: str
    mcfi: bool
    modules: List[str] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)


@dataclass
class _ModuleState:
    source: str
    spans: Optional[List[SourceSpan]]
    #: the module's units; the session is the only writer of its list,
    #: which the last link shares
    units: ModuleUnits
    #: a function body defines a type: every edit is a full rebuild
    local_types: bool = False
    #: what dirty bodies are checked against, from the first body-only
    #: edit after the full rebuild that made this state
    interface: Optional[ModuleInterface] = None


class BuildSession:
    """Incremental compile-as-a-service for one program.

    ``mcfi=False`` builds the uninstrumented baseline; ``cache`` is a
    :class:`repro.infra.cache.ArtifactCache` shared across sessions
    (function-grain unit entries).  Every MCFI unit published to it
    passes the binary verifier first.
    """

    def __init__(self, arch: str = "x64", mcfi: bool = True,
                 devirtualize: bool = False, with_libc: bool = True,
                 allow_unresolved: Optional[List[str]] = None,
                 cache=None):
        self.arch = arch
        self.mcfi = mcfi
        self.devirtualize = devirtualize
        self.with_libc = with_libc
        self.allow_unresolved = list(allow_unresolved or [])
        self.cache = cache
        self._modules: Dict[str, _ModuleState] = {}
        self._link: Optional[LinkState] = None
        self._built_once = False

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
        else:
            self._modules.pop(name, None)
        self._link = None

    # -- unit-grain build --------------------------------------------

    def _build(self, sources: Dict[str, str]) -> BuildResult:
        stats: Dict[str, int] = {"units": 0, "unit_hits": 0,
                                 "unit_compiled": 0,
                                 "modules_rebuilt": 0, "modules_mini": 0}
        order = list(sources)
        structural = (self._link is None or
                      order != [module.name for module in self._link.modules])
        #: (module name, unit) for each unit a mini rebuild replaced
        changed: List[Tuple[str, UnitArtifact]] = []

        try:
            for name, text in sources.items():
                state = self._modules.get(name)
                if state is not None and state.source == text:
                    continue
                updates = None
                if state is not None and not self.devirtualize:
                    updates = self._mini_rebuild(state, name, text, stats)
                if updates is None:
                    self._full_rebuild(name, text, stats)
                    structural = True
                    stats["modules_rebuilt"] += 1
                else:
                    stats["modules_mini"] += 1
                    changed.extend((name, unit) for unit in updates)
        except BaseException:
            # Modules before the failing one took their new units: the
            # last link no longer matches them.
            self._link = None
            raise

        kind = "cold" if not self._built_once else (
            "incremental" if (changed or structural) else "warm")

        program = None
        spliced = False
        if not structural and not changed:
            program = self._link.program           # nothing changed
        elif not structural and len(changed) == 1:
            program = splice_unit(self._link, *changed[0])
            spliced = program is not None
            if spliced:
                OBS.metrics.counter("build.splices").inc()
        if program is None:
            program = self._full_link(order)

        for key in ("units", "unit_hits", "unit_compiled"):
            if stats[key]:
                OBS.metrics.counter(f"build.{key}").inc(stats[key])
        self._built_once = True
        stats["spliced"] = int(spliced)
        return BuildResult(program=program, kind=kind, arch=self.arch,
                           mcfi=self.mcfi, modules=order, stats=stats)

    def _full_link(self, order: List[str]) -> LinkedProgram:
        # Invalidate first so a failed link can never leave a stale
        # program behind a later 'warm' short-circuit.
        self._link = None
        with OBS.tracer.span("build.link", modules=len(order)):
            self._link = link_units(
                [self._modules[name].units for name in order],
                mcfi=self.mcfi, allow_unresolved=self.allow_unresolved)
        return self._link.program

    def _lower(self, checked, name: str):
        from repro.mir.lowering import lower_unit
        with OBS.tracer.span("build.lower", module=name):
            mir = lower_unit(checked)
        if self.devirtualize:
            from repro.analysis.dataflow import devirtualize_module
            devirtualize_module(mir)
        return mir

    def _full_rebuild(self, name: str, text: str,
                      stats: Dict[str, int]) -> None:
        with OBS.tracer.span("build.frontend", module=name):
            checked = frontend(text, name=name)
        mir = self._lower(checked, name)
        units = self._compile_units(mir, checked, name, stats)
        self._modules[name] = _ModuleState(
            source=text, spans=index_source(text), units=units,
            local_types=checked.unit.local_types)

    def _compile_units(self, mir, checked, name: str,
                       stats: Dict[str, int]) -> ModuleUnits:
        """Compile ``mir``'s units; adds the unit counts to ``stats``."""
        with OBS.tracer.span("build.units", module=name):
            units, ustats = compile_module_units(
                mir, checked, self.arch, cache=self.cache, mcfi=self.mcfi)
        for key, value in ustats.items():
            stats[key] = stats.get(key, 0) + value
        return units

    def _mini_rebuild(self, state: _ModuleState, name: str, text: str,
                      stats: Dict[str, int],
                      ) -> Optional[List[UnitArtifact]]:
        """Body-local rebuild: puts each changed unit in the module's
        unit list and returns those units, or ``None`` (leaving the
        module's source, spans and units as they were) when the edit is
        structural and the caller must do a full rebuild.  Clean
        functions are never recompiled; dirty bodies go through the
        unit cache, then a compile of just those functions, checked
        against the module interface.
        ``None`` also covers every case the interface cannot answer
        exactly as a full rebuild would: a body that defines a type, a
        dirty span that is not one function definition, and a dirty
        body that fails to parse or check (the full rebuild then
        reports the error)."""
        if state.spans is None or state.local_types:
            return None
        new_spans = reindex_source(state.source, state.spans, text)
        if new_spans is None:
            return None
        dirty = diff_bodies(state.spans, new_spans)
        if dirty is None:
            return None
        if not dirty:  # only text between functions changed
            state.source = text
            state.spans = new_spans
            return []

        with OBS.tracer.span("build.mini_frontend", module=name,
                             dirty=len(dirty)):
            try:
                if state.interface is None:
                    state.interface = ModuleInterface(new_spans, name)
                checked = state.interface.check(
                    [span for span in new_spans
                     if span.kind == "func" and span.name in dirty])
                mir = self._lower(checked, name)
            except ReproError:
                return None  # a full rebuild decides, or reports
        compiled = self._compile_units(mir, checked, name, stats)
        artifacts = {unit.fn: unit for unit in compiled.units}

        units = state.units.units
        updates: List[Tuple[int, UnitArtifact]] = []
        for fn in sorted(dirty):
            artifact = artifacts[fn]
            refs = compiled.intern_refs.get(fn, [])
            old_refs = state.units.intern_refs.get(fn, [])
            if list(refs) != list(old_refs):
                return None  # string table changed shape: full rebuild
            index = next(i for i, unit in enumerate(units) if unit.fn == fn)
            if units[index].fingerprint != artifact.fingerprint:
                updates.append((index, artifact))

        for index, artifact in updates:
            units[index] = artifact
        state.source = text
        state.spans = new_spans
        return [artifact for _, artifact in updates]
