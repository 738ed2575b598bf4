"""MCFI dynamic linker (paper Secs. 5.2 and 6, "Static and dynamic
linking").

Implements the paper's three-step dlopen protocol:

1. **Module preparation** — resolve the library's symbols, lay it out
   at the runtime's code cursor and below its lowest library data, and
   number its branch sites globally; the runtime's
   :meth:`~repro.runtime.runtime.Runtime.map_module` then maps it
   exactly as it mapped the program (optionally verified, written
   while writable but *not* executable, Bary-index immediates patched,
   sealed read-only + executable).  The W^X invariant holds throughout.
2. **New CFG generation** — extend the program's CFG generation by
   every resident library's facts (the "simple union" of their
   auxiliary information), connect PLT entries "to functions with
   matching names", and number the new CFG/ECN assignment.
3. **ID table updates** — run an update transaction that installs the
   new IDs and rewrites the GOT entries, while other threads continue
   to execute check transactions.

In single-threaded mode the update transaction is drained inline; in
scheduled (multithreaded) mode it runs as a scheduler task concurrent
with all other threads, and the calling thread blocks until the update
completes — which is exactly the scenario the transaction design
exists for.

**Transactional loading.**  Every ``dlopen``/``dlclose`` opens a
:class:`LoadJournal` first: an undo log over both ID tables, the
runtime's layout (code cursor and library-data floor), the GOT slots
and the runtime's CFG.  If the load fails at *any* phase — symbol
resolution, CFG regeneration, or mid-way through the table update
transaction (exercised by the fault plane of :mod:`repro.faults`) —
the journal rolls everything back: the Tary and Bary tables end
byte-identical to their state before the load, the half-loaded
module's code is retired, and the ``dlopen`` returns 0 instead of
leaving a half-published policy.  Once the update seals, the journal
commits and its log closes.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cfg.generator import Cfg, CfgBase, CfgFragment
from repro.core.instrument import instrument_items
from repro.core.tables import TableSnapshot
from repro.core.transactions import UpdateTransaction
from repro.errors import InjectedFault, LinkError, ReproError
from repro.faults.plane import NULL_PLANE, FaultPlane
from repro.isa.assembler import assemble
from repro.linker.static_linker import build_data_image, layout_data
from repro.mir.codegen import RawModule
from repro.module.module import McfiModule, build_module
from repro.obs import OBS
from repro.vm.cpu import CPU
from repro.vm.scheduler import GeneratorTask


@dataclass
class LoadedLibrary:
    handle: int
    name: str
    module: McfiModule
    data_base: int
    exports: Dict[str, int] = field(default_factory=dict)
    taken_names: set = field(default_factory=set)
    quarantined: bool = False
    #: the library's facts for every CFG generation while it is resident
    fragment: Optional[CfgFragment] = None


class LoadJournal:
    """Pre-load record of every piece of state a dlopen mutates.

    The ID tables are journaled by a :class:`TableSnapshot` undo log,
    which records the old bytes of each table word the load stores to;
    everything else is copied at open.  ``rollback()`` restores the ID
    tables byte-for-byte, the linker's registries, the GOT slots and
    the runtime's CFG, and rewinds the runtime's layout — which retires
    any code the aborted load mapped, so a failed load cannot leave
    executable-but-unpublished code behind.  ``commit()`` closes the
    table log once the update has sealed.
    """

    def __init__(self, linker: "DynamicLinker") -> None:
        runtime = linker.runtime
        self.linker = linker
        self.phases: List[str] = []
        self.rolled_back = False
        # ID tables: an undo log plus the version/ECN bookkeeping.
        self.tables = TableSnapshot(runtime.id_tables)
        # The runtime's layout, then the linker's registries.
        self.layout = (runtime.code_cursor, runtime.data_floor)
        self.next_site = linker._next_site
        self.next_handle = linker._next_handle
        self.loaded = dict(linker.loaded)
        self.by_name = dict(linker._by_name)
        # Runtime policy state and the GOT.
        self.cfg = runtime.cfg
        self.lock_owner = runtime.update_lock.owner()
        self.got = {slot: runtime.memory.host_read(slot, 8)
                    for slot in runtime.program.got_slots.values()}

    def record(self, phase: str) -> None:
        self.phases.append(phase)

    def commit(self) -> None:
        """The load sealed: stop journaling the tables."""
        self.tables.commit()

    def rollback(self) -> None:
        if self.rolled_back:
            return
        if OBS.enabled:
            OBS.metrics.counter("linker.rollbacks").inc()
        linker = self.linker
        runtime = linker.runtime
        # Tables first: restoring the policy is what closes the
        # security window; everything else is bookkeeping.  The
        # journal's raw restore also bumps the write-generation stamp,
        # invalidating any fused-check branch IDs the dispatch plane
        # cached.
        self.tables.rollback()
        for slot, image in self.got.items():
            runtime.memory.host_write(slot, image)
        runtime.cfg = self.cfg
        # An update transaction aborted mid-flight still owns the
        # update lock; hand it back so later updates are not wedged.
        runtime.update_lock.set_owner(self.lock_owner)
        runtime.rewind(*self.layout)
        linker._next_site = self.next_site
        linker._next_handle = self.next_handle
        linker.loaded = dict(self.loaded)
        linker._by_name = dict(self.by_name)
        self.rolled_back = True


class DynamicLinker:
    """Loads registered libraries into a running :class:`Runtime`."""

    def __init__(self, runtime, verify: bool = True,
                 fault_plane: FaultPlane = NULL_PLANE) -> None:
        self.runtime = runtime
        #: verify-before-link: every dlopened module must pass the
        #: binary verifier before any of its bytes are mapped (on by
        #: default; applies only when the runtime enforces MCFI, since
        #: native modules cannot verify).  This is the trust boundary
        #: the tenant service inherits — an unverifiable tenant module
        #: is rejected before it can reach the tables.
        self.verify = verify
        self.fault_plane = fault_plane
        self.registry: Dict[str, RawModule] = {}
        self.loaded: Dict[int, LoadedLibrary] = {}
        self._by_name: Dict[str, int] = {}
        self._next_handle = 1
        program = runtime.program
        self._next_site = len(program.module.aux.branch_sites)
        #: the program's part of every CFG generation, built once
        self._cfg_base = CfgBase(program.module.aux)
        self.last_journal: Optional[LoadJournal] = None
        #: Update-transaction tasks queued on the scheduler but not yet
        #: finished.  A new dlopen/dlclose drains these before taking
        #: its own journal snapshot, so republishes are serialized (see
        #: :meth:`_drain_pending_updates`).
        self._inflight: List[GeneratorTask] = []
        runtime.dynamic_linker = self

    def register(self, name: str, raw: RawModule) -> None:
        """Make a compiled library available to dlopen by name."""
        if raw.arch != self.runtime.program.arch:
            raise LinkError(f"library {name!r} has the wrong architecture")
        self.registry[name] = raw

    # -- dlopen -----------------------------------------------------------------

    def dlopen(self, name: str, cpu: Optional[CPU] = None) -> int:
        if name in self._by_name:
            return self._by_name[name]
        raw = self.registry.get(name)
        if raw is None:
            return 0
        self._drain_pending_updates()

        with OBS.tracer.span("linker.dlopen", library=name) as span:
            journal = LoadJournal(self)
            self.last_journal = journal
            try:
                library = self._prepare_module(raw)
                journal.record("prepare")
                self.fault_plane.check("dlopen.prepare", detail=name)
                handle = self._next_handle
                self._next_handle += 1
                library.handle = handle
                self.loaded[handle] = library
                self._by_name[name] = handle

                self._republish(cpu, result_for_cpu=handle,
                                journal=journal)
            except InjectedFault:
                # Recoverable load failure: restore the pre-load
                # snapshot and report failure via the return value.
                journal.rollback()
                span.set(status="rolled-back")
                return 0
            except ReproError:
                # Unrecoverable (bad library, exhausted regions): still
                # roll the tables back before propagating.
                journal.rollback()
                span.set(status="error")
                raise
            span.set(status="ok", handle=handle)
            if OBS.enabled:
                OBS.metrics.counter("linker.dlopens").inc()
            return handle

    def dlclose(self, handle: int, cpu: Optional[CPU] = None) -> int:
        """Unload a library: regenerate the CFG without it and publish
        the shrunk policy with an update transaction.

        The update zeroes the library's Tary entries and Bary sites and
        resets GOT entries it resolved, so any dangling pointer into the
        unloaded code halts fail-safe; the runtime then retires the
        code.  (The paper covers loading only; unloading is the
        symmetric extension.)
        """
        if handle not in self.loaded:
            return -1
        self._drain_pending_updates()
        if handle not in self.loaded:
            # The drained update was a concurrent dlclose of this very
            # handle; nothing left to unload.
            return -1
        with OBS.tracer.span("linker.dlclose") as span:
            journal = LoadJournal(self)
            self.last_journal = journal
            library = self.loaded.pop(handle)
            self._by_name.pop(library.name, None)
            span.set(library=library.name)
            module = library.module
            try:
                self._republish(cpu, result_for_cpu=0, journal=journal,
                                after=lambda: self.runtime.retire_code(
                                    module.base, module.limit))
            except InjectedFault:
                journal.rollback()
                span.set(status="rolled-back")
                return -1
            except ReproError:
                journal.rollback()
                span.set(status="error")
                raise
            span.set(status="ok")
            if OBS.enabled:
                OBS.metrics.counter("linker.dlcloses").inc()
            return 0

    def quarantine(self, handle: int) -> bool:
        """Retire a loaded library without a full republish.

        Used by the runtime's ``quarantine-module`` violation policy:
        the library's Tary entries and Bary sites are zeroed directly
        (every transfer into or out of it now halts fail-safe) and its
        code retired.  Unlike :meth:`dlclose` this does not regenerate
        the CFG — it is the fast fail-safe path taken *while handling a
        violation*, when running another update transaction would be
        unsafe.  Later generations leave the library out: its code gets
        no IDs, its exports resolve no PLT or import, and GOT slots it
        resolved are reset at the next republish.
        """
        library = self.loaded.get(handle)
        if library is None or library.quarantined:
            return False
        if OBS.enabled:
            OBS.metrics.counter("linker.quarantines").inc()
        module = library.module
        tables = self.runtime.id_tables
        tables.clear_targets([a for a in tables.tary_ecns
                              if module.base <= a < module.limit])
        tables.clear_sites(module.bary_slots)
        self.runtime.retire_code(module.base, module.limit)
        library.quarantined = True
        return True

    def _republish(self, cpu: Optional[CPU], result_for_cpu: int,
                   after=None, journal: Optional[LoadJournal] = None,
                   ) -> None:
        """Regenerate the CFG over the current module set and install
        it (with GOT adjustments) via an update transaction."""
        with OBS.tracer.span("linker.cfg"):
            self.fault_plane.check("dlopen.cfg")
            plt_resolution, cfg = self._generate_cfg()
            got_updates = self._got_updates(plt_resolution)
            # Reset GOT slots whose symbols are no longer resolved.
            for symbol, slot in self.runtime.program.got_slots.items():
                if symbol not in plt_resolution:
                    got_updates.append((slot, 0))
        if journal is not None:
            journal.record("cfg")
        transaction = UpdateTransaction(
            self.runtime.id_tables, self.runtime.update_lock,
            new_tary=cfg.tary_ecns, new_bary=cfg.bary_ecns,
            got_writer=self._write_got, got_updates=got_updates)
        self.runtime.cfg = cfg
        self._run_update(transaction, cpu, result_for_cpu, after=after,
                         journal=journal)

    def _generate_cfg(self) -> Tuple[Dict[str, int], Cfg]:
        """The PLT resolution over the current module set, and the CFG:
        the program's generation extended by every live library's
        fragment, in load order.  A quarantined library stays out, so
        no later generation republishes IDs for its retired code."""
        fragments = [library.fragment for library in self._live()]
        plt_resolution = self._resolve_plt(fragments)
        return plt_resolution, self._cfg_base.generate(fragments,
                                                       plt_resolution)

    def dlsym(self, handle: int, symbol: str) -> int:
        library = self.loaded.get(handle)
        if library is None:
            return 0
        return library.exports.get(symbol, 0)

    # -- internals ---------------------------------------------------------------

    def _live(self) -> List[LoadedLibrary]:
        """The resident libraries not quarantined, in load order."""
        return [library for library in self.loaded.values()
                if not library.quarantined]

    def _prepare_module(self, raw: RawModule) -> LoadedLibrary:
        with OBS.tracer.span("linker.prepare", library=raw.name):
            return self._prepare_module_inner(raw)

    def _prepare_module_inner(self, raw: RawModule) -> LoadedLibrary:
        runtime = self.runtime

        # Resolve imports against the program and the live libraries.
        known = dict(runtime.program.labels)
        for lib in self._live():
            known.update(lib.module.labels)
        missing = [imp for imp in raw.imports if imp not in known]
        if missing:
            raise LinkError(
                f"{raw.name}: unresolved imports {', '.join(missing)}")

        # A library may not define a function or export a name the
        # program or a live library already has: the merged CFG holds
        # one entry per name, and a quarantined library is in no
        # generation.  Checked before any state changes.
        functions = set(self._cfg_base.aux.functions)
        exports = set(self._cfg_base.aux.exports)
        for lib in self._live():
            functions.update(lib.module.aux.functions)
            exports.update(lib.module.aux.exports)
        names = {meta.name for meta in raw.functions.values()}
        exported = {meta.name for meta in raw.functions.values()
                    if meta.exported}
        clashes = sorted((names & functions) | (exported & exports))
        if clashes:
            raise LinkError(
                f"{raw.name}: redefines loaded symbols {', '.join(clashes)}")

        # The data size does not depend on its base, so one dry layout
        # tells the runtime how much to reserve.
        layout = layout_data(
            [raw], base=runtime.reserve_data(layout_data([raw]).size))
        asm = instrument_items(raw)
        extern = dict(known)
        extern.update(layout.symbols)
        assembled = assemble(asm.items, base=runtime.code_cursor,
                             extern=extern)
        module = build_module(raw, asm, assembled,
                              site_base=self._next_site)
        self._next_site += len(asm.sites)
        layout.image = build_data_image([raw], layout, assembled.labels)
        runtime.map_module(module, layout, verify=self.verify)
        return LoadedLibrary(handle=0, name=raw.name, module=module,
                             data_base=layout.base,
                             exports=dict(module.aux.exports),
                             taken_names=set(raw.taken_names),
                             fragment=CfgFragment(module.aux,
                                                  raw.taken_names))

    def _resolve_plt(self, fragments: List[CfgFragment]) -> Dict[str, int]:
        """Each PLT symbol of a resident module that a resident module
        defines, mapped to its entry, in site order."""
        base = self._cfg_base
        defined = ChainMap(base.aux.functions,
                           *(fragment.functions for fragment in fragments))
        symbols = base.plt_symbols + [symbol for fragment in fragments
                                      for symbol in fragment.plt_symbols]
        return {symbol: defined[symbol].entry for symbol in symbols
                if symbol in defined}

    def _got_updates(self, plt_resolution: Dict[str, int]):
        got_slots = self.runtime.program.got_slots
        return [(got_slots[sym], address)
                for sym, address in plt_resolution.items()
                if sym in got_slots]

    def _write_got(self, address: int, value: int) -> None:
        self.fault_plane.check("dlopen.got", detail=f"slot {address:#x}")
        self.runtime.memory.host_write(
            address, value.to_bytes(8, "little"))

    def _update_steps(self, transaction: UpdateTransaction,
                      journal: Optional[LoadJournal]):
        """Drive the update transaction with per-step fault checks."""
        span = OBS.tracer.begin("linker.update")
        try:
            for _ in transaction.run():
                self.fault_plane.check("dlopen.update")
                yield
            if journal is not None:
                journal.record("update")
            self.fault_plane.check("dlopen.seal")
            if journal is not None:
                journal.record("seal")
                journal.commit()
        finally:
            span.end(completed=transaction.completed)

    def _drain_pending_updates(self) -> None:
        """Complete any in-flight update transaction before a new load.

        In scheduled mode an update transaction runs as a scheduler
        task concurrent with application threads.  If a second thread
        reaches dlopen/dlclose while one is still in flight, the two
        republishes would race: both journals would snapshot
        mid-update table state, both would regenerate a CFG from a
        module set the other is about to change, and the last update
        to run would silently win — leaving ``runtime.cfg`` and the ID
        tables describing different module sets (and, after a rolled
        back load, possibly a wedged update lock restored from a stale
        ownership snapshot).  Draining the pending update first makes
        republishes strictly serial: the drain happens inside the
        caller's (atomic) syscall step, so to every application thread
        it is indistinguishable from the update having won the race.
        """
        while self._inflight:
            task = self._inflight.pop(0)
            if not task.alive:
                continue
            try:
                while True:
                    next(task.generator)
            except StopIteration:
                task.alive = False

    def _run_update(self, transaction: UpdateTransaction,
                    cpu: Optional[CPU], result: int,
                    after=None, journal: Optional[LoadJournal] = None,
                    ) -> None:
        runtime = self.runtime
        scheduler = runtime._scheduler
        if scheduler is None:
            for _ in self._update_steps(transaction, journal):
                pass
            if after is not None:
                after()
            return
        # Concurrent mode: the calling thread blocks; every other thread
        # keeps running check transactions against the tables mid-update.
        task = runtime._tasks_by_cpu.get(id(cpu)) if cpu is not None else None
        if task is not None:
            task.waiting = True

        def update_then_wake():
            try:
                yield from self._update_steps(transaction, journal)
            except InjectedFault:
                # Mid-update failure in concurrent mode: roll back to
                # the pre-load snapshot and report failure to the
                # blocked caller instead of tearing the policy.
                if journal is not None:
                    journal.rollback()
                if task is not None:
                    if cpu is not None:
                        cpu.regs[0] = 0
                    task.waiting = False
                return
            except ReproError:
                if journal is not None:
                    journal.rollback()
                raise
            if after is not None:
                after()
            if task is not None:
                if cpu is not None:
                    cpu.regs[0] = result  # RAX: the syscall's return value
                task.waiting = False

        task_obj = GeneratorTask(update_then_wake(), name="dlupdate")
        scheduler.add(task_obj)
        self._inflight.append(task_obj)
