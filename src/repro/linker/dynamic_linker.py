"""MCFI dynamic linker (paper Secs. 5.2 and 6, "Static and dynamic
linking").

Implements the paper's three-step dlopen protocol:

1. **Module preparation** — load the library into unoccupied code/data
   space with the code writable but *not* executable; resolve its
   symbols; patch its Bary-index immediates (with freshly assigned
   global site numbers); then seal the pages read-only + executable
   (after optional verification).  The W^X invariant holds throughout.
2. **New CFG generation** — merge the library's auxiliary information
   into the program's, connect PLT entries "to functions with matching
   names", and regenerate the CFG/ECN assignment.
3. **ID table updates** — run an update transaction that installs the
   new IDs and rewrites the GOT entries, while other threads continue
   to execute check transactions.

In single-threaded mode the update transaction is drained inline; in
scheduled (multithreaded) mode it runs as a scheduler task concurrent
with all other threads, and the calling thread blocks until the update
completes — which is exactly the scenario the transaction design
exists for.

**Transactional loading.**  Every ``dlopen``/``dlclose`` opens a
:class:`LoadJournal` first: a snapshot of both ID tables, the linker's
allocation cursors, the GOT slots and the merged CFG state.  If the
load fails at *any* phase — symbol resolution, CFG regeneration, or
mid-way through the table update transaction (exercised by the fault
plane of :mod:`repro.faults`) — the journal rolls everything back:
the Tary and Bary tables end byte-identical to the pre-load snapshot,
the half-loaded module's pages are sealed non-executable, and the
``dlopen`` returns 0 instead of leaving a half-published policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cfg.generator import Cfg, generate_cfg
from repro.core.instrument import instrument_items
from repro.core.tables import TableSnapshot, bary_index, tary_index
from repro.core.transactions import UpdateTransaction
from repro.errors import InjectedFault, LinkError, ReproError, \
    RuntimeError_
from repro.faults.plane import NULL_PLANE, FaultPlane
from repro.isa.assembler import assemble
from repro.linker.static_linker import build_data_image, layout_data
from repro.mir.codegen import RawModule
from repro.module.auxinfo import AuxInfo, FunctionAux, merge_aux
from repro.module.module import McfiModule, build_module
from repro.obs import OBS
from repro.vm.cpu import CPU
from repro.vm.memory import CODE_LIMIT, DATA_LIMIT, PAGE_SIZE
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


class LoadJournal:
    """Pre-load snapshot of every piece of state a dlopen mutates.

    ``rollback()`` restores the ID tables byte-for-byte, the linker's
    cursors and registries, the GOT slots and the runtime's CFG — and
    seals any pages the aborted load mapped into the code region, so a
    failed load cannot leave executable-but-unpublished code behind.
    """

    def __init__(self, linker: "DynamicLinker") -> None:
        runtime = linker.runtime
        self.linker = linker
        self.phases: List[str] = []
        self.rolled_back = False
        # ID tables, byte-exact (raw bytes + version/ECN bookkeeping).
        self.tables = TableSnapshot(runtime.id_tables)
        # Linker allocation state and registries.
        self.code_cursor = linker._code_cursor
        self.data_cursor = linker._data_cursor
        self.next_site = linker._next_site
        self.next_handle = linker._next_handle
        self.loaded = dict(linker.loaded)
        self.by_name = dict(linker._by_name)
        self.merged_aux = linker._merged_aux
        # Runtime policy state and the GOT.
        self.cfg = runtime.cfg
        self.lock_owner = runtime.update_lock.owner()
        self.got = {slot: runtime.memory.host_read(slot, 8)
                    for slot in runtime.program.got_slots.values()}

    def record(self, phase: str) -> None:
        self.phases.append(phase)

    def rollback(self) -> None:
        if self.rolled_back:
            return
        if OBS.enabled:
            OBS.metrics.counter("linker.rollbacks").inc()
        linker = self.linker
        runtime = linker.runtime
        # Tables first: restoring the policy is what closes the
        # security window; everything else is bookkeeping.  The
        # snapshot's raw restore also bumps the write-generation stamp,
        # invalidating any fused-check branch IDs the dispatch plane
        # cached.
        self.tables.rollback()
        for slot, image in self.got.items():
            runtime.memory.host_write(slot, image)
        runtime.cfg = self.cfg
        # An update transaction aborted mid-flight still owns the
        # update lock; hand it back so later updates are not wedged.
        runtime.update_lock.set_owner(self.lock_owner)
        # Seal any code pages the aborted load mapped, and drop their
        # decoded-instruction cache entries.
        if linker._code_cursor > self.code_cursor:
            size = linker._code_cursor - self.code_cursor
            runtime.memory.protect(self.code_cursor, size, readable=True,
                                   writable=False, executable=False)
            for address in list(runtime.icache):
                if self.code_cursor <= address < linker._code_cursor:
                    del runtime.icache[address]
            runtime.dispatch_cache.invalidate_range(self.code_cursor,
                                                    linker._code_cursor)
        linker._code_cursor = self.code_cursor
        linker._data_cursor = self.data_cursor
        linker._next_site = self.next_site
        linker._next_handle = self.next_handle
        linker.loaded = dict(self.loaded)
        linker._by_name = dict(self.by_name)
        linker._merged_aux = self.merged_aux
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
        self._code_cursor = _page_up(program.module.limit)
        self._data_cursor = _page_up(program.data.base + program.data.size
                                     + 0x100000)  # leave heap headroom
        self._next_site = len(program.module.aux.branch_sites)
        self._base_aux: AuxInfo = program.module.aux
        self._merged_aux: AuxInfo = program.module.aux
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
                library.taken_names = set(raw.taken_names)
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
        unloaded code halts fail-safe; the code pages are then sealed
        non-executable.  (The paper covers loading only; unloading is
        the symmetric extension.)
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
            try:
                self._republish(cpu, result_for_cpu=0, journal=journal,
                                after=lambda: self._seal_unloaded(library))
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
        pages sealed non-executable.  Unlike :meth:`dlclose` this does
        not regenerate the CFG — it is the fast fail-safe path taken
        *while handling a violation*, when running another update
        transaction would be unsafe.
        """
        library = self.loaded.get(handle)
        if library is None or library.quarantined:
            return False
        if OBS.enabled:
            OBS.metrics.counter("linker.quarantines").inc()
        module = library.module
        tables = self.runtime.id_tables
        memory = tables.memory
        for address in [a for a in tables.tary_ecns
                        if module.base <= a < module.limit]:
            memory.write_tary(tary_index(address), 0)
            del tables.tary_ecns[address]
        for site in module.bary_slots:
            memory.write_bary(bary_index(site), 0)
            tables.bary_ecns.pop(site, None)
        self._seal_unloaded(library)
        library.quarantined = True
        return True

    def _seal_unloaded(self, library: LoadedLibrary) -> None:
        module = library.module
        self.runtime.memory.protect(module.base, len(module.code),
                                    readable=True, writable=False,
                                    executable=False)
        for address in list(self.runtime.icache):
            if module.base <= address < module.limit:
                del self.runtime.icache[address]
        self.runtime.dispatch_cache.invalidate_range(module.base,
                                                     module.limit)

    def _rebuild_merged(self) -> AuxInfo:
        parts = [self._strip(self._base_aux)]
        parts += [library.module.aux for library in self.loaded.values()]
        merged = merge_aux(parts)
        # dlsym-reachable library exports are conservatively
        # address-taken, and libraries may take addresses of the
        # program's functions.
        newly_taken = set()
        for library in self.loaded.values():
            newly_taken |= {fname for fname in library.module.aux.functions
                            if merged.functions[fname].exported}
            newly_taken |= library.taken_names & set(merged.functions)
        for fname in newly_taken:
            func = merged.functions[fname]
            if not func.address_taken:
                merged.functions[fname] = FunctionAux(
                    name=func.name, sig=func.sig, entry=func.entry,
                    address_taken=True, exported=func.exported,
                    module=func.module)
        return merged

    def _republish(self, cpu: Optional[CPU], result_for_cpu: int,
                   after=None, journal: Optional[LoadJournal] = None,
                   ) -> None:
        """Regenerate the CFG over the current module set and install
        it (with GOT adjustments) via an update transaction."""
        with OBS.tracer.span("linker.cfg"):
            new_aux = self._rebuild_merged()
            self.fault_plane.check("dlopen.cfg")
            plt_resolution = self._resolve_plt(new_aux)
            got_updates = self._got_updates(plt_resolution)
            # Reset GOT slots whose symbols are no longer resolved.
            for symbol, slot in self.runtime.program.got_slots.items():
                if symbol not in plt_resolution:
                    got_updates.append((slot, 0))
            cfg = generate_cfg(new_aux, plt_resolution=plt_resolution)
        if journal is not None:
            journal.record("cfg")
        transaction = UpdateTransaction(
            self.runtime.id_tables, self.runtime.update_lock,
            new_tary=cfg.tary_ecns, new_bary=cfg.bary_ecns,
            got_writer=self._write_got, got_updates=got_updates)
        self._merged_aux = new_aux
        self.runtime.cfg = cfg
        self._run_update(transaction, cpu, result_for_cpu, after=after,
                         journal=journal)

    def rebuild_tables(self) -> Dict[str, int]:
        """Reconstruct the ID tables from module metadata (recovery).

        After a table fault the stored *bytes* are untrusted, but the
        metadata that produced them is not: the program's and every
        loaded library's auxiliary info.  Rebuild the CFG from that
        metadata — exactly what a fresh load sequence would compute —
        reinstall it under a fresh update transaction (version bump +
        rewrite of every tracked word), then run a full
        :meth:`~repro.core.tables.IdTables.sweep` so forged strays in
        untracked words are zeroed too.  This is the single-process
        analogue of the service plane's quarantined-shard recovery
        (:class:`~repro.service.resilience.ResilientServiceLoop`).

        Returns ``{"repaired": .., "strays": .., "entries": ..}``.
        """
        self._drain_pending_updates()
        with OBS.tracer.span("linker.rebuild"):
            new_aux = self._rebuild_merged()
            plt_resolution = self._resolve_plt(new_aux)
            cfg = generate_cfg(new_aux, plt_resolution=plt_resolution)
            transaction = UpdateTransaction(
                self.runtime.id_tables, self.runtime.update_lock,
                new_tary=cfg.tary_ecns, new_bary=cfg.bary_ecns,
                owner="rebuild")
            for _ in transaction.run():
                pass
            self._merged_aux = new_aux
            self.runtime.cfg = cfg
            swept = self.runtime.id_tables.sweep()
        if OBS.enabled:
            OBS.metrics.counter("linker.rebuilds").inc()
        swept["entries"] = len(cfg.tary_ecns) + len(cfg.bary_ecns)
        return swept

    def dlsym(self, handle: int, symbol: str) -> int:
        library = self.loaded.get(handle)
        if library is None:
            return 0
        return library.exports.get(symbol, 0)

    # -- internals ---------------------------------------------------------------

    def _prepare_module(self, raw: RawModule) -> LoadedLibrary:
        with OBS.tracer.span("linker.prepare", library=raw.name):
            return self._prepare_module_inner(raw)

    def _prepare_module_inner(self, raw: RawModule) -> LoadedLibrary:
        runtime = self.runtime

        # Resolve imports against the program and previously loaded libs.
        known = dict(runtime.program.labels)
        for lib in self.loaded.values():
            known.update(lib.module.labels)
        missing = [imp for imp in raw.imports if imp not in known]
        if missing:
            raise LinkError(
                f"{raw.name}: unresolved imports {', '.join(missing)}")

        # A library may not define a function or export a name the
        # program or a resident library already has: the merged CFG
        # holds one entry per name.  Checked before any state changes.
        functions = set(self._base_aux.functions)
        exports = set(self._base_aux.exports)
        for lib in self.loaded.values():
            functions.update(lib.module.aux.functions)
            exports.update(lib.module.aux.exports)
        names = {meta.name for meta in raw.functions.values()}
        exported = {meta.name for meta in raw.functions.values()
                    if meta.exported}
        clashes = sorted((names & functions) | (exported & exports))
        if clashes:
            raise LinkError(
                f"{raw.name}: redefines loaded symbols {', '.join(clashes)}")

        layout = layout_data([raw], base=self._data_cursor)
        asm = instrument_items(raw)
        extern = dict(known)
        extern.update(layout.symbols)
        assembled = assemble(asm.items, base=self._code_cursor,
                             extern=extern)
        module = build_module(raw, asm, assembled,
                              site_base=self._next_site)
        self._next_site += len(asm.sites)
        if module.limit > CODE_LIMIT:
            raise RuntimeError_("code region exhausted by dlopen")
        if layout.base + layout.size > DATA_LIMIT:
            raise RuntimeError_("data region exhausted by dlopen")

        if self.verify and self.runtime.enforce:
            from repro.core.verifier import verify_module
            verify_module(module)

        # Step 1: writable but not executable while loading + patching.
        code = bytearray(module.code)
        for site, offset in module.bary_slots.items():
            code[offset:offset + 4] = (4 * site).to_bytes(4, "little")
        memory = runtime.memory
        memory.map(module.base, len(code), readable=True, writable=True)
        memory.host_write(module.base, bytes(code))
        # Seal: executable but not writable.
        memory.protect(module.base, len(code), readable=True,
                       writable=False, executable=True)
        self._code_cursor = _page_up(module.limit)

        layout.image = build_data_image([raw], layout, assembled.labels)
        memory.map(layout.base, max(layout.size, PAGE_SIZE), readable=True,
                   writable=True)
        if layout.image:
            memory.host_write(layout.base, layout.image)
        if layout.rodata_end:
            memory.protect(layout.base, layout.rodata_end, readable=True,
                           writable=False)
        self._data_cursor = _page_up(layout.base + layout.size)

        return LoadedLibrary(handle=0, name=raw.name, module=module,
                             data_base=layout.base,
                             exports=dict(module.aux.exports))

    def _resolve_plt(self, aux: AuxInfo) -> Dict[str, int]:
        resolution: Dict[str, int] = {}
        for site in aux.branch_sites:
            if site.kind == "plt" and site.plt_symbol in aux.functions:
                resolution[site.plt_symbol] = \
                    aux.functions[site.plt_symbol].entry
        return resolution

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

    @staticmethod
    def _strip(aux: AuxInfo) -> AuxInfo:
        """Shallow copy so merge does not mutate the previous aux."""
        clone = AuxInfo()
        clone.functions = dict(aux.functions)
        clone.retsites = list(aux.retsites)
        clone.branch_sites = list(aux.branch_sites)
        clone.setjmp_resumes = list(aux.setjmp_resumes)
        clone.direct_calls = list(aux.direct_calls)
        clone.data_ranges = list(aux.data_ranges)
        clone.exports = dict(aux.exports)
        clone.imports = list(aux.imports)
        return clone


def _page_up(address: int) -> int:
    return (address + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
