"""High-level view over the Bary/Tary ID tables (paper Sec. 5.1).

The raw storage is :class:`repro.vm.memory.TableMemory`; this module
adds the MCFI semantics:

* **Tary** maps a code address to the ID of the equivalence class the
  address belongs to.  It is a dense array indexed by code address
  (identity mapping), with entries only at 4-byte-aligned addresses —
  the space optimization that motivates the alignment no-ops.
* **Bary** maps an indirect-branch *site number* to the branch's ID.
  Site numbers are assigned by the loader, which patches each branch's
  ``tload`` immediate with ``4 * site`` (the "constant Bary table
  indexes" of the paper).

Writes go through :class:`repro.core.transactions.UpdateTransaction`
during dynamic linking; the direct ``install_*`` methods here are for
initial load, before any application thread runs.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

from repro.core.idencoding import (
    INVALID_ID,
    is_valid_id,
    pack_id,
    unpack_id,
)
from repro.errors import RuntimeError_
from repro.vm.memory import TableMemory


def tary_index(address: int) -> int:
    """Tary byte index for a code address (identity; must be 4-aligned)."""
    if address % 4:
        raise RuntimeError_(
            f"indirect-branch target {address:#x} is not 4-byte aligned")
    return address


def bary_index(site: int) -> int:
    """Bary byte index for a branch site number."""
    return 4 * site


class IdTables:
    """Typed accessors over a :class:`TableMemory`.

    Tracks the global version number and the currently-installed ECN
    assignment so update transactions can be generated from a new CFG.
    """

    def __init__(self, tables: TableMemory) -> None:
        self.memory = tables
        self.version = 0
        #: Current ECN of every permitted target address.
        self.tary_ecns: Dict[int, int] = {}
        #: Current ECN of every branch site.
        self.bary_ecns: Dict[int, int] = {}
        #: ABA mitigation (paper Sec. 5.2): update transactions executed
        #: since the last quiescence reset.  Security is violated only
        #: if 2^14 updates complete *during one check transaction*, so
        #: the counter may be reset whenever every thread has been
        #: observed outside a check (e.g. at a system call).
        self.updates_since_reset = 0

    def note_update(self) -> None:
        from repro.core.idencoding import MAX_VERSION
        from repro.errors import RuntimeError_
        if self.updates_since_reset + 1 >= MAX_VERSION:
            raise RuntimeError_(
                "ID version space exhausted before a quiescence reset "
                "(the ABA hazard of Sec. 5.2); a reset requires every "
                "thread to pass a quiescent point")
        self.updates_since_reset += 1
        # Invalidate any fused fast paths in the dispatch plane: the
        # tables just changed under a completed update transaction.
        self.memory.generation += 1

    def aba_reset(self) -> None:
        """Reset the update counter (caller observed quiescence)."""
        self.updates_since_reset = 0

    # -- initial installation (program load, single-threaded) -------------

    def install(self, tary_ecns: Mapping[int, int],
                bary_ecns: Mapping[int, int],
                version: Optional[int] = None) -> None:
        """Install a complete ID assignment non-transactionally.

        Only valid before application threads start (initial load).
        """
        if version is not None:
            self.version = version
        self.memory.store_tary((tary_index(address),
                                pack_id(ecn, self.version))
                               for address, ecn in tary_ecns.items())
        self.memory.store_bary((bary_index(site), pack_id(ecn, self.version))
                               for site, ecn in bary_ecns.items())
        self.tary_ecns = dict(tary_ecns)
        self.bary_ecns = dict(bary_ecns)

    # -- reads (used by tests, the Python-level check, and diagnostics) ---

    def target_id(self, address: int) -> int:
        return self.memory.read_tary(address)

    def branch_id(self, site: int) -> int:
        return self.memory.read_bary(bary_index(site))

    def target_ecn(self, address: int) -> Optional[int]:
        """Decoded ECN of a target address, or None if not a target."""
        ident = self.memory.read_tary(tary_index(address))
        if not is_valid_id(ident):
            return None
        return unpack_id(ident).ecn

    def permitted(self, site: int, address: int) -> bool:
        """Would a (quiescent) check transaction allow site -> address?"""
        if address % 4:
            return False
        try:
            target = self.memory.read_tary(address)
        except Exception:
            return False
        branch = self.branch_id(site)
        return is_valid_id(target) and target == branch

    # -- integrity audit (fault detection and repair) ----------------------

    def audit(self) -> Dict[str, list]:
        """Compare stored table words against the trusted assignment.

        The ``tary_ecns``/``bary_ecns`` dicts are runtime-private state
        the sandbox can never reach, so they serve as ground truth: any
        stored ID that disagrees with ``pack_id(ecn, version)`` has been
        corrupted (a fault, not an update — updates rewrite both).
        Returns the corrupted entries per table without modifying them.
        """
        expected_version = self.version
        bad_tary = []
        for address, ecn in self.tary_ecns.items():
            want = pack_id(ecn, expected_version)
            got = self.memory.read_tary(tary_index(address))
            if got != want:
                bad_tary.append((address, got, want))
        bad_bary = []
        for site, ecn in self.bary_ecns.items():
            want = pack_id(ecn, expected_version)
            got = self.memory.read_bary(bary_index(site))
            if got != want:
                bad_bary.append((site, got, want))
        return {"tary": bad_tary, "bary": bad_bary}

    def scrub(self) -> int:
        """Audit and repair: rewrite every corrupted entry in place.

        Returns the number of entries repaired.  Must only run from the
        trusted runtime while no update transaction is in flight (the
        audit compares against the *current* version).
        """
        findings = self.audit()
        for address, _, want in findings["tary"]:
            self.memory.write_tary(tary_index(address), want)
        for site, _, want in findings["bary"]:
            self.memory.write_bary(bary_index(site), want)
        return len(findings["tary"]) + len(findings["bary"])

    def sweep(self, tary_range: Optional[tuple] = None,
              site_range: Optional[tuple] = None) -> Dict[str, int]:
        """Full-band sweep: repair trusted entries **and** zero strays.

        :meth:`scrub` can only fix words the trusted assignment knows
        about; a fault that forged a plausible ID into an *untracked*
        slot (a stray) is invisible to it.  The sweep walks every
        4-aligned word of the given Tary byte range and Bary site range
        and forces each one to its only legitimate value: the packed
        trusted ID for tracked entries, ``INVALID_ID`` for everything
        else.  After a sweep the band is byte-identical to what a fresh
        rebuild from the trusted assignment would produce — the
        parity-checked scrub pass shard recovery runs before a
        quarantined shard rejoins service.

        Returns ``{"repaired": tracked words rewritten, "strays":
        untracked words zeroed}``.  Trusted-runtime only, tables
        quiescent (same contract as :meth:`scrub`).
        """
        memory = self.memory
        tary_lo, tary_hi = tary_range or (0, memory.tary_size)
        site_lo, site_hi = site_range or (0, memory.bary_entries)
        tary_lo = (tary_lo + 3) & ~3
        repaired = 0
        # Pass 1: every tracked entry holds its packed trusted ID.
        for address, ecn in self.tary_ecns.items():
            if tary_lo <= address < tary_hi:
                want = pack_id(ecn, self.version)
                if memory.read_tary(address) != want:
                    memory.write_tary(address, want)
                    repaired += 1
        for site, ecn in self.bary_ecns.items():
            if site_lo <= site < site_hi:
                want = pack_id(ecn, self.version)
                if memory.read_bary(bary_index(site)) != want:
                    memory.write_bary(bary_index(site), want)
                    repaired += 1
        # Pass 2: every *untracked* word is INVALID_ID.  The bands are
        # sparse (almost all zeros), so skip all-zero chunks at C speed
        # and word-walk only the dirty ones.
        strays = self._zero_strays(
            memory.tary, tary_lo, tary_hi & ~3,
            tracked=self.tary_ecns, write=memory.write_tary)
        strays += self._zero_strays(
            memory.bary, bary_index(site_lo), bary_index(site_hi),
            tracked={bary_index(site) for site in self.bary_ecns},
            write=memory.write_bary)
        return {"repaired": repaired, "strays": strays}

    @staticmethod
    def _zero_strays(buf: bytearray, lo: int, hi: int, tracked,
                     write) -> int:
        zeroed = 0
        chunk = 4096
        for base in range(lo, hi, chunk):
            end = min(hi, base + chunk)
            if buf[base:end].count(0) == end - base:
                continue
            for offset in range(base, end, 4):
                if buf[offset:offset + 4] == b"\x00\x00\x00\x00" or \
                        offset in tracked:
                    continue
                write(offset, INVALID_ID)
                zeroed += 1
        return zeroed

    # -- bookkeeping --------------------------------------------------------

    def clear_targets(self, addresses: Iterable[int]) -> None:
        """Zero Tary entries (e.g. when unloading a module)."""
        for address in addresses:
            self.memory.write_tary(tary_index(address), INVALID_ID)
            self.tary_ecns.pop(address, None)

    def clear_sites(self, sites: Iterable[int]) -> None:
        """Zero Bary entries (e.g. when quarantining a module)."""
        for site in sites:
            self.memory.write_bary(bary_index(site), INVALID_ID)
            self.bary_ecns.pop(site, None)

    def stats(self) -> Dict[str, int]:
        ecns = set(self.tary_ecns.values())
        return {
            "targets": len(self.tary_ecns),
            "branch_sites": len(self.bary_ecns),
            "equivalence_classes": len(ecns),
            "version": self.version,
        }


class TableSnapshot:
    """Undo journal over an :class:`IdTables` window, for rollback.

    Opening it records the bookkeeping that must stay consistent with
    the table bytes (the version, the trusted ECN assignments and the
    ABA update counter) and opens an undo log on the
    :class:`~repro.vm.memory.TableMemory`.  It copies no table bytes:
    while the log is open, the first privileged store to each 4-byte
    word records that word's old bytes, whoever makes the store.  Every
    table mutation goes through ``write_tary``/``write_bary`` or their
    batched forms, so the log holds the old bytes of every word that
    changed since the journal opened.

    ``rollback()`` closes the log and writes back the recorded words
    inside the window (the whole tables by default, or a
    ``tary_range``/``site_range`` window for a shard), so the window
    ends byte-identical to what it held at open.  It then restores the
    bookkeeping and bumps the write-generation stamp by hand, because
    the raw restore bypasses the stores: any branch ID the dispatch
    plane's fused check transactions cached is stale after a rollback.
    ``commit()`` closes the log and keeps the tables as they are.

    At most one journal is open on a memory at a time; opening a second
    raises :class:`~repro.errors.RuntimeError_`.  Used by the dynamic
    linker's :class:`LoadJournal` (whole-table window) and by the table
    service's per-shard commit path (shard-band window).
    """

    def __init__(self, tables: IdTables,
                 tary_range: Optional[tuple] = None,
                 site_range: Optional[tuple] = None) -> None:
        memory = tables.memory
        if memory.undo is not None:
            raise RuntimeError_("a table journal is already open")
        self.tables = tables
        self.tary_range = tary_range or (0, memory.tary_size)
        site_range = site_range or (0, memory.bary_entries)
        self.bary_range = (bary_index(site_range[0]),
                           bary_index(site_range[1]))
        self.version = tables.version
        self.tary_ecns = dict(tables.tary_ecns)
        self.bary_ecns = dict(tables.bary_ecns)
        self.updates_since_reset = tables.updates_since_reset
        self.log = memory.undo = ({}, {})

    @property
    def open(self) -> bool:
        return self.tables.memory.undo is self.log

    def commit(self) -> None:
        """Close the log, keeping every store made since the open."""
        if self.open:
            self.tables.memory.undo = None

    def rollback(self) -> None:
        if not self.open:
            raise RuntimeError_("rollback of a closed table journal")
        tables = self.tables
        memory = tables.memory
        memory.undo = None
        for table, log, (lo, hi) in ((memory.tary, self.log[0],
                                      self.tary_range),
                                     (memory.bary, self.log[1],
                                      self.bary_range)):
            for index, old in log.items():
                if lo <= index < hi:
                    table[index:index + 4] = old
        memory.generation += 1
        tables.version = self.version
        tables.tary_ecns = dict(self.tary_ecns)
        tables.bary_ecns = dict(self.bary_ecns)
        tables.updates_since_reset = self.updates_since_reset
