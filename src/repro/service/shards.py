"""Sharded Bary/Tary tables: per-shard versions and update locks.

The paper serializes every update transaction on one global update
lock and one global version counter — its admitted scalability
ceiling.  :class:`ShardedIdTables` partitions the table address space
into ``shards`` contiguous bands; each :class:`TableShard` owns

* a Tary address range ``[tary_lo, tary_hi)``,
* a Bary site range ``[site_lo, site_hi)``,
* its **own** :class:`~repro.core.tables.IdTables` bookkeeping view
  (version counter, trusted ECN assignment, ABA update counter) over
  the *shared* :class:`~repro.vm.memory.TableMemory`, and
* its **own** :class:`~repro.core.transactions.UpdateLock`.

Because a shard's ``IdTables`` holds only the entries of its bands, an
unmodified :class:`~repro.core.transactions.UpdateTransaction` run
against it is exactly a per-shard Fig. 3 update: it bumps the shard's
version, rewrites the shard's entries, and zeroes the shard's stale
entries — never touching a neighbouring shard.  Every store still goes
through ``write_tary``/``write_bary`` on the shared memory, so the
PR 5 dispatch plane's ``TableMemory.generation`` stamp keeps
invalidating fused check sequences correctly no matter which shard
committed.

**Co-residency invariant.**  IDs packed in different shards carry
different version counters, so full-ID equality (a check transaction)
is only meaningful when a branch site and its permitted targets live
in the *same* shard.  The service therefore places each tenant's
entire band — branch sites and target addresses — inside one shard
(:meth:`ShardedIdTables.place`).  :meth:`split_writes` routes each
entry to the shard that owns it and does not check the pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.tables import IdTables, TableSnapshot
from repro.core.transactions import UpdateLock
from repro.errors import RuntimeError_
from repro.vm.memory import TableMemory


class TableShard:
    """One address-range shard of the shared ID tables."""

    def __init__(self, index: int, memory: TableMemory,
                 tary_lo: int, tary_hi: int,
                 site_lo: int, site_hi: int) -> None:
        self.index = index
        self.tary_lo = tary_lo
        self.tary_hi = tary_hi
        self.site_lo = site_lo
        self.site_hi = site_hi
        #: Per-shard bookkeeping over the shared table memory: its
        #: version counter and ECN dicts cover only this shard's bands,
        #: which is what makes a stock UpdateTransaction shard-local.
        self.tables = IdTables(memory)
        self.lock = UpdateLock()
        self.commits = 0
        self.rollbacks = 0

    def owns_address(self, address: int) -> bool:
        return self.tary_lo <= address < self.tary_hi

    def owns_site(self, site: int) -> bool:
        return self.site_lo <= site < self.site_hi

    def snapshot(self) -> TableSnapshot:
        """Open a journal whose rollback restores this shard's bands
        only, byte-exactly."""
        return TableSnapshot(self.tables,
                             tary_range=(self.tary_lo, self.tary_hi),
                             site_range=(self.site_lo, self.site_hi))

    def stats(self) -> Dict[str, int]:
        out = self.tables.stats()
        out["shard"] = self.index
        out["commits"] = self.commits
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TableShard({self.index}, tary=[{self.tary_lo:#x},"
                f"{self.tary_hi:#x}), sites=[{self.site_lo},"
                f"{self.site_hi}), v{self.tables.version})")


@dataclass
class ShardDelta:
    """One shard's slice of a request's write-set."""

    set_tary: Dict[int, int]
    clear_tary: List[int]
    set_bary: Dict[int, int]
    clear_bary: List[int]

    @classmethod
    def empty(cls) -> "ShardDelta":
        return cls(set_tary={}, clear_tary=[], set_bary={},
                   clear_bary=[])

    @property
    def touched(self) -> int:
        return (len(self.set_tary) + len(self.clear_tary)
                + len(self.set_bary) + len(self.clear_bary))


class ShardedIdTables:
    """Facade over a :class:`TableMemory` partitioned into shards.

    The Tary byte range ``[0, tary_size)`` and the Bary site range
    ``[0, bary_entries)`` are each split into ``shards`` contiguous,
    equally sized bands; shard *i* owns band *i* of both.  Tenants are
    placed wholly inside one shard, so the per-shard version counters
    can advance independently without ever producing a cross-shard
    version mismatch in a check transaction.
    """

    def __init__(self, memory: Optional[TableMemory] = None,
                 shards: int = 8, bary_entries: int = 65536) -> None:
        if memory is None:
            memory = TableMemory(bary_entries=bary_entries)
        if shards < 1:
            raise RuntimeError_("shard count must be >= 1")
        if memory.tary_size // 4 < shards or \
                memory.bary_entries < shards:
            raise RuntimeError_(
                f"{shards} shards do not fit the table geometry")
        self.memory = memory
        # Band strides, 4-aligned for Tary so entries never straddle.
        self._tary_stride = (memory.tary_size // shards) & ~3
        self._site_stride = memory.bary_entries // shards
        self.shards: List[TableShard] = []
        for i in range(shards):
            tary_hi = (memory.tary_size if i == shards - 1
                       else (i + 1) * self._tary_stride)
            site_hi = (memory.bary_entries if i == shards - 1
                       else (i + 1) * self._site_stride)
            self.shards.append(TableShard(
                i, memory,
                tary_lo=i * self._tary_stride, tary_hi=tary_hi,
                site_lo=i * self._site_stride, site_hi=site_hi))

    def __len__(self) -> int:
        return len(self.shards)

    # -- placement ---------------------------------------------------------

    def shard_for_address(self, address: int) -> TableShard:
        if not 0 <= address < self.memory.tary_size:
            raise RuntimeError_(
                f"address {address:#x} outside the Tary table")
        return self.shards[min(address // self._tary_stride,
                               len(self.shards) - 1)]

    def shard_for_site(self, site: int) -> TableShard:
        if not 0 <= site < self.memory.bary_entries:
            raise RuntimeError_(f"site {site} outside the Bary table")
        return self.shards[min(site // self._site_stride,
                               len(self.shards) - 1)]

    def place(self, slot: int, tary_span: int,
              site_span: int) -> Tuple[int, int, int]:
        """Allocate tenant band ``slot`` wholly inside one shard.

        Tenants are striped round-robin across shards; within a shard,
        successive tenants stack at ``tary_span``/``site_span``
        intervals from the shard base.  Returns ``(shard_index,
        tary_base, site_base)`` or raises when the shard is full.
        """
        shard = self.shards[slot % len(self.shards)]
        level = slot // len(self.shards)
        tary_base = shard.tary_lo + level * _align4(tary_span)
        site_base = shard.site_lo + level * site_span
        if tary_base + tary_span > shard.tary_hi or \
                site_base + site_span > shard.site_hi:
            raise RuntimeError_(
                f"shard {shard.index} bands exhausted placing tenant "
                f"slot {slot}")
        return shard.index, tary_base, site_base

    # -- write-set splitting ----------------------------------------------

    def split_writes(self, set_tary: Mapping[int, int],
                     clear_tary: Iterable[int],
                     set_bary: Mapping[int, int],
                     clear_bary: Iterable[int],
                     ) -> Dict[int, ShardDelta]:
        """Partition one request's write-set into per-shard deltas.

        A single request *may* touch several shards (each slice commits
        in that shard's batched transaction), but its branch sites and
        target addresses must pairwise co-reside — the service layout
        guarantees this by construction, and a one-shard-per-request
        write-set is the common case.
        """
        out: Dict[int, ShardDelta] = {}

        def delta(shard: TableShard) -> ShardDelta:
            found = out.get(shard.index)
            if found is None:
                found = out[shard.index] = ShardDelta.empty()
            return found

        for address, ecn in set_tary.items():
            delta(self.shard_for_address(address)).set_tary[address] = ecn
        for address in clear_tary:
            delta(self.shard_for_address(address)).clear_tary.append(
                address)
        for site, ecn in set_bary.items():
            delta(self.shard_for_site(site)).set_bary[site] = ecn
        for site in clear_bary:
            delta(self.shard_for_site(site)).clear_bary.append(site)
        return out

    # -- aggregate views ---------------------------------------------------

    def permitted(self, site: int, address: int) -> bool:
        """Would a quiescent check transaction allow site -> address?

        Reads the shared memory exactly like
        :meth:`repro.core.tables.IdTables.permitted`; meaningful only
        for co-resident pairs (cross-shard IDs never compare equal).
        """
        return self.shard_for_site(site).tables.permitted(site, address)

    def versions(self) -> List[int]:
        return [shard.tables.version for shard in self.shards]

    def decoded_state(self) -> Dict[str, Dict[int, int]]:
        """Version-independent view: every installed ECN by entry.

        The canonical "workload observable" for equivalence checks:
        two table states that decode identically admit exactly the
        same set of branches once quiescent, regardless of how many
        version bumps produced them.
        """
        tary: Dict[int, int] = {}
        bary: Dict[int, int] = {}
        for shard in self.shards:
            tary.update(shard.tables.tary_ecns)
            bary.update(shard.tables.bary_ecns)
        return {"tary": tary, "bary": bary}

    def audit(self) -> Dict[str, list]:
        """Cross-shard integrity audit (fault detection)."""
        bad_tary: list = []
        bad_bary: list = []
        for shard in self.shards:
            findings = shard.tables.audit()
            bad_tary.extend(findings["tary"])
            bad_bary.extend(findings["bary"])
        return {"tary": bad_tary, "bary": bad_bary}

    def stats(self) -> Dict[str, int]:
        out = {"shards": len(self.shards), "targets": 0,
               "branch_sites": 0, "commits": 0}
        for shard in self.shards:
            stats = shard.stats()
            out["targets"] += stats["targets"]
            out["branch_sites"] += stats["branch_sites"]
            out["commits"] += stats["commits"]
        return out


def _align4(value: int) -> int:
    return (value + 3) & ~3
