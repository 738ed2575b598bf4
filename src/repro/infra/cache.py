"""Content-addressed artifact cache: compile and instrument once.

The paper's headline property — modules are instrumented once and
reused across programs (Sec. 1) — is exactly what an experiment
campaign wants: every function of the twelve SPEC-shaped workloads and
of simlibc is compiled to a unit *once per compile configuration*,
linked images and deterministic run outcomes are memoized per program,
and every artifact (Fig. 5/6, Table 3, AIR, gadgets, ...) and every
parallel worker reuses them from disk.  Three entry kinds:

* ``units/`` — function-grain build units keyed by their fingerprint
  (``repro.build.fingerprint.unit_fingerprint``);
* ``programs/`` — linked images keyed by the module source digests,
  architecture mode, MCFI flag and prelude digest;
* ``runs/`` — deterministic run outcomes keyed by their program key.

Keys are SHA-256 over the canonical JSON of the entry's provenance plus
a compiler/linker tag (bumped on codegen-affecting changes).  A source
edit, an arch flip or a toolchain upgrade therefore *cannot* hit a
stale entry — the key changes.  Entry integrity is separately verified
on read (a SHA-256 frame around every entry); a corrupted entry is
evicted and counted, and the read degrades to a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.linker.static_linker import LinkedProgram
from repro.runtime.runtime import RunResult

#: Bump when codegen/linker output changes shape: invalidates every key.
TOOLCHAIN_TAG = "simcc-2"

_PROGRAM_DIGEST_BYTES = 32


def source_digest(source: str) -> str:
    """Stable digest of one module's source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache (or an aggregate of many)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {"cache_hits": self.hits, "cache_misses": self.misses,
                "cache_stores": self.stores,
                "cache_evictions": self.evictions,
                "cache_hit_rate": round(self.hit_rate, 4)}

    def add(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.evictions += other.evictions

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        return CacheStats(hits=self.hits - earlier.hits,
                          misses=self.misses - earlier.misses,
                          stores=self.stores - earlier.stores,
                          evictions=self.evictions - earlier.evictions)

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.stores,
                          self.evictions)


@dataclass
class ArtifactCache:
    """On-disk store of build units, linked programs and run outcomes."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)
    #: total on-disk budget in MiB; ``None`` = unbounded.  When a store
    #: pushes the cache over budget, least-recently-used entries (by
    #: mtime, refreshed on hit) are evicted until it fits.
    max_mb: Optional[float] = None

    SUBDIRS = ("programs", "runs", "units")

    def __post_init__(self):
        self.root = Path(self.root)
        for sub in self.SUBDIRS:
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    # -- keys --------------------------------------------------------

    @staticmethod
    def _key(parts: Dict[str, Any]) -> str:
        canonical = json.dumps(parts, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def program_key(self, arch: str, mcfi: bool,
                    sources: Dict[str, str]) -> str:
        """Key of a linked image: its modules' names and source digests
        in link order, the compile configuration, and the digest of the
        builtin prelude the modules are compiled against, which shapes
        typechecking just as the sources do."""
        # Lazy import: repro.build's own imports reach back into here.
        from repro.build.fingerprint import prelude_digest
        return self._key({
            "kind": "program",
            "arch": arch,
            "mcfi": mcfi,
            "modules": [[name, source_digest(text)]
                        for name, text in sources.items()],
            "prelude": prelude_digest(),
            "toolchain": TOOLCHAIN_TAG,
        })

    # -- framed pickle entries (programs, run results) ---------------

    def _get_framed(self, path: Path, expected_cls: type,
                    valid=None) -> Optional[Any]:
        """Read a digest-framed pickled entry; evict anything wrong
        (bad frame, foreign payload, or an entry ``valid`` rejects)."""
        if not path.exists():
            self.stats.misses += 1
            return None
        blob = path.read_bytes()
        digest = blob[:_PROGRAM_DIGEST_BYTES]
        payload = blob[_PROGRAM_DIGEST_BYTES:]
        if hashlib.sha256(payload).digest() != digest:
            self._evict(path)
            self.stats.misses += 1
            return None
        try:
            entry = pickle.loads(payload)
        except Exception:  # noqa: BLE001 — corrupt pickle == corrupt entry
            self._evict(path)
            self.stats.misses += 1
            return None
        if not isinstance(entry, expected_cls) or \
                (valid is not None and not valid(entry)):
            self._evict(path)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._touch(path)
        return entry

    def _put_framed(self, path: Path, entry: Any) -> Path:
        payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        path.write_bytes(hashlib.sha256(payload).digest() + payload)
        self.stats.stores += 1
        self._enforce_budget()
        return path

    # -- linked programs ---------------------------------------------

    def _program_path(self, key: str) -> Path:
        return self.root / "programs" / f"{key}.img"

    def get_program(self, key: str) -> Optional[LinkedProgram]:
        return self._get_framed(self._program_path(key), LinkedProgram)

    def put_program(self, key: str, program: LinkedProgram) -> Path:
        return self._put_framed(self._program_path(key), program)

    # -- deterministic run results -----------------------------------
    #
    # The SimVM is fully deterministic: a plain (unscheduled,
    # attacker-free) run's outcome is a pure function of the linked
    # image.  Memoizing it is what makes a warm-cache fig5 campaign
    # fast — the model *cycles* are what the artifact reports, and
    # those are identical whether re-simulated or replayed.

    #: Bump when the pickled RunResult schema changes shape, so stale
    #: cache entries from an older layout are never unpickled into the
    #: new dataclass (the ``obs`` field arrived in schema 2,
    #: ``tx_checks`` in schema 3).
    RUN_SCHEMA = 3

    def run_key(self, program_key: str, **params: Any) -> str:
        return self._key({"kind": "run", "program": program_key,
                          "params": dict(sorted(params.items())),
                          "schema": self.RUN_SCHEMA,
                          "toolchain": TOOLCHAIN_TAG})

    def _run_path(self, key: str) -> Path:
        return self.root / "runs" / f"{key}.res"

    def get_run(self, key: str) -> Optional[RunResult]:
        return self._get_framed(self._run_path(key), RunResult)

    def put_run(self, key: str, result: RunResult) -> Optional[Path]:
        if not result.ok:
            return None  # never memoize faults/violations
        return self._put_framed(self._run_path(key), result)

    # -- function-grain build units (repro.build) --------------------
    #
    # Keyed directly by the unit fingerprint (already a SHA-256 over
    # the function's MIR, metadata, arch, flavour and toolchain tags —
    # see ``repro.build.fingerprint.unit_fingerprint``).  An artifact
    # carries its own fingerprint, so one stored under another key is
    # never served.

    def _unit_path(self, fingerprint: str) -> Path:
        return self.root / "units" / f"{fingerprint}.unit"

    def get_unit(self, fingerprint: str):
        from repro.build.units import UnitArtifact
        return self._get_framed(
            self._unit_path(fingerprint), UnitArtifact,
            lambda artifact: artifact.fingerprint == fingerprint)

    def put_unit(self, fingerprint: str, artifact) -> Path:
        return self._put_framed(self._unit_path(fingerprint), artifact)

    # -- maintenance -------------------------------------------------

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
        self.stats.evictions += 1

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh an entry's mtime so LRU eviction sees the hit."""
        try:
            os.utime(path, None)
        except OSError:
            pass

    def _enforce_budget(self) -> None:
        if self.max_mb is None:
            return
        budget = int(self.max_mb * 1024 * 1024)
        entries = []
        total = 0
        for sub in self.SUBDIRS:
            for path in (self.root / sub).iterdir():
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
        if total <= budget:
            return
        for _, size, path in sorted(entries, key=lambda e: (e[0], str(e[2]))):
            self._evict(path)
            total -= size
            if total <= budget:
                break

    def trim(self) -> int:
        """Apply the LRU budget now; returns the entries evicted."""
        before = self.stats.evictions
        self._enforce_budget()
        return self.stats.evictions - before

    def size_bytes(self) -> int:
        total = 0
        for sub in self.SUBDIRS:
            for path in (self.root / sub).iterdir():
                try:
                    total += path.stat().st_size
                except OSError:
                    pass
        return total

    def entry_count(self) -> Dict[str, int]:
        return {sub: sum(1 for _ in (self.root / sub).iterdir())
                for sub in self.SUBDIRS}

    def clear(self) -> None:
        for sub in self.SUBDIRS:
            for path in (self.root / sub).iterdir():
                path.unlink()


def open_cache(root: Union[str, Path, None],
               max_mb: Optional[float] = None) -> Optional[ArtifactCache]:
    """Open (creating if needed) a cache at ``root``; None passes
    through so call sites can thread an optional cache untouched."""
    if root is None:
        return None
    return ArtifactCache(Path(root), max_mb=max_mb)
