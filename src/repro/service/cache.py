"""LRU cache of loaded tip indexes, keyed by artifact fingerprint.

The serving layer's working set is "the handful of indexes traffic is
currently hitting"; everything else should stay on disk.  Keys are manifest
fingerprints rather than paths, which buys two properties for free:

* rebuilding an artifact in place (new fingerprint) naturally invalidates
  the cached index — no TTLs, no mtime heuristics;
* the same index reached through two paths (copies, symlinks, bind
  mounts) occupies one cache slot.

A cheap manifest read resolves path → fingerprint on every request; the
expensive part (mapping arrays, rebuilding the graph) only runs on a miss.
All operations are thread-safe: the front end calls into one shared cache
from the event loop and from its executor threads.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from pathlib import Path

from ..errors import ArtifactError
from .artifacts import ArtifactManifest, load_artifact, read_manifest
from .index import TipIndex

__all__ = ["IndexCache"]

#: A concurrent in-place rebuild (`save_artifact(overwrite=True)`) swaps the
#: artifact directory with two renames; a reader landing in that
#: microsecond window sees a missing path or a manifest/arrays mismatch.
#: One short retry heals it.
_SWAP_RETRIES = 3
_SWAP_RETRY_SECONDS = 0.05


class IndexCache:
    """Bounded, thread-safe, fingerprint-keyed LRU of :class:`TipIndex`."""

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._entries: "OrderedDict[str, TipIndex]" = OrderedDict()
        self._path_fingerprints: dict[str, str] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def capacity(self) -> int:
        """Maximum number of indexes kept resident."""
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, fingerprint: str) -> TipIndex | None:
        """Return the cached index for a fingerprint, marking it most-recent."""
        with self._lock:
            index = self._entries.get(fingerprint)
            if index is None:
                self._misses += 1
                return None
            self._entries.move_to_end(fingerprint)
            self._hits += 1
            return index

    def peek(self, fingerprint: str) -> bool:
        """Whether a fingerprint is cached, without touching LRU order/metrics."""
        with self._lock:
            return fingerprint in self._entries

    def put(self, fingerprint: str, index: TipIndex) -> None:
        """Insert (or refresh) an index, evicting the least-recently used."""
        with self._lock:
            self._entries[fingerprint] = index
            self._entries.move_to_end(fingerprint)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def get_or_load(self, path: str | Path, *, mmap: bool = True) -> TipIndex:
        """Resolve an artifact path to its index, loading on a miss.

        See :meth:`get_or_load_with_manifest`, which also returns the
        manifest the index was resolved through.
        """
        return self.get_or_load_with_manifest(path, mmap=mmap)[0]

    def get_or_load_with_manifest(
        self, path: str | Path, *, mmap: bool = True
    ) -> tuple[TipIndex, ArtifactManifest]:
        """Resolve an artifact path to its index and manifest, loading on a miss.

        The manifest is read (cheap) to learn the fingerprint; only a miss
        pays for mapping the arrays and rebuilding the graph.  The load
        happens outside the lock so a slow cold load never blocks hits on
        other artifacts.  Reads racing an in-place rebuild retry briefly;
        once the path resolves to a new fingerprint, the entry cached for
        the path's previous fingerprint is dropped immediately (its mmaps
        would otherwise pin the replaced arrays on disk until LRU
        pressure).
        """
        for attempt in range(_SWAP_RETRIES):
            try:
                return self._get_or_load_once(path, mmap=mmap)
            except ArtifactError:
                if attempt == _SWAP_RETRIES - 1:
                    raise
                time.sleep(_SWAP_RETRY_SECONDS)
        raise AssertionError("unreachable")  # pragma: no cover

    def _get_or_load_once(
        self, path: str | Path, *, mmap: bool
    ) -> tuple[TipIndex, ArtifactManifest]:
        manifest = read_manifest(path)
        fingerprint = manifest.fingerprint
        path_key = str(Path(path).resolve())
        with self._lock:
            previous = self._path_fingerprints.get(path_key)
            if previous is not None and previous != fingerprint:
                if self._entries.pop(previous, None) is not None:
                    self._evictions += 1
            self._path_fingerprints[path_key] = fingerprint
        index = self.get(fingerprint)
        if index is None:
            artifact = load_artifact(path, mmap=mmap, expected_fingerprint=fingerprint)
            index = TipIndex.from_artifact(artifact)
            self.put(fingerprint, index)
        return index, manifest

    def invalidate(self, fingerprint: str) -> bool:
        """Drop a cached index (e.g. after an in-place streaming refresh).

        Returns whether an entry was evicted.  The path → fingerprint map
        is left alone: the next ``get_or_load`` of the path re-reads the
        manifest and records the successor fingerprint.
        """
        with self._lock:
            if self._entries.pop(fingerprint, None) is not None:
                self._evictions += 1
                return True
            return False

    def clear(self) -> None:
        """Drop every cached index (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._path_fingerprints.clear()

    def stats(self) -> dict:
        """Hit/miss/eviction metrics plus current occupancy."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "capacity": self._capacity,
                "entries": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": (self._hits / total) if total else 0.0,
            }
