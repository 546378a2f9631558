"""LRU cache of loaded tip indexes, keyed by artifact fingerprint.

The serving layer's working set is "the handful of indexes traffic is
currently hitting"; everything else should stay on disk.  Keys are manifest
fingerprints rather than paths, which buys two properties for free:

* rebuilding an artifact in place (new fingerprint) naturally invalidates
  the cached index — no TTLs;
* the same index reached through two paths (copies, symlinks, bind
  mounts) occupies one cache slot.

The cache is also the one place a path resolves to its manifest: it keeps
each path's parsed manifest with the file's
:func:`~repro.service.artifacts.manifest_stamp`, a request runs one
``os.stat``, and only a changed stamp re-reads the file, so a swap by this
process or another one is seen by the next request.  The expensive part
(mapping arrays, rebuilding the graph) only runs on a fingerprint miss.
All operations are thread-safe: the front end calls into one shared cache
from the event loop and from its executor threads.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from pathlib import Path

from ..errors import ArtifactError
from .artifacts import (
    MANIFEST_FILENAME,
    ArtifactManifest,
    _read_manifest_stamped,
    load_artifact,
    manifest_stamp,
)
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
        # Path as given -> (stamp, manifest) of the manifest last read there.
        self._manifests: dict[str, tuple[tuple, ArtifactManifest]] = {}
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

        The path resolves to its manifest through :meth:`manifest`; only a
        fingerprint miss pays for mapping the arrays and rebuilding the
        graph.  The load happens outside the lock so a slow cold load never
        blocks hits on other artifacts.  The manifest returned is the
        cached one: callers must treat it as read-only.
        """
        return self._across_swaps(self._get_or_load_once, path, mmap)

    def manifest(self, path: str | Path) -> ArtifactManifest:
        """The current manifest of an artifact path, without loading its index.

        One ``os.stat`` of the manifest file; the file is re-read only when
        its stamp differs from the one cached for the path.  A re-read that
        finds a new fingerprint drops the entry cached under the path's
        previous fingerprint at once (its mmaps would otherwise pin the
        replaced arrays on disk until LRU pressure).  Reads racing an
        in-place rebuild retry briefly.  The manifest is shared: treat it as
        read-only.
        """
        return self._across_swaps(self._manifest_once, path)

    @staticmethod
    def _across_swaps(read, *args):
        for attempt in range(_SWAP_RETRIES):
            try:
                return read(*args)
            except ArtifactError:
                if attempt == _SWAP_RETRIES - 1:
                    raise
                time.sleep(_SWAP_RETRY_SECONDS)
        raise AssertionError("unreachable")  # pragma: no cover

    def _manifest_once(self, path: str | Path) -> ArtifactManifest:
        key = os.fspath(path)
        try:
            stamp = manifest_stamp(os.stat(os.path.join(key, MANIFEST_FILENAME)))
        except OSError:
            stamp = None  # the read below raises the ArtifactError
        with self._lock:
            known = self._manifests.get(key)
        if known is not None and known[0] == stamp:
            return known[1]
        # Stamp and content come from one open file, so a swap between the
        # stat above and this read cannot pair two versions.
        stamp, manifest = _read_manifest_stamped(path)
        with self._lock:
            previous = self._manifests.get(key)
            if previous is not None and previous[1].fingerprint != manifest.fingerprint:
                if self._entries.pop(previous[1].fingerprint, None) is not None:
                    self._evictions += 1
            self._manifests[key] = (stamp, manifest)
        return manifest

    def _get_or_load_once(
        self, path: str | Path, mmap: bool
    ) -> tuple[TipIndex, ArtifactManifest]:
        manifest = self._manifest_once(path)
        fingerprint = manifest.fingerprint
        index = self.get(fingerprint)
        if index is None:
            artifact = load_artifact(path, mmap=mmap, expected_fingerprint=fingerprint)
            index = TipIndex.from_artifact(artifact)
            self.put(fingerprint, index)
        return index, manifest

    def invalidate(self, fingerprint: str) -> bool:
        """Drop a cached index (e.g. after an in-place streaming refresh).

        Returns whether an entry was evicted.  The path → manifest map is
        left alone: a path's manifest is re-read only once its file changes,
        and that re-read records the successor fingerprint.
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
            self._manifests.clear()

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
