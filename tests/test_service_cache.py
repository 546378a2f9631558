"""LRU index-cache behavior: fingerprint keying, eviction, metrics, and
the stamp-checked path → manifest resolver."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.receipt import tip_decomposition
from repro.datasets.generators import planted_blocks
from repro.errors import ArtifactError
from repro.service import artifacts as artifacts_module
from repro.service import cache as cache_module
from repro.service.artifacts import MANIFEST_FILENAME, read_manifest, save_artifact
from repro.service.cache import IndexCache
from repro.service.server import TipService, to_jsonable


def _make_artifact(tmp_path, name, seed):
    graph = planted_blocks(30, 20, [(6, 5)], background_edges=30, seed=seed)
    result = tip_decomposition(graph, "U", algorithm="bup")
    path = tmp_path / f"{name}.tipidx"
    save_artifact(path, graph, result)
    return path


@pytest.fixture
def artifacts(tmp_path):
    return [_make_artifact(tmp_path, f"g{i}", seed=i) for i in range(3)]


class TestLru:
    def test_hit_miss_eviction_accounting(self, artifacts):
        a, b, c = artifacts
        cache = IndexCache(capacity=2)

        cache.get_or_load(a)
        cache.get_or_load(b)
        assert cache.stats()["misses"] == 2 and cache.stats()["hits"] == 0

        cache.get_or_load(a)  # hit; a becomes most-recent
        assert cache.stats()["hits"] == 1

        cache.get_or_load(c)  # evicts b (LRU), not a
        stats = cache.stats()
        assert stats["evictions"] == 1 and stats["entries"] == 2

        cache.get_or_load(a)  # still cached
        assert cache.stats()["hits"] == 2
        cache.get_or_load(b)  # was evicted -> miss again
        assert cache.stats()["misses"] == 4

    def test_same_index_object_on_hit(self, artifacts):
        cache = IndexCache(capacity=2)
        first = cache.get_or_load(artifacts[0])
        second = cache.get_or_load(artifacts[0])
        assert first is second

    def test_fingerprint_keying_dedupes_copies(self, artifacts, tmp_path):
        # A byte-identical copy under a different path shares the slot.
        original = artifacts[0]
        copy = tmp_path / "copy.tipidx"
        shutil.copytree(original, copy)
        cache = IndexCache(capacity=2)
        first = cache.get_or_load(original)
        second = cache.get_or_load(copy)
        assert first is second
        assert cache.stats() == {**cache.stats(), "entries": 1, "misses": 1, "hits": 1}

    def test_rebuild_invalidates_naturally(self, tmp_path):
        path = _make_artifact(tmp_path, "re", seed=1)
        cache = IndexCache(capacity=2)
        first = cache.get_or_load(path)
        # Rebuild the artifact in place: new manifest -> new fingerprint.
        graph = planted_blocks(30, 20, [(6, 5)], background_edges=30, seed=99)
        result = tip_decomposition(graph, "U", algorithm="bup")
        save_artifact(path, graph, result, overwrite=True)
        second = cache.get_or_load(path)
        assert first is not second
        assert cache.stats()["misses"] == 2
        # The stale entry is evicted immediately, not kept until LRU
        # pressure — its mmaps would pin the replaced arrays on disk.
        assert cache.stats()["entries"] == 1
        assert cache.stats()["evictions"] == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            IndexCache(capacity=0)

    def test_clear(self, artifacts):
        cache = IndexCache(capacity=4)
        cache.get_or_load(artifacts[0])
        cache.clear()
        assert len(cache) == 0

    def test_concurrent_loads_are_safe(self, artifacts):
        cache = IndexCache(capacity=2)
        errors: list[BaseException] = []

        def worker():
            try:
                for path in artifacts * 5:
                    index = cache.get_or_load(path)
                    assert index.n_vertices == 30
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 6 * 5 * len(artifacts)


@pytest.fixture
def manifest_reads(monkeypatch):
    """Paths of every manifest parse: ``read_manifest`` and the cache share
    one parser, patched wherever it is looked up."""
    reads = []
    original = artifacts_module._read_manifest_stamped

    def counting(path):
        reads.append(os.fspath(path))
        return original(path)

    for module in (artifacts_module, cache_module):
        monkeypatch.setattr(module, "_read_manifest_stamped", counting)
    return reads


def _all_thetas(service, n=30):
    payload = service.handle("/theta/batch", {"vertices": ",".join(map(str, range(n)))})
    return json.dumps(to_jsonable(payload), sort_keys=True)


class TestResolver:
    """A path resolves by one ``stat``; the manifest is re-read only when its
    file changed, by this process or another one."""

    def test_steady_reads_read_no_manifest(self, artifacts, manifest_reads):
        cache = IndexCache(capacity=2)
        first = cache.get_or_load(artifacts[0])
        manifest_reads.clear()
        for _ in range(5):
            assert cache.get_or_load(artifacts[0]) is first
            cache.manifest(artifacts[0])
        assert manifest_reads == []

    def test_a_swap_by_another_process_is_seen(self, tmp_path):
        path = _make_artifact(tmp_path, "swap", seed=4)
        service = TipService([path])
        _all_thetas(service)  # warm: the path is resolved and its index loaded
        old = read_manifest(path).fingerprint
        graph = service.index_for().graph
        u, v = next((u, v) for u in range(graph.n_u) for v in range(graph.n_v)
                    if not graph.has_edge(u, v))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "update", str(path), "--insert", f"{u}:{v}"],
            capture_output=True, text=True, timeout=120, env=env)
        assert completed.returncode == 0, completed.stderr
        new = read_manifest(path).fingerprint
        assert new != old
        assert _all_thetas(service) == _all_thetas(TipService([path]))
        assert service.index_for().graph.has_edge(u, v)
        assert not service.cache.peek(old) and service.cache.peek(new)
        assert service.cache.stats()["evictions"] == 1

    def test_a_restore_that_keeps_mtimes_is_seen(self, tmp_path):
        path = _make_artifact(tmp_path, "restore", seed=5)
        backup = tmp_path / "backup.tipidx"
        shutil.copytree(path, backup)  # copy2 keeps the old mtimes
        old = read_manifest(path).fingerprint
        cache = IndexCache(capacity=4)
        cache.get_or_load(path)
        graph = planted_blocks(30, 20, [(6, 5)], background_edges=30, seed=77)
        save_artifact(path, graph, tip_decomposition(graph, "U", algorithm="bup"),
                      overwrite=True)
        assert cache.manifest(path).fingerprint != old
        shutil.rmtree(path)
        shutil.copytree(backup, path)
        assert cache.manifest(path).fingerprint == old
        assert cache.get_or_load(path).fingerprint == old

    def test_in_place_corruption_raises(self, artifacts):
        cache = IndexCache(capacity=2)
        cache.get_or_load(artifacts[0])
        (artifacts[0] / MANIFEST_FILENAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(ArtifactError, match="cannot read artifact manifest"):
            cache.get_or_load(artifacts[0])
        with pytest.raises(ArtifactError, match="cannot read artifact manifest"):
            cache.manifest(artifacts[0])

    def test_aliases_share_the_fingerprint_slot(self, artifacts):
        cache = IndexCache(capacity=2)
        path = artifacts[0]
        first = cache.get_or_load(path)
        assert cache.get_or_load(str(path)) is first
        assert cache.get_or_load(path.parent / ".." / path.parent.name / path.name) is first
        assert cache.stats()["entries"] == 1

    def test_reads_racing_swaps_end_on_the_last_version(self, tmp_path):
        """Readers on more threads than cores, with a short switch interval,
        while the artifact is rebuilt in place: no read fails, and the path
        resolves to the last version afterwards."""
        path = _make_artifact(tmp_path, "race", seed=6)
        versions = []
        for seed in range(20, 24):
            graph = planted_blocks(30, 20, [(6, 5)], background_edges=30, seed=seed)
            versions.append((graph, tip_decomposition(graph, "U", algorithm="bup")))
        cache = IndexCache(capacity=2)
        errors: list[BaseException] = []
        done = threading.Event()

        def reader():
            try:
                while not done.is_set():
                    index = cache.get_or_load(path)
                    assert index.n_vertices == 30 and index.fingerprint
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            for graph, result in versions:
                time.sleep(0.1)
                last = save_artifact(path, graph, result, overwrite=True).fingerprint
            time.sleep(0.1)
            done.set()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not errors
        assert cache.manifest(path).fingerprint == last
        assert cache.get_or_load(path).fingerprint == last
        assert cache.stats()["entries"] <= 2
