"""Memory telemetry: RSS readers, tracemalloc join, workspace registry."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.kernels.workspace import WedgeWorkspace, live_workspace_stats
from repro.obs.memory import (
    memory_snapshot,
    peak_rss_bytes,
    rss_bytes,
    tracemalloc_stats,
)


class TestProcessReaders:
    def test_rss_is_a_positive_byte_count(self):
        rss = rss_bytes()
        assert rss is not None
        # A live CPython process with numpy imported holds well over 10 MB.
        assert rss > 10 * 1024 * 1024

    def test_peak_rss_covers_current(self):
        rss, peak = rss_bytes(), peak_rss_bytes()
        assert peak is not None
        # VmHWM is a high-water mark: it can never sit below a current
        # reading taken immediately after (allow a page of slack for the
        # two reads racing an allocation).
        assert peak >= rss - 4096


class TestTracemalloc:
    def test_zeros_when_not_tracing(self):
        if tracemalloc.is_tracing():  # pragma: no cover - PYTHONTRACEMALLOC set
            pytest.skip("tracemalloc active in this interpreter")
        stats = tracemalloc_stats()
        assert stats == {"tracing": False, "current_bytes": 0,
                         "peak_bytes": 0, "top": []}

    def test_sites_reported_when_tracing(self):
        tracemalloc.start()
        try:
            held = [bytearray(256 * 1024) for _ in range(4)]
            stats = tracemalloc_stats(top=5)
        finally:
            tracemalloc.stop()
        assert stats["tracing"] is True
        assert stats["current_bytes"] >= 4 * 256 * 1024
        assert stats["peak_bytes"] >= stats["current_bytes"]
        assert 1 <= len(stats["top"]) <= 5
        for site in stats["top"]:
            assert ":" in site["site"]
            assert site["size_bytes"] > 0 and site["count"] > 0
        del held


class TestWorkspaceRegistry:
    def test_live_workspace_bytes_tracked(self):
        before = live_workspace_stats()
        workspace = WedgeWorkspace()
        workspace.take("scratch", 100_000, np.int64)
        after = live_workspace_stats()
        assert after["workspaces"] >= before["workspaces"] + 1
        assert after["current_bytes"] >= before["current_bytes"] + 800_000
        assert after["peak_bytes"] >= 800_000

    def test_dead_workspaces_drop_out(self):
        workspace = WedgeWorkspace()
        workspace.take("scratch", 50_000, np.int64)
        populated = live_workspace_stats()
        del workspace
        gc.collect()
        drained = live_workspace_stats()
        assert drained["workspaces"] < populated["workspaces"]
        assert drained["current_bytes"] < populated["current_bytes"]

    def test_legacy_workspace_holds_nothing(self):
        workspace = WedgeWorkspace.legacy()
        workspace.take("scratch", 10_000, np.int64)
        # reuse=False: the checkout was a fresh allocation the arena does
        # not retain, so it contributes nothing to current residency.
        stats = live_workspace_stats()
        assert stats["workspaces"] >= 1
        assert workspace._buffers == {}


class TestSnapshot:
    def test_joins_every_source(self):
        workspace = WedgeWorkspace()
        workspace.take("scratch", 10_000, np.int64)
        snapshot = memory_snapshot(top=3)
        assert set(snapshot) == {"process", "tracemalloc", "workspaces"}
        assert snapshot["process"]["rss_bytes"] > 0
        assert snapshot["process"]["peak_rss_bytes"] > 0
        assert snapshot["tracemalloc"]["tracing"] in (True, False)
        assert snapshot["workspaces"]["current_bytes"] >= 80_000

    def test_extra_merges_at_top_level(self):
        snapshot = memory_snapshot(extra={"artifacts": {"a": {"array_bytes": 7}}})
        assert snapshot["artifacts"] == {"a": {"array_bytes": 7}}

    def test_snapshot_is_json_able(self):
        import json

        json.dumps(memory_snapshot())


@pytest.fixture(autouse=True)
def _no_stray_tracemalloc():
    yield
    if tracemalloc.is_tracing():  # pragma: no cover - test hygiene
        tracemalloc.stop()
