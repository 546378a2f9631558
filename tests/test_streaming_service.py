"""Serving-layer integration of the streaming update engine.

Covers ``TipIndex.apply_delta``, the ``POST /update`` endpoint (offline
and over HTTP), the atomic cache swap, the persisted staleness counters
surfaced by ``/stats``, and the ``repro update`` CLI command.
"""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.receipt import tip_decomposition
from repro.datasets.generators import planted_blocks
from repro.errors import ServiceError
from repro.graph.bipartite import BipartiteGraph
from repro.service.artifacts import read_manifest
from repro.service.build import build_index_artifact
from repro.service.aserver import start_server_thread
from repro.service.server import ENDPOINTS, TipService


@pytest.fixture
def graph():
    return planted_blocks(40, 30, [(8, 6), (8, 6), (7, 5)], background_edges=25, seed=6)


@pytest.fixture
def artifact(tmp_path, graph):
    path = tmp_path / "stream.tipidx"
    build_index_artifact(graph, path, side="U", n_partitions=6)
    return path


def _fresh(graph):
    return tip_decomposition(graph, "U", algorithm="receipt", n_partitions=6)


def _updated_graph(graph, inserts, deletes):
    deleted = {tuple(edge) for edge in deletes}
    edges = [e for e in map(tuple, graph.edge_array().tolist()) if e not in deleted]
    return BipartiteGraph(graph.n_u, graph.n_v, edges + [tuple(e) for e in inserts])


class TestApplyDelta:
    def test_returns_exact_repaired_index(self, artifact, graph):
        service = TipService([artifact])
        index = service.index_for()
        deletes = [tuple(graph.edge_array()[0])]
        repaired, update = index.apply_delta(inserts=[[39, 29]], deletes=deletes)
        fresh = _fresh(_updated_graph(graph, [[39, 29]], deletes))
        assert np.array_equal(repaired.tip_numbers, fresh.tip_numbers)
        assert np.array_equal(np.asarray(repaired.initial_butterflies),
                              fresh.initial_butterflies)
        assert repaired.fingerprint == ""  # not persisted yet
        # The original index is untouched (readers keep their snapshot).
        assert index.graph.n_edges == graph.n_edges
        assert update.mode in ("clean", "incremental", "full")

    def test_requires_graph_arrays(self):
        from repro.service.index import TipIndex, level_csr, sorted_order

        tips = np.asarray([0, 1, 2])
        order = sorted_order(tips)
        values, offsets = level_csr(tips[order])
        bare = TipIndex(tip_numbers=tips, order=order, level_values=values,
                        level_offsets=offsets)
        with pytest.raises(ServiceError, match="graph arrays"):
            bare.apply_delta(inserts=[[0, 0]])

    def test_center_counts_round_trip_through_artifact(self, artifact):
        service = TipService([artifact])
        index = service.index_for()
        assert index.center_butterflies is not None


class TestUpdateEndpointOffline:
    def test_update_persists_and_swaps_cache(self, artifact, graph):
        service = TipService([artifact])
        before = read_manifest(artifact)
        deletes = [list(map(int, graph.edge_array()[0]))]
        payload = service.handle("/update", {}, {"insert": [[39, 29]], "delete": deletes})
        after = read_manifest(artifact)
        assert payload["fingerprint"] == after.fingerprint
        assert payload["previous_fingerprint"] == before.fingerprint
        assert after.fingerprint != before.fingerprint
        # The repaired index is already cached under the new fingerprint...
        assert service.cache.peek(after.fingerprint)
        assert not service.cache.peek(before.fingerprint)
        # ...and serves the refreshed graph without a reload.
        assert service.index_for().graph.n_edges == graph.n_edges
        # Persisted staleness counters advanced.
        assert after.streaming["updates_applied"] == 1
        assert after.streaming["edges_inserted"] == 1
        assert after.streaming["edges_deleted"] == 1
        assert after.streaming["base_fingerprint"] == before.fingerprint

    def test_served_answers_match_scratch_after_updates(self, artifact, graph):
        service = TipService([artifact])
        current = graph
        rng = np.random.default_rng(3)
        for step in range(3):
            edges = current.edge_array()
            delete = edges[rng.integers(edges.shape[0])]
            insert = [int(rng.integers(current.n_u)), int(rng.integers(current.n_v))]
            if current.has_edge(*insert) or (insert[0] == int(delete[0])
                                             and insert[1] == int(delete[1])):
                insert = None
            body = {"delete": [list(map(int, delete))]}
            if insert:
                body["insert"] = [insert]
            service.handle("/update", {}, body)
            current = _updated_graph(current, body.get("insert", []), body["delete"])
            served = service.handle(
                "/theta/batch", {"vertices": ",".join(map(str, range(current.n_u)))}
            )
            fresh = _fresh(current)
            assert np.asarray(served["thetas"]).tolist() == fresh.tip_numbers.tolist()

    def test_update_requires_body_and_edges(self, artifact):
        service = TipService([artifact])
        with pytest.raises(ServiceError) as excinfo:
            service.handle("/update", {}, None)
        assert excinfo.value.status == 405
        with pytest.raises(ServiceError, match="insert.*delete|carry"):
            service.handle("/update", {}, {})
        with pytest.raises(ServiceError, match="pairs"):
            service.handle("/update", {}, {"insert": [[1, 2, 3]]})
        with pytest.raises(ServiceError, match="pairs"):
            service.handle("/update", {}, {"insert": [[1, "x"]]})
        # JSON integers are unbounded; out-of-int64 ids must answer 400
        # instead of overflowing inside numpy.
        with pytest.raises(ServiceError, match="int64"):
            service.handle("/update", {}, {"insert": [[2**70, 0]]})

    def test_conflicting_batch_is_409_and_leaves_artifact_alone(self, artifact):
        service = TipService([artifact])
        before = read_manifest(artifact)
        with pytest.raises(ServiceError) as excinfo:
            service.handle("/update", {}, {"delete": [[0, 29]]})
        assert excinfo.value.status == 409
        assert read_manifest(artifact).fingerprint == before.fingerprint
        assert read_manifest(artifact).streaming == {}

    def test_stats_reports_schema_version_and_fingerprints(self, artifact, graph):
        service = TipService([artifact])
        stats = service.handle("/stats", {})
        summary = next(iter(stats["artifacts"].values()))
        manifest = read_manifest(artifact)
        assert summary["format_version"] == manifest.format_version
        assert summary["fingerprint"] == manifest.fingerprint
        assert summary["graph_fingerprint"] == manifest.graph["fingerprint"]
        assert summary["streaming"]["updates_applied"] == 0
        service.handle("/update", {}, {"delete": [list(map(int, graph.edge_array()[0]))]})
        stats = service.handle("/stats", {})
        summary = next(iter(stats["artifacts"].values()))
        assert summary["streaming"]["updates_applied"] == 1
        assert summary["streaming"]["last_update_unix"] is not None
        assert sum(stats["updates"].values()) == 1

    def test_histogram_stats_keep_streaming_fields(self, artifact):
        service = TipService([artifact])
        stats = service.handle("/stats", {"histogram": "1"})
        summary = next(iter(stats["artifacts"].values()))
        assert "histogram" in summary
        assert "streaming" in summary and "format_version" in summary


class TestUpdateEndpointHttp:
    def test_post_update_and_stats(self, artifact, graph):
        handle = start_server_thread([artifact])
        base = handle.base_url
        try:
            body = json.dumps(
                {"delete": [list(map(int, graph.edge_array()[0]))]}
            ).encode()
            request = urllib.request.Request(
                base + "/update", data=body,
                headers={"Content-Type": "application/json"}, method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                payload = json.loads(response.read())
            assert response.status == 200
            assert payload["deleted"] == 1
            assert payload["mode"] in ("clean", "incremental", "full")

            with urllib.request.urlopen(base + "/stats?fresh=1", timeout=30) as response:
                stats = json.loads(response.read())
            summary = next(iter(stats["artifacts"].values()))
            assert summary["streaming"]["updates_applied"] == 1

            # GET on the write route is rejected.
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(base + "/update", timeout=30)
            assert excinfo.value.code == 405
        finally:
            handle.stop()

    def test_update_is_a_registered_endpoint(self):
        assert "/update" in ENDPOINTS


class TestUpdateCli:
    def test_cli_update_round_trip(self, artifact, graph, capsys):
        edge = graph.edge_array()[0]
        exit_code = cli_main([
            "update", str(artifact),
            "--insert", "39:29",
            "--delete", f"{int(edge[0])}:{int(edge[1])}",
        ])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["inserted"] == 1 and payload["deleted"] == 1
        assert read_manifest(artifact).streaming["updates_applied"] == 1

    def test_cli_updates_file(self, artifact, graph, tmp_path, capsys):
        edge = graph.edge_array()[1]
        updates = tmp_path / "batch.json"
        updates.write_text(json.dumps({"delete": [list(map(int, edge))]}))
        assert cli_main(["update", str(artifact), "--updates-file", str(updates)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["deleted"] == 1

    def test_cli_rejects_empty_and_malformed(self, artifact, capsys):
        assert cli_main(["update", str(artifact)]) == 2
        assert "needs edges" in capsys.readouterr().err
        assert cli_main(["update", str(artifact), "--insert", "1-2"]) == 2
        assert "u:v" in capsys.readouterr().err
