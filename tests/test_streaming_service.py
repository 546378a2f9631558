"""Serving-layer integration of the streaming update engine.

Covers ``TipIndex.apply_delta``, the ``POST /update`` endpoint (offline
and over HTTP), the atomic cache swap, the persisted staleness counters
surfaced by ``/stats``, and the ``repro update`` CLI command.
"""

import json
import tempfile
import urllib.error
import urllib.request
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.butterfly.counting import count_per_vertex
from repro.cli import main as cli_main
from repro.core.receipt import tip_decomposition
from repro.datasets.generators import planted_blocks
from repro.errors import ServiceError
from repro.graph.bipartite import BipartiteGraph
from repro.peeling.base import TipDecompositionResult
from repro.peeling.bup import bup_decomposition
from repro.service.artifacts import ARRAYS_FILENAME, read_manifest, save_artifact
from repro.service.build import build_index_artifact
from repro.service.index import level_csr, sorted_order
from repro.service.aserver import start_server_thread
from repro.service.replication import ReplicationCoordinator
from repro.service.server import ENDPOINTS, TipService, parse_post_body


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

    def test_update_reads_the_manifest_once(self, artifact, monkeypatch):
        """Each update costs one manifest read, on the first read after it:
        steady reads and an update of an already-resolved path read none,
        and the cache's hit/miss/eviction counts follow."""
        from repro.service import artifacts, cache

        reads = []
        original = artifacts._read_manifest_stamped

        def counting(path):  # the one manifest parser, wherever it is looked up
            reads.append(path)
            return original(path)

        for module in (artifacts, cache):
            monkeypatch.setattr(module, "_read_manifest_stamped", counting)
        service = TipService([artifact])
        assert len(reads) == 1  # the eager validation resolves the path
        theta = ("/theta", {"vertex": "0"}, None)
        steps = [
            (theta, 1),  # cold: load_artifact checks the manifest it maps
            (theta, 0),
            (("/update", {}, {"insert": [[39, 29]]}), 0),
            (theta, 1),  # the update wrote a new manifest file
            (theta, 0),
            (("/update", {}, {"delete": [[39, 29]]}), 0),
            (theta, 1),
            (theta, 0),
        ]
        for (route, params, body), expected in steps:
            reads.clear()
            service.handle(route, params, body)
            assert len(reads) == expected, route
        stats = service.cache.stats()
        # The first read misses; every later read and update hits, and each
        # update drops the entry of the fingerprint it replaced.
        assert (stats["hits"], stats["misses"], stats["evictions"]) == (7, 1, 2)

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


def _repairing_delete(graph):
    """A delete inside a planted block, so the batch needs a repair."""
    fresh = _fresh(graph)
    edge = next(edge for edge in graph.edge_array().tolist()
                if fresh.tip_numbers[edge[0]] > 0)
    return {"delete": [edge]}


# ----------------------------------------------------------------------
# Exactness of the write path: what /update saves == a from-scratch save
# ----------------------------------------------------------------------
def _npz_members(path):
    with zipfile.ZipFile(path / ARRAYS_FILENAME) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


def _assert_saved_like_scratch(path, service, scratch):
    """Each saved array equals a from-scratch save of the served graph and θ."""
    index = service.index_for()
    order = sorted_order(index.tip_numbers)
    level_values, level_offsets = level_csr(index.tip_numbers[order])
    assert np.array_equal(index.order, order)
    assert np.array_equal(index.level_values, level_values)
    assert np.array_equal(index.level_offsets, level_offsets)
    result = TipDecompositionResult(
        tip_numbers=index.tip_numbers, side=index.side,
        initial_butterflies=index.initial_butterflies, algorithm=index.algorithm,
    )
    save_artifact(scratch, index.graph, result, overwrite=True,
                  center_butterflies=index.center_butterflies)
    assert _npz_members(path) == _npz_members(scratch)
    fresh = bup_decomposition(index.graph, "U")
    assert np.array_equal(index.tip_numbers, fresh.tip_numbers)


@st.composite
def write_stream(draw, max_u=8, max_v=7, max_batches=5):
    """A random graph plus ``/update`` bodies that reach every update mode.

    The last U and V vertices stay isolated except for the pendant edge
    between them, whose toggles are clean by construction; the other
    batches toggle random pairs among the remaining ids under a damage
    threshold of 0.0 (any repair becomes a full rebuild) or 1.0.
    """
    n_u = draw(st.integers(min_value=3, max_value=max_u))
    n_v = draw(st.integers(min_value=3, max_value=max_v))
    core = [(u, v) for u in range(n_u - 1) for v in range(n_v - 1)]
    present = set(draw(st.lists(st.sampled_from(core), max_size=len(core), unique=True)))
    start = BipartiteGraph(n_u, n_v, sorted(present))
    pendant = (n_u - 1, n_v - 1)
    bodies = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_batches))):
        if draw(st.booleans()):
            toggled = {pendant}
            threshold = 1.0
        else:
            toggled = set(draw(st.lists(st.sampled_from(core), min_size=1, max_size=3)))
            threshold = draw(st.sampled_from([0.0, 1.0]))
        bodies.append({"insert": [list(edge) for edge in sorted(toggled - present)],
                       "delete": [list(edge) for edge in sorted(toggled & present)],
                       "damage_threshold": threshold})
        present ^= toggled
    return start, pendant, bodies


@settings(max_examples=30, deadline=None)
@given(case=write_stream())
def test_update_saves_what_a_scratch_save_writes(case):
    start, pendant, bodies = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stream.tipidx"
        build_index_artifact(start, path, side="U", n_partitions=2)
        service = TipService([path])
        for body in bodies:
            mode = service.handle("/update", {}, body)["mode"]
            if [list(pendant)] in (body["insert"], body["delete"]):
                assert mode == "clean"
            elif body["damage_threshold"] == 0.0:
                assert mode in ("clean", "full")
            _assert_saved_like_scratch(path, service, Path(tmp) / "scratch.tipidx")


def _plain(payload):
    return json.loads(json.dumps(payload, default=lambda value: np.asarray(value).tolist()))


def test_recorded_peel_kernel_is_ignored(graph, tmp_path):
    """An artifact whose manifest still names a peel kernel (older builds
    wrote ``decomposition.peel_kernel``) loads, answers and takes clean and
    incremental updates exactly as the same artifact without the key."""
    result = _fresh(graph)
    center = count_per_vertex(graph).v_counts
    paths = {name: tmp_path / f"{name}.tipidx" for name in ("plain", "recorded")}
    save_artifact(paths["plain"], graph, result, center_butterflies=center)
    save_artifact(paths["recorded"], graph, result, center_butterflies=center,
                  config={"peel_kernel": "reference"})
    assert read_manifest(paths["recorded"]).decomposition["peel_kernel"] == "reference"
    services = {name: TipService([path]) for name, path in paths.items()}
    reads = [("/theta/batch", {"vertices": ",".join(map(str, range(graph.n_u)))}),
             ("/top-k", {"k": "5"}), ("/k-tip", {"k": "1"}), ("/community", {"k": "1"})]
    kept = ("mode", "inserted", "deleted", "k_seed", "dirty_vertices",
            "repeeled_vertices", "damage_ratio", "wedges_traversed", "n_edges")
    modes = []
    for body in (None, {"insert": [[39, 29]]},
                 {**_repairing_delete(graph), "damage_threshold": 1.0}):
        seen = {}
        for name, service in services.items():
            update = {}
            if body is not None:
                update = service.handle("/update", {}, body)
                update = {key: update[key] for key in kept}
            answers = [_plain(service.handle(route, params)) for route, params in reads]
            seen[name] = (update, answers, _npz_members(paths[name]))
        assert seen["recorded"] == seen["plain"]
        modes.append(seen["plain"][0].get("mode"))
    assert modes == [None, "clean", "incremental"]


def test_write_path_modes_all_save_like_scratch(artifact, graph, tmp_path):
    """One fixed stream that takes each of the three modes."""
    service = TipService([artifact])
    in_block = _repairing_delete(graph)
    assert graph.degree(39, "U") == graph.degree(29, "V") == 0
    pendant = [[39, 29]]  # an edge between two isolated vertices holds no butterfly
    modes = []
    for body in ({"insert": pendant}, {"delete": pendant},
                 {**in_block, "damage_threshold": 1.0},
                 {"insert": in_block["delete"], "damage_threshold": 0.0}):
        modes.append(service.handle("/update", {}, body)["mode"])
        _assert_saved_like_scratch(artifact, service, tmp_path / "scratch.tipidx")
    assert modes == ["clean", "clean", "incremental", "full"]


class TestDamageThreshold:
    """``damage_threshold`` must be a finite number >= 0, checked before any write."""

    @staticmethod
    def _leader(artifact):
        service = TipService([artifact])
        return service, ReplicationCoordinator(service, role="leader")

    @pytest.mark.parametrize("threshold", [
        float("nan"), float("inf"), float("-inf"), -1.0, True, "0.5", None, [0.5],
    ], ids=["nan", "inf", "-inf", "negative", "bool", "string", "null", "list"])
    def test_bad_threshold_is_400_and_writes_nothing(self, artifact, graph, threshold):
        service, coordinator = self._leader(artifact)
        before = read_manifest(artifact).fingerprint
        body = {**_repairing_delete(graph), "damage_threshold": threshold}
        with pytest.raises(ServiceError, match="damage_threshold") as excinfo:
            service.handle("/update", {}, body)
        assert excinfo.value.status == 400
        assert read_manifest(artifact).fingerprint == before
        assert coordinator.status()["offset"] == 0

    def test_huge_finite_threshold_never_falls_back(self, artifact, graph):
        service, _ = self._leader(artifact)
        for threshold in (1e308, 10**30):
            body = {**_repairing_delete(service.index_for().graph),
                    "damage_threshold": threshold}
            assert service.handle("/update", {}, body)["mode"] != "full"

    @pytest.mark.parametrize("literal", [b"NaN", b"Infinity", b"-Infinity"])
    def test_non_standard_json_constants_are_invalid(self, literal):
        with pytest.raises(ServiceError, match="not valid JSON") as excinfo:
            parse_post_body(b'{"damage_threshold": ' + literal + b"}")
        assert excinfo.value.status == 400

    def test_nan_literal_over_http_is_400(self, artifact, graph):
        service, coordinator = self._leader(artifact)
        before = read_manifest(artifact).fingerprint
        edge = _repairing_delete(graph)["delete"][0]
        body = f'{{"delete": [[{edge[0]}, {edge[1]}]], "damage_threshold": NaN}}'
        handle = start_server_thread(service=service)
        try:
            request = urllib.request.Request(
                handle.base_url + "/update", data=body.encode(),
                headers={"Content-Type": "application/json"}, method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 400
            assert "not valid JSON" in json.loads(excinfo.value.read())["error"]
        finally:
            handle.stop()
        assert read_manifest(artifact).fingerprint == before
        assert coordinator.status()["offset"] == 0


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
