"""θ-range sharding: exactness vs the unsharded index, plans, HTTP parity."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.receipt import tip_decomposition
from repro.datasets.generators import planted_blocks
from repro.errors import ArtifactError, ServiceError
from repro.service.artifacts import load_artifact, save_artifact
from repro.service.index import TipIndex
from repro.service.aserver import start_server_thread
from repro.service.server import TipService
from repro.service.sharding import (
    ShardRouter,
    plan_boundaries,
    plan_shards,
    read_shard_plan,
    write_shard_plan,
)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    graph = planted_blocks(40, 25, [(8, 6), (6, 4)], background_edges=50, seed=3)
    result = tip_decomposition(graph, "U", algorithm="receipt", n_partitions=4)
    path = tmp_path_factory.mktemp("shard") / "blocks.tipidx"
    save_artifact(path, graph, result)
    return path


@pytest.fixture(scope="module")
def index(artifact):
    return TipIndex.from_artifact(load_artifact(artifact))


def _assert_router_matches_index(router: ShardRouter, index: TipIndex) -> None:
    """Every query surface must be bit-identical to the unsharded index."""
    vertices = np.arange(index.n_vertices)
    assert np.array_equal(router.theta_batch(vertices), index.theta_batch(vertices))
    for vertex in (0, index.n_vertices // 2, index.n_vertices - 1):
        assert router.theta(vertex) == index.theta(vertex)
    assert router.histogram() == index.histogram()
    assert np.array_equal(router.levels(), index.levels())
    for k in range(1, index.n_vertices + 1):
        got_ids, got_thetas = router.top_k(k)
        want_ids, want_thetas = index.top_k(k)
        assert np.array_equal(got_ids, want_ids), f"top_k({k}) ids"
        assert np.array_equal(got_thetas, want_thetas), f"top_k({k}) thetas"
    probes = sorted({0, 1, index.max_tip_number // 2, index.max_tip_number,
                     index.max_tip_number + 1})
    for k in probes:
        assert router.k_tip_size(k) == index.k_tip_size(k)
        assert np.array_equal(router.k_tip_members(k), index.k_tip_members(k))
        for limit in (0, 1, 3, 10_000):
            assert np.array_equal(
                router.k_tip_members(k, limit=limit),
                index.k_tip_members(k, limit=limit)), f"k_tip_members({k}, {limit})"


class TestExactness:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n_shards=st.sampled_from([1, 2, 3, 5]))
    def test_any_shard_count_is_bit_identical(self, index, n_shards):
        router = ShardRouter.from_index(index, n_shards)
        _assert_router_matches_index(router, index)

    def test_more_shards_than_levels_clamps(self, index):
        router = ShardRouter.from_index(index, index.n_levels + 10)
        assert router.n_shards <= index.n_levels
        _assert_router_matches_index(router, index)

    def test_boundaries_are_level_aligned_and_cover(self, index):
        offsets = index.level_offsets
        cuts = plan_boundaries(offsets, 3)
        assert cuts[0] == 0 and cuts[-1] == offsets[-1]
        assert all(c in set(int(o) for o in offsets) for c in cuts)
        assert list(cuts) == sorted(set(cuts))

    def test_bad_shard_count_rejected(self, index):
        with pytest.raises(ServiceError):
            ShardRouter.from_index(index, 0)

    def test_validation_errors_match_the_index(self, index):
        router = ShardRouter.from_index(index, 3)
        for bad in (-1, index.n_vertices):
            with pytest.raises(ServiceError) as from_router:
                router.theta(bad)
            with pytest.raises(ServiceError) as from_index:
                index.theta(bad)
            assert str(from_router.value) == str(from_index.value)

    def test_router_is_read_only(self, index):
        router = ShardRouter.from_index(index, 2)
        with pytest.raises(ServiceError) as excinfo:
            router.apply_delta(inserts=[(0, 0)])
        assert excinfo.value.status == 409


class TestPersistedPlan:
    def test_write_load_round_trip(self, artifact, index, tmp_path):
        out = tmp_path / "blocks.tipshards"
        payload = write_shard_plan(artifact, out, 3)
        assert payload["kind"] == "tip-shard-plan"
        assert payload["n_shards"] == len(payload["shards"])
        router = ShardRouter.load(out)
        assert router.fingerprint == payload["fingerprint"]
        _assert_router_matches_index(router, index)

    def test_read_shard_plan_validates(self, artifact, tmp_path):
        out = tmp_path / "plan.tipshards"
        write_shard_plan(artifact, out, 2)
        payload = read_shard_plan(out)
        assert payload["format_version"] == 1
        with pytest.raises(ArtifactError):
            read_shard_plan(tmp_path / "missing.tipshards")
        with pytest.raises(ArtifactError):
            write_shard_plan(artifact, out, 2)  # overwrite not requested

    def test_plan_has_no_graph_so_communities_404(self, artifact, tmp_path):
        out = tmp_path / "blocks.tipshards"
        write_shard_plan(artifact, out, 2)
        router = ShardRouter.load(out)
        for query in (lambda: router.communities(1), lambda: router.community_wedge_work(1)):
            with pytest.raises(ServiceError) as excinfo:
                query()
            assert excinfo.value.status == 404

    def test_in_memory_plan_keeps_the_graph(self, artifact, index):
        router = plan_shards(artifact, 2)
        k = index.max_tip_number
        got = [c.tolist() for c in router.communities(k)]
        want = [c.tolist() for c in index.communities(k)]
        assert got == want
        assert router.community_wedge_work(k) == index.community_wedge_work(k)


class TestServedSharding:
    """The HTTP surface answers byte-identically with and without shards."""

    @pytest.fixture()
    def pair(self, artifact):
        plain = start_server_thread(service=TipService([artifact]))
        sharded = start_server_thread(service=TipService([artifact], shards=3))
        yield plain.base_url, sharded.base_url
        plain.stop()
        sharded.stop()

    def _body(self, base, route):
        with urllib.request.urlopen(base + route, timeout=10) as response:
            return response.read()

    def test_query_routes_byte_identical(self, pair):
        plain, sharded = pair
        for route in ("/theta?vertex=7", "/theta/batch?vertices=0,3,9,21",
                      "/top-k?k=5", "/k-tip?k=1&limit=3",
                      "/stats?histogram=1"):
            if route.startswith("/stats"):
                name = "planted-blocks.U"
                left = json.loads(self._body(plain, route))
                right = json.loads(self._body(sharded, route))
                assert (left["artifacts"][name]["histogram"]
                        == right["artifacts"][name]["histogram"])
            else:
                assert self._body(plain, route) == self._body(sharded, route), route

    def test_stats_reports_sharding_mode(self, pair):
        _, sharded = pair
        payload = json.loads(self._body(sharded, "/stats"))
        summary = payload["artifacts"]["planted-blocks.U"]
        assert summary["sharding"]["mode"] == "in-memory"
        assert summary["sharding"]["requested_shards"] == 3

    def test_served_plan_rejects_updates(self, artifact, tmp_path):
        out = tmp_path / "blocks.tipshards"
        write_shard_plan(artifact, out, 2)
        service = TipService([out])
        with pytest.raises(ServiceError) as excinfo:
            service.handle("/update", {}, {"insert": [[0, 20]]})
        assert excinfo.value.status == 409

    def test_update_invalidates_shard_views(self, artifact, tmp_path):
        import shutil

        copy = tmp_path / "mutable.tipidx"
        shutil.copytree(artifact, copy)
        service = TipService([copy], shards=2)
        service.handle("/theta/batch", {"vertices": ",".join(map(str, range(40)))})
        service.handle("/update", {}, {"insert": [[0, 20], [1, 21]]})
        after = service.handle("/theta/batch",
                               {"vertices": ",".join(map(str, range(40)))})
        fresh = TipIndex.from_artifact(load_artifact(copy))
        assert np.array_equal(np.asarray(after["thetas"]),
                              fresh.theta_batch(np.arange(40)))


class TestDegradedGather:
    """Deadline-bounded scatter/gather: exact, partial, or honest 503."""

    def _router(self, index, n_shards=3):
        return ShardRouter.from_index(index, n_shards)

    def test_no_deadline_is_byte_identical(self, index):
        router = self._router(index)
        vertices = np.arange(index.n_vertices)
        thetas, unresolved = router.theta_batch_degraded(vertices)
        assert unresolved == []
        assert isinstance(thetas, np.ndarray)
        assert np.array_equal(thetas, index.theta_batch(vertices))

    def test_generous_deadline_is_byte_identical(self, index):
        from repro.service.resilience import Deadline

        router = self._router(index)
        vertices = np.arange(index.n_vertices)
        thetas, unresolved = router.theta_batch_degraded(
            vertices, deadline=Deadline(30.0))
        assert unresolved == []
        assert np.array_equal(thetas, index.theta_batch(vertices))

    def test_expired_deadline_skips_remaining_shards(self, index):
        from repro.service.resilience import Deadline

        clock_value = [0.0]
        deadline = Deadline(0.05, clock=lambda: clock_value[0])
        clock_value[0] = 1.0  # budget already spent before the first shard
        router = self._router(index)
        vertices = np.arange(index.n_vertices)
        thetas, unresolved = router.theta_batch_degraded(
            vertices, deadline=deadline)
        assert unresolved == list(range(router.n_shards))
        assert thetas == [None] * index.n_vertices

    def test_injected_shard_fault_yields_partial_answer(self, index):
        from repro.service import faults
        from repro.service.faults import FaultPlan, FaultRule

        router = self._router(index)
        vertices = np.arange(index.n_vertices)
        want = index.theta_batch(vertices)
        plan = FaultPlan(
            [FaultRule(site="shard.gather", action="error", count=1)], seed=2)
        with faults.armed(plan):
            thetas, unresolved = router.theta_batch_degraded(vertices)
        assert len(unresolved) == 1
        owners = router._routing[vertices]
        for vertex, theta in zip(vertices, thetas):
            if int(owners[vertex]) in unresolved:
                assert theta is None
            else:
                assert theta == int(want[vertex])

    def test_single_shard_is_all_or_nothing(self, index):
        from repro.errors import FaultInjectedError
        from repro.service import faults
        from repro.service.faults import FaultPlan, FaultRule

        router = self._router(index, n_shards=1)
        vertices = np.arange(index.n_vertices)
        plan = FaultPlan(
            [FaultRule(site="shard.gather", action="error", count=1)], seed=2)
        with faults.armed(plan):
            with pytest.raises(FaultInjectedError):
                router.theta_batch_degraded(vertices)
        thetas, unresolved = router.theta_batch_degraded(vertices)
        assert unresolved == []
        assert np.array_equal(thetas, index.theta_batch(vertices))


class TestServedDeadlines:
    """The /theta/batch deadline surface over a sharded TipService."""

    def _service(self, artifact, tmp_path, shards=3):
        import shutil

        copy = tmp_path / "served.tipidx"
        shutil.copytree(artifact, copy)
        return TipService([copy], shards=shards)

    def test_deadline_param_with_time_left_is_exact(self, artifact, tmp_path):
        service = self._service(artifact, tmp_path)
        probe = {"vertices": ",".join(map(str, range(40)))}
        want = service.handle("/theta/batch", dict(probe))
        got = service.handle("/theta/batch",
                             dict(probe, deadline_ms="30000"))
        assert json.dumps(got, sort_keys=True, default=str) == \
            json.dumps(want, sort_keys=True, default=str)
        assert "degraded" not in got

    def test_shard_fault_with_deadline_degrades(self, artifact, tmp_path):
        from repro.service import faults
        from repro.service.faults import FaultPlan, FaultRule

        service = self._service(artifact, tmp_path)
        probe = {"vertices": ",".join(map(str, range(40))),
                 "deadline_ms": "30000"}
        plan = FaultPlan(
            [FaultRule(site="shard.gather", action="error", count=1)], seed=2)
        with faults.armed(plan):
            payload = service.handle("/theta/batch", dict(probe))
        assert payload["degraded"] is True
        assert payload["unresolved_shards"]
        assert payload["resolved"] < 40
        assert any(theta is None for theta in payload["thetas"])
        assert service.handle("/stats")["resilience"]["degraded_total"] == 1

    def test_all_shards_failing_is_a_503(self, artifact, tmp_path):
        from repro.errors import DeadlineExceededError
        from repro.service import faults
        from repro.service.faults import FaultPlan, FaultRule

        service = self._service(artifact, tmp_path)
        probe = {"vertices": ",".join(map(str, range(40))),
                 "deadline_ms": "30000"}
        plan = FaultPlan(
            [FaultRule(site="shard.gather", action="error")], seed=2)
        with faults.armed(plan):
            with pytest.raises(DeadlineExceededError) as excinfo:
                service.handle("/theta/batch", dict(probe))
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after > 0
        stats = service.handle("/stats")["resilience"]
        assert stats["deadline_exceeded_total"] == 1

    def test_bad_deadline_is_a_400(self, artifact, tmp_path):
        service = self._service(artifact, tmp_path)
        for bad in ("soon", "0", "-10"):
            with pytest.raises(ServiceError) as excinfo:
                service.handle(
                    "/theta/batch",
                    {"vertices": "0,1", "deadline_ms": bad})
            assert excinfo.value.status == 400
