"""Property-based equivalence of TipIndex queries against naive scans.

Every query a :class:`~repro.service.index.TipIndex` answers from its
θ-sorted permutation / level CSR must agree with the obvious linear scan
over the raw :class:`TipDecompositionResult` arrays — on arbitrary tip
assignments, not just ones a real decomposition would produce.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.hierarchy import butterfly_connected_components
from repro.core.receipt import tip_decomposition
from repro.errors import ServiceError
from repro.peeling.base import TipDecompositionResult
from repro.service.index import TipIndex, level_csr, sorted_order

tip_arrays = st.lists(st.integers(min_value=0, max_value=60), min_size=0, max_size=80)


def _index_for(tips: list[int]) -> tuple[TipIndex, TipDecompositionResult]:
    array = np.asarray(tips, dtype=np.int64)
    result = TipDecompositionResult(
        tip_numbers=array, side="U", initial_butterflies=array, algorithm="synthetic"
    )
    return TipIndex.from_result(result), result


@settings(max_examples=60, deadline=None)
@given(tips=tip_arrays)
def test_theta_batch_matches_raw_array(tips):
    index, result = _index_for(tips)
    vertices = np.arange(len(tips), dtype=np.int64)
    assert np.array_equal(index.theta_batch(vertices), result.tip_numbers)
    for vertex in range(min(len(tips), 5)):
        assert index.theta(vertex) == result.tip_number(vertex)


@settings(max_examples=60, deadline=None)
@given(tips=tip_arrays, k=st.integers(min_value=0, max_value=70))
def test_k_tip_members_match_naive_threshold_scan(tips, k):
    index, result = _index_for(tips)
    expected = result.vertices_with_tip_at_least(k)
    assert np.array_equal(index.k_tip_members(k), expected)
    assert index.k_tip_size(k) == expected.size


@settings(max_examples=60, deadline=None)
@given(tips=tip_arrays, k=st.integers(min_value=0, max_value=70),
       limit=st.integers(min_value=0, max_value=90))
def test_k_tip_members_limit_is_sorted_prefix(tips, k, limit):
    index, result = _index_for(tips)
    expected = result.vertices_with_tip_at_least(k)[:limit]
    assert np.array_equal(index.k_tip_members(k, limit=limit), expected)


@settings(max_examples=60, deadline=None)
@given(tips=tip_arrays)
def test_histogram_and_levels_match_result(tips):
    index, result = _index_for(tips)
    assert index.histogram() == result.histogram()
    assert np.array_equal(index.levels(), np.unique(result.tip_numbers))
    assert index.max_tip_number == result.max_tip_number


@settings(max_examples=60, deadline=None)
@given(tips=st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=80),
       k=st.integers(min_value=1, max_value=80))
def test_top_k_matches_naive_ranking(tips, k):
    index, _ = _index_for(tips)
    expected = sorted(range(len(tips)), key=lambda v: (-tips[v], v))[:k]
    vertices, thetas = index.top_k(k)
    assert vertices.tolist() == expected
    assert thetas.tolist() == [tips[v] for v in expected]


@settings(max_examples=40, deadline=None)
@given(tips=tip_arrays)
def test_level_csr_partitions_the_permutation(tips):
    array = np.asarray(tips, dtype=np.int64)
    order = sorted_order(array)
    values, offsets = level_csr(array[order])
    assert offsets[0] == 0 and offsets[-1] == len(tips)
    for i, value in enumerate(values):
        members = order[offsets[i]:offsets[i + 1]]
        assert np.all(array[members] == value)
    # Union of the level slices is exactly the vertex set.
    assert np.array_equal(np.sort(order), np.arange(len(tips)))


class TestValidationAndErrors:
    def test_out_of_range_vertex_raises(self):
        index, _ = _index_for([1, 2, 3])
        with pytest.raises(ServiceError, match="out of range"):
            index.theta(3)
        with pytest.raises(ServiceError, match="out of range"):
            index.theta_batch([0, -1])

    def test_top_k_requires_positive_k(self):
        index, _ = _index_for([1, 2, 3])
        with pytest.raises(ServiceError, match="k >= 1"):
            index.top_k(0)

    def test_community_without_graph_raises(self):
        index, _ = _index_for([1, 2, 3])
        with pytest.raises(ServiceError, match="without graph"):
            index.communities(1)
        # Whatever the vertex: below k, at or above it, or out of range.
        for vertex in (0, 2, -1):
            with pytest.raises(ServiceError, match="without graph") as excinfo:
                index.communities(2, vertex=vertex)
            assert excinfo.value.status == 404
        with pytest.raises(ServiceError, match="without graph"):
            index.community_wedge_work(1)


class TestCommunities:
    def test_matches_hierarchy_components(self, blocks_graph, community_oracle):
        result = tip_decomposition(blocks_graph, "U", algorithm="bup")
        index = TipIndex.from_result(result, graph=blocks_graph)
        k = max(1, result.max_tip_number // 2)
        members = result.vertices_with_tip_at_least(k)
        expected = butterfly_connected_components(blocks_graph, members, "U")
        got = [c.tolist() for c in index.communities(k)]
        assert got == [c.tolist() for c in expected]
        assert got == community_oracle(blocks_graph, "U")(members)

    def test_vertex_filter_returns_only_its_component(self, blocks_graph):
        result = tip_decomposition(blocks_graph, "U", algorithm="bup")
        index = TipIndex.from_result(result, graph=blocks_graph)
        k = max(1, result.max_tip_number // 2)
        components = index.communities(k)
        assert components, "test graph should have a non-trivial k-tip"
        member = int(components[0][0])
        only = index.communities(k, vertex=member)
        assert len(only) == 1
        assert member in only[0]
        # A vertex below level k belongs to no component.
        below = np.flatnonzero(result.tip_numbers < k)
        if below.size:
            assert index.communities(k, vertex=int(below[0])) == []

    def test_vertex_is_checked_before_extraction(self, blocks_graph, monkeypatch):
        """An out-of-range vertex raises, and a vertex below level k answers
        ``[]``, without extracting a component (sharded views delegate)."""
        import repro.service.index as index_module
        from repro.service.sharding import ShardRouter

        result = tip_decomposition(blocks_graph, "U", algorithm="bup")
        index = TipIndex.from_result(result, graph=blocks_graph)
        k = max(1, result.max_tip_number // 2)
        below = int(np.flatnonzero(result.tip_numbers < k)[0])
        calls = []
        monkeypatch.setattr(index_module, "butterfly_connected_components",
                            lambda *args: calls.append(args) or [])
        for engine in (index, ShardRouter.from_index(index, 2)):
            for vertex in (-1, index.n_vertices):
                with pytest.raises(ServiceError, match=(
                        f"^vertex {vertex} out of range for side 'U' with "
                        f"{index.n_vertices} vertices$")):
                    engine.communities(k, vertex=vertex)
            assert engine.communities(k, vertex=below) == []
        assert calls == []
