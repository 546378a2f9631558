"""Unit tests for k-tip hierarchy construction and queries."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.hierarchy import (
    TipHierarchy,
    butterfly_connected_components,
    k_tip_vertices,
    level_wedge_work,
)
from repro.butterfly.wedges import pair_wedge_count
from repro.core.receipt import receipt_decomposition
from repro.errors import GraphConstructionError
from repro.graph.builders import complete_bipartite, from_edge_list
from repro.peeling.bup import bup_decomposition
from test_pinned_counts import GRAPHS, pinned_graph


def _two_disjoint_blocks():
    """Two complete 3x3 blocks with no connection between them."""
    edges = []
    for u in range(3):
        for v in range(3):
            edges.append((u, v))
            edges.append((u + 3, v + 3))
    return from_edge_list(edges, n_u=6, n_v=6)


class TestKTipVertices:
    def test_threshold_filtering(self, blocks_graph):
        result = bup_decomposition(blocks_graph, "U")
        k = max(1, result.max_tip_number // 2)
        members = k_tip_vertices(result, k)
        assert np.all(result.tip_numbers[members] >= k)

    def test_zero_threshold_includes_everyone(self, blocks_graph):
        result = bup_decomposition(blocks_graph, "U")
        assert k_tip_vertices(result, 0).size == blocks_graph.n_u


class TestButterflyConnectedComponents:
    def test_complete_graph_single_component(self):
        graph = complete_bipartite(4, 3)
        components = butterfly_connected_components(graph, np.arange(4), "U")
        assert len(components) == 1
        assert components[0].tolist() == [0, 1, 2, 3]

    def test_disjoint_blocks_two_components(self):
        graph = _two_disjoint_blocks()
        components = butterfly_connected_components(graph, np.arange(6), "U")
        assert [c.tolist() for c in components] == [[0, 1, 2], [3, 4, 5]]
        reordered = butterfly_connected_components(graph, np.array([4, 0, 5, 1]), "U")
        assert [c.tolist() for c in reordered] == [[4, 5], [0, 1]]

    def test_wedge_only_connection_is_not_enough(self):
        # u0 and u1 share exactly one neighbour: a wedge but no butterfly.
        graph = from_edge_list([(0, 0), (0, 1), (1, 1), (1, 2)], n_u=2, n_v=3)
        components = butterfly_connected_components(graph, np.arange(2), "U")
        assert len(components) == 2

    def test_empty_vertex_set(self, blocks_graph):
        assert butterfly_connected_components(blocks_graph, np.array([], dtype=np.int64)) == []

    def test_subset_restriction(self):
        graph = complete_bipartite(5, 3)
        components = butterfly_connected_components(graph, np.array([0, 4]), "U")
        assert len(components) == 1
        assert components[0].tolist() == [0, 4]

    def test_repeated_vertex_raises(self):
        graph = complete_bipartite(4, 3)
        for side, vertices in (("U", [0, 2, 0]), ("V", [1, 1])):
            with pytest.raises(GraphConstructionError, match="duplicate"):
                butterfly_connected_components(graph, np.array(vertices), side)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_the_oracle(self, data, community_oracle):
        """Random small graphs, both sides, unsorted subsets (empty and
        singleton included): the components and their order equal the
        oracle's, and the wedge work is the induced subgraph's."""
        n_u, n_v = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        cells = data.draw(st.sets(st.integers(0, n_u * n_v - 1)))
        graph = from_edge_list([(cell // n_v, cell % n_v) for cell in sorted(cells)],
                               n_u=n_u, n_v=n_v)
        side = data.draw(st.sampled_from("UV"))
        size = graph.side_size(side)
        vertices = data.draw(st.lists(st.integers(0, size - 1), unique=True))
        components_of = community_oracle(graph, side)
        components = butterfly_connected_components(graph, np.array(vertices, dtype=np.int64), side)
        assert all(component.dtype == np.int64 for component in components)
        assert [component.tolist() for component in components] == components_of(vertices)
        # The oracle's adjacency is pair_wedge_count's.
        for a, b in itertools.combinations(vertices, 2):
            together = len(components_of([a, b])) == 1
            assert together == (pair_wedge_count(graph, a, b, side) >= 2)
        peel_side = graph if side == "U" else graph.swap_sides()
        induced = peel_side.induced_on_u_subset(vertices).graph
        assert level_wedge_work(graph, np.array(vertices, dtype=np.int64), side) == \
            induced.total_wedge_work("U")

    @pytest.mark.parametrize("side", ("U", "V"))
    @pytest.mark.parametrize("key", sorted(GRAPHS))
    def test_pinned_levels_match_the_oracle(self, key, side, community_oracle):
        graph = pinned_graph(key)
        tips = receipt_decomposition(graph, side).tip_numbers
        components_of = community_oracle(graph, side)
        for k in np.unique(tips):
            level = np.flatnonzero(tips >= k)
            if level.size > 2000:
                continue
            components = butterfly_connected_components(graph, level, side)
            assert [component.tolist() for component in components] == components_of(level), k


class TestTipHierarchy:
    def test_levels_are_distinct_tip_numbers(self, blocks_graph):
        result = bup_decomposition(blocks_graph, "U")
        hierarchy = TipHierarchy(blocks_graph, result)
        assert hierarchy.levels.tolist() == np.unique(result.tip_numbers).tolist()

    def test_level_sizes_monotone_decreasing(self, blocks_graph):
        result = bup_decomposition(blocks_graph, "U")
        hierarchy = TipHierarchy(blocks_graph, result)
        sizes = [hierarchy.level_sizes()[int(level)] for level in hierarchy.levels]
        assert sizes == sorted(sizes, reverse=True)

    def test_vertices_at_nested(self, community_graph):
        result = bup_decomposition(community_graph, "U")
        hierarchy = TipHierarchy(community_graph, result)
        levels = hierarchy.levels
        if levels.size >= 2:
            low, high = int(levels[0]), int(levels[-1])
            assert set(hierarchy.vertices_at(high).tolist()) <= set(hierarchy.vertices_at(low).tolist())

    def test_strongest_tip_members_have_max_tip_number(self, blocks_graph):
        result = bup_decomposition(blocks_graph, "U")
        hierarchy = TipHierarchy(blocks_graph, result)
        strongest = hierarchy.strongest_tip()
        if result.max_tip_number > 0:
            assert np.all(result.tip_numbers[strongest] == result.max_tip_number)

    def test_subgraph_at_level(self, blocks_graph):
        result = bup_decomposition(blocks_graph, "U")
        hierarchy = TipHierarchy(blocks_graph, result)
        k = max(1, result.max_tip_number)
        induced = hierarchy.subgraph_at(k)
        assert induced.graph.n_u == hierarchy.vertices_at(k).size

    def test_subgraph_at_level_v_side(self, blocks_graph):
        result = bup_decomposition(blocks_graph, "V")
        hierarchy = TipHierarchy(blocks_graph, result)
        k = max(1, result.max_tip_number)
        induced = hierarchy.subgraph_at(k)
        assert induced.graph.n_u == hierarchy.vertices_at(k).size

    def test_tips_at_level_cover_level_vertices(self, blocks_graph):
        result = bup_decomposition(blocks_graph, "U")
        hierarchy = TipHierarchy(blocks_graph, result)
        k = max(1, result.max_tip_number // 2)
        tips = hierarchy.tips_at(k)
        covered = sorted(int(v) for tip in tips for v in tip)
        assert covered == sorted(hierarchy.vertices_at(k).tolist())
