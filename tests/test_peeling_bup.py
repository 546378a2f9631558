"""Unit tests for sequential bottom-up peeling (BUP)."""

import numpy as np
import pytest

from repro.analysis.verification import check_basic_invariants
from repro.butterfly.counting import count_per_vertex_priority
from repro.graph.builders import complete_bipartite, empty_graph, from_edge_list, star
from repro.peeling.bup import bup_decomposition, peel_sequential


class TestClosedFormCases:
    def test_complete_bipartite_all_equal(self):
        # K_{4,3} is itself a 9-tip on the U side: every U vertex has
        # (4-1) * C(3,2) = 9 butterflies, so theta_u = 9 for everyone (the
        # max{theta, ...} clamp of Alg. 2 keeps tip numbers non-decreasing).
        graph = complete_bipartite(4, 3)
        result = bup_decomposition(graph, "U")
        assert set(result.tip_numbers.tolist()) == {9}

    def test_complete_bipartite_v_side(self):
        graph = complete_bipartite(4, 3)
        result = bup_decomposition(graph, "V")
        # Symmetric argument: theta_v = (3-1) * C(4,2) = 12 for every V vertex.
        assert set(result.tip_numbers.tolist()) == {12}

    def test_star_all_zero(self):
        result = bup_decomposition(star(6, center_side="V"), "U")
        assert result.tip_numbers.tolist() == [0] * 6
        assert result.max_tip_number == 0

    def test_empty_graph(self):
        result = bup_decomposition(empty_graph(4, 2), "U")
        assert result.tip_numbers.tolist() == [0] * 4

    def test_single_butterfly(self):
        graph = complete_bipartite(2, 2)
        result = bup_decomposition(graph, "U")
        assert result.tip_numbers.tolist() == [1, 1]

    def test_two_disjoint_butterflies(self):
        edges = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
        graph = from_edge_list(edges, n_u=4, n_v=4)
        result = bup_decomposition(graph, "U")
        assert result.tip_numbers.tolist() == [1, 1, 1, 1]

    def test_nested_hierarchy_monotone(self, hierarchy_graph):
        # Later levels have strictly larger neighbourhoods and must not end
        # up with smaller tip numbers than earlier levels on average.
        result = bup_decomposition(hierarchy_graph, "U")
        assert result.max_tip_number > 0
        assert result.tip_numbers.max() > result.tip_numbers.min()


class TestResultStructure:
    def test_result_fields(self, blocks_graph):
        result = bup_decomposition(blocks_graph, "U")
        assert result.algorithm == "BUP"
        assert result.side == "U"
        assert result.n_vertices == blocks_graph.n_u
        assert result.counters.vertices_peeled == blocks_graph.n_u
        assert result.counters.wedges_traversed > 0
        assert result.counters.elapsed_seconds > 0
        assert check_basic_invariants(blocks_graph, result).passed

    def test_tip_bounded_by_butterfly_count(self, blocks_graph, community_graph):
        for graph in (blocks_graph, community_graph):
            result = bup_decomposition(graph, "U")
            assert np.all(result.tip_numbers <= result.initial_butterflies)

    def test_precomputed_counts_reused(self, blocks_graph):
        counts = count_per_vertex_priority(blocks_graph)
        result = bup_decomposition(blocks_graph, "U", counts=counts)
        reference = bup_decomposition(blocks_graph, "U")
        assert np.array_equal(result.tip_numbers, reference.tip_numbers)

    def test_histogram_and_cumulative(self, blocks_graph):
        result = bup_decomposition(blocks_graph, "U")
        histogram = result.histogram()
        assert sum(histogram.values()) == blocks_graph.n_u
        values, fractions = result.cumulative_distribution()
        assert values.shape[0] == blocks_graph.n_u
        assert fractions[-1] == pytest.approx(1.0)

    def test_vertices_with_tip_at_least(self, blocks_graph):
        result = bup_decomposition(blocks_graph, "U")
        k = max(1, result.max_tip_number // 2)
        members = result.vertices_with_tip_at_least(k)
        assert np.all(result.tip_numbers[members] >= k)
        non_members = np.setdiff1d(np.arange(blocks_graph.n_u), members)
        assert np.all(result.tip_numbers[non_members] < k)

    def test_summary_contents(self, blocks_graph):
        summary = bup_decomposition(blocks_graph, "U").summary()
        assert summary["algorithm"] == "BUP"
        assert summary["n_vertices"] == blocks_graph.n_u
        assert "wedges_traversed" in summary


class TestSequentialPeelKernel:
    def test_wrong_support_length_rejected(self, blocks_graph):
        with pytest.raises(ValueError, match="entries"):
            peel_sequential(blocks_graph, "U", np.zeros(3))


class TestSideSymmetry:
    def test_v_side_equals_swapped_u_side(self, blocks_graph):
        direct = bup_decomposition(blocks_graph, "V")
        swapped = bup_decomposition(blocks_graph.swap_sides(), "U")
        assert np.array_equal(direct.tip_numbers, swapped.tip_numbers)
