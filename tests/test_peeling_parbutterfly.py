"""Unit tests for the ParButterfly-style (ParB) baseline."""

import numpy as np

from repro.graph.builders import complete_bipartite, empty_graph, star
from repro.peeling.bup import bup_decomposition
from repro.peeling.parbutterfly import parbutterfly_decomposition


class TestCorrectness:
    def test_matches_bup_on_fixtures(self, tiny_graph, blocks_graph, community_graph,
                                     hierarchy_graph):
        for graph in (tiny_graph, blocks_graph, community_graph, hierarchy_graph):
            for side in ("U", "V"):
                reference = bup_decomposition(graph, side)
                parb = parbutterfly_decomposition(graph, side)
                assert np.array_equal(reference.tip_numbers, parb.tip_numbers), (graph.name, side)

    def test_complete_graph(self):
        result = parbutterfly_decomposition(complete_bipartite(4, 3), "U")
        assert set(result.tip_numbers.tolist()) == {9}

    def test_star_and_empty(self):
        assert parbutterfly_decomposition(star(5), "U").max_tip_number == 0
        assert parbutterfly_decomposition(empty_graph(3, 3), "U").tip_numbers.tolist() == [0, 0, 0]


class TestRoundStructure:
    def test_rounds_bounded_by_vertices(self, blocks_graph):
        result = parbutterfly_decomposition(blocks_graph, "U")
        assert 0 < result.counters.synchronization_rounds <= blocks_graph.n_u

    def test_rounds_at_least_distinct_tip_values(self, blocks_graph):
        # Every distinct tip number needs at least one round that peels at
        # that support level.
        result = parbutterfly_decomposition(blocks_graph, "U")
        distinct = np.unique(result.tip_numbers).size
        assert result.counters.synchronization_rounds >= distinct

    def test_complete_graph_single_round(self):
        # All vertices share the minimum support, so one round peels them all.
        result = parbutterfly_decomposition(complete_bipartite(4, 4), "U")
        assert result.counters.synchronization_rounds == 1

    def test_wedges_match_bup(self, blocks_graph):
        # Without DGM both algorithms traverse every wedge of every peeled
        # vertex; the counting phase uses the same kernel.
        bup = bup_decomposition(blocks_graph, "U")
        parb = parbutterfly_decomposition(blocks_graph, "U")
        assert parb.counters.wedges_traversed == bup.counters.wedges_traversed

    def test_records_rounds_in_context(self, blocks_graph):
        result = parbutterfly_decomposition(blocks_graph, "U")
        regions = result.extra["parallel_regions"]
        assert [r.name for r in regions] == ["parb_round"] * len(regions)
        assert len(regions) == result.counters.synchronization_rounds
        assert sum(r.n_tasks for r in regions) == blocks_graph.n_u
        assert sum(r.total_work for r in regions) == result.counters.peeling_wedges


class TestMetadata:
    def test_result_fields(self, blocks_graph):
        result = parbutterfly_decomposition(blocks_graph, "U")
        assert result.algorithm == "ParB"
        assert result.counters.vertices_peeled == blocks_graph.n_u
