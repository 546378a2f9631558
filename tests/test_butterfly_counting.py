"""Unit tests for butterfly counting kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.butterfly.counting import (
    _build_ranked_index,
    count_per_vertex,
    count_per_vertex_priority,
    count_total_butterflies,
)
from repro.butterfly.naive import (
    count_butterflies_exhaustive,
    count_per_vertex_wedge,
    count_per_vertex_wedge_restricted,
    enumerate_butterflies,
)
from repro.datasets.generators import random_bipartite
from repro.errors import ReproError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.builders import complete_bipartite, empty_graph, from_edge_list, star
from repro.graph.relabel import degree_priority
from repro.kernels.csr import segment_ids
from repro.kernels.workspace import WedgeWorkspace


class TestExhaustiveEnumeration:
    def test_single_butterfly(self):
        graph = complete_bipartite(2, 2)
        butterflies = list(enumerate_butterflies(graph))
        assert butterflies == [(0, 1, 0, 1)]

    def test_complete_graph_count(self):
        graph = complete_bipartite(4, 3)
        _, _, total = count_butterflies_exhaustive(graph)
        assert total == 6 * 3  # C(4,2) * C(3,2)

    def test_star_has_no_butterflies(self):
        graph = star(5, center_side="V")
        u_counts, v_counts, total = count_butterflies_exhaustive(graph)
        assert total == 0
        assert u_counts.sum() == 0
        assert v_counts.sum() == 0

    def test_per_vertex_counts_complete(self):
        graph = complete_bipartite(3, 3)
        u_counts, v_counts, total = count_butterflies_exhaustive(graph)
        # Each U vertex is in C(2,1)... specifically (n_u-1 choose 1)*(C(n_v,2)).
        assert u_counts.tolist() == [2 * 3] * 3
        assert v_counts.tolist() == [2 * 3] * 3
        assert total == 9


class TestVertexPriorityCounting:
    def test_matches_exhaustive_on_fixtures(self, tiny_graph, blocks_graph, hierarchy_graph):
        for graph in (tiny_graph, blocks_graph, hierarchy_graph):
            counts = count_per_vertex_priority(graph)
            u_expected, v_expected, total = count_butterflies_exhaustive(graph)
            assert np.array_equal(counts.u_counts, u_expected)
            assert np.array_equal(counts.v_counts, v_expected)
            assert counts.total_butterflies == total

    def test_matches_exhaustive_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n_u, n_v = int(rng.integers(2, 25)), int(rng.integers(2, 25))
            graph = random_bipartite(
                n_u, n_v, int(rng.integers(1, min(80, n_u * n_v + 1))),
                seed=int(rng.integers(1_000_000)),
            )
            counts = count_per_vertex_priority(graph)
            u_expected, v_expected, _ = count_butterflies_exhaustive(graph)
            assert np.array_equal(counts.u_counts, u_expected)
            assert np.array_equal(counts.v_counts, v_expected)

    def test_empty_graph(self):
        counts = count_per_vertex_priority(empty_graph(3, 3))
        assert counts.total_butterflies == 0
        assert counts.wedges_traversed == 0

    def test_single_edge(self):
        counts = count_per_vertex_priority(from_edge_list([(0, 0)]))
        assert counts.total_butterflies == 0

    def test_wedge_bound_respected(self, blocks_graph):
        counts = count_per_vertex_priority(blocks_graph)
        assert counts.wedges_traversed <= blocks_graph.counting_wedge_bound()

    def test_side_sums_agree(self, blocks_graph):
        counts = count_per_vertex_priority(blocks_graph)
        # Each butterfly has two vertices on each side.
        assert counts.u_counts.sum() == counts.v_counts.sum()
        assert counts.u_counts.sum() == 2 * counts.total_butterflies

    def test_counts_accessor(self, blocks_graph):
        counts = count_per_vertex_priority(blocks_graph)
        assert np.array_equal(counts.counts("U"), counts.u_counts)
        assert np.array_equal(counts.counts("v"), counts.v_counts)

    @pytest.mark.parametrize("seed", range(4))
    def test_ranked_index_matches_lexsort_order(self, seed):
        # The index argsorts (mid, rank) keys of the start side's edges in
        # place of a lexsort over the mid side's rows; both must give the
        # same rows, and every start edge's prefix must count the entries
        # of its mid's row ranked below min(rank(start), rank(mid)).
        graph = random_bipartite(30, 20, 150, seed=seed)
        priority = degree_priority(graph)
        for mid_side, mid_ranks, ranks in (("V", priority.v_rank, priority.u_rank),
                                           ("U", priority.u_rank, priority.v_rank)):
            offsets, neighbors = graph.csr(mid_side)
            mid_of_entry = segment_ids(np.diff(offsets))
            order = np.lexsort((ranks[neighbors], mid_of_entry))
            index = _build_ranked_index(graph, mid_side, mid_ranks, ranks)
            assert np.array_equal(index.offsets, offsets)
            assert np.array_equal(index.entries >> index.mid_bits, neighbors[order])
            assert np.array_equal(index.entries & ((1 << index.mid_bits) - 1), mid_of_entry)

            start_offsets, mids = graph.csr("U" if mid_side == "V" else "V")
            starts = segment_ids(np.diff(start_offsets))
            cutoffs = np.minimum(ranks[starts], mid_ranks[mids])
            expected = [int(np.count_nonzero(ranks[graph.neighbors(mid, mid_side)] < cutoff))
                        for mid, cutoff in zip(mids, cutoffs)]
            assert np.array_equal(index.row_starts, offsets[mids])
            assert index.prefix.tolist() == expected


def _priority_wedges_by_enumeration(graph):
    """Wedges ``sp - mp - ep`` with ``rank(ep) < min(rank(sp), rank(mp))``, both centre sides."""
    priority = degree_priority(graph)
    total = 0
    for start_side, mid_side, start_ranks, mid_ranks in (
        ("U", "V", priority.u_rank, priority.v_rank),
        ("V", "U", priority.v_rank, priority.u_rank),
    ):
        for start in range(graph.side_size(start_side)):
            for mid in graph.neighbors(start, start_side):
                cutoff = min(start_ranks[start], mid_ranks[mid])
                total += sum(1 for end in graph.neighbors(mid, mid_side)
                             if start_ranks[end] < cutoff)
    return total


@st.composite
def _small_graphs(draw):
    # Few vertices and a narrow degree range force degree ties; ids above
    # the largest endpoint stay isolated, and a side may be empty.
    n_u, n_v = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    if n_u == 0 or n_v == 0:
        return BipartiteGraph(n_u, n_v, [])
    edges = draw(st.sets(st.tuples(st.integers(0, n_u - 1), st.integers(0, n_v - 1)),
                         max_size=40))
    return BipartiteGraph(n_u, n_v, sorted(edges))


class TestPriorityCountingExactness:
    @settings(max_examples=150, deadline=None)
    @given(graph=_small_graphs(), budget=st.one_of(st.none(), st.integers(1, 24)),
           narrow_ids=st.booleans())
    def test_counts_and_wedges_match_enumeration(self, graph, budget, narrow_ids):
        workspace = WedgeWorkspace(wedge_budget=budget, narrow_ids=narrow_ids)
        counts = count_per_vertex_priority(graph, workspace=workspace)
        u_expected, v_expected, _ = count_butterflies_exhaustive(graph)
        assert np.array_equal(counts.u_counts, u_expected)
        assert np.array_equal(counts.v_counts, v_expected)
        assert counts.wedges_traversed == _priority_wedges_by_enumeration(graph)


class TestWedgeAggregationCounting:
    def test_matches_priority(self, blocks_graph):
        priority = count_per_vertex_priority(blocks_graph)
        wedge_u, _ = count_per_vertex_wedge(blocks_graph, "U")
        wedge_v, _ = count_per_vertex_wedge(blocks_graph, "V")
        assert np.array_equal(priority.u_counts, wedge_u)
        assert np.array_equal(priority.v_counts, wedge_v)

    def test_traverses_more_wedges_than_priority(self, medium_random_graph):
        priority = count_per_vertex_priority(medium_random_graph)
        _, wedge_traversed = count_per_vertex_wedge(medium_random_graph, "U")
        assert wedge_traversed >= priority.wedges_traversed / 2

    def test_restricted_counting_full_mask_matches(self, blocks_graph):
        full_mask = np.ones(blocks_graph.n_u, dtype=bool)
        restricted, _ = count_per_vertex_wedge_restricted(blocks_graph, "U", full_mask)
        unrestricted, _ = count_per_vertex_wedge(blocks_graph, "U")
        assert np.array_equal(restricted, unrestricted)

    def test_restricted_counting_matches_induced_subgraph(self, blocks_graph):
        mask = np.zeros(blocks_graph.n_u, dtype=bool)
        mask[: blocks_graph.n_u // 2] = True
        restricted, _ = count_per_vertex_wedge_restricted(blocks_graph, "U", mask)
        induced = blocks_graph.induced_on_u_subset(np.flatnonzero(mask))
        induced_counts = count_per_vertex_priority(induced.graph)
        assert np.array_equal(restricted[np.flatnonzero(mask)], induced_counts.u_counts)
        assert restricted[~mask].sum() == 0


class TestDispatcher:
    def test_algorithms_agree(self, blocks_graph):
        results = {
            name: count_per_vertex(blocks_graph, algorithm=name)
            for name in ("vertex-priority", "wedge")
        }
        baseline = results["vertex-priority"]
        for name, counts in results.items():
            assert np.array_equal(counts.u_counts, baseline.u_counts), name
            assert np.array_equal(counts.v_counts, baseline.v_counts), name

    def test_unknown_algorithm_rejected(self, blocks_graph):
        with pytest.raises(ReproError, match="unknown"):
            count_per_vertex(blocks_graph, algorithm="magic")

    def test_count_total_butterflies(self, complete_4x3):
        assert count_total_butterflies(complete_4x3) == 6 * 3
