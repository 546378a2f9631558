"""Unit tests for Hybrid Update Computation (HUC) helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.butterfly.counting import count_per_vertex_priority
from repro.core.hybrid import (
    RecountCostBound,
    peel_cost,
    recount_cost,
    recount_supports,
    should_recount,
)
from repro.graph.bipartite import BipartiteGraph
from repro.graph.builders import complete_bipartite


class TestCosts:
    def test_peel_cost_sums_wedge_work(self, blocks_graph):
        work = blocks_graph.wedge_work_per_vertex("U")
        active = np.array([0, 3, 5])
        assert peel_cost(work, active) == int(work[[0, 3, 5]].sum())

    def test_peel_cost_empty(self, blocks_graph):
        work = blocks_graph.wedge_work_per_vertex("U")
        assert peel_cost(work, np.array([], dtype=np.int64)) == 0

    def test_recount_cost_full_graph_equals_counting_bound(self, blocks_graph):
        alive = np.ones(blocks_graph.n_u, dtype=bool)
        assert recount_cost(blocks_graph, alive) == blocks_graph.counting_wedge_bound()

    def test_recount_cost_empty(self, blocks_graph):
        alive = np.zeros(blocks_graph.n_u, dtype=bool)
        assert recount_cost(blocks_graph, alive) == 0

    def test_recount_cost_decreases_as_vertices_die(self, blocks_graph):
        full = recount_cost(blocks_graph, np.ones(blocks_graph.n_u, dtype=bool))
        half_mask = np.ones(blocks_graph.n_u, dtype=bool)
        half_mask[: blocks_graph.n_u // 2] = False
        assert recount_cost(blocks_graph, half_mask) <= full

    @settings(max_examples=60, deadline=None)
    @given(
        edges=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 7)),
                       max_size=70, unique=True),
        alive=st.lists(st.booleans(), min_size=13, max_size=13),
    )
    def test_recount_cost_matches_definition(self, edges, alive):
        graph = BipartiteGraph(13, 8, edges)
        residual = [(u, v) for u, v in edges if alive[u]]
        residual_degree = {v: sum(1 for _, w in residual if w == v) for _, v in residual}
        expected = sum(min(graph.degree_u(u), residual_degree[v]) for u, v in residual)
        assert recount_cost(graph, np.array(alive)) == expected

    def test_should_recount_decision(self):
        assert should_recount(100, 50)
        assert not should_recount(50, 100)
        assert not should_recount(50, 50)


class TestRecountSupports:
    def test_full_mask_matches_fresh_count(self, blocks_graph):
        alive = np.ones(blocks_graph.n_u, dtype=bool)
        outcome = recount_supports(blocks_graph, alive)
        fresh = count_per_vertex_priority(blocks_graph)
        assert np.array_equal(outcome.supports, fresh.u_counts)
        assert outcome.wedges_traversed == fresh.wedges_traversed

    def test_partial_mask_matches_induced_subgraph(self, blocks_graph):
        alive = np.zeros(blocks_graph.n_u, dtype=bool)
        alive[::2] = True
        outcome = recount_supports(blocks_graph, alive)
        induced = blocks_graph.induced_on_u_subset(np.flatnonzero(alive))
        induced_counts = count_per_vertex_priority(induced.graph)
        assert np.array_equal(outcome.supports[np.flatnonzero(alive)], induced_counts.u_counts)
        # Dead vertices report zero butterflies.
        assert outcome.supports[~alive].sum() == 0

    def test_empty_mask(self, blocks_graph):
        outcome = recount_supports(blocks_graph, np.zeros(blocks_graph.n_u, dtype=bool))
        assert outcome.supports.sum() == 0
        assert outcome.wedges_traversed == 0

    def test_recount_equals_peeling_effect(self, complete_4x3):
        # Recounting after deleting a vertex set must equal the initial count
        # minus the butterflies shared with the deleted set (what peeling
        # would have computed) — the core HUC equivalence.
        from repro.butterfly.wedges import shared_butterflies

        initial = count_per_vertex_priority(complete_4x3).u_counts
        alive = np.array([False, True, True, True])
        outcome = recount_supports(complete_4x3, alive)
        for vertex in (1, 2, 3):
            expected = initial[vertex] - shared_butterflies(complete_4x3, 0, vertex)
            assert outcome.supports[vertex] == expected


class TestRecountCostBound:
    def test_starts_exact(self, blocks_graph):
        bound = RecountCostBound(blocks_graph)
        assert bound.lower == blocks_graph.counting_wedge_bound()
        assert bound.residual.all()
        assert np.array_equal(bound.residual_degrees, blocks_graph.degrees_v())

    @settings(max_examples=60, deadline=None)
    @given(
        edges=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 7)),
                       max_size=80, unique=True),
        order_seed=st.integers(0, 2**16),
        resets=st.lists(st.booleans(), min_size=16, max_size=16),
    )
    def test_lower_bound_holds_through_removals(self, edges, order_seed, resets):
        graph = BipartiteGraph(16, 8, edges)
        edge_array = graph.edge_array()
        bound = RecountCostBound(graph)
        rng = np.random.default_rng(order_seed)
        order = rng.permutation(graph.n_u)
        position = 0
        for reset in resets:
            if position >= order.size:
                break
            batch = np.sort(order[position: position + int(rng.integers(1, 5))])
            position += batch.size
            bound.remove(batch)
            exact = recount_cost(graph, bound.residual)
            assert bound.lower <= exact
            residual_edges = edge_array[bound.residual[edge_array[:, 0]]]
            assert np.array_equal(
                bound.residual_degrees, np.bincount(residual_edges[:, 1], minlength=graph.n_v)
            )
            if reset:
                # The bound's own exact cost compacts its residual edges only
                # here, so evaluations skip arbitrary runs of removals.
                assert recount_cost(graph, bound.residual, bound) == exact
                bound.lower = exact

    def test_recount_cost_rejects_a_foreign_mask_with_a_bound(self, blocks_graph):
        bound = RecountCostBound(blocks_graph)
        with pytest.raises(ValueError):
            recount_cost(blocks_graph, bound.residual.copy(), bound)

    def test_peel_is_cheaper_compares_against_scaled_bound(self, blocks_graph):
        bound = RecountCostBound(blocks_graph)
        assert bound.peel_is_cheaper(bound.lower, 1.0)
        assert not bound.peel_is_cheaper(bound.lower + 1, 1.0)
        assert bound.peel_is_cheaper(3 * bound.lower, 3.0)
        assert bound.peel_is_cheaper(0, 0.0)
