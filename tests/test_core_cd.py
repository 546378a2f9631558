"""Unit tests for RECEIPT Coarse-grained Decomposition (CD)."""

import numpy as np
import pytest

from repro.butterfly.counting import count_per_vertex_priority
from repro.core.cd import coarse_grained_decomposition
from repro.core.hybrid import RecountCostBound, recount_cost
from repro.graph.builders import complete_bipartite, star
from repro.peeling.bup import bup_decomposition


def _run_cd(graph, n_partitions=4, **kwargs):
    counts = count_per_vertex_priority(graph).u_counts
    return coarse_grained_decomposition(graph, counts, n_partitions, **kwargs), counts


class TestPartitionStructure:
    def test_every_vertex_assigned_exactly_once(self, blocks_graph):
        cd, _ = _run_cd(blocks_graph)
        assigned = np.concatenate(cd.subsets) if cd.subsets else np.zeros(0, dtype=np.int64)
        assert sorted(assigned.tolist()) == list(range(blocks_graph.n_u))

    def test_bounds_strictly_increasing(self, blocks_graph, community_graph):
        for graph in (blocks_graph, community_graph):
            cd, _ = _run_cd(graph)
            assert np.all(np.diff(cd.bounds) > 0)
            assert cd.bounds[0] == 0
            assert len(cd.bounds) == cd.n_subsets + 1

    def test_tip_numbers_fall_inside_assigned_range(self, blocks_graph, community_graph):
        # Theorem 1: a vertex of subset i has theta in [bounds[i], bounds[i+1]).
        for graph in (blocks_graph, community_graph):
            cd, _ = _run_cd(graph, n_partitions=5)
            reference = bup_decomposition(graph, "U").tip_numbers
            for index, subset in enumerate(cd.subsets):
                lower, upper = cd.range_of_subset(index)
                assert np.all(reference[subset] >= lower), f"subset {index} lower bound"
                assert np.all(reference[subset] < upper), f"subset {index} upper bound"

    def test_init_supports_match_residual_butterflies(self, blocks_graph):
        # For a vertex of subset i, init_supports equals its butterflies with
        # vertices of subsets >= i (Sec. 3: the FD support initialisation).
        from repro.butterfly.counting import count_per_vertex_priority as counter

        cd, _ = _run_cd(blocks_graph, n_partitions=4)
        membership = cd.subset_of_vertex()
        for index, subset in enumerate(cd.subsets):
            if subset.size == 0:
                continue
            survivors = np.flatnonzero(membership >= index)
            induced = blocks_graph.induced_on_u_subset(survivors)
            induced_counts = counter(induced.graph).u_counts
            position_of = {int(v): i for i, v in enumerate(survivors)}
            for vertex in subset:
                assert cd.init_supports[vertex] == induced_counts[position_of[int(vertex)]]

    def test_subset_of_vertex_mapping(self, blocks_graph):
        cd, _ = _run_cd(blocks_graph)
        membership = cd.subset_of_vertex()
        for index, subset in enumerate(cd.subsets):
            assert np.all(membership[subset] == index)
        assert np.all(membership >= 0)

    def test_single_partition_takes_everything(self, blocks_graph):
        cd, _ = _run_cd(blocks_graph, n_partitions=1)
        # One planned range plus at most one leftover subset.
        assert cd.n_subsets <= 2
        assigned = np.concatenate(cd.subsets)
        assert assigned.size == blocks_graph.n_u

    def test_more_partitions_than_distinct_supports(self, complete_4x3):
        counts = count_per_vertex_priority(complete_4x3).u_counts
        cd = coarse_grained_decomposition(complete_4x3, counts, 10)
        assigned = np.concatenate([s for s in cd.subsets if s.size])
        assert sorted(assigned.tolist()) == [0, 1, 2, 3]

    def test_star_graph_single_zero_range(self):
        graph = star(5, center_side="V")
        counts = count_per_vertex_priority(graph).u_counts
        cd = coarse_grained_decomposition(graph, counts, 3)
        assert np.concatenate(cd.subsets).size == 5
        assert all(np.all(cd.init_supports[s] == 0) for s in cd.subsets)

    def test_invalid_partition_count(self, blocks_graph):
        counts = count_per_vertex_priority(blocks_graph).u_counts
        with pytest.raises(ValueError):
            coarse_grained_decomposition(blocks_graph, counts, 0)

    def test_wrong_support_length(self, blocks_graph):
        with pytest.raises(ValueError):
            coarse_grained_decomposition(blocks_graph, np.zeros(2), 4)


class TestInstrumentation:
    def test_counters_populated(self, blocks_graph):
        cd, _ = _run_cd(blocks_graph)
        assert cd.counters.synchronization_rounds > 0
        assert cd.counters.wedges_traversed > 0
        assert cd.counters.vertices_peeled == blocks_graph.n_u
        assert cd.counters.elapsed_seconds > 0

    def test_iteration_records_consistent(self, blocks_graph):
        cd, _ = _run_cd(blocks_graph)
        assert len(cd.iteration_records) == cd.counters.synchronization_rounds
        # Iteration records cover exactly the subsets peeled by the main loop
        # (a leftover subset, if any, is appended without peeling iterations).
        planned_subsets = len(cd.targeter_history)
        peeled_in_loop = sum(int(subset.size) for subset in cd.subsets[:planned_subsets])
        assert sum(r["vertices_peeled"] for r in cd.iteration_records) == peeled_in_loop
        for record in cd.iteration_records:
            assert record["upper_bound"] > record["lower_bound"]

    def test_fewer_rounds_than_parb_levels(self, community_graph):
        # The raison d'etre of CD: far fewer synchronization rounds than
        # one-round-per-support-level peeling.
        from repro.peeling.parbutterfly import parbutterfly_decomposition

        cd, _ = _run_cd(community_graph, n_partitions=4)
        parb = parbutterfly_decomposition(community_graph, "U")
        assert cd.counters.synchronization_rounds < parb.counters.synchronization_rounds

    def test_huc_disabled_never_recounts(self, blocks_graph):
        cd, _ = _run_cd(blocks_graph, enable_huc=False)
        assert cd.counters.recount_invocations == 0
        assert all(not record["recounted"] for record in cd.iteration_records)

    def test_targeter_history_length(self, blocks_graph):
        cd, _ = _run_cd(blocks_graph, n_partitions=6)
        assert len(cd.targeter_history) <= 6


class TestOptimizationToggles:
    @pytest.mark.parametrize("enable_huc", [True, False])
    @pytest.mark.parametrize("enable_dgm", [True, False])
    def test_partitions_respect_ranges_under_all_toggles(
        self, community_graph, enable_huc, enable_dgm
    ):
        cd, _ = _run_cd(
            community_graph, n_partitions=4, enable_huc=enable_huc, enable_dgm=enable_dgm
        )
        reference = bup_decomposition(community_graph, "U").tip_numbers
        for index, subset in enumerate(cd.subsets):
            lower, upper = cd.range_of_subset(index)
            assert np.all(reference[subset] >= lower)
            assert np.all(reference[subset] < upper)

    def test_dgm_reduces_wedge_traversal(self, community_graph):
        with_dgm, _ = _run_cd(community_graph, enable_huc=False, enable_dgm=True)
        without_dgm, _ = _run_cd(community_graph, enable_huc=False, enable_dgm=False)
        assert with_dgm.counters.wedges_traversed <= without_dgm.counters.wedges_traversed
        assert with_dgm.counters.dgm_compactions >= 0

    def test_dgm_compactions_counts_every_compaction(self, community_graph, monkeypatch):
        # Compactions run inside peel_batch as well as after HUC recounts;
        # the counter must report all of them.
        from repro.graph.dynamic import PeelableAdjacency

        calls = []
        compact = PeelableAdjacency.compact

        def counted_compact(adjacency):
            calls.append(1)
            return compact(adjacency)

        monkeypatch.setattr(PeelableAdjacency, "compact", counted_compact)
        cd, _ = _run_cd(community_graph, n_partitions=6, enable_dgm=True)
        assert len(calls) > 0
        assert cd.counters.dgm_compactions == len(calls)


CD_COUNTERS = ("wedges_traversed", "counting_wedges", "peeling_wedges", "support_updates",
               "synchronization_rounds", "vertices_peeled", "recount_invocations",
               "dgm_compactions")


@pytest.fixture
def recount_cost_calls(monkeypatch):
    """Count CD's calls to the exact re-count cost."""
    import repro.core.cd as cd_module

    calls = []

    def counted_recount_cost(*args):
        calls.append(1)
        return recount_cost(*args)

    monkeypatch.setattr(cd_module, "recount_cost", counted_recount_cost)
    return calls


class TestHucCostBound:
    @pytest.mark.parametrize("factor", [-1.0, -1e-9, float("nan")])
    def test_rejects_negative_or_nan_cost_factor(self, blocks_graph, factor):
        with pytest.raises(ValueError):
            _run_cd(blocks_graph, huc_cost_factor=factor)

    @pytest.mark.parametrize("factor", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("n_partitions", [4, 20])
    def test_lower_bound_never_exceeds_exact_cost(
        self, medium_random_graph, monkeypatch, factor, n_partitions
    ):
        graph = medium_random_graph
        edges = graph.edge_array()
        original = RecountCostBound.peel_is_cheaper
        checked = []

        def checking(self, cost_of_peeling, cost_factor):
            exact = recount_cost(graph, self.residual)
            assert self.lower <= exact
            residual_edges = edges[self.residual[edges[:, 0]]]
            assert np.array_equal(
                self.residual_degrees, np.bincount(residual_edges[:, 1], minlength=graph.n_v)
            )
            checked.append(exact)
            return original(self, cost_of_peeling, cost_factor)

        monkeypatch.setattr(RecountCostBound, "peel_is_cheaper", checking)
        cd, _ = _run_cd(graph, n_partitions=n_partitions, huc_cost_factor=factor)
        assert len(checked) == cd.counters.synchronization_rounds

    @pytest.mark.parametrize("graph_name", ["blocks_graph", "community_graph",
                                            "medium_random_graph"])
    @pytest.mark.parametrize("factor", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("n_partitions", [4, 20])
    def test_shortcut_matches_exact_test_every_round(
        self, request, monkeypatch, recount_cost_calls, graph_name, factor, n_partitions
    ):
        graph = request.getfixturevalue(graph_name)
        runs = {}
        for variant in ("bound", "exact"):
            if variant == "exact":
                # Stub the shortcut out: every round then computes the exact
                # cost and decides from it alone.
                monkeypatch.setattr(RecountCostBound, "peel_is_cheaper",
                                    lambda self, cost_of_peeling, cost_factor: False)
            recount_cost_calls.clear()
            cd, _ = _run_cd(graph, n_partitions=n_partitions, huc_cost_factor=factor)
            runs[variant] = (cd, len(recount_cost_calls))
        (bound, bound_calls), (exact, exact_calls) = runs["bound"], runs["exact"]

        assert exact_calls == exact.counters.synchronization_rounds
        assert bound_calls <= exact_calls
        assert bound.iteration_records == exact.iteration_records
        assert np.array_equal(bound.bounds, exact.bounds)
        assert len(bound.subsets) == len(exact.subsets)
        for ours, theirs in zip(bound.subsets, exact.subsets):
            assert np.array_equal(ours, theirs)
        assert np.array_equal(bound.init_supports, exact.init_supports)
        for name in CD_COUNTERS:
            assert getattr(bound.counters, name) == getattr(exact.counters, name), name

    def test_bound_skips_most_exact_costs(self, medium_random_graph, recount_cost_calls):
        cd, _ = _run_cd(medium_random_graph, n_partitions=20, huc_cost_factor=3.0)
        assert cd.counters.recount_invocations > 0
        assert len(recount_cost_calls) < cd.counters.synchronization_rounds / 2
