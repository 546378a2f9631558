"""Unit tests for the core BipartiteGraph data structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphConstructionError, VertexSideError
from repro.graph.bipartite import BipartiteGraph, opposite_side, validate_side
from repro.graph.builders import complete_bipartite, from_edge_list


class TestConstruction:
    def test_basic_construction(self):
        graph = BipartiteGraph(3, 2, [(0, 0), (1, 1), (2, 0)])
        assert graph.n_u == 3
        assert graph.n_v == 2
        assert graph.n_edges == 3
        assert graph.n_vertices == 5

    def test_empty_graph(self):
        graph = BipartiteGraph(4, 3, [])
        assert graph.n_edges == 0
        assert graph.degrees_u().tolist() == [0, 0, 0, 0]
        assert graph.degrees_v().tolist() == [0, 0, 0]

    def test_zero_vertices(self):
        graph = BipartiteGraph(0, 0, [])
        assert graph.n_vertices == 0
        assert list(graph.edges()) == []

    def test_isolated_vertices_allowed(self):
        graph = BipartiteGraph(5, 5, [(0, 0)])
        assert graph.degree_u(4) == 0
        assert graph.degree_v(4) == 0

    def test_negative_sizes_rejected(self):
        with pytest.raises(GraphConstructionError):
            BipartiteGraph(-1, 3, [])

    def test_out_of_range_u_rejected(self):
        with pytest.raises(GraphConstructionError, match="U vertex"):
            BipartiteGraph(2, 2, [(2, 0)])

    def test_out_of_range_v_rejected(self):
        with pytest.raises(GraphConstructionError, match="V vertex"):
            BipartiteGraph(2, 2, [(0, 5)])

    def test_negative_vertex_rejected(self):
        with pytest.raises(GraphConstructionError, match="non-negative"):
            BipartiteGraph(2, 2, [(0, -1)])

    def test_duplicate_edges_rejected_by_default(self):
        with pytest.raises(GraphConstructionError, match="duplicate"):
            BipartiteGraph(2, 2, [(0, 0), (0, 0)])

    def test_duplicate_edges_collapsed_when_allowed(self):
        graph = BipartiteGraph(2, 2, [(0, 0), (0, 0), (1, 1)], allow_duplicates=True)
        assert graph.n_edges == 2

    def test_non_integer_edges_rejected(self):
        with pytest.raises(GraphConstructionError):
            BipartiteGraph(2, 2, [("a", "b")])

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(GraphConstructionError):
            BipartiteGraph(2, 2, [(0, 1, 2)])

    def test_edge_array_input(self):
        edges = np.array([[0, 1], [1, 0]], dtype=np.int64)
        graph = BipartiteGraph(2, 2, edges)
        assert graph.n_edges == 2


class TestAccessors:
    def test_degrees(self, tiny_graph):
        assert tiny_graph.degree_u(1) == 4
        assert tiny_graph.degree_u(2) == 5
        assert tiny_graph.degrees_u().sum() == tiny_graph.n_edges
        assert tiny_graph.degrees_v().sum() == tiny_graph.n_edges

    def test_neighbors_sorted(self, tiny_graph):
        for u in range(tiny_graph.n_u):
            neighbors = tiny_graph.neighbors_u(u)
            assert np.all(np.diff(neighbors) > 0)
        for v in range(tiny_graph.n_v):
            neighbors = tiny_graph.neighbors_v(v)
            assert np.all(np.diff(neighbors) > 0)

    def test_adjacency_symmetry(self, tiny_graph):
        for u, v in tiny_graph.edges():
            assert u in tiny_graph.neighbors_v(v).tolist()
            assert v in tiny_graph.neighbors_u(u).tolist()

    def test_has_edge(self, tiny_graph):
        assert tiny_graph.has_edge(0, 0)
        assert not tiny_graph.has_edge(0, 6)
        assert not tiny_graph.has_edge(100, 0)
        assert not tiny_graph.has_edge(0, 100)

    def test_edges_iteration_matches_edge_array(self, tiny_graph):
        listed = list(tiny_graph.edges())
        array = tiny_graph.edge_array()
        assert len(listed) == array.shape[0] == tiny_graph.n_edges
        assert listed == [(int(u), int(v)) for u, v in array]

    def test_edge_array_cached(self, tiny_graph):
        assert tiny_graph.edge_array() is tiny_graph.edge_array()

    def test_side_dispatch(self, tiny_graph):
        assert tiny_graph.side_size("U") == tiny_graph.n_u
        assert tiny_graph.side_size("V") == tiny_graph.n_v
        assert tiny_graph.degree(1, "U") == tiny_graph.degree_u(1)
        assert tiny_graph.degree(1, "V") == tiny_graph.degree_v(1)
        assert np.array_equal(tiny_graph.neighbors(2, "U"), tiny_graph.neighbors_u(2))
        assert np.array_equal(tiny_graph.degrees("V"), tiny_graph.degrees_v())

    def test_csr_shapes(self, tiny_graph):
        offsets, neighbors = tiny_graph.csr("U")
        assert offsets.shape[0] == tiny_graph.n_u + 1
        assert neighbors.shape[0] == tiny_graph.n_edges
        offsets_v, neighbors_v = tiny_graph.csr("V")
        assert offsets_v.shape[0] == tiny_graph.n_v + 1
        assert neighbors_v.shape[0] == tiny_graph.n_edges

    def test_invalid_side_raises(self, tiny_graph):
        with pytest.raises(VertexSideError):
            tiny_graph.degrees("W")

    def test_equality_and_hash(self, tiny_graph):
        clone = from_edge_list(list(tiny_graph.edges()), n_u=8, n_v=7)
        assert clone == tiny_graph
        assert hash(clone) == hash(tiny_graph)
        different = from_edge_list([(0, 0)], n_u=8, n_v=7)
        assert different != tiny_graph
        assert tiny_graph != "not a graph"


class TestSideHelpers:
    def test_validate_side(self):
        assert validate_side("u") == "U"
        assert validate_side("V") == "V"
        with pytest.raises(VertexSideError):
            validate_side("X")

    def test_opposite_side(self):
        assert opposite_side("U") == "V"
        assert opposite_side("v") == "U"


class TestWedgeStatistics:
    def test_wedge_endpoint_count_complete(self, complete_4x3):
        # K_{4,3}: wedges with endpoints in U = |V| * C(|U|, 2) = 3 * 6 = 18.
        assert complete_4x3.wedge_endpoint_count("U") == 18
        assert complete_4x3.wedge_endpoint_count("V") == 4 * 3

    def test_wedge_work_per_vertex(self, complete_4x3):
        # Every U vertex touches all 3 V vertices of degree 4 -> work 12.
        work = complete_4x3.wedge_work_per_vertex("U")
        assert work.tolist() == [12, 12, 12, 12]
        assert complete_4x3.total_wedge_work("U") == 48

    def test_wedge_work_star(self, star_graph):
        # Star: every leaf sees the center of degree 6.
        assert star_graph.wedge_work_per_vertex("U").tolist() == [6] * 6
        assert star_graph.wedge_endpoint_count("U") == 15  # C(6, 2)
        assert star_graph.wedge_endpoint_count("V") == 0

    def test_empty_graph_wedges(self, empty):
        assert empty.wedge_endpoint_count("U") == 0
        assert empty.total_wedge_work("U") == 0
        assert empty.counting_wedge_bound() == 0

    def test_counting_bound_below_peel_work(self, blocks_graph):
        assert blocks_graph.counting_wedge_bound() <= blocks_graph.total_wedge_work("U")
        assert blocks_graph.counting_wedge_bound() <= blocks_graph.total_wedge_work("V")

    def test_counting_bound_complete(self, complete_4x3):
        # Every edge contributes min(4, 3) = 3.
        assert complete_4x3.counting_wedge_bound() == 12 * 3


class TestSwapSides:
    def test_swap_sides_roundtrip(self, tiny_graph):
        swapped = tiny_graph.swap_sides()
        assert swapped.n_u == tiny_graph.n_v
        assert swapped.n_v == tiny_graph.n_u
        assert swapped.n_edges == tiny_graph.n_edges
        assert sorted((v, u) for u, v in tiny_graph.edges()) == sorted(swapped.edges())

    def test_swap_preserves_wedge_statistics(self, blocks_graph):
        swapped = blocks_graph.swap_sides()
        assert swapped.wedge_endpoint_count("U") == blocks_graph.wedge_endpoint_count("V")
        assert swapped.total_wedge_work("V") == blocks_graph.total_wedge_work("U")

    def test_double_swap_equals_original(self, tiny_graph):
        assert tiny_graph.swap_sides().swap_sides() == tiny_graph


class TestInducedSubgraph:
    def test_induced_keeps_only_selected_edges(self, tiny_graph):
        induced = tiny_graph.induced_on_u_subset(np.array([1, 2, 4]))
        assert induced.graph.n_u == 3
        assert induced.graph.n_v == tiny_graph.n_v
        expected_edges = sum(tiny_graph.degree_u(u) for u in (1, 2, 4))
        assert induced.graph.n_edges == expected_edges

    def test_induced_id_mapping_roundtrip(self, tiny_graph):
        subset = np.array([5, 2, 7])
        induced = tiny_graph.induced_on_u_subset(subset)
        for new_id, old_id in enumerate(subset):
            assert induced.to_parent_u(new_id) == old_id
            assert induced.to_induced_u(int(old_id)) == new_id
        assert induced.to_induced_u(0) == -1

    def test_induced_preserves_neighborhoods(self, tiny_graph):
        subset = np.array([2, 3])
        induced = tiny_graph.induced_on_u_subset(subset)
        for new_id, old_id in enumerate(subset):
            assert np.array_equal(
                induced.graph.neighbors_u(new_id), tiny_graph.neighbors_u(int(old_id))
            )

    def test_induced_empty_subset(self, tiny_graph):
        induced = tiny_graph.induced_on_u_subset(np.array([], dtype=np.int64))
        assert induced.graph.n_u == 0
        assert induced.graph.n_edges == 0

    def test_induced_rejects_out_of_range(self, tiny_graph):
        with pytest.raises(GraphConstructionError):
            tiny_graph.induced_on_u_subset(np.array([100]))

    def test_induced_rejects_duplicates(self, tiny_graph):
        with pytest.raises(GraphConstructionError):
            tiny_graph.induced_on_u_subset(np.array([1, 1]))

    @pytest.mark.parametrize("subset", [[-1], [2, 8], [3, 1, 3], [0, 5, 2, 5, 7]])
    def test_induced_rejects_negative_and_scattered_duplicates(self, tiny_graph, subset):
        with pytest.raises(GraphConstructionError):
            tiny_graph.induced_on_u_subset(np.array(subset))

    @settings(max_examples=80, deadline=None)
    @given(
        edges=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 8)),
                       max_size=70, unique=True),
        picks=st.lists(st.integers(0, 11), max_size=12, unique=True),
    )
    def test_induced_matches_validating_constructor(self, edges, picks):
        # Built from the CSR, the induced graph must equal what the validating
        # constructor builds from the filtered, renumbered edge list — in
        # both CSR directions and both id maps, for any subset order.
        graph = BipartiteGraph(12, 9, edges)
        induced = graph.induced_on_u_subset(np.array(picks, dtype=np.int64))
        new_of_old = {old: new for new, old in enumerate(picks)}
        expected = BipartiteGraph(
            len(picks), 9, [(new_of_old[u], v) for u, v in edges if u in new_of_old]
        )
        assert induced.graph.n_u == len(picks)
        assert induced.graph.n_edges == expected.n_edges
        actual_arrays = induced.graph.csr_arrays()
        for key, array in expected.csr_arrays().items():
            assert actual_arrays[key].dtype == np.int64, key
            assert np.array_equal(actual_arrays[key], array), key
        assert induced.u_old_of_new.tolist() == picks
        expected_map = np.full(12, -1, dtype=np.int64)
        expected_map[picks] = np.arange(len(picks))
        assert np.array_equal(induced.u_new_of_old, expected_map)

    def test_induced_full_set_is_isomorphic(self, tiny_graph):
        induced = tiny_graph.induced_on_u_subset(np.arange(tiny_graph.n_u))
        assert induced.graph.n_edges == tiny_graph.n_edges
        assert induced.graph.wedge_endpoint_count("U") == tiny_graph.wedge_endpoint_count("U")
