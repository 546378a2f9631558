"""Unit tests for the shared support-update (peel) routine."""

import numpy as np

from repro.butterfly.counting import count_per_vertex_priority
from repro.butterfly.wedges import shared_butterflies
from repro.graph.builders import complete_bipartite
from repro.graph.dynamic import PeelableAdjacency
from repro.peeling.update import peel_batch, peel_vertex


def _setup(graph, side="U", enable_dgm=False):
    counts = count_per_vertex_priority(graph)
    supports = counts.counts(side).copy()
    adjacency = PeelableAdjacency(graph, side, enable_dgm=enable_dgm)
    return supports, adjacency


class TestPeelVertex:
    def test_decrements_by_shared_butterflies(self, tiny_graph):
        supports, adjacency = _setup(tiny_graph)
        before = supports.copy()
        vertex = 2
        adjacency.mark_peeled(vertex)
        update = peel_vertex(adjacency, supports, vertex, threshold=0)
        for other in range(tiny_graph.n_u):
            if other == vertex:
                continue
            expected = max(0, before[other] - shared_butterflies(tiny_graph, vertex, other))
            assert supports[other] == expected
        assert update.wedges_traversed == sum(
            tiny_graph.degree_v(int(v)) for v in tiny_graph.neighbors_u(vertex)
        )

    def test_threshold_clamps_supports(self, complete_4x3):
        supports, adjacency = _setup(complete_4x3)
        threshold = int(supports[1]) - 1
        adjacency.mark_peeled(0)
        peel_vertex(adjacency, supports, 0, threshold=threshold)
        assert np.all(supports[1:] >= threshold)

    def test_updates_skip_peeled_vertices(self, complete_4x3):
        supports, adjacency = _setup(complete_4x3)
        adjacency.mark_peeled(1)
        frozen = int(supports[1])
        adjacency.mark_peeled(0)
        update = peel_vertex(adjacency, supports, 0, threshold=0)
        assert supports[1] == frozen
        assert 1 not in update.updated_vertices.tolist()

    def test_isolated_vertex_no_updates(self):
        from repro.graph.bipartite import BipartiteGraph

        graph = BipartiteGraph(3, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        supports, adjacency = _setup(graph)
        adjacency.mark_peeled(2)
        update = peel_vertex(adjacency, supports, 2, threshold=0)
        assert update.wedges_traversed == 0
        assert update.support_updates == 0

    def test_vertices_without_shared_butterflies_untouched(self):
        from repro.graph.builders import from_edge_list

        # u0 and u1 share one neighbour (a wedge but no butterfly).
        graph = from_edge_list([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)], n_u=3, n_v=3)
        supports, adjacency = _setup(graph)
        adjacency.mark_peeled(0)
        update = peel_vertex(adjacency, supports, 0, threshold=0)
        assert update.support_updates == 0

    def test_returns_new_support_values(self, complete_4x3):
        supports, adjacency = _setup(complete_4x3)
        adjacency.mark_peeled(0)
        update = peel_vertex(adjacency, supports, 0, threshold=0)
        for vertex, new_support in zip(update.updated_vertices, update.new_supports):
            assert supports[vertex] == new_support


class TestPeelBatch:
    def test_batch_equivalent_to_sequential_updates(self, blocks_graph):
        # Peeling a batch must decrement every surviving vertex by the sum of
        # butterflies it shares with batch members (Lemma 2).
        supports, adjacency = _setup(blocks_graph)
        before = supports.copy()
        batch = np.array([0, 1, 2, 3, 4])
        peel_batch(adjacency, supports, batch, threshold=0)
        batch_set = set(batch.tolist())
        for vertex in range(blocks_graph.n_u):
            if vertex in batch_set:
                continue
            shared_total = sum(
                shared_butterflies(blocks_graph, vertex, member) for member in batch
            )
            assert supports[vertex] == max(0, before[vertex] - shared_total)

    def test_batch_members_marked_peeled(self, blocks_graph):
        supports, adjacency = _setup(blocks_graph)
        batch = np.array([5, 6, 7])
        peel_batch(adjacency, supports, batch, threshold=0)
        for member in batch:
            assert not adjacency.is_alive(int(member))

    def test_batch_does_not_update_its_own_members(self, complete_4x3):
        supports, adjacency = _setup(complete_4x3)
        before = supports.copy()
        batch = np.array([0, 1])
        update = peel_batch(adjacency, supports, batch, threshold=0)
        assert set(update.updated_vertices.tolist()).isdisjoint({0, 1})
        # Member supports are untouched (their values are frozen at peel time).
        assert supports[0] == before[0]
        assert supports[1] == before[1]

    def test_empty_batch(self, blocks_graph):
        supports, adjacency = _setup(blocks_graph)
        update = peel_batch(adjacency, supports, np.array([], dtype=np.int64), threshold=0)
        assert update.wedges_traversed == 0
        assert update.support_updates == 0

    def test_wedge_accounting_accumulates(self, complete_4x3):
        supports, adjacency = _setup(complete_4x3)
        update = peel_batch(adjacency, supports, np.array([0, 1]), threshold=0)
        # Each peel traverses |N(u)| * |U| = 3 * 4 = 12 stale-inclusive wedges
        # (no compaction yet), so two peels traverse 24.
        assert update.wedges_traversed == 24

    def test_dgm_compacts_between_batches(self, complete_4x3):
        # DGM runs between synchronization rounds: at interval 1 a batch
        # compacts exactly once, after its last member, so the next batch
        # gathers from the compacted adjacency.
        runs = {}
        for enable_dgm in (True, False):
            supports, adjacency = _setup(complete_4x3, enable_dgm=enable_dgm)
            adjacency.compaction_interval = 1
            first = peel_batch(adjacency, supports, np.array([0, 1]), threshold=0)
            compactions = adjacency.compactions_performed
            second = peel_batch(adjacency, supports, np.array([2]), threshold=0)
            runs[enable_dgm] = (first, compactions, second, supports)
        first, compactions, second, supports = runs[True]
        first_off, compactions_off, second_off, supports_off = runs[False]
        assert (compactions, compactions_off) == (1, 0)
        # Members of the first batch stay in the adjacency until it ends.
        assert first.wedges_traversed == first_off.wedges_traversed == 24
        assert second.wedges_traversed < second_off.wedges_traversed
        # Final supports are identical regardless of DGM.
        assert np.array_equal(supports, supports_off)
