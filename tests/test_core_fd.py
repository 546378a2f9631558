"""Unit tests for RECEIPT Fine-grained Decomposition (FD)."""

import numpy as np
import pytest

from repro.butterfly.counting import count_per_vertex_priority
from repro.core.cd import coarse_grained_decomposition
from repro.core.fd import fd_share_schedule, fine_grained_decomposition
from repro.engine import ThreadBackend
from repro.peeling.bup import bup_decomposition


@pytest.fixture
def cd_and_reference(blocks_graph):
    counts = count_per_vertex_priority(blocks_graph).u_counts
    cd = coarse_grained_decomposition(blocks_graph, counts, 4)
    reference = bup_decomposition(blocks_graph, "U")
    return blocks_graph, cd, reference


class TestExactness:
    def test_matches_bup(self, cd_and_reference):
        graph, cd, reference = cd_and_reference
        fd = fine_grained_decomposition(graph, cd)
        assert np.array_equal(fd.tip_numbers, reference.tip_numbers)

    def test_matches_bup_without_workload_aware_order(self, cd_and_reference):
        graph, cd, reference = cd_and_reference
        fd = fine_grained_decomposition(graph, cd, workload_aware=False)
        assert np.array_equal(fd.tip_numbers, reference.tip_numbers)

    def test_matches_bup_with_real_threads(self, cd_and_reference):
        graph, cd, reference = cd_and_reference
        with ThreadBackend(4) as engine:
            fd = fine_grained_decomposition(graph, cd, engine=engine)
        assert np.array_equal(fd.tip_numbers, reference.tip_numbers)

    def test_many_partitions(self, community_graph):
        counts = count_per_vertex_priority(community_graph).u_counts
        reference = bup_decomposition(community_graph, "U")
        for n_partitions in (1, 2, 7, 20):
            cd = coarse_grained_decomposition(community_graph, counts, n_partitions)
            fd = fine_grained_decomposition(community_graph, cd)
            assert np.array_equal(fd.tip_numbers, reference.tip_numbers), n_partitions


class TestWorkAccounting:
    def test_subset_records_cover_all_subsets(self, cd_and_reference):
        graph, cd, _ = cd_and_reference
        fd = fine_grained_decomposition(graph, cd)
        assert len(fd.subset_records) == cd.n_subsets
        assert sorted(r.subset_index for r in fd.subset_records) == list(range(cd.n_subsets))
        assert sum(r.n_vertices for r in fd.subset_records) == graph.n_u

    def test_fd_traverses_fewer_wedges_than_cd(self, community_graph):
        # The induced subgraphs collectively contain far fewer wedges than
        # the original graph (the Fig. 2 observation).
        counts = count_per_vertex_priority(community_graph).u_counts
        cd = coarse_grained_decomposition(community_graph, counts, 5)
        fd = fine_grained_decomposition(community_graph, cd)
        assert fd.counters.wedges_traversed <= cd.counters.wedges_traversed

    def test_induced_edges_bounded_by_graph(self, cd_and_reference):
        graph, cd, _ = cd_and_reference
        fd = fine_grained_decomposition(graph, cd)
        assert sum(r.induced_edges for r in fd.subset_records) <= graph.n_edges

    def test_no_synchronization_rounds(self, cd_and_reference):
        graph, cd, _ = cd_and_reference
        fd = fine_grained_decomposition(graph, cd)
        assert fd.counters.synchronization_rounds == 0

    def test_subset_work_vector(self, cd_and_reference):
        graph, cd, _ = cd_and_reference
        fd = fine_grained_decomposition(graph, cd)
        work = fd.subset_work()
        assert work.shape[0] == cd.n_subsets
        assert work.sum() == fd.counters.wedges_traversed


class TestScheduling:
    def test_workload_aware_order_is_descending_in_estimated_work(self, cd_and_reference):
        graph, cd, _ = cd_and_reference
        fd = fine_grained_decomposition(graph, cd, workload_aware=True)
        wedge_work = graph.wedge_work_per_vertex("U")
        estimates = [float(wedge_work[s].sum()) if s.size else 0.0 for s in cd.subsets]
        scheduled = [estimates[i] for i in fd.schedule_order]
        assert scheduled == sorted(scheduled, reverse=True)

    def test_natural_order_without_was(self, cd_and_reference):
        graph, cd, _ = cd_and_reference
        fd = fine_grained_decomposition(graph, cd, workload_aware=False)
        assert fd.schedule_order == list(range(cd.n_subsets))

    @pytest.mark.parametrize("workload_aware", [True, False])
    def test_share_schedule_is_the_one_fd_runs(self, cd_and_reference, workload_aware):
        graph, cd, _ = cd_and_reference
        with ThreadBackend(2) as engine:
            fd = fine_grained_decomposition(graph, cd, engine=engine,
                                            workload_aware=workload_aware)
        work, schedule = fd_share_schedule(graph, cd.subsets, 2,
                                           workload_aware=workload_aware)
        wedge_work = graph.wedge_work_per_vertex("U")
        assert work.tolist() == [float(wedge_work[s].sum()) for s in cd.subsets]
        assert fd.schedule_order == schedule.order
        assert schedule.n_threads == 2 and schedule.total_work == work.sum()
