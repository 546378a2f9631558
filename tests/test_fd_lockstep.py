"""Exactness of FD's lockstep share peel.

An FD task peels a whole share of CD's subsets on one induced graph whose
centers are split per subset (``induced_on_u_subset(..., labels=...)``),
one :func:`~repro.peeling.bup.peel_levels` round per level across all of
them.  Whatever the shares, FD must assign BUP's tip numbers, and each
subset must peel exactly as it does alone: the same tip numbers, the same
wedges (its induced subgraph's static wedge work) and, summed over the
subsets, the same ``support_updates``.  The serial (one share), process
(two shares) and thread (four shares) backends must agree bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.butterfly.counting import count_per_vertex_priority
from repro.core.cd import coarse_grained_decomposition
from repro.core.fd import fine_grained_decomposition
from repro.engine import FdJob, build_fd_tasks, execute_fd_task
from repro.errors import GraphConstructionError
from repro.graph.bipartite import BipartiteGraph
from repro.parallel.threadpool import ExecutionContext
from repro.peeling.bup import bup_decomposition, peel_levels

KERNELS = ("batched", "reference")
PARTITIONS = (1, 4, 20)

edge_lists = st.lists(st.tuples(st.integers(0, 19), st.integers(0, 11)),
                      min_size=1, max_size=110, unique=True)


@pytest.fixture(scope="module")
def process_context():
    """One persistent two-worker process pool shared by the whole module."""
    with ExecutionContext(2, backend="process") as context:
        context.engine.warmup()
        yield context


def _cd(graph: BipartiteGraph, n_partitions: int):
    counts = count_per_vertex_priority(graph).u_counts
    return coarse_grained_decomposition(graph, counts, n_partitions)


def _peel_shares(graph, cd, shares, kernel):
    """θ, per-subset wedges and total support updates of one FD share layout."""
    flat, tasks = build_fd_tasks(cd.subsets, shares=shares)
    job = FdJob(graph=graph, subsets_flat=flat, init_supports=cd.init_supports,
                peel_kernel=kernel)
    tips = np.zeros(graph.n_u, dtype=np.int64)
    wedges: dict[int, int] = {}
    support_updates = 0
    for task in tasks:
        result = execute_fd_task(job, task)
        tips[flat[task.start:task.stop]] = result.tip_numbers
        # FD never compacts: the measured wedges are the static per-subset work.
        assert result.wedges_traversed == int(result.induced_wedge_work.sum())
        wedges.update(zip(task.subset_ids, result.induced_wedge_work.tolist()))
        support_updates += result.support_updates
    return tips, wedges, support_updates


def _assert_lockstep_exact(graph: BipartiteGraph, share_seed: int) -> None:
    expected = bup_decomposition(graph, "U").tip_numbers
    rng = np.random.default_rng(share_seed)
    for n_partitions in PARTITIONS:
        cd = _cd(graph, n_partitions)
        n_subsets = len(cd.subsets)
        one_group = [list(range(n_subsets))]
        # A random split into up to three shares, subsets in random order.
        owners = rng.integers(0, 3, size=n_subsets)
        mixed = [[int(i) for i in rng.permutation(n_subsets) if owners[i] == share]
                 for share in range(3)]
        for kernel in KERNELS:
            alone = _peel_shares(graph, cd, None, kernel)
            assert np.array_equal(alone[0], expected), (n_partitions, kernel)
            for shares in (one_group, mixed):
                together = _peel_shares(graph, cd, shares, kernel)
                assert np.array_equal(together[0], alone[0]), (n_partitions, kernel)
                assert together[1] == alone[1], (n_partitions, kernel)
                assert together[2] == alone[2], (n_partitions, kernel)
        for index, subset in enumerate(cd.subsets):
            induced = graph.induced_on_u_subset(subset).graph
            assert alone[1][index] == induced.total_wedge_work("U")


def _fd_fingerprint(fd):
    records = sorted(fd.subset_records, key=lambda record: record.subset_index)
    return (
        fd.tip_numbers.tolist(),
        fd.counters.wedges_traversed,
        fd.counters.support_updates,
        fd.counters.vertices_peeled,
        [(r.subset_index, r.n_vertices, r.induced_edges, r.induced_wedge_work,
          r.wedges_traversed) for r in records],
    )


class TestLockstepExactness:
    @settings(max_examples=25, deadline=None)
    @given(edges=edge_lists, share_seed=st.integers(0, 2**16))
    def test_hypothesis_shares_match_subsets_alone(self, edges, share_seed):
        _assert_lockstep_exact(BipartiteGraph(20, 12, edges), share_seed)

    def test_community_graph(self, community_graph):
        _assert_lockstep_exact(community_graph, 5)

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edges=edge_lists)
    def test_backends_agree_bit_for_bit(self, process_context, edges):
        graph = BipartiteGraph(20, 12, edges)
        for n_partitions in PARTITIONS:
            cd = _cd(graph, n_partitions)
            serial = fine_grained_decomposition(graph, cd)
            processed = fine_grained_decomposition(graph, cd, context=process_context)
            with ExecutionContext(4, backend="thread") as context:
                threaded = fine_grained_decomposition(graph, cd, context=context)
            assert _fd_fingerprint(processed) == _fd_fingerprint(serial)
            assert _fd_fingerprint(threaded) == _fd_fingerprint(serial)
            expected = bup_decomposition(graph, "U").tip_numbers
            assert np.array_equal(serial.tip_numbers, expected)


class TestShares:
    def test_one_task_per_worker_share(self, community_graph):
        cd = _cd(community_graph, 8)
        with ExecutionContext(3, backend="thread") as context:
            fd = fine_grained_decomposition(community_graph, cd, context=context)
        region = context.parallel_regions[-1]
        assert region.name == "fd_task_queue"
        assert region.n_tasks == min(3, cd.n_subsets)
        assert fine_grained_decomposition(community_graph, cd).schedule_order == (
            fd.schedule_order)

    def test_records_share_the_task_time(self, community_graph):
        cd = _cd(community_graph, 8)
        fd = fine_grained_decomposition(community_graph, cd)
        assert len(fd.subset_records) == cd.n_subsets
        # One share on the serial backend: its time splits by wedges.
        total = sum(record.elapsed_seconds for record in fd.subset_records)
        wedges = fd.counters.wedges_traversed
        assert 0 < total <= fd.counters.elapsed_seconds
        assert wedges == sum(r.wedges_traversed for r in fd.subset_records) > 0
        for record in fd.subset_records:
            assert record.elapsed_seconds == pytest.approx(
                total * record.wedges_traversed / wedges)

    def test_build_fd_tasks_lays_out_shares(self):
        subsets = [np.array([3, 1]), np.zeros(0, dtype=np.int64), np.array([0, 2, 4])]
        flat, tasks = build_fd_tasks(subsets, np.array([10.0, 0.0, 7.0]),
                                     shares=[[2, 0], [], [1]])
        assert flat.tolist() == [0, 2, 4, 3, 1]
        assert [(task.start, task.stop) for task in tasks] == [(0, 5), (5, 5)]
        assert [task.subset_ids for task in tasks] == [(2, 0), (1,)]
        assert [task.boundaries for task in tasks] == [(0, 3, 5), (0, 0)]
        assert [task.estimated_work for task in tasks] == [17.0, 0.0]

    def test_build_fd_tasks_rejects_incomplete_shares(self):
        subsets = [np.array([0]), np.array([1])]
        with pytest.raises(ValueError):
            build_fd_tasks(subsets, shares=[[0]])
        with pytest.raises(ValueError):
            build_fd_tasks(subsets, shares=[[0, 1], [1]])


class TestSplitInducedGraph:
    def test_each_label_is_its_own_induced_subgraph(self, community_graph):
        cd = _cd(community_graph, 6)
        share = np.concatenate(cd.subsets)
        labels = np.repeat(np.arange(len(cd.subsets)), [s.size for s in cd.subsets])
        split = community_graph.induced_on_u_subset(share, labels=labels).graph
        start = 0
        for label, subset in enumerate(cd.subsets):
            alone = community_graph.induced_on_u_subset(subset).graph
            rows = range(start, start + subset.size)
            centers = {int(c) for u in rows for c in split.neighbors_u(u)}
            # No center is shared with another label.
            for center in centers:
                owners = labels[split.neighbors_v(center)]
                assert set(owners.tolist()) == {label}
            assert sorted(split.degrees_v()[list(centers)].tolist()) == sorted(
                alone.degrees_v()[alone.degrees_v() > 0].tolist())
            start += subset.size
        assert split.total_wedge_work("U") == sum(
            community_graph.induced_on_u_subset(s).graph.total_wedge_work("U")
            for s in cd.subsets)

    def test_one_label_matches_unlabelled_up_to_isolated_centers(self, blocks_graph):
        subset = np.arange(0, blocks_graph.n_u, 2)
        plain = blocks_graph.induced_on_u_subset(subset).graph
        labelled = blocks_graph.induced_on_u_subset(
            subset, labels=np.zeros(subset.size, dtype=np.int64)).graph
        assert labelled.n_edges == plain.n_edges
        assert labelled.n_v == int(np.count_nonzero(plain.degrees_v()))
        assert np.array_equal(labelled.degrees_u(), plain.degrees_u())
        assert labelled.total_wedge_work("U") == plain.total_wedge_work("U")

    def test_rejects_bad_labels(self, blocks_graph):
        subset = np.array([0, 1, 2])
        with pytest.raises(GraphConstructionError):
            blocks_graph.induced_on_u_subset(subset, labels=np.array([1, 0, 0]))
        with pytest.raises(GraphConstructionError):
            blocks_graph.induced_on_u_subset(subset, labels=np.array([0, 0]))

    def test_peel_levels_rejects_bad_labels(self, blocks_graph):
        supports = np.zeros(blocks_graph.n_u, dtype=np.int64)
        with pytest.raises(ValueError):
            peel_levels(blocks_graph, "U", supports, labels=np.zeros(3, dtype=np.int64))
        labels = np.zeros(blocks_graph.n_u, dtype=np.int64)
        labels[0] = 1
        with pytest.raises(ValueError):
            peel_levels(blocks_graph, "U", supports, labels=labels)
