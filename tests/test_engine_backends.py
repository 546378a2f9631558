"""Execution-engine tests: backend equivalence, descriptors, shared memory.

The engine's contract is that ``serial`` / ``thread`` / ``process`` backends
produce bit-identical results — tip numbers and the paper's work counters
(``wedges_traversed``, ``support_updates``) — because every backend runs the
same task body on the same inputs.  The property-based suite checks that
contract on randomly generated seeded graphs; the process pool is shared
across examples (that is what persistent pools are for), so the whole suite
stays fast.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.receipt import receipt_decomposition
from repro.datasets.generators import random_bipartite
from repro.engine import (
    BACKEND_NAMES,
    FdJob,
    FdTask,
    FdTaskResult,
    attach_fd_job,
    build_fd_tasks,
    create_backend,
    execute_fd_task,
    share_fd_job,
)
from repro.errors import ReproError
from repro.graph.bipartite import BipartiteGraph
from repro.parallel.threadpool import ExecutionContext


@pytest.fixture(scope="module")
def process_context():
    """One persistent two-worker process pool shared by the whole module."""
    with ExecutionContext(2, backend="process") as context:
        context.engine.warmup()
        yield context


def _decompose(graph, context=None, backend="serial", n_threads=1):
    return receipt_decomposition(
        graph, "U", n_partitions=4, backend=backend, n_threads=n_threads,
        context=context,
    )


def _assert_equivalent(reference, candidate):
    assert np.array_equal(reference.tip_numbers, candidate.tip_numbers)
    assert reference.counters.wedges_traversed == candidate.counters.wedges_traversed
    assert reference.counters.support_updates == candidate.counters.support_updates
    assert reference.counters.vertices_peeled == candidate.counters.vertices_peeled


class TestBackendEquivalence:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           n_edges=st.integers(min_value=0, max_value=160))
    def test_all_backends_bit_identical(self, process_context, seed, n_edges):
        graph = random_bipartite(24, 18, n_edges, seed=seed)
        serial = _decompose(graph)
        threaded = _decompose(graph, backend="thread", n_threads=2)
        processed = _decompose(graph, context=process_context)
        _assert_equivalent(serial, threaded)
        _assert_equivalent(serial, processed)

    def test_process_backend_on_fixture_graphs(self, blocks_graph, community_graph,
                                               process_context):
        for graph in (blocks_graph, community_graph):
            serial = _decompose(graph)
            processed = _decompose(graph, context=process_context)
            _assert_equivalent(serial, processed)
            # The per-phase FD counters must agree too, not just the totals.
            assert (serial.phase_counters["fd"].wedges_traversed
                    == processed.phase_counters["fd"].wedges_traversed)
            assert (serial.phase_counters["fd"].support_updates
                    == processed.phase_counters["fd"].support_updates)

    def test_empty_graph_through_process_backend(self, empty, process_context):
        serial = _decompose(empty)
        processed = _decompose(empty, context=process_context)
        _assert_equivalent(serial, processed)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ExecutionContext(2, backend="gpu")
        with pytest.raises(ReproError):
            create_backend("gpu")


class TestTaskDescriptors:
    def test_build_fd_tasks_ranges_cover_subsets(self):
        subsets = [np.array([3, 1]), np.zeros(0, dtype=np.int64), np.array([0, 2, 4])]
        flat, tasks = build_fd_tasks(subsets, np.array([10.0, 0.0, 7.0]))
        assert flat.tolist() == [3, 1, 0, 2, 4]
        assert [(task.start, task.stop) for task in tasks] == [(0, 2), (2, 2), (2, 5)]
        assert [task.estimated_work for task in tasks] == [10.0, 0.0, 7.0]
        assert [task.n_vertices for task in tasks] == [2, 0, 3]

    def test_task_pickle_round_trip(self):
        task = FdTask(subset_index=5, start=16, stop=48, estimated_work=123.5)
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task

    def test_result_pickle_round_trip(self):
        result = FdTaskResult(
            subset_index=2, n_vertices=3, induced_edges=7, induced_wedge_work=19,
            wedges_traversed=11, support_updates=4,
            tip_numbers=np.array([5, 0, 2], dtype=np.int64), elapsed_seconds=0.25,
        )
        clone = pickle.loads(pickle.dumps(result))
        assert clone.subset_index == result.subset_index
        assert clone.support_updates == result.support_updates
        assert np.array_equal(clone.tip_numbers, result.tip_numbers)

    def test_execute_fd_task_matches_direct_peel(self, blocks_graph):
        from repro.butterfly.counting import count_per_vertex_priority
        from repro.core.cd import coarse_grained_decomposition

        counts = count_per_vertex_priority(blocks_graph).u_counts
        cd = coarse_grained_decomposition(blocks_graph, counts, 3)
        flat, tasks = build_fd_tasks(cd.subsets)
        job = FdJob(graph=blocks_graph, subsets_flat=flat,
                    init_supports=cd.init_supports)
        results = [execute_fd_task(job, task) for task in tasks]
        assert sum(result.n_vertices for result in results) == blocks_graph.n_u
        tip_numbers = np.zeros(blocks_graph.n_u, dtype=np.int64)
        for result, subset in zip(results, cd.subsets):
            tip_numbers[subset] = result.tip_numbers
        from repro.peeling.bup import bup_decomposition

        assert np.array_equal(tip_numbers, bup_decomposition(blocks_graph, "U").tip_numbers)


class TestSharedMemoryStore:
    def test_share_attach_round_trip(self, blocks_graph):
        flat = np.arange(blocks_graph.n_u, dtype=np.int64)
        supports = np.arange(blocks_graph.n_u, dtype=np.int64) * 3
        job = FdJob(graph=blocks_graph, subsets_flat=flat, init_supports=supports,
                    peel_kernel="reference")
        shared = share_fd_job(job)
        try:
            attached = attach_fd_job(shared.spec)
            try:
                assert attached.job.graph == blocks_graph
                assert attached.job.graph.n_edges == blocks_graph.n_edges
                assert np.array_equal(attached.job.subsets_flat, flat)
                assert np.array_equal(attached.job.init_supports, supports)
                assert attached.job.peel_kernel == "reference"
                # The store is write-once: attached views must be read-only.
                assert not attached.job.subsets_flat.flags.writeable
            finally:
                attached.close()
        finally:
            shared.destroy()

    def test_share_empty_graph(self, empty):
        job = FdJob(graph=empty, subsets_flat=np.zeros(0, dtype=np.int64),
                    init_supports=np.zeros(empty.n_u, dtype=np.int64))
        shared = share_fd_job(job)
        try:
            attached = attach_fd_job(shared.spec)
            try:
                assert attached.job.graph.n_edges == 0
                assert attached.job.subsets_flat.size == 0
            finally:
                attached.close()
        finally:
            shared.destroy()

    def test_spec_is_picklable_and_small(self, blocks_graph):
        job = FdJob(graph=blocks_graph, subsets_flat=np.zeros(1, dtype=np.int64),
                    init_supports=np.zeros(blocks_graph.n_u, dtype=np.int64))
        shared = share_fd_job(job)
        try:
            payload = pickle.dumps(shared.spec)
            # The whole point: what crosses the process boundary is a spec,
            # not the graph.
            assert len(payload) < 2048
            assert pickle.loads(payload) == shared.spec
        finally:
            shared.destroy()


class TestCsrArraysSurface:
    def test_from_csr_arrays_round_trip(self, medium_random_graph):
        arrays = medium_random_graph.csr_arrays()
        clone = BipartiteGraph.from_csr_arrays(
            medium_random_graph.n_u, medium_random_graph.n_v,
            arrays["u_offsets"], arrays["u_neighbors"],
            arrays["v_offsets"], arrays["v_neighbors"],
            name="clone",
        )
        assert clone == medium_random_graph
        assert clone.total_wedge_work("U") == medium_random_graph.total_wedge_work("U")

    def test_from_csr_arrays_validates_shapes(self, blocks_graph):
        arrays = blocks_graph.csr_arrays()
        with pytest.raises(Exception):
            BipartiteGraph.from_csr_arrays(
                blocks_graph.n_u + 1, blocks_graph.n_v,
                arrays["u_offsets"], arrays["u_neighbors"],
                arrays["v_offsets"], arrays["v_neighbors"],
            )


class TestContextIntegration:
    def test_run_tasks_accounts_work_per_task(self):
        context = ExecutionContext()
        context.run_tasks([lambda: 1, lambda: 2], name="weighted",
                          work_per_task=[10.0, 30.0])
        region = context.parallel_regions[-1]
        assert region.total_work == 40.0
        assert region.task_work == [10.0, 30.0]

    def test_run_tasks_rejects_mismatched_work(self):
        context = ExecutionContext()
        with pytest.raises(ValueError):
            context.run_tasks([lambda: 1, lambda: 2], work_per_task=[1.0])

    def test_run_fd_tasks_defaults_to_descriptor_work(self, blocks_graph):
        from repro.butterfly.counting import count_per_vertex_priority
        from repro.core.cd import coarse_grained_decomposition

        counts = count_per_vertex_priority(blocks_graph).u_counts
        cd = coarse_grained_decomposition(blocks_graph, counts, 3)
        flat, tasks = build_fd_tasks(cd.subsets, np.array([5.0] * len(cd.subsets)))
        job = FdJob(graph=blocks_graph, subsets_flat=flat,
                    init_supports=cd.init_supports)
        context = ExecutionContext()
        context.run_fd_tasks(job, tasks)
        region = context.parallel_regions[-1]
        assert region.total_work == 5.0 * len(tasks)
        with pytest.raises(ValueError):
            context.run_fd_tasks(job, tasks, work_per_task=[1.0])

    def test_thread_backend_shares_context_executor(self):
        with ExecutionContext(3, backend="thread") as context:
            engine = context.engine
            assert engine._executor is context._ensure_executor()
            assert engine._owns_executor is False
        # Exiting the context shuts the shared pool down exactly once.
        assert context._executor is None


def test_backend_names_stay_in_sync():
    from repro.parallel.threadpool import BACKEND_NAMES as CONTEXT_NAMES

    assert tuple(CONTEXT_NAMES) == tuple(BACKEND_NAMES)
