"""Execution-engine tests: backend equivalence, task descriptors, the pool.

The engine's contract is that ``serial`` / ``thread`` / ``process`` backends
produce bit-identical results — tip numbers and the paper's work counters
(``wedges_traversed``, ``support_updates``) — because every backend runs the
same task body on the same inputs.  The property-based suite checks that
contract on randomly generated seeded graphs; the process pool is shared
across examples (that is what persistent pools are for), so the whole suite
stays fast.
"""

from __future__ import annotations

import ast
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.receipt import receipt_decomposition
from repro.datasets.generators import random_bipartite
from repro.engine import (
    FdTaskResult,
    ProcessBackend,
    build_fd_tasks,
    create_backend,
    execute_fd_task,
)
from repro.errors import ReproError
from repro.graph.bipartite import BipartiteGraph

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.fixture(scope="module")
def process_engine():
    """One persistent two-worker process pool shared by the whole module."""
    with ProcessBackend(2) as engine:
        engine.warmup()
        yield engine


def _decompose(graph, engine=None, **config):
    return receipt_decomposition(graph, "U", n_partitions=4, engine=engine, **config)


def _assert_equivalent(reference, candidate):
    assert np.array_equal(reference.tip_numbers, candidate.tip_numbers)
    assert reference.counters.wedges_traversed == candidate.counters.wedges_traversed
    assert reference.counters.support_updates == candidate.counters.support_updates
    assert reference.counters.vertices_peeled == candidate.counters.vertices_peeled
    # Counting and CD run one kernel path under every backend, so all their
    # counters agree, scratch peaks included, and so do the recorded regions.
    for phase in ("pvBcnt", "cd"):
        expected = reference.phase_counters[phase].as_dict()
        actual = candidate.phase_counters[phase].as_dict()
        del expected["elapsed_seconds"], actual["elapsed_seconds"]
        assert actual == expected, phase
    regions = reference.extra["parallel_regions"]
    assert len(candidate.extra["parallel_regions"]) == len(regions)
    for theirs, ours in zip(regions, candidate.extra["parallel_regions"]):
        assert (ours.name, ours.n_tasks, ours.total_work, ours.scheduling) == (
            theirs.name, theirs.n_tasks, theirs.total_work, theirs.scheduling)
        assert np.array_equal(ours.task_work, theirs.task_work), ours.name


class TestBackendEquivalence:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           n_edges=st.integers(min_value=0, max_value=160))
    def test_all_backends_bit_identical(self, process_engine, seed, n_edges):
        graph = random_bipartite(24, 18, n_edges, seed=seed)
        serial = _decompose(graph)
        threaded = _decompose(graph, backend="thread", n_threads=2)
        processed = _decompose(graph, process_engine)
        _assert_equivalent(serial, threaded)
        _assert_equivalent(serial, processed)

    def test_process_backend_on_fixture_graphs(self, blocks_graph, community_graph,
                                               process_engine):
        for graph in (blocks_graph, community_graph):
            serial = _decompose(graph)
            processed = _decompose(graph, process_engine)
            _assert_equivalent(serial, processed)
            # The run leaves a caller-owned pool running.
            assert process_engine._executor is not None
            # The per-phase FD counters must agree too, not just the totals.
            assert (serial.phase_counters["fd"].wedges_traversed
                    == processed.phase_counters["fd"].wedges_traversed)
            assert (serial.phase_counters["fd"].support_updates
                    == processed.phase_counters["fd"].support_updates)

    def test_empty_graph_through_process_backend(self, empty, process_engine):
        serial = _decompose(empty)
        processed = _decompose(empty, process_engine)
        _assert_equivalent(serial, processed)

    def test_unknown_backend_rejected(self, blocks_graph):
        with pytest.raises(ReproError):
            create_backend("gpu")
        with pytest.raises(ReproError):
            _decompose(blocks_graph, backend="gpu")


class TestBackendLifecycle:
    def test_invalid_worker_count(self):
        with pytest.raises(ReproError):
            create_backend("thread", n_workers=0)

    def test_context_manager_shuts_down(self):
        with create_backend("thread", n_workers=2) as engine:
            engine.warmup()
            assert engine._executor is not None
        assert engine._executor is None


class TestTaskDescriptors:
    def test_build_fd_tasks_ranges_cover_subsets(self, blocks_graph):
        subsets = [np.array([3, 1]), np.zeros(0, dtype=np.int64), np.array([0, 2, 4])]
        supports = np.arange(blocks_graph.n_u, dtype=np.int64) * 10
        vertices, tasks = build_fd_tasks(blocks_graph, subsets, supports)
        assert [share.tolist() for share in vertices] == [[3, 1], [], [0, 2, 4]]
        assert [task.subset_ids for task in tasks] == [(0,), (1,), (2,)]
        assert [task.boundaries for task in tasks] == [(0, 2), (0, 0), (0, 3)]
        assert [task.n_vertices for task in tasks] == [2, 0, 3]
        offsets, neighbors = blocks_graph.csr("U")
        for share, task in zip(vertices, tasks):
            # Each task carries its own rows, supports and |V|: nothing else
            # of the graph.
            rows = [neighbors[offsets[u]:offsets[u + 1]] for u in share]
            assert task.u_degrees.tolist() == [row.size for row in rows]
            assert task.u_neighbors.tolist() == [int(v) for row in rows for v in row]
            assert np.array_equal(task.init_supports, supports[share])
            assert task.n_v == blocks_graph.n_v

    def test_task_pickle_round_trip(self, blocks_graph):
        subsets = [np.array([5, 7, 9]), np.array([2])]
        supports = np.arange(blocks_graph.n_u, dtype=np.int64)
        _, (task,) = build_fd_tasks(blocks_graph, subsets, supports, [[1, 0]],
                                    wedge_budget=123, trace=True)
        clone = pickle.loads(pickle.dumps(task))
        assert (clone.subset_ids, clone.boundaries, clone.n_v) == ((1, 0), (0, 1, 4),
                                                                   blocks_graph.n_v)
        assert (clone.wedge_budget, clone.trace) == (123, True)
        for name in ("u_neighbors", "u_degrees", "init_supports"):
            assert np.array_equal(getattr(clone, name), getattr(task, name)), name
        assert np.array_equal(execute_fd_task(clone).tip_numbers,
                              execute_fd_task(task).tip_numbers)

    def test_task_pickle_grows_with_its_share_not_the_graph(self):
        graph = random_bipartite(3000, 2000, 30000, seed=4)
        subset = np.arange(0, 40, 2, dtype=np.int64)
        _, (task,) = build_fd_tasks(graph, [subset], np.zeros(graph.n_u, dtype=np.int64))
        k, e = subset.size, int(task.u_degrees.sum())
        assert 0 < e < graph.n_edges // 100
        # Rows (e ids), degrees (k) and supports (k), eight bytes each, plus
        # the pickle's fixed framing.
        assert len(pickle.dumps(task)) <= 8 * (2 * k + e) + 1024

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
        vertices, tasks = build_fd_tasks(blocks_graph, cd.subsets, cd.init_supports)
        results = [execute_fd_task(task) for task in tasks]
        assert sum(result.n_vertices for result in results) == blocks_graph.n_u
        tip_numbers = np.zeros(blocks_graph.n_u, dtype=np.int64)
        for result, share in zip(results, vertices):
            tip_numbers[share] = result.tip_numbers
        from repro.peeling.bup import bup_decomposition

        assert np.array_equal(tip_numbers, bup_decomposition(blocks_graph, "U").tip_numbers)


def _run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter (one thread, no pool) and return stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC.parent) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    completed = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                               capture_output=True, text=True, timeout=120, env=env)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip()


class TestProcessPool:
    def test_start_method_follows_the_thread_count(self):
        """Fork on Linux while the parent has one thread, spawn otherwise.

        Creating the executor starts no worker: that waits for the first
        submit, so checking the rule costs no process.
        """
        output = _run_python("""
            import multiprocessing, threading
            from repro.engine import ProcessBackend
            stop = threading.Event()
            for extra_thread in (False, True):
                if extra_thread:
                    threading.Thread(target=stop.wait).start()
                engine = ProcessBackend(2)
                executor = engine._ensure_executor()
                assert not executor._processes and not multiprocessing.active_children()
                print(executor._mp_context.get_start_method())
                engine.shutdown()
            stop.set()
        """)
        single = "fork" if sys.platform.startswith("linux") else "spawn"
        assert output.split() == [single, "spawn"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the pool forks only on Linux; a spawn pool's "
                               "locks start the resource tracker")
    def test_a_process_run_leaves_no_helper_process(self):
        output = _run_python("""
            import multiprocessing
            from multiprocessing import resource_tracker
            from repro.core.receipt import receipt_decomposition
            from repro.datasets.generators import random_bipartite
            graph = random_bipartite(40, 30, 240, seed=3)
            result = receipt_decomposition(graph, "U", backend="process", n_threads=2)
            assert len(result.extra["subset_records"]) > 1
            print(multiprocessing.active_children(),
                  resource_tracker._resource_tracker._pid)
        """)
        assert output == "[] None"


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


def test_only_the_engine_and_coalescer_create_executors():
    """One execution API: no other module builds its own worker pool."""
    pools = {"ThreadPoolExecutor", "ProcessPoolExecutor"}
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in pools:
                    sites.append((path.relative_to(SRC).as_posix(), node.lineno))
    assert sites, "the scan found no executor at all"
    modules = {module for module, _ in sites}
    assert modules <= {"engine/backends.py", "service/coalesce.py"}, sites
