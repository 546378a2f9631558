"""Equivalence of the batched peel kernel with the per-vertex reference.

The batched kernel (:func:`repro.peeling.peel_batch` with
``kernel="batched"``) must reproduce the sequential reference
(:mod:`repro.peeling.reference`) bit-for-bit: identical final supports,
identical ``wedges_traversed`` (including the stale entries governed by DGM
compaction timing) and identical ``support_updates``.  This suite checks the
contract on seeded random graphs, via hypothesis-generated edge lists, and
end-to-end through the decomposition algorithms' ``peel_kernel`` plumbing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.butterfly.counting import count_per_vertex_priority
from repro.core.receipt import receipt_decomposition
from repro.datasets.generators import power_law_bipartite, random_bipartite
from repro.graph.bipartite import BipartiteGraph
from repro.graph.dynamic import PeelableAdjacency
from repro.kernels.csr import compact_csr, gather_rows, int_bincount, segment_sums
from repro.peeling.bup import bup_decomposition
from repro.peeling.parbutterfly import parbutterfly_decomposition
from repro.peeling.update import peel_batch, peel_vertex


def _assert_batches_equivalent(graph, *, enable_dgm, compaction_interval, seed):
    """Peel the whole U side in random batches with both kernels and compare."""
    rng = np.random.default_rng(seed)
    counts = count_per_vertex_priority(graph)
    supports = {"reference": counts.u_counts.copy(), "batched": counts.u_counts.copy()}
    adjacency = {
        name: PeelableAdjacency(
            graph, "U", enable_dgm=enable_dgm, compaction_interval=compaction_interval
        )
        for name in supports
    }

    order = rng.permutation(graph.n_u)
    position = 0
    while position < order.shape[0]:
        batch = order[position: position + int(rng.integers(1, 9))]
        position += batch.shape[0]
        threshold = int(rng.integers(0, 5))
        reference = peel_batch(
            adjacency["reference"], supports["reference"], batch, threshold,
            kernel="reference",
        )
        batched = peel_batch(
            adjacency["batched"], supports["batched"], batch, threshold,
            kernel="batched",
        )
        assert batched.wedges_traversed == reference.wedges_traversed
        assert batched.support_updates == reference.support_updates
        assert sorted(batched.updated_vertices.tolist()) == sorted(
            reference.updated_vertices.tolist()
        )
        for update in (reference, batched):
            name = "reference" if update is reference else "batched"
            assert np.array_equal(
                supports[name][update.updated_vertices], update.new_supports
            )
        assert np.array_equal(supports["reference"], supports["batched"])
        assert (
            adjacency["batched"].compactions_performed
            == adjacency["reference"].compactions_performed
        )
        assert (
            adjacency["batched"].entries_removed
            == adjacency["reference"].entries_removed
        )


class TestBatchKernelEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs_no_dgm(self, seed):
        graph = random_bipartite(40, 25, 200, seed=seed)
        _assert_batches_equivalent(
            graph, enable_dgm=False, compaction_interval=None, seed=seed
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs_with_dgm(self, seed):
        # A tiny compaction interval makes nearly every batch end in a
        # compaction, the hardest case for keeping wedge counters identical.
        graph = power_law_bipartite(60, 40, 300, seed=seed)
        _assert_batches_equivalent(
            graph, enable_dgm=True, compaction_interval=23, seed=seed
        )

    def test_power_law_with_default_interval(self):
        graph = power_law_bipartite(120, 60, 700, seed=11)
        _assert_batches_equivalent(
            graph, enable_dgm=True, compaction_interval=None, seed=11
        )

    def test_single_vertex_kernel_matches(self):
        graph = random_bipartite(30, 20, 140, seed=7)
        counts = count_per_vertex_priority(graph)
        supports = {name: counts.u_counts.copy() for name in ("reference", "batched")}
        adjacency = {name: PeelableAdjacency(graph, "U", enable_dgm=False)
                     for name in supports}
        for vertex in np.random.default_rng(7).permutation(graph.n_u):
            for name in supports:
                adjacency[name].mark_peeled(int(vertex))
            reference = peel_vertex(
                adjacency["reference"], supports["reference"], int(vertex), 1,
                kernel="reference",
            )
            batched = peel_vertex(
                adjacency["batched"], supports["batched"], int(vertex), 1,
                kernel="batched",
            )
            assert batched.wedges_traversed == reference.wedges_traversed
            assert batched.support_updates == reference.support_updates
            assert np.array_equal(supports["reference"], supports["batched"])

    @settings(max_examples=40, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 14), st.integers(0, 9)),
            min_size=1, max_size=80, unique=True,
        ),
        batch_seed=st.integers(0, 2**16),
        interval=st.one_of(st.none(), st.integers(1, 50)),
    )
    def test_hypothesis_edge_lists(self, edges, batch_seed, interval):
        graph = BipartiteGraph(15, 10, edges)
        _assert_batches_equivalent(
            graph,
            enable_dgm=interval is not None,
            compaction_interval=interval,
            seed=batch_seed,
        )


class TestDecompositionEquivalence:
    def test_receipt_kernels_agree(self, blocks_graph):
        results = {
            kernel: receipt_decomposition(
                blocks_graph, "U", n_partitions=5, peel_kernel=kernel
            )
            for kernel in ("batched", "reference")
        }
        assert np.array_equal(
            results["batched"].tip_numbers, results["reference"].tip_numbers
        )
        for counter in ("wedges_traversed", "support_updates", "peeling_wedges",
                        "synchronization_rounds", "vertices_peeled"):
            assert getattr(results["batched"].counters, counter) == getattr(
                results["reference"].counters, counter
            ), counter

    def test_bup_kernels_agree(self, community_graph):
        results = {
            kernel: bup_decomposition(community_graph, "U", peel_kernel=kernel)
            for kernel in ("batched", "reference")
        }
        assert np.array_equal(
            results["batched"].tip_numbers, results["reference"].tip_numbers
        )
        assert (
            results["batched"].counters.wedges_traversed
            == results["reference"].counters.wedges_traversed
        )

    def test_parb_kernels_agree(self, blocks_graph):
        results = {
            kernel: parbutterfly_decomposition(blocks_graph, "U", peel_kernel=kernel)
            for kernel in ("batched", "reference")
        }
        assert np.array_equal(
            results["batched"].tip_numbers, results["reference"].tip_numbers
        )
        assert (
            results["batched"].counters.support_updates
            == results["reference"].counters.support_updates
        )

    def test_unknown_kernel_rejected(self, blocks_graph):
        adjacency = PeelableAdjacency(blocks_graph, "U")
        supports = np.zeros(blocks_graph.n_u, dtype=np.int64)
        with pytest.raises(ValueError):
            peel_batch(adjacency, supports, np.array([0]), 0, kernel="nope")


class TestKernelPrimitives:
    def test_gather_rows_matches_manual_slices(self):
        offsets = np.array([0, 3, 3, 7, 9], dtype=np.int64)
        values = np.arange(100, 109, dtype=np.int64)
        rows = np.array([2, 0, 2, 1, 3], dtype=np.int64)
        gathered, lengths = gather_rows(offsets, values, rows)
        expected = np.concatenate([values[offsets[r]: offsets[r + 1]] for r in rows])
        assert np.array_equal(gathered, expected)
        assert lengths.tolist() == [4, 3, 4, 0, 2]

    def test_gather_rows_empty(self):
        offsets = np.zeros(4, dtype=np.int64)
        values = np.zeros(0, dtype=np.int64)
        gathered, lengths = gather_rows(offsets, values, np.array([0, 2]))
        assert gathered.size == 0
        assert lengths.tolist() == [0, 0]

    def test_compact_csr(self):
        offsets = np.array([0, 2, 2, 5], dtype=np.int64)
        values = np.array([4, 5, 6, 7, 8], dtype=np.int64)
        keep = np.array([True, False, False, True, True])
        new_offsets, new_values = compact_csr(offsets, values, keep)
        assert new_offsets.tolist() == [0, 1, 1, 3]
        assert new_values.tolist() == [4, 7, 8]

    def test_segment_sums_with_empty_segments(self):
        values = np.array([1, 2, 3, 4], dtype=np.int64)
        lengths = np.array([2, 0, 1, 1], dtype=np.int64)
        assert segment_sums(values, lengths).tolist() == [3, 0, 3, 4]

    def test_int_bincount_is_precise_beyond_2_53(self):
        # One weight above 2**53: float64 accumulation would round it.
        indices = np.array([0, 0, 1], dtype=np.int64)
        weights = np.array([2**53 + 1, 1, 5], dtype=np.int64)
        out = int_bincount(indices, weights, 3)
        assert out.tolist() == [2**53 + 2, 5, 0]
        lossy = np.bincount(indices, weights=weights.astype(np.float64), minlength=3)
        assert int(lossy[0]) != 2**53 + 2  # the hazard the kernel avoids
