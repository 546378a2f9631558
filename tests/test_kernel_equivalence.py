"""Equivalence of the batched peel kernel with the per-vertex reference.

The batched kernel (:func:`repro.peeling.peel_batch`) must reproduce the
sequential reference (:mod:`repro.peeling.reference`) bit-for-bit:
identical final supports, identical ``wedges_traversed`` (including the
stale entries governed by DGM compaction timing) and identical
``support_updates``.  This suite checks the contract on seeded random
graphs, via hypothesis-generated edge lists, and end-to-end through the
decomposition algorithms, with the reference rebound in place of the
kernel (the ``peel_with`` fixture).  The library itself never imports the
reference, and the rebinding is shown to reach every call site.
"""

from __future__ import annotations

import ast
from pathlib import Path

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
from repro.peeling.bup import bup_decomposition, peel_levels
from repro.peeling.parbutterfly import parbutterfly_decomposition
from repro.peeling.reference import peel_batch_reference, peel_vertex_reference
from repro.peeling.update import peel_batch, peel_vertex

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


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
        reference = peel_batch_reference(
            adjacency["reference"], supports["reference"], batch, threshold,
        )
        batched = peel_batch(
            adjacency["batched"], supports["batched"], batch, threshold,
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
            reference = peel_vertex_reference(
                adjacency["reference"], supports["reference"], int(vertex), 1,
            )
            batched = peel_vertex(
                adjacency["batched"], supports["batched"], int(vertex), 1,
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


def _run(peel_with, kernel, decompose, *args, **kwargs):
    with peel_with(kernel) as calls:
        result = decompose(*args, **kwargs)
    # Every algorithm peels at least once on these graphs, so a reference
    # run that never called the reference took the batched kernel.
    assert (sum(calls.values()) > 0) == (kernel == "reference")
    return result


class TestDecompositionEquivalence:
    def test_receipt_kernels_agree(self, blocks_graph, peel_with):
        results = {
            kernel: _run(peel_with, kernel, receipt_decomposition,
                         blocks_graph, "U", n_partitions=5)
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

    def test_bup_kernels_agree(self, community_graph, peel_with):
        results = {
            kernel: _run(peel_with, kernel, bup_decomposition, community_graph, "U")
            for kernel in ("batched", "reference")
        }
        assert np.array_equal(
            results["batched"].tip_numbers, results["reference"].tip_numbers
        )
        assert (
            results["batched"].counters.wedges_traversed
            == results["reference"].counters.wedges_traversed
        )

    def test_parb_kernels_agree(self, blocks_graph, peel_with):
        results = {
            kernel: _run(peel_with, kernel, parbutterfly_decomposition, blocks_graph, "U")
            for kernel in ("batched", "reference")
        }
        assert np.array_equal(
            results["batched"].tip_numbers, results["reference"].tip_numbers
        )
        assert (
            results["batched"].counters.support_updates
            == results["reference"].counters.support_updates
        )


class TestReferenceOracle:
    """The reference is a test-side oracle, and the rebinding reaches it."""

    def test_library_never_imports_the_reference(self):
        """Fails on any import of ``repro.peeling.reference`` under ``src/repro``.

        Relative imports are resolved against the importing module's
        package, so ``from .reference import ...`` inside
        ``repro.peeling`` counts as well.
        """
        imported = []
        for path in sorted(SRC.rglob("*.py")):
            package = list(path.relative_to(SRC.parent).parts[:-1])
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = package[:len(package) - node.level + 1] if node.level else []
                    module = ".".join(base + ([node.module] if node.module else []))
                    modules = [module] + [f"{module}.{alias.name}" for alias in node.names]
                else:
                    continue
                imported += [(path.relative_to(SRC).as_posix(), node.lineno, module)
                             for module in modules]
        assert any(module == "repro.peeling.update" for _, _, module in imported), (
            "the scan resolved no import of the kernel at all"
        )
        offenders = [site for site in imported if site[2] == "repro.peeling.reference"]
        assert not offenders, offenders

    def test_rebinding_reaches_every_call_site(self, medium_random_graph, peel_with):
        """One reference call per CD peel round, FD lockstep round, ParB
        round and BUP pop, so a renamed call site cannot turn a
        batched-vs-reference suite into batched-vs-batched."""
        graph = medium_random_graph
        with peel_with("reference") as calls:
            receipt = receipt_decomposition(graph, "U", n_partitions=8)
        peel_rounds = sum(not record["recounted"]
                          for record in receipt.extra["iteration_records"])
        # CD recounts at least once here, so not every round peels.
        assert 0 < peel_rounds < receipt.phase_counters["cd"].synchronization_rounds
        # Serially FD is one share: its lockstep loop runs as many rounds
        # as the subset with the most levels needs alone.
        init = receipt.extra["init_supports"]
        fd_rounds = max(
            len(peel_levels(graph.induced_on_u_subset(subset).graph, "U", init[subset])[2])
            for subset in receipt.extra["subsets"]
        )
        assert dict(calls) == {"repro.core.cd.peel_batch": peel_rounds,
                               "repro.peeling.bup.peel_batch": fd_rounds}

        with peel_with("reference") as calls:
            parb = parbutterfly_decomposition(graph, "U")
        assert dict(calls) == {"repro.peeling.bup.peel_batch":
                               parb.counters.synchronization_rounds}

        with peel_with("reference") as calls:
            bup_decomposition(graph, "U")
        assert dict(calls) == {"repro.peeling.bup.peel_vertex": graph.n_u}


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
