"""Equivalence and regression tests for the memory-bounded wedge pipeline.

The workspace layer (scratch arena + int32 narrowing + wedge-budgeted
chunking) is pure memory policy: every configuration must produce
bit-identical tip numbers and work counters.  This suite pins that down
with hypothesis-generated graphs across both peel kernels and the serial /
process execution backends, plus targeted regression tests for the
``key_counts`` ownership semantics near the int32 boundary.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.butterfly.counting import count_per_vertex_priority
from repro.core.receipt import receipt_decomposition
from repro.datasets.generators import random_bipartite
from repro.graph.dynamic import PeelableAdjacency
from repro.kernels.peel import key_counts
from repro.kernels.workspace import (
    DEFAULT_WEDGE_BUDGET,
    WedgeWorkspace,
    budget_spans,
    default_wedge_budget,
    resolve_wedge_budget,
)
from repro.peeling.bup import bup_decomposition
from repro.peeling.update import peel_batch

INT32_MAX = np.iinfo(np.int32).max


def seeded_graph(seed: int, n_u: int = 40, n_v: int = 24, density: float = 0.18):
    return random_bipartite(n_u, n_v, int(n_u * n_v * density), seed=seed)


def workspace_grid():
    """The policy corners: legacy int64, default, unbudgeted, tiny budget."""
    return {
        "legacy": WedgeWorkspace.legacy(),
        "default": WedgeWorkspace(),
        "unbudgeted": WedgeWorkspace(wedge_budget=None),
        "budget-1": WedgeWorkspace(wedge_budget=1),
        "int64-budgeted": WedgeWorkspace(wedge_budget=7, narrow_ids=False),
    }


class TestWorkspace:
    def test_take_reuses_buffers(self):
        workspace = WedgeWorkspace()
        first = workspace.take("x", 100, np.int64)
        second = workspace.take("x", 50, np.int32)
        assert first.base is second.base
        assert workspace.peak_scratch_bytes >= 800

    def test_take_grows_geometrically(self):
        workspace = WedgeWorkspace()
        workspace.take("x", 100, np.int8)
        peak_small = workspace.peak_scratch_bytes
        workspace.take("x", 101, np.int8)
        assert workspace.peak_scratch_bytes >= 2 * peak_small - 64

    def test_legacy_returns_fresh_arrays(self):
        workspace = WedgeWorkspace.legacy()
        first = workspace.take("x", 10, np.int64)
        second = workspace.take("x", 10, np.int64)
        assert first.base is None and second.base is None
        assert first is not second
        assert workspace.narrow_ids is False and workspace.wedge_budget is None

    def test_ids_dtype_narrows_only_when_bound_fits(self):
        workspace = WedgeWorkspace()
        assert workspace.ids_dtype(1000) == np.int32
        assert workspace.ids_dtype(INT32_MAX) == np.int32
        assert workspace.ids_dtype(INT32_MAX + 1) == np.int64
        wide = WedgeWorkspace(narrow_ids=False)
        assert wide.ids_dtype(1000) == np.int64

    def test_iota_is_stable_and_cached(self):
        workspace = WedgeWorkspace()
        first = workspace.iota(10)
        second = workspace.iota(5)
        assert np.array_equal(first, np.arange(10))
        assert np.array_equal(second, np.arange(5))
        assert second.base is first.base

    def test_resolve_wedge_budget(self):
        assert resolve_wedge_budget(None) == DEFAULT_WEDGE_BUDGET
        assert resolve_wedge_budget(0) is None
        assert resolve_wedge_budget(-5) is None
        assert resolve_wedge_budget(123) == 123

    def test_wedge_budget_env_read_per_call(self, monkeypatch):
        # Regression: the env override used to be frozen at import time, so
        # a long-lived process (the serving front end) could never be
        # retuned.  Every resolution path must see a mid-process change.
        monkeypatch.delenv("REPRO_WEDGE_BUDGET", raising=False)
        assert default_wedge_budget() == DEFAULT_WEDGE_BUDGET

        monkeypatch.setenv("REPRO_WEDGE_BUDGET", "4096")
        assert default_wedge_budget() == 4096
        assert resolve_wedge_budget(None) == 4096
        assert WedgeWorkspace().wedge_budget == 4096

        monkeypatch.setenv("REPRO_WEDGE_BUDGET", "0")  # disables chunking
        assert default_wedge_budget() is None
        assert WedgeWorkspace().wedge_budget is None

        monkeypatch.delenv("REPRO_WEDGE_BUDGET")  # back to the library default
        assert resolve_wedge_budget(None) == DEFAULT_WEDGE_BUDGET
        assert WedgeWorkspace().wedge_budget == DEFAULT_WEDGE_BUDGET

    def test_explicit_budget_beats_the_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WEDGE_BUDGET", "4096")
        assert WedgeWorkspace(wedge_budget=7).wedge_budget == 7
        assert WedgeWorkspace(wedge_budget=None).wedge_budget is None
        assert resolve_wedge_budget(123) == 123

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=40),
           st.one_of(st.none(), st.integers(min_value=1, max_value=120)),
           st.one_of(st.none(), st.integers(min_value=1, max_value=8)))
    @settings(deadline=None)
    def test_budget_spans_cover_exactly_within_budget(self, weights, budget, max_items):
        weights = np.asarray(weights, dtype=np.int64)
        spans = list(budget_spans(weights, budget, max_items=max_items))
        # Spans tile [0, n) exactly.
        expected_start = 0
        for lo, hi in spans:
            assert lo == expected_start and hi > lo
            expected_start = hi
        assert expected_start == weights.shape[0]
        if budget is not None:
            for lo, hi in spans:
                if hi - lo > 1:
                    assert int(weights[lo:hi].sum()) <= budget
        if max_items is not None:
            assert all(hi - lo <= max_items for lo, hi in spans)


class TestKeyCountsOwnership:
    """``key_counts`` returns only the keys seen at least twice."""

    def test_unowned_small_bound_preserves_caller_array(self):
        keys = np.array([5, 3, 5, 1], dtype=np.int64)
        snapshot = keys.copy()
        repeated, counts = key_counts(keys, 10, owned=False)
        assert np.array_equal(keys, snapshot)
        assert np.array_equal(repeated, [5])
        assert np.array_equal(counts, [2])

    def test_unowned_beyond_int32_preserves_caller_array(self):
        # Regression: a key bound beyond int32 used to skip the narrowing
        # copy and sort the caller's array in place.
        big = np.int64(INT32_MAX) + 10
        keys = np.array([big, 3, big, 7], dtype=np.int64)
        snapshot = keys.copy()
        repeated, counts = key_counts(keys, int(big) + 1, owned=False)
        assert np.array_equal(keys, snapshot)
        assert np.array_equal(repeated, [big])
        assert np.array_equal(counts, [2])

    def test_unowned_int32_input_preserves_caller_array(self):
        keys = np.array([9, 2, 9], dtype=np.int32)
        snapshot = keys.copy()
        key_counts(keys, 10, owned=False)
        assert np.array_equal(keys, snapshot)

    def test_owned_int32_sorts_in_place(self):
        keys = np.array([9, 2, 9], dtype=np.int32)
        repeated, counts = key_counts(keys, 10, owned=True)
        assert np.array_equal(keys, [2, 9, 9])  # sorted in place: no copy made
        assert repeated.dtype == np.int64
        assert np.array_equal(repeated, [9])
        assert np.array_equal(counts, [2])

    def test_near_int32_boundary_keys_are_exact(self):
        # Synthetic keys straddling the narrowing decision on both sides.
        for bound, dtype in ((INT32_MAX, np.int32), (INT32_MAX + 2, np.int64)):
            keys = np.array([bound - 1, 0, bound - 1, bound - 2], dtype=np.int64)
            repeated, counts = key_counts(keys, bound, owned=False)
            assert np.array_equal(repeated, [bound - 1])
            assert np.array_equal(counts, [2])
            assert repeated.dtype == np.int64

    def test_empty_keys(self):
        repeated, counts = key_counts(np.zeros(0, dtype=np.int64), 10)
        assert repeated.size == 0 and counts.size == 0

    @given(st.lists(st.integers(min_value=0, max_value=40), max_size=80),
           st.sampled_from([0, INT32_MAX - 41, INT32_MAX - 40, 2**40]),
           st.booleans(), st.booleans())
    @settings(deadline=None, max_examples=150)
    def test_matches_unique_restricted_to_repeats(self, values, offset, owned, narrow):
        # Offsets put the keys below the int32 bound, right at it (the
        # bound is exactly INT32_MAX), just past it, and far beyond it.
        bound = offset + 41
        keys = np.asarray(values, dtype=np.int64) + offset
        if narrow and bound <= INT32_MAX:
            keys = keys.astype(np.int32)
        snapshot = keys.copy()
        unique, unique_counts = np.unique(keys.astype(np.int64), return_counts=True)
        repeated, counts = key_counts(keys, bound, owned=owned)
        assert repeated.dtype == np.int64 and counts.dtype == np.int64
        assert np.array_equal(repeated, unique[unique_counts >= 2])
        assert np.array_equal(counts, unique_counts[unique_counts >= 2])
        if not owned:
            assert np.array_equal(keys, snapshot)


def _peel_once(graph, workspace, *, enable_dgm):
    counts = count_per_vertex_priority(graph, workspace=workspace)
    supports = counts.u_counts.copy()
    adjacency = PeelableAdjacency(graph, "U", enable_dgm=enable_dgm,
                                  narrow_ids=workspace.narrow_ids)
    order = np.argsort(supports, kind="stable")
    batch = order[: max(1, order.shape[0] // 3)]
    update = peel_batch(adjacency, supports, batch, int(supports[batch].max()),
                        workspace=workspace)
    return counts, supports, update


class TestPipelineEquivalence:
    @given(st.integers(min_value=0, max_value=10**6), st.booleans())
    @settings(deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.too_slow])
    def test_peel_batch_identical_across_policies(self, seed, enable_dgm):
        graph = seeded_graph(seed)
        baseline = None
        for name, workspace in workspace_grid().items():
            counts, supports, update = _peel_once(graph, workspace,
                                                  enable_dgm=enable_dgm)
            observed = (
                counts.u_counts.tolist(), counts.v_counts.tolist(),
                counts.wedges_traversed,
                supports.tolist(),
                update.updated_vertices.tolist(), update.new_supports.tolist(),
                update.wedges_traversed, update.support_updates,
            )
            if baseline is None:
                baseline = (name, observed)
            else:
                assert observed == baseline[1], (
                    f"policy {name!r} disagrees with {baseline[0]!r}"
                )

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=10,
              suppress_health_check=[HealthCheck.too_slow])
    def test_bup_identical_across_policies_and_kernels(self, peel_with, seed):
        graph = seeded_graph(seed, n_u=26, n_v=16)
        results = []
        for workspace in (WedgeWorkspace.legacy(), WedgeWorkspace(wedge_budget=3)):
            for kernel in ("batched", "reference"):
                with peel_with(kernel):
                    results.append(bup_decomposition(graph, "U", workspace=workspace))
        for other in results[1:]:
            assert np.array_equal(results[0].tip_numbers, other.tip_numbers)
            assert (results[0].counters.wedges_traversed
                    == other.counters.wedges_traversed)
            assert (results[0].counters.support_updates
                    == other.counters.support_updates)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=6,
              suppress_health_check=[HealthCheck.too_slow])
    def test_receipt_identical_across_budgets(self, seed):
        graph = seeded_graph(seed, n_u=30, n_v=20)
        runs = [
            receipt_decomposition(graph, "U", n_partitions=4, wedge_budget=budget)
            for budget in (None, 0, 1)
        ]
        for other in runs[1:]:
            assert np.array_equal(runs[0].tip_numbers, other.tip_numbers)
            assert (runs[0].counters.wedges_traversed
                    == other.counters.wedges_traversed)
            assert (runs[0].counters.support_updates
                    == other.counters.support_updates)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_receipt_budgeted_across_backends(self, backend):
        graph = seeded_graph(1234, n_u=36, n_v=22)
        reference = receipt_decomposition(graph, "U", n_partitions=4)
        run = receipt_decomposition(
            graph, "U", n_partitions=4, wedge_budget=5, backend=backend, n_threads=2,
        )
        assert np.array_equal(reference.tip_numbers, run.tip_numbers)
        assert (reference.counters.wedges_traversed
                == run.counters.wedges_traversed)
        assert (reference.counters.support_updates
                == run.counters.support_updates)


class TestPeakAccounting:
    def test_budget_caps_peak_scratch(self):
        graph = seeded_graph(77, n_u=120, n_v=60, density=0.25)
        peaks = {}
        for name, budget in (("unbudgeted", 0), ("budgeted", 64)):
            workspace = WedgeWorkspace(wedge_budget=resolve_wedge_budget(budget))
            counts = count_per_vertex_priority(graph, workspace=workspace)
            supports = counts.u_counts.copy()
            adjacency = PeelableAdjacency(graph, "U", enable_dgm=False)
            batch = np.arange(graph.n_u // 2, dtype=np.int64)
            peel_batch(adjacency, supports, batch, 0, workspace=workspace)
            peaks[name] = workspace.peak_scratch_bytes
        assert peaks["budgeted"] < peaks["unbudgeted"]

    def test_counters_report_workspace_peak(self):
        graph = seeded_graph(5, n_u=30, n_v=18)
        result = bup_decomposition(graph, "U")
        assert result.counters.peak_scratch_bytes > 0
        assert "peak_scratch_bytes" in result.counters.as_dict()

    def test_receipt_counters_report_peak(self):
        graph = seeded_graph(6, n_u=30, n_v=18)
        result = receipt_decomposition(graph, "U", n_partitions=3)
        assert result.counters.peak_scratch_bytes > 0
