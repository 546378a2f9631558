"""CSR patch kernels and the validated edge-update batch log."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StreamingError
from repro.graph.bipartite import BipartiteGraph
from repro.kernels.csr import delete_csr_entries, insert_csr_entries, locate_csr_entries
from repro.service.artifacts import graph_fingerprint
from repro.streaming import EdgeBatch, apply_batch, validate_batch


def _graph():
    edges = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 2), (3, 0), (3, 3)]
    return BipartiteGraph(4, 4, edges)


# ----------------------------------------------------------------------
# kernels.csr patch primitives
# ----------------------------------------------------------------------
class TestCsrPatchKernels:
    def test_locate_finds_present_and_absent(self):
        offsets, neighbors = _graph().csr("U")
        positions, present = locate_csr_entries(
            offsets, neighbors, np.array([1, 1, 2]), np.array([2, 3, 2]), 4
        )
        assert present.tolist() == [True, False, True]
        assert neighbors[positions[0]] == 2
        assert neighbors[positions[2]] == 2

    def test_locate_handles_no_queries_and_empty_rows(self):
        offsets = np.array([0, 0, 2, 2], dtype=np.int64)
        values = np.array([1, 3], dtype=np.int64)
        positions, present = locate_csr_entries(
            offsets, values, np.array([0, 2, 1, 1, 1]), np.array([2, 0, 0, 3, 4]), 5
        )
        assert positions.tolist() == [0, 2, 0, 1, 2]
        assert present.tolist() == [False, False, False, True, False]
        positions, present = locate_csr_entries(offsets, values, np.zeros(0), np.zeros(0), 5)
        assert positions.shape == present.shape == (0,)

    def test_insert_keeps_rows_sorted(self):
        offsets, neighbors = _graph().csr("U")
        new_offsets, new_neighbors = insert_csr_entries(
            offsets, neighbors, np.array([0, 2, 2]), np.array([3, 0, 1]), 4
        )
        assert new_neighbors.shape[0] == neighbors.shape[0] + 3
        for row in range(4):
            row_values = new_neighbors[new_offsets[row]: new_offsets[row + 1]]
            assert np.all(np.diff(row_values) > 0)
        assert new_neighbors[new_offsets[0]: new_offsets[1]].tolist() == [0, 1, 3]

    def test_insert_rejects_existing_and_duplicates(self):
        offsets, neighbors = _graph().csr("U")
        with pytest.raises(ValueError, match="already present"):
            insert_csr_entries(offsets, neighbors, np.array([0]), np.array([0]), 4)
        with pytest.raises(ValueError, match="duplicate"):
            insert_csr_entries(offsets, neighbors, np.array([2, 2]), np.array([0, 0]), 4)

    def test_delete_rejects_missing(self):
        offsets, neighbors = _graph().csr("U")
        with pytest.raises(ValueError, match="not present"):
            delete_csr_entries(offsets, neighbors, np.array([0]), np.array([3]), 4)

    def test_delete_then_insert_roundtrip(self):
        offsets, neighbors = _graph().csr("U")
        deleted = delete_csr_entries(offsets, neighbors, np.array([1]), np.array([1]), 4)
        restored = insert_csr_entries(*deleted, np.array([1]), np.array([1]), 4)
        assert np.array_equal(restored[0], offsets)
        assert np.array_equal(restored[1], neighbors)


# ----------------------------------------------------------------------
# EdgeBatch validation
# ----------------------------------------------------------------------
class TestBatchValidation:
    def test_out_of_range_rejected(self):
        graph = _graph()
        with pytest.raises(StreamingError, match="out of range"):
            validate_batch(graph, EdgeBatch.from_lists(inserts=[(7, 0)]))
        with pytest.raises(StreamingError, match="out of range"):
            validate_batch(graph, EdgeBatch.from_lists(deletes=[(0, -1)]))

    def test_duplicate_within_list_rejected(self):
        with pytest.raises(StreamingError, match="more than once"):
            validate_batch(_graph(), EdgeBatch.from_lists(inserts=[(2, 0), (2, 0)]))

    def test_insert_and_delete_overlap_rejected(self):
        with pytest.raises(StreamingError, match="both the insert and the delete"):
            validate_batch(
                _graph(), EdgeBatch.from_lists(inserts=[(0, 0)], deletes=[(0, 0)])
            )

    def test_existing_insert_rejected(self):
        with pytest.raises(StreamingError, match="already exists"):
            validate_batch(_graph(), EdgeBatch.from_lists(inserts=[(0, 0)]))

    def test_missing_delete_rejected(self):
        with pytest.raises(StreamingError, match="does not exist"):
            validate_batch(_graph(), EdgeBatch.from_lists(deletes=[(0, 3)]))

    def test_malformed_shape_rejected(self):
        with pytest.raises(StreamingError, match="pairs"):
            EdgeBatch.from_lists(inserts=[(1, 2, 3)])

    def test_failed_batch_leaves_graph_untouched(self):
        graph = _graph()
        before = graph_fingerprint(graph)
        with pytest.raises(StreamingError):
            apply_batch(graph, EdgeBatch.from_lists(inserts=[(2, 0)], deletes=[(0, 3)]))
        assert graph_fingerprint(graph) == before


# ----------------------------------------------------------------------
# apply_batch == full rebuild
# ----------------------------------------------------------------------
class TestApplyBatch:
    def test_empty_batch_is_identity(self):
        graph = _graph()
        assert apply_batch(graph, EdgeBatch()) is graph

    def test_patch_matches_rebuild(self):
        graph = _graph()
        batch = EdgeBatch.from_lists(inserts=[(2, 0), (0, 2)], deletes=[(1, 1), (3, 3)])
        patched = apply_batch(graph, batch)
        rebuilt = BipartiteGraph(
            4, 4, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 2), (3, 0)]
        )
        assert patched == rebuilt
        assert graph_fingerprint(patched) == graph_fingerprint(rebuilt)

    def test_preserves_name_and_sizes(self):
        graph = BipartiteGraph(5, 6, [(0, 0), (4, 5)], name="stream-me")
        patched = apply_batch(graph, EdgeBatch.from_lists(inserts=[(2, 3)]))
        assert patched.name == "stream-me"
        assert (patched.n_u, patched.n_v) == (5, 6)
        assert patched.n_edges == 3


@st.composite
def graph_and_batch(draw, max_u=10, max_v=10, max_edges=40):
    """A random graph plus a valid insert/delete batch against it.

    The batch toggles a set of ``(u, v)`` pairs (present ones are deleted,
    absent ones inserted), so it is valid by construction.  The set always
    holds a pair in the first and the last row of each side, several pairs
    of one row, and every pair of one row — that row is emptied by the
    deletes and refilled by the inserts.
    """
    n_u = draw(st.integers(min_value=1, max_value=max_u))
    n_v = draw(st.integers(min_value=1, max_value=max_v))
    possible = [(u, v) for u in range(n_u) for v in range(n_v)]
    n_edges = draw(st.integers(min_value=0, max_value=min(max_edges, len(possible))))
    present = set(draw(st.lists(st.sampled_from(possible), min_size=n_edges,
                                max_size=n_edges, unique=True)))
    u_ids = st.integers(min_value=0, max_value=n_u - 1)
    v_ids = st.integers(min_value=0, max_value=n_v - 1)
    toggled = set(draw(st.lists(st.sampled_from(possible), max_size=6)))
    toggled |= {(0, draw(v_ids)), (n_u - 1, draw(v_ids)),
                (draw(u_ids), 0), (draw(u_ids), n_v - 1)}
    hot = draw(u_ids)
    toggled |= {(hot, v) for v in draw(st.sets(v_ids, min_size=1, max_size=4))}
    refilled = draw(u_ids)
    toggled |= {(refilled, v) for v in range(n_v)}
    deletes = sorted(toggled & present)
    inserts = sorted(toggled - present)
    if draw(st.booleans()):
        inserts = draw(st.permutations(inserts))
    return (BipartiteGraph(n_u, n_v, sorted(present)),
            EdgeBatch.from_lists(inserts or None, deletes or None))


@settings(max_examples=60, deadline=None)
@given(case=graph_and_batch())
def test_locate_matches_brute_force(case):
    """``locate_csr_entries`` against its definition, on both CSR sides."""
    graph, batch = case
    queries = batch.changed_edges()
    for side, (rows, values), bound in (("U", queries.T, graph.n_v),
                                        ("V", queries[:, ::-1].T, graph.n_u)):
        offsets, neighbors = graph.csr(side)
        positions, present = locate_csr_entries(offsets, neighbors, rows, values, bound)
        for row, value, position, found in zip(rows, values, positions, present):
            row_values = neighbors[offsets[row]:offsets[row + 1]].tolist()
            assert found == (value in row_values)
            expected = offsets[row] + sum(1 for entry in row_values if entry < value)
            assert position == expected


@settings(max_examples=60, deadline=None)
@given(case=graph_and_batch())
def test_patched_csr_is_bit_identical_to_rebuild(case):
    graph, batch = case
    patched = apply_batch(graph, batch)
    deleted = set(map(tuple, batch.deletes.tolist()))
    edges = [edge for edge in map(tuple, graph.edge_array().tolist()) if edge not in deleted]
    edges.extend(map(tuple, batch.inserts.tolist()))
    rebuilt = BipartiteGraph(graph.n_u, graph.n_v, edges)
    assert patched == rebuilt
    # Both CSR directions, not just the U side compared by __eq__.
    for side in ("U", "V"):
        for patched_array, rebuilt_array in zip(patched.csr(side), rebuilt.csr(side)):
            assert np.array_equal(patched_array, rebuilt_array)
    assert graph_fingerprint(patched) == graph_fingerprint(rebuilt)
