"""Bounded tip-number repair: exactness against from-scratch peeling.

The centerpiece is the property test the streaming engine is gated on: a
random interleaving of insert/delete batches, repaired incrementally batch
by batch, must end with tip numbers bit-identical to peeling the final
graph from scratch — for both peel kernels, at every intermediate step.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.butterfly.counting import count_per_vertex
from repro.datasets.generators import planted_blocks
from repro.graph.bipartite import BipartiteGraph
from repro.peeling.bup import bup_decomposition
from repro.streaming import (
    EdgeBatch,
    StreamingConfig,
    apply_update,
    butterfly_closure,
)


def _decomposed(graph):
    counts = count_per_vertex(graph)
    result = bup_decomposition(graph, "U", counts=counts)
    return result.tip_numbers, result.initial_butterflies, counts.v_counts


class TestButterflyClosure:
    def test_covers_block_and_stops_at_component_boundary(self):
        graph = planted_blocks(20, 16, [(6, 5), (6, 5)], block_density=1.0, seed=1)
        region, _ = butterfly_closure(graph, "U", np.asarray([0]), np.ones(20, bool))
        assert region.tolist() == list(range(6))

    def test_mask_restricts_expansion(self):
        graph = planted_blocks(12, 10, [(6, 5)], block_density=1.0, seed=1)
        mask = np.zeros(12, bool)
        mask[:3] = True
        region, _ = butterfly_closure(graph, "U", np.asarray([0]), mask)
        assert region.tolist() == [0, 1, 2]

    def test_budget_abort(self):
        graph = planted_blocks(12, 10, [(6, 5)], block_density=1.0, seed=1)
        work = graph.wedge_work_per_vertex("U")
        region, _ = butterfly_closure(
            graph, "U", np.asarray([0]), np.ones(12, bool), work=work, work_budget=1,
        )
        assert region is None


class TestApplyUpdateModes:
    def test_empty_batch_is_clean(self):
        graph = planted_blocks(12, 10, [(5, 4)], background_edges=6, seed=3)
        tips, butterflies, center = _decomposed(graph)
        result = apply_update(graph, "U", tips, butterflies, EdgeBatch())
        assert result.mode == "clean"
        assert np.array_equal(result.tip_numbers, tips)

    def test_butterfly_free_churn_is_clean(self):
        graph = BipartiteGraph(6, 6, [(0, 0), (1, 1), (2, 2), (3, 3)])
        tips, butterflies, center = _decomposed(graph)
        batch = EdgeBatch.from_lists(inserts=[(4, 4)], deletes=[(3, 3)])
        result = apply_update(graph, "U", tips, butterflies, batch)
        assert result.mode == "clean"
        assert result.n_dirty == 0
        fresh = bup_decomposition(result.graph, "U")
        assert np.array_equal(result.tip_numbers, fresh.tip_numbers)

    def test_local_update_repairs_incrementally(self):
        graph = planted_blocks(40, 30, [(8, 6), (8, 6), (8, 6)], block_density=1.0, seed=2)
        tips, butterflies, center = _decomposed(graph)
        batch = EdgeBatch.from_lists(deletes=[(0, 0)])
        result = apply_update(graph, "U", tips, butterflies, batch,
                              config=StreamingConfig(full_algorithm="bup"))
        assert result.mode == "incremental"
        # Only the touched block re-peels; the other two blocks are frozen.
        assert result.n_repeeled <= 8
        fresh = bup_decomposition(result.graph, "U")
        assert np.array_equal(result.tip_numbers, fresh.tip_numbers)

    def test_damage_threshold_forces_full(self):
        graph = planted_blocks(12, 10, [(6, 5)], block_density=1.0, seed=2)
        tips, butterflies, center = _decomposed(graph)
        batch = EdgeBatch.from_lists(deletes=[(0, 0)])
        result = apply_update(
            graph, "U", tips, butterflies, batch,
            center_butterflies=center,
            config=StreamingConfig(damage_threshold=0.0, full_algorithm="bup"),
        )
        assert result.mode == "full"
        fresh = bup_decomposition(result.graph, "U")
        assert np.array_equal(result.tip_numbers, fresh.tip_numbers)
        assert np.array_equal(result.center_butterflies,
                              count_per_vertex(result.graph).v_counts)

    def test_v_side_decomposition(self):
        graph = planted_blocks(14, 12, [(6, 5)], background_edges=8, seed=4)
        counts = count_per_vertex(graph)
        base = bup_decomposition(graph, "V", counts=counts)
        batch = EdgeBatch.from_lists(deletes=[tuple(graph.edge_array()[0])])
        result = apply_update(graph, "V", base.tip_numbers, base.initial_butterflies,
                              batch, center_butterflies=counts.u_counts,
                              config=StreamingConfig(full_algorithm="bup"))
        fresh = bup_decomposition(result.graph, "V")
        assert np.array_equal(result.tip_numbers, fresh.tip_numbers)
        assert np.array_equal(result.butterflies, fresh.initial_butterflies)

    def test_mismatched_state_rejected(self):
        graph = planted_blocks(12, 10, [(5, 4)], seed=3)
        tips, butterflies, _ = _decomposed(graph)
        from repro.errors import DecompositionError

        with pytest.raises(DecompositionError, match="do not match side"):
            apply_update(graph, "U", tips[:-1], butterflies, EdgeBatch())


@st.composite
def update_stream(draw, max_u=9, max_v=9, max_batches=4, max_changes=5):
    """A random starting graph plus a random interleaving of edge batches.

    Batches are materialised lazily against the evolving edge set so every
    insert/delete is valid at its point in the stream.
    """
    n_u = draw(st.integers(min_value=2, max_value=max_u))
    n_v = draw(st.integers(min_value=2, max_value=max_v))
    possible = [(u, v) for u in range(n_u) for v in range(n_v)]
    n_edges = draw(st.integers(min_value=0, max_value=min(40, len(possible))))
    indices = draw(
        st.lists(st.integers(min_value=0, max_value=len(possible) - 1),
                 min_size=n_edges, max_size=n_edges, unique=True)
    )
    present = {possible[i] for i in indices}
    start_edges = sorted(present)

    batches = []
    n_batches = draw(st.integers(min_value=1, max_value=max_batches))
    for _ in range(n_batches):
        absent = sorted(set(possible) - present)
        n_ins = draw(st.integers(min_value=0, max_value=min(len(absent), max_changes)))
        ins_idx = draw(
            st.lists(st.integers(min_value=0, max_value=max(len(absent) - 1, 0)),
                     min_size=n_ins, max_size=n_ins, unique=True)
        ) if absent else []
        inserts = [absent[i] for i in ins_idx]
        removable = sorted(present)
        n_del = draw(st.integers(min_value=0, max_value=min(len(removable), max_changes)))
        del_idx = draw(
            st.lists(st.integers(min_value=0, max_value=max(len(removable) - 1, 0)),
                     min_size=n_del, max_size=n_del, unique=True)
        ) if removable else []
        deletes = [removable[i] for i in del_idx]
        batches.append((inserts, deletes))
        present = (present | set(inserts)) - set(deletes)
    return n_u, n_v, start_edges, batches


@settings(max_examples=40, deadline=None)
@given(stream=update_stream(), damage_threshold=st.sampled_from([0.0, 0.3, 1.0]))
@pytest.mark.parametrize("peel_kernel", ["batched", "reference"])
def test_interleaved_batches_match_scratch_peel(stream, damage_threshold, peel_kernel,
                                                peel_with):
    """The ISSUE-gated property: incremental repair == from-scratch peel.

    Every intermediate state of a random insert/delete interleaving must
    carry tip numbers and butterfly counts (both sides) bit-identical to a
    from-scratch decomposition of the graph at that point, whatever the
    peel kernel and however eagerly the damage threshold forces fallback.
    """
    n_u, n_v, start_edges, batches = stream
    graph = BipartiteGraph(n_u, n_v, start_edges)
    tips, butterflies, center = _decomposed(graph)
    config = StreamingConfig(damage_threshold=damage_threshold, full_algorithm="bup")
    for inserts, deletes in batches:
        batch = EdgeBatch.from_lists(inserts or None, deletes or None)
        with peel_with(peel_kernel):
            result = apply_update(graph, "U", tips, butterflies, batch,
                                  center_butterflies=center, config=config)
        graph = result.graph
        tips, butterflies, center = (
            result.tip_numbers, result.butterflies, result.center_butterflies,
        )
        fresh_counts = count_per_vertex(graph)
        with peel_with(peel_kernel):
            fresh = bup_decomposition(graph, "U", counts=fresh_counts)
        assert np.array_equal(tips, fresh.tip_numbers)
        assert np.array_equal(butterflies, fresh.initial_butterflies)
        assert np.array_equal(center, fresh_counts.v_counts)
