"""Unit tests for the min-support retrieval structure (the lazy heap)."""

import numpy as np
import pytest

from repro.peeling.minheap import LazyMinHeap


class TestLazyMinHeap:
    def test_pop_order_without_updates(self):
        supports = np.array([5, 1, 3, 2, 4])
        heap = LazyMinHeap(supports)
        order = [heap.pop_min() for _ in range(5)]
        assert [vertex for vertex, _ in order] == [1, 3, 2, 4, 0]
        assert [support for _, support in order] == [1, 2, 3, 4, 5]

    def test_decrease_changes_priority(self):
        heap = LazyMinHeap(np.array([10, 20, 30]))
        heap.decrease(2, 5)
        vertex, support = heap.pop_min()
        assert (vertex, support) == (2, 5)

    def test_decrease_to_same_value_is_noop(self):
        heap = LazyMinHeap(np.array([4, 2]))
        entries = len(heap._heap)
        heap.decrease(0, 4)
        assert len(heap._heap) == entries  # nothing pushed
        assert [heap.pop_min() for _ in range(2)] == [(1, 2), (0, 4)]
        assert not heap

    def test_increase_rejected(self):
        heap = LazyMinHeap(np.array([4, 2]))
        with pytest.raises(ValueError):
            heap.decrease(1, 10)

    def test_decrease_after_pop_ignored(self):
        heap = LazyMinHeap(np.array([1, 2]))
        heap.pop_min()
        heap.decrease(0, 0)  # silently ignored
        vertex, _ = heap.pop_min()
        assert vertex == 1

    def test_contains_and_len(self):
        """``len`` counts the vertices the heap still contains."""
        heap = LazyMinHeap(np.array([1, 2, 3]))
        assert len(heap) == 3
        heap.decrease(2, 0)  # a decrease re-pushes but adds no vertex
        assert len(heap) == 3
        heap.pop_min()
        assert len(heap) == 2
        assert bool(heap)

    def test_empty_pop_raises(self):
        heap = LazyMinHeap(np.array([], dtype=np.int64))
        assert not heap
        with pytest.raises(IndexError):
            heap.pop_min()

    def test_many_random_operations_match_reference(self):
        rng = np.random.default_rng(11)
        supports = rng.integers(0, 100, size=50)
        heap = LazyMinHeap(supports)
        current = {i: int(s) for i, s in enumerate(supports)}
        popped = []
        while heap:
            # Randomly decrease a few surviving vertices (never below the
            # current minimum, as in real peeling).
            minimum = min(current.values())
            for vertex in rng.choice(list(current), size=min(3, len(current)), replace=False):
                new_value = int(rng.integers(minimum, current[vertex] + 1))
                heap.decrease(int(vertex), new_value)
                current[int(vertex)] = new_value
            vertex, support = heap.pop_min()
            assert support == min(current.values())
            assert current[vertex] == support
            del current[vertex]
            popped.append(support)
        assert popped == sorted(popped)
