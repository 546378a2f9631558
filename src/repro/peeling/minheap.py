"""Minimum-support retrieval structures for bottom-up peeling.

The sequential peeling loops need to repeatedly extract a vertex with the
minimum current support while supports of other vertices keep decreasing.
The paper notes it found a simple k-way min-heap faster in practice than the
bucketing structure of Sariyuce et al.; we provide a *lazy* binary min-heap
with exactly those semantics: decreased keys are pushed again and stale
entries are skipped at pop time.  Because supports only decrease during
peeling, the first non-stale entry popped is always a true minimum.
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = ["LazyMinHeap"]


class LazyMinHeap:
    """Lazy-deletion binary heap keyed by current vertex support.

    Parameters
    ----------
    supports:
        Initial support of every vertex (indexed by vertex id).  The heap
        keeps a reference-independent copy of the *current* support of each
        vertex; :meth:`decrease` must be called whenever a support drops so
        the heap can prioritise the vertex correctly.
    """

    def __init__(self, supports: np.ndarray):
        supports = np.asarray(supports)
        self._current: dict[int, int] = {
            vertex: int(support) for vertex, support in enumerate(supports.tolist())
        }
        self._heap: list[tuple[int, int]] = [(support, vertex) for vertex, support in self._current.items()]
        heapq.heapify(self._heap)

    def __len__(self) -> int:
        return len(self._current)

    def __bool__(self) -> bool:
        return bool(self._current)

    def decrease(self, vertex: int, new_support: int) -> None:
        """Record a support decrease for ``vertex`` (ignored once it is popped).

        Increases are rejected because bottom-up peeling only ever lowers
        supports; accepting them would break the lazy-deletion invariant.
        """
        vertex = int(vertex)
        current = self._current.get(vertex)
        if current is None:
            return
        new_support = int(new_support)
        if new_support > current:
            raise ValueError(
                f"support of vertex {vertex} cannot increase "
                f"({current} -> {new_support})"
            )
        if new_support == current:
            return
        self._current[vertex] = new_support
        heapq.heappush(self._heap, (new_support, vertex))

    def decrease_many(self, vertices: np.ndarray, new_supports: np.ndarray) -> None:
        """Record the support decreases of one batched :class:`SupportUpdate`.

        This is the bulk entry point peeling loops feed a
        :class:`~repro.peeling.update.SupportUpdate` into
        (``heap.decrease_many(update.updated_vertices, update.new_supports)``);
        it centralises the per-entry iteration in one place instead of
        every caller zipping the arrays itself.
        """
        for vertex, new_support in zip(
            np.asarray(vertices, dtype=np.int64).tolist(),
            np.asarray(new_supports, dtype=np.int64).tolist(),
        ):
            self.decrease(vertex, new_support)

    def pop_min(self) -> tuple[int, int]:
        """Remove and return ``(vertex, support)`` with the minimum support.

        Raises ``IndexError`` when the heap is empty.
        """
        while self._heap:
            support, vertex = heapq.heappop(self._heap)
            # Stale: the vertex was popped already, or its support dropped
            # and a newer entry carries it.
            if self._current.get(vertex) != support:
                continue
            del self._current[vertex]
            return vertex, support
        raise IndexError("pop from an empty LazyMinHeap")
