"""Shared fixtures for the test suite."""

from __future__ import annotations

from collections import Counter
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.datasets.generators import (
    affiliation_graph,
    nested_tip_hierarchy,
    planted_blocks,
    power_law_bipartite,
    random_bipartite,
)
from repro.graph.builders import complete_bipartite, empty_graph, from_edge_list, star
from repro.peeling.reference import peel_batch_reference, peel_vertex_reference

#: The names the decompositions call Alg. 2's ``update`` by — CD's range
#: peel, the level peel (FD, ParB and streaming repair) and BUP's pops —
#: and the reference each is rebound to.
KERNEL_SITES = {
    "repro.core.cd.peel_batch": peel_batch_reference,
    "repro.peeling.bup.peel_batch": peel_batch_reference,
    "repro.peeling.bup.peel_vertex": peel_vertex_reference,
}


@contextmanager
def _peel_with(kernel: str):
    """Run the decompositions in the block with the named peel kernel.

    The library peels only with the batched kernel, so ``"batched"``
    changes nothing.  ``"reference"`` rebinds :data:`KERNEL_SITES` to the
    per-vertex oracle of :mod:`repro.peeling.reference` (which takes no
    ``workspace``), in this process only: pooled worker processes keep the
    batched kernel.  Yields a :class:`~collections.Counter` of reference
    calls per site, so a test can show the reference ran.
    """
    if kernel not in ("batched", "reference"):
        raise ValueError(f"unknown peel kernel {kernel!r}")
    calls: Counter = Counter()

    def shim(site, reference):
        def peel(adjacency, supports, peeled, threshold, *, workspace=None):
            calls[site] += 1
            return reference(adjacency, supports, peeled, threshold)
        return peel

    with ExitStack() as stack:
        if kernel == "reference":
            for site, reference in KERNEL_SITES.items():
                stack.enter_context(mock.patch(site, shim(site, reference)))
        yield calls


@pytest.fixture(scope="session")
def peel_with():
    """``with peel_with("reference") as calls:`` — see :func:`_peel_with`."""
    return _peel_with


def _oracle_components(graph, side: str):
    """The butterfly-connected components oracle for one graph side.

    Returns ``components_of(vertices)``: breadth-first search over the
    member pairs that share at least two neighbours (``pair_wedge_count(graph,
    a, b, side) >= 2``, read off one dense biadjacency product so that whole
    hierarchies of a graph stay cheap), components in order of their first
    vertex in ``vertices``, members ascending.  Shares no code with the
    kernels behind :func:`repro.analysis.hierarchy.butterfly_connected_components`.
    """
    offsets, neighbors = graph.csr(side)
    size = offsets.shape[0] - 1
    dense = np.zeros((size, graph.side_size("V" if side == "U" else "U")))
    dense[np.repeat(np.arange(size), np.diff(offsets)), neighbors] = 1.0
    adjacent = dense @ dense.T >= 2

    def components_of(vertices) -> list[list[int]]:
        vertices = [int(vertex) for vertex in vertices]
        among = adjacent[np.ix_(vertices, vertices)]
        unseen = np.ones(len(vertices), dtype=bool)
        components = []
        for start in range(len(vertices)):
            if not unseen[start]:
                continue
            unseen[start] = False
            frontier, members = [start], [vertices[start]]
            while frontier:
                reached = np.flatnonzero(among[frontier.pop()] & unseen)
                unseen[reached] = False
                frontier.extend(reached.tolist())
                members.extend(vertices[position] for position in reached)
            components.append(sorted(members))
        return components

    return components_of


@pytest.fixture(scope="session")
def community_oracle():
    """``community_oracle(graph, side)(vertices)`` — see :func:`_oracle_components`."""
    return _oracle_components


@pytest.fixture
def tiny_graph():
    """A small hand-constructed 8x7 graph in the style of the paper's Fig. 2.

    Vertices u1..u8 map to 0..7 and v1..v7 to 0..6; it contains a mix of
    butterfly-dense and butterfly-free vertices.
    """
    edges = [
        (0, 0), (0, 1),                      # u1: v1, v2
        (1, 0), (1, 1), (1, 2), (1, 3),      # u2: v1, v2, v3, v4
        (2, 1), (2, 2), (2, 3), (2, 4), (2, 5),  # u3
        (3, 1), (3, 3), (3, 4), (3, 5), (3, 6),  # u4
        (4, 2), (4, 3), (4, 4), (4, 5),      # u5
        (5, 1), (5, 3), (5, 4), (5, 5), (5, 6),  # u6
        (6, 2), (6, 3),                      # u7
        (7, 5), (7, 2),                      # u8
    ]
    return from_edge_list(edges, n_u=8, n_v=7, name="fig2")


@pytest.fixture
def complete_4x3():
    """Complete bipartite graph K_{4,3} with closed-form butterfly counts."""
    return complete_bipartite(4, 3)


@pytest.fixture
def star_graph():
    """Star with 6 leaves on the U side; zero butterflies."""
    return star(6, center_side="V")


@pytest.fixture
def empty():
    return empty_graph(5, 4)


@pytest.fixture
def blocks_graph():
    """Planted dense blocks over a random background (medium test graph)."""
    return planted_blocks(60, 40, [(10, 8), (8, 6), (6, 5)], background_edges=80, seed=5)


@pytest.fixture
def hierarchy_graph():
    """Deterministic nested structure with a non-trivial tip hierarchy."""
    return nested_tip_hierarchy(n_levels=3, base_u=4, base_v=3, growth=2)


@pytest.fixture
def community_graph():
    """Affiliation-style graph: overlapping user/group communities."""
    return affiliation_graph(80, 40, 12, community_size_u=12, community_size_v=5,
                             membership_probability=0.7, background_edges=60, seed=9)


@pytest.fixture
def medium_random_graph():
    """Skewed random graph large enough to exercise every code path."""
    return power_law_bipartite(300, 120, 1500, exponent_u=2.3, exponent_v=1.9, seed=42)


@pytest.fixture
def random_graph_factory():
    """Factory producing reproducible random graphs of a requested size."""

    def factory(n_u: int = 20, n_v: int = 20, n_edges: int = 60, seed: int = 0):
        return random_bipartite(n_u, n_v, n_edges, seed=seed)

    return factory


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
