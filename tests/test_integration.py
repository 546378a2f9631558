"""Integration tests: all algorithms must agree on a spread of graphs.

These tests mirror the paper's correctness claim (Theorem 2): RECEIPT, with
any combination of optimizations, computes exactly the tip numbers of
sequential bottom-up peeling, on both vertex sides, for any graph.
"""

import numpy as np
import pytest

from repro.analysis.verification import check_k_tip_property
from repro.core.receipt import receipt_decomposition
from repro.datasets.generators import (
    affiliation_graph,
    planted_blocks,
    power_law_bipartite,
    random_bipartite,
)
from repro.datasets.registry import load_dataset
from repro.peeling.bup import bup_decomposition
from repro.peeling.parbutterfly import parbutterfly_decomposition


def _graph_collection():
    return {
        "sparse-random": random_bipartite(40, 35, 90, seed=10),
        "dense-random": random_bipartite(15, 15, 140, seed=11),
        "power-law": power_law_bipartite(120, 60, 600, exponent_v=1.9, seed=12),
        "planted": planted_blocks(50, 40, [(9, 7), (7, 5)], background_edges=70, seed=13),
        "affiliation": affiliation_graph(70, 30, 10, seed=14),
    }


@pytest.mark.parametrize("name,graph", list(_graph_collection().items()))
@pytest.mark.parametrize("side", ["U", "V"])
def test_all_algorithms_agree(name, graph, side):
    reference = bup_decomposition(graph, side)
    parb = parbutterfly_decomposition(graph, side)
    assert np.array_equal(reference.tip_numbers, parb.tip_numbers), f"ParB {name}/{side}"
    for variant in ("receipt", "receipt-", "receipt--"):
        receipt = receipt_decomposition(
            graph, side, config=None, n_partitions=6,
            enable_huc=variant != "receipt--",
            enable_dgm=variant == "receipt",
        )
        assert np.array_equal(reference.tip_numbers, receipt.tip_numbers), f"{variant} {name}/{side}"


@pytest.mark.parametrize("key", ["it", "lj"])
def test_scaled_paper_datasets_agree(key):
    graph = load_dataset(key, scale=0.08)
    reference = bup_decomposition(graph, "U")
    receipt = receipt_decomposition(graph, "U", n_partitions=8)
    assert np.array_equal(reference.tip_numbers, receipt.tip_numbers)


def test_receipt_satisfies_k_tip_property(community_graph):
    result = receipt_decomposition(community_graph, "U", n_partitions=5)
    report = check_k_tip_property(community_graph, result)
    assert report.passed, report.failures


def test_counting_is_consistent_across_algorithms(medium_random_graph):
    from repro.butterfly.counting import count_per_vertex

    by_algorithm = {
        name: count_per_vertex(medium_random_graph, algorithm=name)
        for name in ("vertex-priority", "wedge")
    }
    reference = by_algorithm["vertex-priority"]
    for name, counts in by_algorithm.items():
        assert np.array_equal(counts.u_counts, reference.u_counts), name
        assert np.array_equal(counts.v_counts, reference.v_counts), name


def test_workload_metrics_shape(medium_random_graph):
    """The relationships the paper's evaluation relies on hold on random data."""
    reference = bup_decomposition(medium_random_graph, "U")
    parb = parbutterfly_decomposition(medium_random_graph, "U")
    receipt = receipt_decomposition(medium_random_graph, "U", n_partitions=8)

    # RECEIPT uses dramatically fewer synchronization rounds than ParB.
    assert receipt.counters.synchronization_rounds < parb.counters.synchronization_rounds
    # Both compute identical tip numbers.
    assert np.array_equal(receipt.tip_numbers, reference.tip_numbers)
    # The two-step approach never traverses more than twice the BUP wedges
    # plus the counting overhead (Theorem 3's work-efficiency, loosely).
    assert receipt.counters.wedges_traversed <= 2 * reference.counters.wedges_traversed
