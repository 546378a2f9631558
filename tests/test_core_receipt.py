"""Unit tests for the top-level RECEIPT decomposition."""

import numpy as np
import pytest

from repro.analysis.verification import check_basic_invariants
from repro.butterfly.counting import count_per_vertex
from repro.core.receipt import DEFAULT_PARTITIONS, ReceiptConfig, receipt_decomposition, tip_decomposition
from repro.errors import ReproError
from repro.graph.builders import complete_bipartite, empty_graph, star
from repro.peeling.bup import bup_decomposition


class TestCorrectness:
    def test_matches_bup_on_fixtures(self, tiny_graph, blocks_graph, community_graph,
                                     hierarchy_graph):
        for graph in (tiny_graph, blocks_graph, community_graph, hierarchy_graph):
            for side in ("U", "V"):
                reference = bup_decomposition(graph, side)
                receipt = receipt_decomposition(graph, side, n_partitions=4)
                assert np.array_equal(reference.tip_numbers, receipt.tip_numbers), (graph.name, side)

    def test_variants_match(self, community_graph):
        reference = bup_decomposition(community_graph, "U").tip_numbers
        for variant in ("receipt", "receipt-", "receipt--"):
            config = ReceiptConfig.from_variant(variant, n_partitions=5)
            result = receipt_decomposition(community_graph, "U", config=config)
            assert np.array_equal(result.tip_numbers, reference), variant

    def test_partition_counts_do_not_change_result(self, blocks_graph):
        reference = bup_decomposition(blocks_graph, "U").tip_numbers
        for n_partitions in (1, 2, 3, 8, 16, DEFAULT_PARTITIONS):
            result = receipt_decomposition(blocks_graph, "U", n_partitions=n_partitions)
            assert np.array_equal(result.tip_numbers, reference), n_partitions

    def test_degenerate_graphs(self):
        assert receipt_decomposition(star(5), "U", n_partitions=3).max_tip_number == 0
        assert receipt_decomposition(empty_graph(3, 2), "U", n_partitions=2).tip_numbers.tolist() == [0, 0, 0]
        complete = receipt_decomposition(complete_bipartite(4, 3), "U", n_partitions=2)
        assert set(complete.tip_numbers.tolist()) == {9}

    def test_precomputed_counts(self, blocks_graph):
        counts = count_per_vertex(blocks_graph)
        result = receipt_decomposition(blocks_graph, "U", counts=counts, n_partitions=4)
        reference = bup_decomposition(blocks_graph, "U", counts=counts)
        assert np.array_equal(result.tip_numbers, reference.tip_numbers)

    def test_v_side_uses_v_counts(self, blocks_graph):
        counts = count_per_vertex(blocks_graph)
        result = receipt_decomposition(blocks_graph, "V", counts=counts, n_partitions=4)
        assert result.side == "V"
        assert result.n_vertices == blocks_graph.n_v
        assert np.array_equal(result.initial_butterflies, counts.v_counts)
        assert check_basic_invariants(blocks_graph, result).passed

    def test_real_threads(self, blocks_graph):
        reference = bup_decomposition(blocks_graph, "U").tip_numbers
        result = receipt_decomposition(
            blocks_graph, "U", n_partitions=4, n_threads=4, backend="thread"
        )
        assert np.array_equal(result.tip_numbers, reference)


class TestConfig:
    def test_variant_factory(self):
        assert ReceiptConfig.from_variant("receipt").enable_dgm
        assert not ReceiptConfig.from_variant("receipt-").enable_dgm
        minus_minus = ReceiptConfig.from_variant("receipt--")
        assert not minus_minus.enable_dgm and not minus_minus.enable_huc

    def test_variant_overrides(self):
        config = ReceiptConfig.from_variant("receipt", n_partitions=7)
        assert config.n_partitions == 7

    def test_unknown_variant_rejected(self):
        with pytest.raises(ReproError):
            ReceiptConfig.from_variant("receipt+++")

    def test_config_and_overrides_are_mutually_exclusive(self, blocks_graph):
        with pytest.raises(ReproError):
            receipt_decomposition(blocks_graph, "U", config=ReceiptConfig(), n_partitions=3)

    def test_default_partitions_match_paper(self):
        assert DEFAULT_PARTITIONS == 150
        assert ReceiptConfig().n_partitions == 150


class TestInstrumentation:
    def test_phase_counters_present(self, blocks_graph):
        result = receipt_decomposition(blocks_graph, "U", n_partitions=4)
        assert set(result.phase_counters) == {"pvBcnt", "cd", "fd"}
        total = sum(c.wedges_traversed for c in result.phase_counters.values())
        assert total == result.counters.wedges_traversed

    def test_extra_metadata(self, blocks_graph):
        result = receipt_decomposition(blocks_graph, "U", n_partitions=4)
        extra = result.extra
        assert len(extra["subset_sizes"]) == len(extra["subsets"])
        assert sum(extra["subset_sizes"]) == blocks_graph.n_u
        assert len(extra["bounds"]) == len(extra["subsets"]) + 1
        assert extra["total_butterflies"] == int(result.initial_butterflies.sum()) // 2
        assert len(extra["parallel_regions"]) > 0
        assert len(extra["subset_records"]) == len(extra["subsets"])

    def test_parallel_regions(self, blocks_graph):
        result = receipt_decomposition(blocks_graph, "U", n_partitions=4)
        regions = result.extra["parallel_regions"]
        names = [region.name for region in regions]
        assert names[:2] == ["pvBcnt[U]", "pvBcnt[V]"] and names[-1] == "fd_subsets"
        # Counting: one task per start vertex, its degree as work.
        assert regions[0].task_work.dtype == np.float64
        assert np.array_equal(regions[0].task_work, blocks_graph.degrees("U"))
        assert names.count("cd_peel_iteration") == (
            result.phase_counters["cd"].synchronization_rounds)
        assert regions[-1].n_tasks == len(result.extra["subsets"])
        assert regions[-1].total_work == result.phase_counters["fd"].wedges_traversed
        # With precomputed counts the run has no counting pass to record.
        counted = receipt_decomposition(blocks_graph, "U", n_partitions=4,
                                        counts=count_per_vertex(blocks_graph))
        assert [region.name for region in counted.extra["parallel_regions"]] == names[2:]

    def test_fewer_synchronization_rounds_than_parb(self, community_graph):
        from repro.peeling.parbutterfly import parbutterfly_decomposition

        receipt = receipt_decomposition(community_graph, "U", n_partitions=4)
        parb = parbutterfly_decomposition(community_graph, "U")
        assert receipt.counters.synchronization_rounds < parb.counters.synchronization_rounds

    def test_algorithm_name(self, blocks_graph):
        assert receipt_decomposition(blocks_graph, "U", n_partitions=2).algorithm == "RECEIPT"


class TestDispatcher:
    def test_dispatch_to_all_algorithms(self, blocks_graph):
        reference = tip_decomposition(blocks_graph, "U", algorithm="bup")
        for algorithm in ("receipt", "receipt-", "receipt--", "parb"):
            result = tip_decomposition(blocks_graph, "U", algorithm=algorithm, n_partitions=4) \
                if algorithm.startswith("receipt") else \
                tip_decomposition(blocks_graph, "U", algorithm=algorithm)
            assert np.array_equal(result.tip_numbers, reference.tip_numbers), algorithm

    def test_unknown_algorithm(self, blocks_graph):
        with pytest.raises(ReproError):
            tip_decomposition(blocks_graph, "U", algorithm="quantum")
