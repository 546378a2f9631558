"""Unit tests for the error hierarchy and shared result/counter types."""

import numpy as np
import pytest

from repro.errors import (
    DatasetError,
    DecompositionError,
    GraphConstructionError,
    GraphFormatError,
    ReproError,
    VertexSideError,
)
from repro.peeling.base import PeelingCounters, TipDecompositionResult


class TestErrorHierarchy:
    @pytest.mark.parametrize("error_type", [
        GraphConstructionError, GraphFormatError, VertexSideError,
        DecompositionError, DatasetError,
    ])
    def test_all_derive_from_repro_error(self, error_type):
        assert issubclass(error_type, ReproError)
        assert issubclass(error_type, Exception)

    def test_catching_base_class(self):
        with pytest.raises(ReproError):
            raise DatasetError("nope")


class TestPeelingCounters:
    def test_merge_accumulates_all_fields(self):
        first = PeelingCounters(wedges_traversed=10, counting_wedges=4, peeling_wedges=6,
                                support_updates=3, synchronization_rounds=2,
                                vertices_peeled=5, recount_invocations=1,
                                dgm_compactions=1, elapsed_seconds=0.5)
        second = PeelingCounters(wedges_traversed=1, counting_wedges=1,
                                 synchronization_rounds=1, elapsed_seconds=0.25)
        first.merge(second)
        assert first.wedges_traversed == 11
        assert first.counting_wedges == 5
        assert first.synchronization_rounds == 3
        assert first.elapsed_seconds == pytest.approx(0.75)

    def test_as_dict_round_trip(self):
        counters = PeelingCounters(wedges_traversed=7)
        data = counters.as_dict()
        assert data["wedges_traversed"] == 7
        assert set(data) == {
            "wedges_traversed", "counting_wedges", "peeling_wedges", "support_updates",
            "synchronization_rounds", "vertices_peeled", "recount_invocations",
            "dgm_compactions", "elapsed_seconds", "peak_scratch_bytes",
        }


class TestTipDecompositionResult:
    def _result(self):
        return TipDecompositionResult(
            tip_numbers=np.array([0, 2, 2, 5]),
            side="u",
            initial_butterflies=np.array([0, 3, 4, 9]),
            algorithm="synthetic",
        )

    def test_side_normalised(self):
        assert self._result().side == "U"

    def test_max_and_lookup(self):
        result = self._result()
        assert result.max_tip_number == 5
        assert result.tip_number(1) == 2
        assert result.n_vertices == 4

    def test_histogram(self):
        assert self._result().histogram() == {0: 1, 2: 2, 5: 1}

    def test_vertices_with_tip_at_least(self):
        assert self._result().vertices_with_tip_at_least(2).tolist() == [1, 2, 3]
        assert self._result().vertices_with_tip_at_least(6).tolist() == []

    def test_cumulative_distribution(self):
        values, fractions = self._result().cumulative_distribution()
        assert values.tolist() == [0, 2, 2, 5]
        assert fractions[-1] == pytest.approx(1.0)

    def test_same_tip_numbers(self):
        assert self._result().same_tip_numbers(self._result())
        other = self._result()
        other.tip_numbers[0] = 1
        assert not self._result().same_tip_numbers(other)

    def test_summary_keys(self):
        summary = self._result().summary()
        assert summary["algorithm"] == "synthetic"
        assert summary["max_tip_number"] == 5
        assert "wedges_traversed" in summary

    def test_empty_result(self):
        result = TipDecompositionResult(
            tip_numbers=np.array([], dtype=np.int64), side="V",
            initial_butterflies=np.array([], dtype=np.int64), algorithm="synthetic",
        )
        assert result.max_tip_number == 0
        assert result.n_vertices == 0
