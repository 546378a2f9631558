"""Unit tests for the analytical parallel cost model."""

import numpy as np
import pytest

from repro.parallel.costmodel import ParallelCostModel, ParallelRegionRecord, RegionCost


class TestRegionCost:
    def test_single_thread_makespan_is_total(self):
        region = RegionCost("r", np.array([3.0, 4.0, 5.0]))
        assert region.makespan(1) == 12.0
        assert region.total_work == 12.0

    def test_dynamic_scheduling_balances(self):
        region = RegionCost("r", np.array([4.0, 4.0, 4.0, 4.0]), scheduling="dynamic")
        assert region.makespan(2) == 8.0
        assert region.makespan(4) == 4.0

    def test_lpt_beats_or_equals_static_on_skew(self):
        work = np.array([10.0, 1.0, 1.0, 1.0, 1.0, 10.0])
        static = RegionCost("s", work, scheduling="static")
        lpt = RegionCost("l", work, scheduling="lpt")
        assert lpt.makespan(2) <= static.makespan(2)

    def test_sequential_work_not_parallelised(self):
        region = RegionCost("r", np.array([10.0, 10.0]), sequential_work=5.0)
        assert region.makespan(2) == 15.0
        assert region.makespan(1) == 25.0

    def test_unknown_scheduling_rejected(self):
        with pytest.raises(ValueError):
            RegionCost("r", np.array([1.0]), scheduling="magic")

    def test_empty_region(self):
        region = RegionCost("r", np.array([]))
        assert region.makespan(8) == 0.0


class TestParallelCostModel:
    def test_amdahl_like_behaviour(self):
        model = ParallelCostModel(barrier_cost=0.0, numa_penalty=0.0)
        model.add_region("parallel", np.ones(1000))
        model.add_sequential("serial", 100.0)
        speedup_at_10 = model.speedup(10)
        assert 1.0 < speedup_at_10 < 10.0
        # Amdahl: with 1/11 of the work serial, speedup is capped at 11.
        assert model.speedup(10_000) < 11.0

    def test_barrier_cost_penalises_many_rounds(self):
        few_rounds = ParallelCostModel(barrier_cost=100.0)
        few_rounds.add_region("one", np.ones(1000))
        many_rounds = ParallelCostModel(barrier_cost=100.0)
        for _ in range(100):
            many_rounds.add_region("round", np.ones(10))
        assert few_rounds.speedup(8) > many_rounds.speedup(8)

    def test_numa_penalty_kicks_in_beyond_threshold(self):
        model = ParallelCostModel(barrier_cost=0.0, numa_threshold=4, numa_penalty=1.0)
        model.add_region("r", np.ones(64))
        time_at_4 = model.simulated_time(4)
        time_at_5 = model.simulated_time(5)
        # Despite one more thread, the doubled work cost makes it slower.
        assert time_at_5 > time_at_4

    def test_empty_model(self):
        model = ParallelCostModel()
        assert model.simulated_time(4) == 0.0
        assert model.speedup(4) == 1.0

    def test_invalid_thread_count(self):
        model = ParallelCostModel()
        model.add_region("r", np.ones(4))
        with pytest.raises(ValueError):
            model.simulated_time(0)

    def test_speedup_curve_points(self):
        model = ParallelCostModel(barrier_cost=0.0)
        model.add_region("r", np.ones(100))
        points = model.speedup_curve([1, 2, 4])
        assert [point.n_threads for point in points] == [1, 2, 4]
        assert points[0].speedup == pytest.approx(1.0)
        assert points[2].speedup > points[1].speedup > 1.0

    def test_extend_composes_models(self):
        first = ParallelCostModel()
        first.add_region("a", np.ones(10))
        second = ParallelCostModel()
        second.add_region("b", np.ones(20))
        first.extend(second)
        assert first.total_work == 30.0
        assert len(first.regions) == 2

    def test_from_region_records(self):
        records = [
            ParallelRegionRecord(name="counting", n_tasks=4, total_work=40.0,
                                 task_work=[10.0, 10.0, 10.0, 10.0]),
            ParallelRegionRecord(name="peel", n_tasks=2, total_work=8.0, task_work=[]),
            ParallelRegionRecord(name="empty", n_tasks=0, total_work=0.0, task_work=[]),
        ]
        model = ParallelCostModel.from_region_records(records, barrier_cost=0.0)
        assert len(model.regions) == 3
        assert model.total_work == pytest.approx(48.0)
        # The record without per-task work is split evenly over its tasks.
        assert model.regions[1].task_work.tolist() == [4.0, 4.0]
