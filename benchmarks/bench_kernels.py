"""Wedge-pipeline kernel benchmark: arena + int32 + budgeted chunking vs legacy.

A plain script (no pytest harness) so CI can run it directly:

    PYTHONPATH=src python benchmarks/bench_kernels.py [--quick]

For each selected dataset stand-in it runs the RECEIPT CD phase through the
memory-bounded wedge pipeline in three configurations:

* ``legacy``   — ``WedgeWorkspace.legacy()``: fresh int64 allocations per
  kernel call, no chunking; the pre-arena cost profile the speedup gate is
  measured against.
* ``pipeline`` — the default workspace: reusable scratch arena, int32
  id/key narrowing, default wedge budget.
* ``budgeted`` — an explicit budget of a quarter of the unbudgeted run's
  peak chunk, demonstrating that chunking caps peak scratch.

The CD phase runs with DGM and HUC disabled: this is the pure batched
wedge workload (the paper's RECEIPT-- ablation), where whole peel
iterations materialise at once and stale entries are never compacted
away.  The DGM regime is covered by ``bench_peeling_smoke.py`` and its
own (raised) gate.

Every configuration must agree **bit-for-bit** on wedge traversal, support
updates, subset contents and range bounds, and a full RECEIPT
decomposition must produce identical tip numbers on the legacy and default
pipelines — narrowing and chunking are pure memory policy.  Gates (full
mode, hard-failing):

* >= 1.3x CD wall-time speedup of ``pipeline`` over ``legacy`` on the
  wedge-heaviest dataset;
* budgeted peak scratch <= 0.5x the unbudgeted (``pipeline`` with no
  budget) peak on the wedge-heaviest dataset.

``--quick`` (the CI smoke mode) benchmarks two small stand-ins at reduced
scale: exactness and the peak-scratch ratio are still gated (both are
deterministic), while the speedup is gated only against regression (1.0x)
— tiny graphs are dispatch-overhead-bound, so the full-mode 1.3x floor
would measure noise, not the kernels.  Results land in
``BENCH_kernels.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.butterfly.counting import count_per_vertex_priority
from repro.core.cd import coarse_grained_decomposition
from repro.core.receipt import receipt_decomposition
from repro.datasets.registry import dataset_names, load_dataset
from repro.kernels.workspace import WedgeWorkspace, resolve_wedge_budget

REPO_ROOT = Path(__file__).resolve().parent.parent
QUICK_DATASETS = ("de", "tr")
SPEEDUP_FLOOR = 1.3
QUICK_SPEEDUP_FLOOR = 1.0
PEAK_RATIO_CEILING = 0.5


def make_workspace(mode: str, budget: int | None) -> WedgeWorkspace:
    if mode == "legacy":
        return WedgeWorkspace.legacy()
    if mode == "pipeline":
        return WedgeWorkspace()
    if mode == "unbudgeted":
        return WedgeWorkspace(wedge_budget=None)
    if mode == "budgeted":
        return WedgeWorkspace(wedge_budget=budget)
    raise ValueError(mode)


def run_cd(graph, initial_supports, *, mode: str, n_partitions: int,
           rounds: int, budget: int | None = None) -> dict:
    elapsed = None
    for _ in range(rounds):
        workspace = make_workspace(mode, budget)
        start = time.perf_counter()
        result = coarse_grained_decomposition(
            graph,
            initial_supports,
            n_partitions,
            enable_huc=False,   # isolate the wedge pipeline: no re-count shortcut
            enable_dgm=False,   # pure batched peel; see the module docstring
            workspace=workspace,
        )
        lap = time.perf_counter() - start
        elapsed = lap if elapsed is None else min(elapsed, lap)
    return {
        "mode": mode,
        "cd_seconds": elapsed,
        "peak_scratch_bytes": int(workspace.peak_scratch_bytes),
        "max_iteration_wedges": max(
            (record["wedges_traversed"] for record in result.iteration_records),
            default=0,
        ),
        "wedges_traversed": int(result.counters.wedges_traversed),
        "support_updates": int(result.counters.support_updates),
        "synchronization_rounds": int(result.counters.synchronization_rounds),
        "subset_sizes": [int(subset.size) for subset in result.subsets],
        "bounds": [int(bound) for bound in result.bounds],
    }


def bench_dataset(key: str, *, scale: float, n_partitions: int, rounds: int) -> dict:
    graph = load_dataset(key, scale=scale)
    counts = count_per_vertex_priority(graph)

    runs = {
        mode: run_cd(graph, counts.u_counts, mode=mode,
                     n_partitions=n_partitions, rounds=rounds)
        for mode in ("legacy", "pipeline", "unbudgeted")
    }
    # The budgeted run demonstrates the cap: a sixth of the heaviest
    # iteration's wedge count forces several chunks per iteration on any
    # dataset, so the peak-ratio gate is deterministic at every scale.
    unbudgeted_peak = runs["unbudgeted"]["peak_scratch_bytes"]
    gate_budget = max(1024, runs["unbudgeted"]["max_iteration_wedges"] // 6)
    runs["budgeted"] = run_cd(graph, counts.u_counts, mode="budgeted",
                              n_partitions=n_partitions, rounds=1,
                              budget=gate_budget)

    for counter in ("wedges_traversed", "support_updates", "synchronization_rounds",
                    "subset_sizes", "bounds"):
        values = {mode: run[counter] for mode, run in runs.items()}
        if any(value != runs["legacy"][counter] for value in values.values()):
            raise AssertionError(
                f"{key}: wedge-pipeline configurations disagree on {counter}: {values}"
            )

    speedup = runs["legacy"]["cd_seconds"] / max(runs["pipeline"]["cd_seconds"], 1e-9)
    peak_ratio = runs["budgeted"]["peak_scratch_bytes"] / max(unbudgeted_peak, 1)
    return {
        "dataset": key,
        "n_u": graph.n_u,
        "n_v": graph.n_v,
        "n_edges": graph.n_edges,
        "wedges_traversed": runs["legacy"]["wedges_traversed"],
        "legacy_cd_seconds": round(runs["legacy"]["cd_seconds"], 4),
        "pipeline_cd_seconds": round(runs["pipeline"]["cd_seconds"], 4),
        "cd_speedup": round(speedup, 2),
        "legacy_peak_scratch_bytes": runs["legacy"]["peak_scratch_bytes"],
        "pipeline_peak_scratch_bytes": runs["pipeline"]["peak_scratch_bytes"],
        "unbudgeted_peak_scratch_bytes": unbudgeted_peak,
        "budgeted_peak_scratch_bytes": runs["budgeted"]["peak_scratch_bytes"],
        "gate_budget_wedges": int(gate_budget),
        "budgeted_peak_ratio": round(peak_ratio, 4),
    }


def check_tip_numbers(key: str, *, scale: float, n_partitions: int) -> None:
    """Full RECEIPT runs on the legacy vs default pipeline must agree exactly."""
    graph = load_dataset(key, scale=scale)
    default_run = receipt_decomposition(graph, "U", n_partitions=n_partitions)
    # wedge_budget=1 exercises maximal chunking end-to-end (CD + FD + count).
    chunked_run = receipt_decomposition(
        graph, "U", n_partitions=n_partitions, wedge_budget=1,
    )
    if not np.array_equal(default_run.tip_numbers, chunked_run.tip_numbers):
        raise AssertionError(f"{key}: tip numbers differ between wedge budgets")
    for counter in ("wedges_traversed", "support_updates", "vertices_peeled"):
        if getattr(default_run.counters, counter) != getattr(chunked_run.counters, counter):
            raise AssertionError(f"{key}: counter {counter} differs between wedge budgets")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small scale + two datasets (CI smoke mode)")
    parser.add_argument("--scale", type=float, default=None,
                        help="override the dataset scale multiplier")
    parser.add_argument("--partitions", type=int, default=12,
                        help="RECEIPT partitions P for the CD phase")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_kernels.json"))
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else (0.15 if args.quick else 0.75)
    keys = list(QUICK_DATASETS) if args.quick else dataset_names()

    rows = []
    for key in keys:
        row = bench_dataset(key, scale=scale, n_partitions=args.partitions,
                            rounds=1 if args.quick else 3)
        rows.append(row)
        print(
            f"{key}: |E|={row['n_edges']:,} wedges={row['wedges_traversed']:,} "
            f"legacy={row['legacy_cd_seconds']}s pipeline={row['pipeline_cd_seconds']}s "
            f"speedup={row['cd_speedup']}x peak-ratio={row['budgeted_peak_ratio']}"
        )

    # End-to-end exactness: full RECEIPT tip numbers across budgets.
    tips_key = QUICK_DATASETS[0] if args.quick else "it"
    check_tip_numbers(tips_key, scale=0.1, n_partitions=6)
    print(f"tip numbers bit-identical across wedge budgets on {tips_key!r}")

    largest = max(rows, key=lambda row: row["wedges_traversed"])
    report = {
        "benchmark": "wedge_pipeline_kernels",
        "mode": "quick" if args.quick else "full",
        "scale": scale,
        "partitions": args.partitions,
        "default_wedge_budget": resolve_wedge_budget(None),
        "datasets": rows,
        "largest_dataset": largest["dataset"],
        "largest_speedup": largest["cd_speedup"],
        "largest_peak_ratio": largest["budgeted_peak_ratio"],
    }
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")

    failures = []
    floor = QUICK_SPEEDUP_FLOOR if args.quick else SPEEDUP_FLOOR
    if largest["cd_speedup"] < floor:
        failures.append(
            f"CD speedup on {largest['dataset']} is {largest['cd_speedup']}x, "
            f"below the {floor}x floor"
        )
    if largest["budgeted_peak_ratio"] > PEAK_RATIO_CEILING:
        failures.append(
            f"budgeted peak scratch on {largest['dataset']} is "
            f"{largest['budgeted_peak_ratio']}x the unbudgeted peak, above the "
            f"{PEAK_RATIO_CEILING}x ceiling"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"OK: configurations agree exactly; pipeline is {largest['cd_speedup']}x "
        f"faster than legacy and the budgeted peak is {largest['budgeted_peak_ratio']}x "
        f"the unbudgeted peak on {largest['dataset']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
