"""Peel-kernel smoke benchmark: batched vs reference CD phase.

A plain script (no pytest harness) so CI can run it directly:

    PYTHONPATH=src python benchmarks/bench_peeling_smoke.py [--quick]

For each selected dataset stand-in it runs the RECEIPT CD phase twice —
once with the vectorized batched kernel, once with the per-vertex reference
loop of ``repro.peeling.reference`` (the library never calls it: the
reference run rebinds the names the algorithms call the kernel by, with
``unittest.mock.patch``) — verifies that wedge traversal, support updates
and subset contents agree exactly and that the reference peeled every
round, and records wall time for both.  Results (wall time + wedges
traversed per dataset and kernel, plus the speedup) are written to
``BENCH_peeling.json`` at the repository root so successive CI runs chart
the performance trajectory of the peeling hot path.

``--quick`` benchmarks the two smallest stand-ins at a reduced scale (the
CI smoke job); the default covers every registry dataset at the harness's
usual 0.4 scale.  The script exits non-zero if the kernels disagree on any
counter, or — in full mode, where batches are large enough for the
per-vertex interpreter overhead to dominate the reference — if the batched
kernel fails to deliver a >= 3.5x CD-phase speedup on the largest
benchmarked dataset (raised from 3x once the wedge pipeline moved
allocations off the hot path; see ``bench_kernels.py`` for the dedicated
memory-policy gates).  Quick mode records the speedup without gating on it
(tiny graphs are fixed-overhead-bound on both paths).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

from repro.butterfly.counting import count_per_vertex_priority
from repro.core.cd import coarse_grained_decomposition
from repro.datasets.registry import dataset_names, load_dataset
from repro.kernels.workspace import WedgeWorkspace
from repro.peeling.reference import peel_batch_reference, peel_vertex_reference

REPO_ROOT = Path(__file__).resolve().parent.parent
QUICK_DATASETS = ("it", "de")
SPEEDUP_FLOOR = 3.5


def peel_kernel(kernel: str, calls: list) -> ExitStack:
    """A context in which the decompositions peel with ``kernel``.

    ``"reference"`` rebinds the three names RECEIPT, BUP and ParB call
    Alg. 2's ``update`` by to the per-vertex reference (which takes no
    ``workspace``) and appends one entry to ``calls`` per reference call.
    """
    def shim(reference):
        def peel(adjacency, supports, peeled, threshold, *, workspace=None):
            calls.append(reference.__name__)
            return reference(adjacency, supports, peeled, threshold)
        return peel

    stack = ExitStack()
    if kernel == "reference":
        for site, reference in (("repro.core.cd.peel_batch", peel_batch_reference),
                                ("repro.peeling.bup.peel_batch", peel_batch_reference),
                                ("repro.peeling.bup.peel_vertex", peel_vertex_reference)):
            stack.enter_context(mock.patch(site, shim(reference)))
    return stack


def run_cd(graph, initial_supports, *, kernel: str, n_partitions: int,
           rounds: int = 1) -> dict:
    elapsed = None
    for _ in range(rounds):
        workspace = WedgeWorkspace()  # fresh arena per run: exact peak accounting
        calls: list = []
        with peel_kernel(kernel, calls):
            start = time.perf_counter()
            result = coarse_grained_decomposition(
                graph,
                initial_supports,
                n_partitions,
                enable_huc=False,  # isolate the peel kernel: no re-count shortcuts
                enable_dgm=True,
                workspace=workspace,
            )
            lap = time.perf_counter() - start
        elapsed = lap if elapsed is None else min(elapsed, lap)
    return {
        "kernel": kernel,
        "reference_calls": len(calls),
        "cd_seconds": elapsed,
        "peak_scratch_bytes": int(result.counters.peak_scratch_bytes),
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
        kernel: run_cd(graph, counts.u_counts, kernel=kernel,
                       n_partitions=n_partitions, rounds=rounds)
        for kernel in ("batched", "reference")
    }

    for counter in ("wedges_traversed", "support_updates", "synchronization_rounds",
                    "subset_sizes", "bounds"):
        if runs["batched"][counter] != runs["reference"][counter]:
            raise AssertionError(
                f"{key}: batched and reference kernels disagree on {counter}: "
                f"{runs['batched'][counter]} != {runs['reference'][counter]}"
            )
    # Without HUC every CD round peels, so the reference must have run once
    # per round; otherwise both runs took the batched kernel.
    if (runs["batched"]["reference_calls"] != 0
            or runs["reference"]["reference_calls"] != runs["reference"]["synchronization_rounds"]):
        raise AssertionError(
            f"{key}: the reference kernel ran {runs['reference']['reference_calls']} times "
            f"over {runs['reference']['synchronization_rounds']} CD rounds"
        )

    speedup = runs["reference"]["cd_seconds"] / max(runs["batched"]["cd_seconds"], 1e-9)
    return {
        "dataset": key,
        "n_u": graph.n_u,
        "n_v": graph.n_v,
        "n_edges": graph.n_edges,
        "wedges_traversed": runs["batched"]["wedges_traversed"],
        "batched_cd_seconds": round(runs["batched"]["cd_seconds"], 4),
        "reference_cd_seconds": round(runs["reference"]["cd_seconds"], 4),
        "cd_speedup": round(speedup, 2),
        "batched_peak_scratch_bytes": runs["batched"]["peak_scratch_bytes"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small scale + two datasets (CI smoke mode)")
    parser.add_argument("--scale", type=float, default=None,
                        help="override the dataset scale multiplier")
    parser.add_argument("--partitions", type=int, default=12,
                        help="RECEIPT partitions P for the CD phase (a scaled-down "
                             "stand-in for the paper's 150, sized to the bench graphs)")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_peeling.json"))
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else (0.15 if args.quick else 0.4)
    keys = list(QUICK_DATASETS) if args.quick else dataset_names()

    rows = []
    for key in keys:
        # Best-of-3 wall times in full mode so single-run jitter cannot
        # straddle the speedup floor; quick mode times one round.
        row = bench_dataset(key, scale=scale, n_partitions=args.partitions,
                            rounds=1 if args.quick else 3)
        rows.append(row)
        print(
            f"{key}: |E|={row['n_edges']:,} wedges={row['wedges_traversed']:,} "
            f"batched={row['batched_cd_seconds']}s reference={row['reference_cd_seconds']}s "
            f"speedup={row['cd_speedup']}x"
        )

    # "Largest" means the heaviest CD workload — most wedges traversed, the
    # paper's work unit — not most edges, so the gate cannot be satisfied by
    # a dataset the kernel barely sweats on.
    largest = max(rows, key=lambda row: row["wedges_traversed"])
    report = {
        "benchmark": "cd_peel_kernel",
        "mode": "quick" if args.quick else "full",
        "scale": scale,
        "partitions": args.partitions,
        "datasets": rows,
        "largest_dataset": largest["dataset"],
        "largest_speedup": largest["cd_speedup"],
    }
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")

    if not args.quick and largest["cd_speedup"] < SPEEDUP_FLOOR:
        print(
            f"FAIL: CD speedup on largest dataset ({largest['dataset']}) is "
            f"{largest['cd_speedup']}x, below the {SPEEDUP_FLOOR}x floor",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: kernels agree exactly; batched kernel is {largest['cd_speedup']}x "
        f"faster on the largest dataset ({largest['dataset']})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
