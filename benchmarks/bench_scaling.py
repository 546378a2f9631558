"""FD scaling benchmark: multiprocess task fan-out vs serial execution.

A plain script (no pytest harness) so CI can run it directly:

    PYTHONPATH=src python benchmarks/bench_scaling.py [--quick] [--workers 1,2,4]

This is the repo's first *measured* Fig. 10-style experiment: it picks the
wedge-heaviest registry stand-in (the paper's work metric), runs counting
and RECEIPT CD once, then re-runs the FD phase — the embarrassingly
parallel part of RECEIPT — through the execution engine:

* ``serial`` backend (reference semantics, also the correctness oracle),
* ``process`` backend at each requested worker count, on a pre-warmed
  persistent pool (each task carries its share's rows of the graph), and
* ``thread`` backend at the largest worker count, for the GIL comparison.

Every run is checked for bit-identical tip numbers, ``wedges_traversed``
and ``support_updates`` against the serial oracle — the script exits
non-zero on any mismatch.  Wall-clock times, measured speedups and the LPT
projection of FD's own share schedule (``repro.core.fd.fd_share_schedule``)
are written to ``BENCH_scaling.json`` at the repository root.

``--check-speedup`` additionally gates that the largest process fan-out
beats the 1-worker process run; apply it on multicore hardware only —
measured scaling is physically capped by ``os.cpu_count()`` (recorded in
the report), and on a single-core runner every fan-out degenerates to
time-slicing plus dispatch overhead.

Dataset generation honours ``REPRO_DATASET_CACHE`` (see
``repro.datasets.registry``), so repeated CI runs skip regeneration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.butterfly.counting import count_per_vertex_priority
from repro.core.cd import coarse_grained_decomposition
from repro.core.fd import fd_share_schedule, fine_grained_decomposition
from repro.datasets.registry import dataset_names, load_dataset
from repro.engine import ProcessBackend, ThreadBackend

REPO_ROOT = Path(__file__).resolve().parent.parent


def pick_wedge_heaviest(scale: float) -> tuple[str, object]:
    """The registry stand-in with the most U-side wedge work at this scale."""
    best_key, best_graph, best_work = None, None, -1
    for key in dataset_names():
        graph = load_dataset(key, scale=scale)
        work = graph.total_wedge_work("U")
        if work > best_work:
            best_key, best_graph, best_work = key, graph, work
    return best_key, best_graph


def run_fd(graph, cd_result, engine=None, rounds: int = 1):
    """Best-of-``rounds`` FD wall-clock on one backend; returns (result, seconds)."""
    result, elapsed = None, None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fine_grained_decomposition(graph, cd_result, engine=engine)
        lap = time.perf_counter() - start
        elapsed = lap if elapsed is None else min(elapsed, lap)
    return result, elapsed


def check_identical(reference, candidate, label: str) -> None:
    if not np.array_equal(reference.tip_numbers, candidate.tip_numbers):
        raise AssertionError(f"{label}: tip numbers differ from serial execution")
    for counter in ("wedges_traversed", "support_updates", "vertices_peeled"):
        expected = getattr(reference.counters, counter)
        actual = getattr(candidate.counters, counter)
        if expected != actual:
            raise AssertionError(
                f"{label}: {counter} differs from serial execution "
                f"({actual} != {expected})"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small scale + fewer worker counts (CI smoke mode)")
    parser.add_argument("--workers", default=None,
                        help="comma-separated process worker counts "
                             "(default: 1,2,4 — quick mode: 1,2)")
    parser.add_argument("--scale", type=float, default=None,
                        help="override the dataset scale multiplier")
    parser.add_argument("--partitions", type=int, default=12,
                        help="RECEIPT partitions P for the CD phase")
    parser.add_argument("--rounds", type=int, default=None,
                        help="timing rounds per configuration (best-of; "
                             "default 3, quick mode 1)")
    parser.add_argument("--check-speedup", action="store_true",
                        help="fail unless the largest process fan-out beats the "
                             "1-worker process run (use on multicore hardware)")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_scaling.json"))
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else (0.15 if args.quick else 0.4)
    rounds = args.rounds if args.rounds is not None else (1 if args.quick else 3)
    if args.workers:
        worker_counts = sorted({int(item) for item in args.workers.split(",")})
    else:
        worker_counts = [1, 2] if args.quick else [1, 2, 4]

    dataset, graph = pick_wedge_heaviest(scale)
    print(f"wedge-heaviest stand-in at scale {scale}: {dataset} "
          f"(|U|={graph.n_u:,} |V|={graph.n_v:,} |E|={graph.n_edges:,}, "
          f"U-wedge-work={graph.total_wedge_work('U'):,})")

    counts = count_per_vertex_priority(graph)
    cd_result = coarse_grained_decomposition(graph, counts.u_counts, args.partitions)
    print(f"CD: {cd_result.n_subsets} subsets "
          f"(sizes {[int(subset.size) for subset in cd_result.subsets]})")

    serial_result, serial_seconds = run_fd(graph, cd_result, rounds=rounds)
    runs = [{
        "backend": "serial",
        "workers": 1,
        "fd_seconds": round(serial_seconds, 4),
    }]
    print(f"serial: fd={serial_seconds:.4f}s "
          f"wedges={serial_result.counters.wedges_traversed:,}")

    process_seconds: dict[int, float] = {}
    for workers in worker_counts:
        with ProcessBackend(workers) as engine:
            engine.warmup()  # spawn the pool outside the timed region
            result, seconds = run_fd(graph, cd_result, engine=engine, rounds=rounds)
        check_identical(serial_result, result, f"process[{workers}]")
        process_seconds[workers] = seconds
        # The ideal speedup of FD's LPT shares: total estimated work over
        # the makespan.
        _, schedule = fd_share_schedule(graph, cd_result.subsets, workers)
        projected = schedule.total_work / schedule.makespan if schedule.makespan > 0 else 1.0
        runs.append({
            "backend": "process",
            "workers": workers,
            "fd_seconds": round(seconds, 4),
            "speedup_vs_serial": round(serial_seconds / max(seconds, 1e-9), 2),
            "projected_speedup_lpt": round(projected, 2),
            "load_imbalance_lpt": round(schedule.imbalance, 3),
        })
        print(f"process[{workers}]: fd={seconds:.4f}s "
              f"(projected ideal speedup {projected:.2f}x)")

    max_workers = max(worker_counts)
    with ThreadBackend(max_workers) as engine:
        engine.warmup()
        thread_result, thread_seconds = run_fd(graph, cd_result, engine=engine, rounds=rounds)
    check_identical(serial_result, thread_result, f"thread[{max_workers}]")
    runs.append({
        "backend": "thread",
        "workers": max_workers,
        "fd_seconds": round(thread_seconds, 4),
        "speedup_vs_serial": round(serial_seconds / max(thread_seconds, 1e-9), 2),
    })
    print(f"thread[{max_workers}]: fd={thread_seconds:.4f}s")

    one_worker = process_seconds.get(1, serial_seconds)
    best_workers = min(process_seconds, key=process_seconds.get)
    fanout_speedup = one_worker / max(process_seconds[max_workers], 1e-9)
    report = {
        "benchmark": "fd_scaling",
        "mode": "quick" if args.quick else "full",
        "dataset": dataset,
        "scale": scale,
        "partitions": args.partitions,
        "n_subsets": cd_result.n_subsets,
        "cpu_count": os.cpu_count(),
        "fd_wedges_traversed": int(serial_result.counters.wedges_traversed),
        "fd_support_updates": int(serial_result.counters.support_updates),
        "runs": runs,
        "process_1worker_seconds": round(one_worker, 4),
        "process_fanout_workers": max_workers,
        "process_fanout_seconds": round(process_seconds[max_workers], 4),
        "process_fanout_speedup_vs_1worker": round(fanout_speedup, 2),
        "backends_match_serial_exactly": True,
    }
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")

    if args.check_speedup and fanout_speedup <= 1.0:
        print(
            f"FAIL: process[{max_workers}] ({process_seconds[max_workers]:.4f}s) does "
            f"not beat process[1] ({one_worker:.4f}s) on {os.cpu_count()} CPUs",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: all backends bit-identical to serial; process[{max_workers}] is "
        f"{fanout_speedup:.2f}x vs 1 worker (best: {best_workers} workers, "
        f"{process_seconds[best_workers]:.4f}s) on {os.cpu_count()} CPUs"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
