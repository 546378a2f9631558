"""Command-line interface for the RECEIPT reproduction.

Installed as ``repro`` (with ``repro-tip`` kept as an alias, see
``pyproject.toml``) and also runnable via ``python -m repro``.
Sub-commands:

* ``datasets`` — list the registered paper-dataset stand-ins.
* ``stats`` — structural statistics of a graph (Table 2 style).
* ``count`` — per-vertex butterfly counting.
* ``decompose`` — tip decomposition with RECEIPT / BUP / ParB.
* ``compare`` — run two algorithms and verify they agree (Table 3 style).
* ``build-index`` — decompose and persist a queryable tip-index artifact.
* ``query`` — answer θ / top-k / k-tip / community queries from an
  artifact offline, without re-peeling.
* ``update`` — apply an insert/delete edge batch to an artifact through
  the streaming engine (incremental support maintenance + bounded
  tip-number repair) instead of rebuilding it.
* ``serve`` — expose one or more artifacts over the JSON HTTP API on the
  asyncio front end, which batches concurrent point-θ requests into one
  vectorized lookup per event-loop tick, admission-controls updates and
  exposes Prometheus metrics on ``GET /metrics``.  ``--shards N`` serves
  through the scatter/gather :class:`ShardRouter` (bit-identical
  answers); ``--role leader --follower URL`` / ``--role follower
  --leader URL`` run the replicated topology where the leader fans
  validated update batches out to read-only followers.
* ``shard-plan`` — split a ``*.tipidx`` artifact into per-shard
  artifacts keyed on disjoint θ ranges (the paper's CD subsets) and
  write a loadable ``tip-shard-plan`` directory.
* ``trace-summary`` — phase-time breakdown of a trace file written by
  ``--trace-out`` (available on ``decompose``, ``build-index``,
  ``compare``, ``update`` and ``serve``), mirroring the paper's
  counting / CD / FD split and covering streaming-repair and wing
  phases.
* ``bench-history`` — ingest ``BENCH_*.json`` benchmark snapshots into
  an append-only ``BENCH_history.jsonl``, show per-metric trends, and
  ``check`` fresh runs against a rolling-median baseline (non-zero exit
  on regression; the CI gate).

``decompose`` and ``build-index`` additionally take ``--profile-out
FILE`` — run under the zero-dependency sampling profiler and write a
folded-stack flamegraph input (or the full JSON payload for ``*.json``
paths) plus a top-N self-time table on stderr.

Global flags: ``--log-format {text,json}`` switches the ``repro.*``
loggers to JSON-lines output (one object per line, machine-parseable)
and ``--log-level`` sets their threshold.

``decompose``, ``compare`` and ``build-index`` accept ``--backend
{serial,thread,process}`` to pick the execution engine
(:mod:`repro.engine`) for RECEIPT FD's task fan-out: ``process`` places
the graph in shared memory and gives each of ``--threads`` worker
processes one share of the subset peels (bit-identical results, real
wall-clock scaling on multicore hardware), ``thread`` gives each share to
one of ``--threads`` pool threads, and ``serial`` is the single-process
default.  Counting and CD run on the calling thread under every backend.
``compare`` forwards the same ``--peel-kernel`` / ``--partitions`` /
``--threads`` / ``--backend`` configuration to both algorithms so the
comparison exercises exactly the configured kernels.

Every decomposition command also accepts ``--wedge-budget N`` — the cap on
wedge endpoints a kernel chunk may materialise at once, which bounds the
wedge pipeline's peak scratch memory without changing any result; the
run's ``peak_scratch_bytes`` shows up in summaries, artifact manifests and
the ``/stats`` endpoint.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import Sequence

from .analysis.verification import compare_results
from .butterfly.counting import count_per_vertex
from .core.receipt import tip_decomposition
from .datasets.registry import DATASETS, load_dataset
from .engine.backends import BACKEND_NAMES
from .errors import ReproError
from .graph.bipartite import BipartiteGraph
from .graph.io import load_graph
from .graph.statistics import graph_statistics
from .peeling.update import PEEL_KERNELS

__all__ = ["main", "build_parser"]


def _load(args: argparse.Namespace) -> BipartiteGraph:
    """Load the graph named on the command line (file path or dataset key)."""
    if args.dataset is not None:
        return load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    if args.path is not None:
        return load_graph(args.path)
    raise ReproError("either --dataset or --path must be given")


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", help="registered dataset key (it, de, or, lj, en, tr)")
    source.add_argument("--path", help="path to an edge list / KONECT / MatrixMarket file")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="size multiplier for generated datasets (default 1.0)")
    parser.add_argument("--seed", type=int, default=None, help="random seed for generated datasets")


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """Arguments shared by every command that runs a decomposition."""
    parser.add_argument("--partitions", type=int, default=None,
                        help="number of RECEIPT partitions P (default: library default)")
    parser.add_argument("--peel-kernel", default="batched",
                        choices=list(PEEL_KERNELS),
                        help="support-update kernel: the vectorized batch kernel "
                             "(default) or the per-vertex reference loop "
                             "(ablation baseline)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker count for RECEIPT's execution backend")
    parser.add_argument("--backend", default="serial", choices=list(BACKEND_NAMES),
                        help="execution engine for RECEIPT FD's task fan-out: "
                             "in-process serial (default), a thread pool, or a "
                             "multiprocess worker pool over a shared-memory "
                             "graph store (bit-identical results)")
    parser.add_argument("--wedge-budget", type=int, default=None,
                        help="wedge endpoints a kernel chunk may materialise at "
                             "once — caps the wedge pipeline's peak scratch "
                             "memory (default: library default; 0 disables "
                             "chunking).  Results are bit-identical for any "
                             "budget; the run's peak_scratch_bytes is reported "
                             "in the summary")


def _algorithm_kwargs(args: argparse.Namespace, algorithm: str) -> dict:
    """Keyword arguments for one algorithm from the shared execution flags.

    Every algorithm takes the peel kernel; the RECEIPT variants additionally
    take the thread count, backend and partition count.  Building the dict
    per algorithm lets ``compare`` forward one configuration to two
    different algorithms without tripping unknown-argument errors.
    """
    kwargs: dict = {"peel_kernel": args.peel_kernel}
    if algorithm.lower().startswith("receipt"):
        kwargs["n_threads"] = args.threads
        kwargs["backend"] = args.backend
        kwargs["wedge_budget"] = args.wedge_budget
        if args.partitions is not None:
            kwargs["n_partitions"] = args.partitions
    else:
        # The sequential baselines take the memory policy as a workspace
        # object (their own ``wedge_budget`` argument is the traversal cap
        # reproducing the paper's DNF entries, a different knob).
        from .kernels.workspace import WedgeWorkspace, resolve_wedge_budget

        kwargs["workspace"] = WedgeWorkspace(
            wedge_budget=resolve_wedge_budget(args.wedge_budget)
        )
    return kwargs


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="record a phase-level execution trace and write it "
                             "to FILE as Chrome-tracing JSON; inspect with "
                             "chrome://tracing / Perfetto or summarise with "
                             "`repro trace-summary FILE`")


def _add_profile_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile-out", default=None, metavar="FILE",
                        help="run under the sampling profiler and write the "
                             "profile to FILE: folded stacks (flamegraph.pl "
                             "input) by default, the full JSON payload when "
                             "FILE ends in .json; a top self-time table is "
                             "printed to stderr")
    parser.add_argument("--profile-interval-ms", type=float, default=5.0,
                        help="sampling interval in milliseconds (default 5)")


@contextmanager
def _maybe_profile(args: argparse.Namespace):
    """Run the with-body under ``--profile-out``'s sampling profiler."""
    profile_out = getattr(args, "profile_out", None)
    if not profile_out:
        yield
        return
    from .obs.profile import profile_to_file

    with profile_to_file(profile_out,
                         interval=args.profile_interval_ms / 1000.0):
        yield


@contextmanager
def _maybe_trace(trace_out: str | None):
    """Record spans and write the trace file when ``--trace-out`` was given.

    Yields nothing; the traced code simply runs with a recording tracer
    installed as the process-wide active tracer (zero overhead otherwise).
    """
    if not trace_out:
        yield
        return
    from .obs.report import write_trace
    from .obs.trace import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        yield
    payload = write_trace(tracer, trace_out)
    print(f"trace written to {trace_out} ({len(payload['spans'])} spans)",
          file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RECEIPT: parallel tip decomposition of bipartite graphs (reproduction)",
    )
    parser.add_argument("--log-format", default="text", choices=["text", "json"],
                        help="repro.* log output: human-readable text (default) "
                             "or JSON lines (one object per line)")
    parser.add_argument("--log-level", default="INFO",
                        help="log level for the repro.* loggers (default INFO)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("datasets", help="list registered datasets")

    stats_parser = subparsers.add_parser("stats", help="structural statistics of a graph")
    _add_graph_arguments(stats_parser)

    count_parser = subparsers.add_parser("count", help="per-vertex butterfly counting")
    _add_graph_arguments(count_parser)
    count_parser.add_argument("--algorithm", default="vertex-priority",
                              choices=["vertex-priority", "wedge"])

    decompose_parser = subparsers.add_parser("decompose", help="tip decomposition")
    _add_graph_arguments(decompose_parser)
    decompose_parser.add_argument("--side", default="U", choices=["U", "V", "u", "v"])
    decompose_parser.add_argument("--algorithm", default="receipt",
                                  choices=["receipt", "receipt-", "receipt--", "bup", "parb"])
    _add_execution_arguments(decompose_parser)
    decompose_parser.add_argument("--output", help="write per-vertex tip numbers to this JSON file")
    _add_trace_argument(decompose_parser)
    _add_profile_argument(decompose_parser)

    compare_parser = subparsers.add_parser("compare", help="run two algorithms and verify agreement")
    _add_graph_arguments(compare_parser)
    compare_parser.add_argument("--side", default="U", choices=["U", "V", "u", "v"])
    compare_parser.add_argument("--first", default="receipt")
    compare_parser.add_argument("--second", default="bup")
    _add_execution_arguments(compare_parser)
    _add_trace_argument(compare_parser)

    build_parser_ = subparsers.add_parser(
        "build-index", help="decompose and persist a queryable tip-index artifact")
    _add_graph_arguments(build_parser_)
    build_parser_.add_argument("--side", default="U", choices=["U", "V", "u", "v"])
    build_parser_.add_argument("--algorithm", default="receipt",
                               choices=["receipt", "receipt-", "receipt--", "bup", "parb"])
    _add_execution_arguments(build_parser_)
    build_parser_.add_argument("--output", required=True,
                               help="artifact directory to write (conventionally *.tipidx)")
    build_parser_.add_argument("--force", action="store_true",
                               help="replace an existing artifact at --output")
    _add_trace_argument(build_parser_)
    _add_profile_argument(build_parser_)

    query_parser = subparsers.add_parser(
        "query", help="query a tip-index artifact offline (no re-peeling)")
    query_parser.add_argument("artifact", help="path to a *.tipidx artifact directory")
    query_parser.add_argument("--op", default="stats",
                              choices=["theta", "batch", "top-k", "k-tip", "community",
                                       "histogram", "stats"],
                              help="which query to run (default: stats)")
    query_parser.add_argument("--vertex", type=int, help="vertex id for theta/community")
    query_parser.add_argument("--vertices", help="comma-separated vertex ids for batch")
    query_parser.add_argument("--k", type=int, help="level for top-k / k-tip / community")
    query_parser.add_argument("--limit", type=int, default=None,
                              help="cap the number of vertices returned by k-tip")

    update_parser = subparsers.add_parser(
        "update", help="apply an edge-update batch to a tip-index artifact in place")
    update_parser.add_argument("artifact", help="path to a *.tipidx artifact directory")
    update_parser.add_argument("--insert", help='edges to insert as comma-separated u:v '
                                                'pairs, e.g. "3:7,9:2"')
    update_parser.add_argument("--delete", help="edges to delete as comma-separated u:v pairs")
    update_parser.add_argument("--updates-file",
                               help='JSON file {"insert": [[u,v],...], "delete": [[u,v],...]}')
    update_parser.add_argument("--damage-threshold", type=float, default=None,
                               help="re-peel work share beyond which the update falls "
                                    "back to a full re-decomposition")
    _add_trace_argument(update_parser)

    shard_parser = subparsers.add_parser(
        "shard-plan",
        help="split a tip-index artifact into per-θ-range shard artifacts")
    shard_parser.add_argument("artifact", help="path to a *.tipidx artifact directory")
    shard_parser.add_argument("--shards", type=int, required=True,
                              help="requested shard count (cuts snap to tip-number "
                                   "level boundaries, so fewer shards may result)")
    shard_parser.add_argument("--out", required=True,
                              help="shard-plan directory to write "
                                   "(conventionally *.tipshards)")
    shard_parser.add_argument("--force", action="store_true",
                              help="replace an existing plan at --out")

    serve_parser = subparsers.add_parser(
        "serve", help="serve tip-index artifacts over the JSON HTTP API")
    serve_parser.add_argument("artifacts", nargs="+",
                              help="one or more *.tipidx artifact directories "
                                   "(or *.tipshards shard-plan directories)")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8750,
                              help="TCP port (0 picks a free one)")
    serve_parser.add_argument("--cache-capacity", type=int, default=8,
                              help="maximum number of indexes kept in memory")
    serve_parser.add_argument("--no-mmap", action="store_true",
                              help="load artifact arrays eagerly instead of mmap")
    serve_parser.add_argument("--transport", default="async", choices=["async"],
                              help="HTTP front end; asyncio is the only one "
                                   "(accepted so existing scripts that name "
                                   "it keep working)")
    serve_parser.add_argument("--coalesce-max-batch", type=int, default=1024,
                              help="cap on one coalesced point-θ batch "
                                   "(default 1024)")
    serve_parser.add_argument("--coalesce-max-delay-ms", type=float, default=0.0,
                              help="wait up to this long to grow a "
                                   "coalesced batch (default 0: flush every "
                                   "event-loop tick, zero added latency)")
    serve_parser.add_argument("--max-pending-updates", type=int, default=4,
                              help="bounded /update admission queue; "
                                   "overflow answers 503 + Retry-After "
                                   "(default 4)")
    serve_parser.add_argument("--shards", type=int, default=None,
                              help="answer queries through an in-memory θ-range "
                                   "ShardRouter with this many shards "
                                   "(bit-identical to unsharded serving)")
    serve_parser.add_argument("--role", default="standalone",
                              choices=["standalone", "leader", "follower"],
                              help="replication role: standalone (default, no "
                                   "replication), leader (applies updates and "
                                   "fans them out), or follower (read-only "
                                   "replica applying the leader's log)")
    serve_parser.add_argument("--leader", default=None, metavar="URL",
                              help="follower role: base URL of the leader, "
                                   "e.g. http://127.0.0.1:8750")
    serve_parser.add_argument("--follower", action="append", default=None,
                              metavar="URL",
                              help="leader role: base URL of a follower to push "
                                   "update records to (repeatable)")
    serve_parser.add_argument("--replication-log", default=None, metavar="FILE",
                              help="leader role: replication log path (default: "
                                   "<artifact>.replog next to the artifact)")
    serve_parser.add_argument("--poll-interval", type=float, default=1.0,
                              help="follower role: seconds between catch-up "
                                   "polls of the leader's log (default 1.0)")
    serve_parser.add_argument("--fault-plan", default=None, metavar="SPEC",
                              help="arm deterministic fault injection: "
                                   "'site:action[:key=value]...' rules joined "
                                   "by ';', or a JSON file/object (also via "
                                   "the REPRO_FAULT_PLAN environment variable;"
                                   " see docs/RESILIENCE.md)")
    serve_parser.add_argument("--fault-seed", type=int, default=None,
                              help="seed for the fault plan's RNGs (same seed "
                                   "= same fault schedule)")
    serve_parser.add_argument("--retry-attempts", type=int, default=3,
                              help="replication: attempts per push/poll before "
                                   "giving up (default 3)")
    serve_parser.add_argument("--retry-base-delay-ms", type=float, default=50.0,
                              help="replication: first-retry backoff ceiling; "
                                   "later retries double it, with full jitter "
                                   "(default 50)")
    serve_parser.add_argument("--retry-budget-seconds", type=float, default=5.0,
                              help="replication: wall-clock cap across one "
                                   "call's retries (default 5.0)")
    serve_parser.add_argument("--breaker-threshold", type=int, default=5,
                              help="consecutive failures that open a circuit "
                                   "breaker (default 5)")
    serve_parser.add_argument("--breaker-reset-seconds", type=float, default=15.0,
                              help="seconds an open breaker waits before its "
                                   "half-open probe (default 15.0)")
    serve_parser.add_argument("--log-compact-threshold", type=int, default=None,
                              help="leader role: checkpoint-compact the "
                                   "replication log once it holds more than "
                                   "this many records (default: never)")
    _add_trace_argument(serve_parser)

    trace_parser = subparsers.add_parser(
        "trace-summary",
        help="phase-time breakdown of a --trace-out trace file")
    trace_parser.add_argument("trace", help="trace JSON written by --trace-out")
    trace_parser.add_argument("--top", type=int, default=20,
                              help="number of hottest span names to list (default 20)")

    history_parser = subparsers.add_parser(
        "bench-history",
        help="append-only benchmark history with a rolling regression gate")
    history_parser.add_argument("action", choices=["ingest", "check", "show"],
                                help="ingest: append BENCH_*.json headline metrics "
                                     "to the history; check: judge fresh BENCH "
                                     "files against the rolling baseline (exit 1 "
                                     "on regression); show: print the history's "
                                     "per-metric trends")
    history_parser.add_argument("bench", nargs="*",
                                help="BENCH_*.json files (default: BENCH_*.json "
                                     "in the current directory)")
    history_parser.add_argument("--history", default=None, metavar="FILE",
                                help="history JSONL file (default "
                                     "BENCH_history.jsonl next to the bench files)")
    history_parser.add_argument("--window", type=int, default=None,
                                help="rolling-baseline window in runs (default 5)")

    return parser


def _command_datasets() -> int:
    for key, spec in DATASETS.items():
        stats = spec.paper_stats
        print(
            f"{key:>3}  {spec.description}\n"
            f"     paper: |U|={stats['n_u']:,} |V|={stats['n_v']:,} |E|={stats['n_edges']:,}"
        )
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    graph = _load(args)
    print(json.dumps(graph_statistics(graph).as_dict(), indent=2))
    return 0


def _command_count(args: argparse.Namespace) -> int:
    graph = _load(args)
    counts = count_per_vertex(graph, algorithm=args.algorithm)
    print(json.dumps(
        {
            "algorithm": counts.algorithm,
            "total_butterflies": counts.total_butterflies,
            "wedges_traversed": counts.wedges_traversed,
            "max_count_u": int(counts.u_counts.max()) if counts.u_counts.size else 0,
            "max_count_v": int(counts.v_counts.max()) if counts.v_counts.size else 0,
        },
        indent=2,
    ))
    return 0


def _command_decompose(args: argparse.Namespace) -> int:
    graph = _load(args)
    kwargs = _algorithm_kwargs(args, args.algorithm)
    with _maybe_profile(args), _maybe_trace(args.trace_out):
        result = tip_decomposition(graph, args.side.upper(),
                                   algorithm=args.algorithm, **kwargs)
    print(json.dumps(result.summary(), indent=2))
    if args.output:
        with open(args.output, "wt", encoding="utf-8") as handle:
            json.dump({"side": result.side,
                       "tip_numbers": [int(value) for value in result.tip_numbers]}, handle)
        print(f"tip numbers written to {args.output}")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    graph = _load(args)
    side = args.side.upper()
    # Both algorithms receive the same execution configuration, so the
    # comparison exercises the configured kernel/partitions/backend rather
    # than silently falling back to library defaults.  One trace covers
    # both runs; the root spans name the algorithms apart.
    with _maybe_trace(args.trace_out):
        first = tip_decomposition(graph, side, algorithm=args.first,
                                  **_algorithm_kwargs(args, args.first))
        second = tip_decomposition(graph, side, algorithm=args.second,
                                   **_algorithm_kwargs(args, args.second))
    report = compare_results(first, second)
    print(json.dumps(
        {
            "first": first.summary(),
            "second": second.summary(),
            "agree": report.passed,
            "failures": report.failures,
        },
        indent=2,
    ))
    return 0 if report.passed else 1


def _command_build_index(args: argparse.Namespace) -> int:
    from .service.build import build_index_artifact

    graph = _load(args)
    with _maybe_profile(args), _maybe_trace(args.trace_out):
        manifest = build_index_artifact(
            graph,
            args.output,
            side=args.side.upper(),
            algorithm=args.algorithm,
            peel_kernel=args.peel_kernel,
            backend=args.backend,
            n_threads=args.threads,
            n_partitions=args.partitions,
            wedge_budget=args.wedge_budget,
            overwrite=args.force,
        )
    print(json.dumps(
        {
            "artifact": args.output,
            "name": manifest.name,
            "fingerprint": manifest.fingerprint,
            "graph": manifest.graph,
            "decomposition": manifest.decomposition,
            "elapsed_seconds": manifest.counters.get("elapsed_seconds"),
            "peak_scratch_bytes": manifest.counters.get("peak_scratch_bytes"),
        },
        indent=2,
    ))
    return 0


def _command_query(args: argparse.Namespace) -> int:
    # Answers are produced by the same TipService route handlers the HTTP
    # server uses, so offline queries are identical to served ones.
    from .service.server import TipService, to_jsonable

    service = TipService([args.artifact])
    params: dict = {}
    if args.op == "theta":
        if args.vertex is None:
            raise ReproError("--op theta requires --vertex")
        route, params = "/theta", {"vertex": args.vertex}
    elif args.op == "batch":
        if not args.vertices:
            raise ReproError("--op batch requires --vertices 1,2,3")
        route, params = "/theta/batch", {"vertices": args.vertices}
    elif args.op == "top-k":
        if args.k is None:
            raise ReproError("--op top-k requires --k")
        route, params = "/top-k", {"k": args.k}
    elif args.op == "k-tip":
        if args.k is None:
            raise ReproError("--op k-tip requires --k")
        route, params = "/k-tip", {"k": args.k}
        if args.limit is not None:
            params["limit"] = args.limit
    elif args.op == "community":
        if args.k is None:
            raise ReproError("--op community requires --k")
        route, params = "/community", {"k": args.k}
        if args.vertex is not None:
            params["vertex"] = args.vertex
    elif args.op == "histogram":
        route, params = "/stats", {"histogram": "1"}
    else:  # stats
        route = "/stats"
    print(json.dumps(to_jsonable(service.handle(route, params)), indent=2))
    return 0


def _parse_edge_pairs(text: str) -> list[list[int]]:
    """Parse ``"3:7,9:2"`` into ``[[3, 7], [9, 2]]``."""
    pairs = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        head, separator, tail = piece.partition(":")
        if not separator:
            raise ReproError(f"edge {piece!r} is not a u:v pair")
        try:
            pairs.append([int(head), int(tail)])
        except ValueError:
            raise ReproError(f"edge {piece!r} is not an integer u:v pair") from None
    return pairs


def _command_update(args: argparse.Namespace) -> int:
    # The batch is routed through the same TipService handler the HTTP
    # POST /update uses, so offline updates behave identically to served
    # ones (validation, repair, atomic artifact refresh, staleness stats).
    from .service.server import TipService, to_jsonable

    body: dict = {}
    if args.updates_file:
        with open(args.updates_file, "rt", encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise ReproError("--updates-file must hold a JSON object")
        body.update({key: payload[key] for key in ("insert", "delete") if key in payload})
    if args.insert:
        body["insert"] = body.get("insert", []) + _parse_edge_pairs(args.insert)
    if args.delete:
        body["delete"] = body.get("delete", []) + _parse_edge_pairs(args.delete)
    if not body.get("insert") and not body.get("delete"):
        raise ReproError("update needs edges: pass --insert, --delete or --updates-file")
    if args.damage_threshold is not None:
        body["damage_threshold"] = args.damage_threshold

    service = TipService([args.artifact])
    with _maybe_trace(args.trace_out):
        payload = service.handle("/update", {}, body)
    print(json.dumps(to_jsonable(payload), indent=2))
    return 0


def _command_shard_plan(args: argparse.Namespace) -> int:
    from .service.sharding import write_shard_plan

    payload = write_shard_plan(
        args.artifact, args.out, args.shards, overwrite=args.force)
    print(json.dumps(payload, indent=2))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    # The TipService is built here (rather than inside serve_async)
    # so a replication coordinator can attach to it before the transport
    # starts accepting requests; --trace-out wraps the whole serving
    # session and the trace is written at shutdown (Ctrl-C).
    from .service.server import TipService

    if args.role == "follower" and not args.leader:
        raise ReproError("--role follower requires --leader URL")
    if args.role != "follower" and args.leader:
        raise ReproError("--leader only applies to --role follower")
    if args.role != "leader" and args.follower:
        raise ReproError("--follower only applies to --role leader")

    from .service import faults

    if args.fault_plan:
        plan = faults.install(
            faults.FaultPlan.parse(args.fault_plan, seed=args.fault_seed))
        print(f"fault injection ARMED (seed {plan.seed}): "
              + "; ".join(f"{r.site}:{r.action}" for r in plan.rules))
    else:
        faults.arm_from_env()

    service = TipService(
        args.artifacts,
        cache_capacity=args.cache_capacity,
        mmap=not args.no_mmap,
        shards=args.shards,
    )
    service.breakers.configure(
        failure_threshold=args.breaker_threshold,
        reset_seconds=args.breaker_reset_seconds,
    )
    coordinator = None
    if args.role != "standalone":
        from .errors import ReplicationError
        from .service.replication import ReplicationCoordinator
        from .service.resilience import RetryPolicy

        coordinator = ReplicationCoordinator(
            service,
            role=args.role,
            log_path=args.replication_log,
            leader_url=args.leader,
            follower_urls=tuple(args.follower or ()),
            poll_interval=args.poll_interval,
            retry_policy=RetryPolicy(
                max_attempts=args.retry_attempts,
                base_delay=args.retry_base_delay_ms / 1000.0,
                budget_seconds=args.retry_budget_seconds,
                retryable=(ReplicationError,),
            ),
            log_compact_threshold=args.log_compact_threshold,
        )
        coordinator.start()

    from .service.aserver import serve_async

    try:
        with _maybe_trace(args.trace_out):
            serve_async(
                service,
                host=args.host,
                port=args.port,
                max_batch=args.coalesce_max_batch,
                max_delay=args.coalesce_max_delay_ms / 1000.0,
                max_pending_updates=args.max_pending_updates,
            )
        return 0
    finally:
        if coordinator is not None:
            coordinator.stop()


def _command_bench_history(args: argparse.Namespace) -> int:
    import glob
    import os
    import time

    from .obs.history import (
        BASELINE_WINDOW,
        DEFAULT_HISTORY_FILENAME,
        append_history,
        baseline_for,
        check_regressions,
        format_report,
        load_history,
        record_from_bench,
    )

    window = args.window if args.window is not None else BASELINE_WINDOW

    bench_files = list(args.bench) or sorted(glob.glob("BENCH_*.json"))
    bench_files = [path for path in bench_files
                   if not path.endswith(".jsonl")]  # the history is not a run
    history_path = args.history
    if history_path is None:
        # Default: next to the bench files so repo-root invocations and CI
        # working directories both find the committed history.
        base = os.path.dirname(bench_files[0]) if bench_files else "."
        history_path = os.path.join(base, DEFAULT_HISTORY_FILENAME)

    if args.action == "show":
        history = load_history(history_path)
        if not history:
            print(f"bench-history: no history at {history_path}")
            return 0
        seen: dict = {}
        fingerprints: dict = {}
        for record in history:
            run_key = (record["benchmark"], record.get("mode", ""))
            # Same field name as /stats: base_fingerprint identifies the
            # artifact content a run measured (older rows may lack it).
            if record.get("base_fingerprint"):
                fingerprints[run_key] = str(record["base_fingerprint"])
            for metric, value in record.get("metrics", {}).items():
                seen.setdefault(run_key + (metric,), []).append(float(value))
        print(f"bench-history: {len(history)} run(s) in {history_path}")
        for (benchmark, mode, metric), values in sorted(seen.items()):
            baseline = baseline_for(history, benchmark, mode, metric, window=window)
            trail = " ".join(f"{value:.4g}" for value in values[-window:])
            fingerprint = fingerprints.get((benchmark, mode))
            suffix = f" base_fingerprint={fingerprint[:12]}" if fingerprint else ""
            print(f"  {benchmark}/{mode} {metric}: latest={values[-1]:.4g} "
                  f"baseline(median of {min(len(values), window)})={baseline:.4g} "
                  f"[{trail}]{suffix}")
        return 0

    if not bench_files:
        raise ReproError("no BENCH_*.json files found; pass them explicitly")
    records = []
    now = time.time()
    for path in bench_files:
        try:
            with open(path, "rt", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise ReproError(f"cannot read bench file {path!r}: {error}") from None
        record = record_from_bench(
            payload, source=os.path.basename(path), recorded_unix=now)
        if record is not None:
            records.append(record)
    if not records:
        raise ReproError(
            "none of the bench files carry gated metrics: " + ", ".join(bench_files))

    if args.action == "ingest":
        count = append_history(history_path, records)
        print(f"bench-history: appended {count} record(s) to {history_path}")
        return 0

    # check: judge the fresh records against the history's baselines.
    history = load_history(history_path)
    findings = check_regressions(history, records, window=window)
    print(format_report(findings))
    return 1 if any(f["status"] == "regression" for f in findings) else 0


def _command_trace_summary(args: argparse.Namespace) -> int:
    from .obs.report import format_summary, load_trace

    try:
        spans = load_trace(args.trace)
    except (OSError, ValueError) as error:
        raise ReproError(f"cannot read trace {args.trace!r}: {error}") from None
    print(format_summary(spans, top=args.top))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by the ``repro`` / ``repro-tip`` console scripts."""
    from .obs.log import configure_logging

    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.log_format, args.log_level)
    try:
        if args.command == "datasets":
            return _command_datasets()
        if args.command == "stats":
            return _command_stats(args)
        if args.command == "count":
            return _command_count(args)
        if args.command == "decompose":
            return _command_decompose(args)
        if args.command == "compare":
            return _command_compare(args)
        if args.command == "build-index":
            return _command_build_index(args)
        if args.command == "query":
            return _command_query(args)
        if args.command == "update":
            return _command_update(args)
        if args.command == "shard-plan":
            return _command_shard_plan(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "trace-summary":
            return _command_trace_summary(args)
        if args.command == "bench-history":
            return _command_bench_history(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2  # pragma: no cover - parser.error raises


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
