"""The repository benchmark: one command per workload, metrics by name.

    python3 tipbench/run.py --workload decompose-tr --seed 1 --seconds 50 --trace 0

Every run walks the whole path a graph takes through the program:
generate it, decompose it (serial and on 2 worker processes, checked
against ParButterfly), write the ``*.tipidx``, then read and update it
and check the final state.  So every end-to-end metric is measured on
every workload; the workloads differ in the graph and in where the load
sits (see ``README.md`` in this directory):

* ``decompose-tr`` — the registry's ``tr`` stand-in at scale 2, the
  paper's flagship skewed graph.  A batch job: repeated exact
  decompositions, then reads and updates through the offline surface
  (``TipService.handle`` in-process, what ``repro query`` and
  ``repro update`` run).  No server, no load generator.
* ``serve-update`` — a planted-communities graph served by
  ``repro serve --transport async``, in rounds: decompositions, a
  saturated slice (closed loop; before the first update every answer is
  compared byte for byte with the offline one), then a window read at
  1,000 requests/s (open loop) while a second connection posts an update
  stream that repairs incrementally, cleanly or by full rebuild.

``--trace 1`` is a separate run of the same workload that prints the
per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# Set-up must generate the graph every time, never load it from a cache a
# caller's environment may point at; and the 2-worker decompositions use
# the program's default start method, which leaves no forkserver behind.
os.environ.pop("REPRO_DATASET_CACHE", None)
os.environ.pop("REPRO_MP_START_METHOD", None)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"tipbench: no program sources under {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import reference  # noqa: E402
from server import Server, generator_cpus  # noqa: E402

from repro.core.receipt import receipt_decomposition  # noqa: E402
from repro.obs.memory import peak_rss_bytes  # noqa: E402
from repro.obs.trace import Tracer, use_tracer  # noqa: E402
from repro.peeling.parbutterfly import parbutterfly_decomposition  # noqa: E402
from repro.service.artifacts import save_artifact  # noqa: E402
from repro.service.server import TipService, to_jsonable  # noqa: E402

READ_ROUTES = ("/theta", "/theta/batch", "/top-k", "/k-tip", "/community")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Closed-loop pipeline depth per connection (2 connections).
CLOSED_DEPTH = 16
#: ``read_qps_max`` is the median throughput over windows of this length.
QPS_WINDOW_S = 0.5
#: Reads per second in the open loop.
READ_RATE = 1000
#: Scale of the registry's ``tr`` stand-in: 18,000 U vertices, 55,064 edges.
TR_SCALE = 2.0
#: End-to-end metrics printed as measured, not at reference speed (see
#: ``reference.py``), and those that are rates rather than times.
AS_MEASURED = ("peak_rss_mb",)
RATES = ("read_qps_max",)
#: Layers a workload without a server has no instance of.
SERVER_ONLY_LAYERS = ("server.read_p50_ms", "server.read_p99_ms", "transport.overhead_ms",
                      "coalesce.mean_batch", "coalesce.wait_p99_ms", "update.server_p50_ms",
                      "admission.rejections", "admission.peak_pending", "gen.late_p99_ms")


@dataclass(frozen=True)
class Workload:
    #: ``tr`` runs offline: reads and update toggles go through
    #: ``TipService.handle`` between the decompositions.  ``planted`` is
    #: served by ``repro serve``, with an update stream beside the reads.
    graph: str
    #: Serial + 2-worker decomposition pairs.  ``tr``: at least this many,
    #: more while :data:`DECOMPOSE_SHARE` of the run's seconds is not yet
    #: spent.  ``planted``: this many in each round (see :meth:`Run.serve`).
    pairs: int
    closed_share: float
    read_share: float


WORKLOADS = {
    "decompose-tr": Workload("tr", pairs=3, closed_share=0.05, read_share=0.1),
    "serve-update": Workload("planted", pairs=2, closed_share=0.12, read_share=0.8),
}
#: Share of an offline run spent decomposing; the reads and toggles run
#: between the decompositions.
DECOMPOSE_SHARE = 0.8
#: Butterfly-free update toggles (offline workloads).
TOGGLES = 60
#: Offline reads and update toggles run in this many slices between the
#: decompositions, so they sample the whole run as the decompositions do.
READ_SLICES = 8
#: Self-test sizes: the same code paths in seconds.
SMALL = {"tr": 0.2, "planted_blocks": 12, "toggles": 12}


class Ledger:
    """Attempted operations, failures, and wrong answers of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list = []

    def check(self, ok: bool, what: str, *, wrong: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += int(wrong)
            if len(self.notes) < 20:
                self.notes.append(what)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def tail(values) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it, at least the median."""
    ordered = sorted(values)
    index = max(len(ordered) // 2, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def graph_scale(spec: Workload, small: bool) -> float:
    """``tr``'s registry scale; for the planted graph, its blocks over the full 80."""
    if spec.graph == "tr":
        return SMALL["tr"] if small else TR_SCALE
    return SMALL["planted_blocks"] / inputs.PLANTED_BLOCKS if small else 1.0


def make_graph(spec: Workload, small: bool):
    if spec.graph == "tr":
        return inputs.tr_graph(graph_scale(spec, small)), None
    communities = inputs.planted_graph(
        SMALL["planted_blocks"] if small else inputs.PLANTED_BLOCKS)
    return communities.graph, communities


def _json_body(request):
    return json.loads(request.body) if request.body else None


def answer_bytes(payload) -> bytes:
    """The HTTP body the server renders for a ``TipService.handle`` payload."""
    return json.dumps(to_jsonable(payload)).encode()


def _rows(edges: np.ndarray) -> np.ndarray:
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def _modes(payloads) -> dict:
    modes: dict = {}
    for payload in payloads:
        modes[payload["mode"]] = modes.get(payload["mode"], 0) + 1
    return modes


def throughput(done: np.ndarray, seconds: float) -> list:
    """Replies per second in each :data:`QPS_WINDOW_S` window of a closed-loop slice.

    ``done`` holds each reply's arrival, in seconds from the slice's start.
    """
    windows = max(1, round(seconds / QPS_WINDOW_S))
    counts, _ = np.histogram(done, bins=windows, range=(0.0, seconds))
    return (counts * windows / seconds).tolist()


def at_reference_speed(metrics: dict, reference_s: list) -> dict:
    """End-to-end figures at the reference speed: times scaled by the
    reference task's :data:`reference.REFERENCE_S` over its median in the
    run, rates divided by the same factor."""
    factor = reference.REFERENCE_S / median(reference_s)
    return {name: value if name in AS_MEASURED else value / factor if name in RATES
            else value * factor for name, value in metrics.items()}


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if one is running.

    The 2-worker decompositions share memory with their workers, which
    starts the tracker: a helper process that otherwise ends only after
    this one has exited, so the run would leave it behind.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


class Run:
    """One benchmark run of one workload."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False, workdir: Path | None = None):
        self.name, self.spec = name, WORKLOADS[name]
        self.served = self.spec.graph == "planted"
        self.seed, self.seconds, self.trace, self.small = seed, seconds, trace, small
        self.ledger = Ledger()
        self.samples: dict = {key: [] for key in ("decompose_s", "decompose_2w_s", "fd_serial_s",
                                                  "fd_2w_s", "engine_idle_share", "reference_s")}
        self.raw: dict = {}
        self.metrics: dict = {}
        self.layer: dict = {}
        self.workdir = workdir or ROOT / ".tipbench" / f"work-{os.getpid()}"
        self.server: Server | None = None
        self.offline: TipService | None = None
        self.first = None

    # -- decomposition ----------------------------------------------------
    def decompose_pair(self, graph, between=None) -> None:
        """One serial and one 2-worker decomposition, checked against the run's first.

        ``between(first)`` runs after each of the two, outside the timings.
        The host's speed is measured before each (see ``reference.py``).
        """
        self.samples["reference_s"] += reference.measure()
        clock = time.perf_counter()
        result = receipt_decomposition(graph, "U")
        self.samples["decompose_s"].append(time.perf_counter() - clock)
        self.first = self.first or result
        if between is not None:
            between(self.first)
        self.samples["reference_s"] += reference.measure()
        clock = time.perf_counter()
        parallel = receipt_decomposition(graph, "U", backend="process", n_threads=2)
        self.samples["decompose_2w_s"].append(time.perf_counter() - clock)
        fd_2w = parallel.phase_counters["fd"].elapsed_seconds
        busy = sum(r.elapsed_seconds for r in parallel.extra["subset_records"])
        self.samples["fd_serial_s"].append(result.phase_counters["fd"].elapsed_seconds)
        self.samples["fd_2w_s"].append(fd_2w)
        self.samples["engine_idle_share"].append(1.0 - busy / (2.0 * fd_2w))
        pair = len(self.samples["decompose_s"])
        for other, label in ((result, "serial"), (parallel, "2-worker")):
            self.ledger.check(
                np.array_equal(other.tip_numbers, self.first.tip_numbers)
                and np.array_equal(other.initial_butterflies,
                                   self.first.initial_butterflies),
                f"{label} decomposition {pair} differs from the first")
        if between is not None:
            between(self.first)

    def check_decompositions(self, graph) -> None:
        """The pairs' medians; ParButterfly as the oracle, untimed."""
        self.metrics["decompose_s"] = median(self.samples["decompose_s"])
        self.metrics["decompose_2w_s"] = median(self.samples["decompose_2w_s"])
        if not self.served:
            self.metrics["peak_rss_mb"] = peak_rss_bytes() / 2**20
        oracle = parbutterfly_decomposition(graph, "U")
        self.ledger.check(np.array_equal(oracle.tip_numbers, self.first.tip_numbers),
                          "ParButterfly tip numbers differ from RECEIPT")
        if self.trace:
            self.trace_decomposition(graph)

    # -- set-up -----------------------------------------------------------
    def setup(self, graph, result) -> Path:
        """Generate, persist and open the index, :data:`SETUPS` times."""
        artifact = self.workdir / "index.tipidx"
        config = {"algorithm": result.algorithm, "peel_kernel": "batched",
                  "backend": "serial", "n_threads": 1, "n_partitions": None,
                  "wedge_budget": None}
        totals, generate, save, ready = [], [], [], []
        for _ in range(SETUPS):
            if self.server is not None:
                self.server.stop()
            clock = time.perf_counter()
            fresh, _ = make_graph(self.spec, self.small)
            generate.append(time.perf_counter() - clock)
            self.ledger.check(np.array_equal(fresh.edge_array(), graph.edge_array()),
                              "graph generation is not deterministic")
            clock = time.perf_counter()
            save_artifact(artifact, fresh, result, config=config, overwrite=True)
            save.append(time.perf_counter() - clock)
            clock = time.perf_counter()
            if self.served:
                self.server = Server(SRC, artifact, self.workdir)
                self.server.start()
            else:
                self.offline = TipService([artifact])
                self.offline.index_for()
            ready.append(time.perf_counter() - clock)
            totals.append(generate[-1] + save[-1] + ready[-1])
        self.samples.update(setup_s=totals, generate_s=generate, save_s=save, ready_s=ready)
        self.metrics["setup_s"] = median(totals)
        self.layer.update({"datasets.generate_s": median(generate),
                           "artifacts.build_s": median(save),
                           "server.ready_s": median(ready)})
        return artifact

    # -- reads and updates --------------------------------------------------
    def plan_reads(self, artifact: Path, result) -> None:
        """The distinct reads, their reference answers, and the run's schedules."""
        oracle = TipService([artifact])
        distinct = inputs.read_requests(self.seed, result.tip_numbers)
        self.distinct = distinct
        self.expected = [answer_bytes(oracle.handle(r.route, r.params(), _json_body(r)))
                         for r in distinct]
        if self.trace:
            self.replay_reads(oracle, distinct)
            shutil.copytree(artifact, self.workdir / "initial.tipidx")
        self.closed_seconds = self.spec.closed_share * self.seconds
        self.open_seconds = self.spec.read_share * self.seconds
        if self.served:  # whole periods of the update pattern
            self.rounds = max(1, round(self.open_seconds / inputs.pattern_seconds()))
            self.open_seconds = self.rounds * inputs.pattern_seconds()
        self.closed_order = inputs.read_schedule(self.seed + 1, distinct,
                                                 int(20000 * self.closed_seconds) + 1000)
        self.open_order = inputs.read_schedule(self.seed, distinct,
                                               int(READ_RATE * self.open_seconds))

    def serve(self, graph, communities) -> None:
        """Rounds against ``repro serve``, so each metric samples the whole run.

        A round is :attr:`Workload.pairs` decomposition pairs (the server
        idle), a closed-loop slice, and an open-loop window of one period of
        the update pattern: reads at :data:`READ_RATE` on one connection,
        the pattern's update batches on the other.  The host's speed drifts
        over tens of seconds; spread over the run, every metric sees the
        same mix of its fast and slow stretches.
        """
        self.decompose_pair(graph)
        artifact = self.setup(graph, self.first)
        self.plan_reads(artifact, self.first)
        period = inputs.pattern_seconds()
        offsets = inputs.update_offsets(period)
        self.updates = inputs.update_stream(self.seed, communities, self.rounds * len(offsets))
        wires = [request.wire() for request in self.distinct]
        address = self.server.address
        with generator_cpus():
            # Every distinct request once, so lazy loads finish before timing.
            self.account(loadgen.sequential(
                address, [(wire, ("read", i)) for i, wire in enumerate(wires)]), self.expected)
        closed_seconds = self.closed_seconds / self.rounds
        qps, windows, reads_seen, writes_seen = [], [], [], []
        for r, reads in enumerate(np.array_split(self.open_order, self.rounds)):
            for _ in range(self.spec.pairs - (r == 0)):
                self.decompose_pair(graph)
            order = np.roll(self.closed_order, -r * len(self.closed_order) // self.rounds)
            schedule = [(k / READ_RATE, 0, wires[i], ("read", int(i)))
                        for k, i in enumerate(reads)]
            schedule += [(offset, 1, self.updates[j].wire(), ("update", j))
                         for j, offset in enumerate(offsets, start=r * len(offsets))]
            schedule.sort(key=lambda entry: entry[0])
            with generator_cpus():
                gc.disable()
                try:
                    closed = loadgen.closed_loop(
                        address, [(wires[i], ("read", int(i))) for i in order],
                        closed_seconds, CLOSED_DEPTH)
                    before = self.server.request("GET", "/metrics")[1].decode() \
                        if self.trace else ""
                    windows.append(loadgen.open_loop(address, schedule, 2))
                finally:
                    gc.enable()
            # Reads after the first update see a moving index: only their
            # status is checked; the final state is checked in full.
            self.account(closed, self.expected if r == 0 else None)
            self.account(windows[-1], None)
            done = np.asarray([reply.done - closed.started for reply in closed.replies])
            qps += throughput(done, closed_seconds)
            if self.trace:
                after = self.server.request("GET", "/metrics")[1].decode()
                for seen, routes in ((reads_seen, READ_ROUTES), (writes_seen, ("/update",))):
                    seen.append(layers.bucket_delta(layers.latency_buckets(after, routes),
                                                    layers.latency_buckets(before, routes)))
        self.samples["read_qps"] = qps
        self.metrics["read_qps_max"] = median(qps)
        self.record_windows(windows, period)
        if self.trace:
            self.server_layers(layers.bucket_sum(reads_seen))
            self.layer["update.server_p50_ms"] = \
                1000 * layers.bucket_quantile(layers.bucket_sum(writes_seen), 0.5)
            admission = self.server.json("/stats?fresh=1")["transport"]["updates"]
            self.layer["admission.rejections"] = admission["admission_rejections"]
            self.layer["admission.peak_pending"] = admission["peak_pending"]
        self.metrics["peak_rss_mb"] = self.server.peak_rss_mb()
        self.check_decompositions(graph)
        # The single writer applies acknowledged batches in arrival order.
        replies = sorted((reply for window in windows for reply in window.replies
                          if reply.tag[0] == "update"), key=lambda reply: reply.tag[1])
        self.final_edges = inputs.EdgeSet(graph)
        for reply in replies:
            if reply.status == 200:
                self.final_edges.apply(_json_body(self.updates[reply.tag[1]]))
        self.update_ms = [1000 * reply.latency for reply in replies]
        self.payloads = [json.loads(reply.body) for reply in replies if reply.status == 200]
        self.artifact = artifact

    def record_windows(self, windows: list, period: float) -> None:
        """Read percentiles of the open-loop windows, and the generator's lateness."""
        from_due, from_send, due = [], [], []
        for r, window in enumerate(windows):
            reads = [reply for reply in window.replies if reply.tag[0] == "read"]
            from_due.append(np.asarray([1000 * reply.latency for reply in reads]))
            from_send.append(np.asarray([1000 * (reply.done - reply.sent) for reply in reads]))
            due.append(np.asarray([reply.due - window.started + r * period for reply in reads]))
        lateness = [late for window in windows for late in window.lateness]
        self.raw.update(read_due_s=np.concatenate(due), read_ms=np.concatenate(from_due),
                        late_ms=1000 * np.asarray(lateness))
        self.samples["window_late_p99_ms"] = [percentile(d - s, 99)
                                              for d, s in zip(from_due, from_send)]
        self.record_reads(from_due)
        # What the generator's own lateness added to each read percentile.
        self.samples["gen_shift_ms"] = {
            name: self.metrics[name] - median([percentile(s, q) for s in from_send])
            for name, q in (("read_p50_ms", 50), ("read_p99_ms", 99))}
        self.samples["gen_late_p99_ms"] = self.layer["gen.late_p99_ms"] = \
            1000 * percentile(lateness, 99)

    def offline_round(self, first) -> None:
        """Between decompositions: set up after the first, then read a slice."""
        if self.offline is None:
            self.artifact = self.setup(self.graph, first)
            self.plan_reads(self.artifact, first)
            self.calls = [(r.route, r.params(), _json_body(r)) for r in self.distinct]
            self.toggles = inputs.pendant_toggles(
                self.seed, self.graph, SMALL["toggles"] if self.small else TOGGLES)
            self.read_ms, self.closed_qps, self.closed_calls, self.slices_done = [], [], 0, 0
            self.update_ms, self.payloads = [], []
        else:
            self.read_slice()

    def read_slice(self) -> bool:
        """One of :data:`READ_SLICES` slices of the offline reads and toggles.

        Each slice holds whole delete/re-insert pairs, so the reads of every
        slice see the original graph.  Returns False when none is left.
        """
        if self.slices_done == READ_SLICES:
            return False
        service, calls = self.offline, self.calls
        closed = self.closed_order[self.closed_calls:]
        opened = np.array_split(self.open_order, READ_SLICES)[self.slices_done]
        answers = []
        gc.disable()
        try:
            started, calls_before = time.perf_counter(), self.closed_calls
            for i in closed:
                service.handle(*calls[i])
                self.closed_calls += 1
                elapsed = time.perf_counter() - started
                if elapsed >= self.closed_seconds / READ_SLICES:
                    break
            self.closed_qps.append((self.closed_calls - calls_before) / elapsed)
            read_ms = []
            for i in opened:
                clock = time.perf_counter()
                payload = service.handle(*calls[i])
                read_ms.append(1000 * (time.perf_counter() - clock))
                answers.append((i, payload))
            self.read_ms.append(np.asarray(read_ms))
            pairs = np.array_split(np.arange(len(self.toggles) // 2),
                                   READ_SLICES)[self.slices_done]
            for toggle in (self.toggles[k] for pair in pairs for k in (2 * pair, 2 * pair + 1)):
                clock = time.perf_counter()
                self.payloads.append(service.handle("/update", {}, _json_body(toggle)))
                self.update_ms.append(1000 * (time.perf_counter() - clock))
                self.ledger.check(True, "")
        finally:
            gc.enable()
        for i, payload in answers:
            self.ledger.check(answer_bytes(payload) == self.expected[i],
                              f"read {i} differs from the reference answer")
        self.slices_done += 1
        return True

    def query(self) -> None:
        """Offline results, gathered slice by slice between the decompositions."""
        self.samples["read_qps"] = self.closed_qps
        self.metrics["read_qps_max"] = median(self.closed_qps)
        self.raw["read_ms"] = np.concatenate(self.read_ms)
        self.record_reads(self.read_ms)
        for name in SERVER_ONLY_LAYERS:
            self.layer[name] = 0.0
        self.layer["cache.hit_ratio"] = self.offline.cache.stats()["hit_rate"]
        self.updates, self.final_edges = self.toggles, None

    def record_updates(self) -> None:
        self.samples.update(update_ms=self.update_ms, update_modes=_modes(self.payloads))
        self.metrics["update_p50_ms"] = percentile(self.update_ms, 50)
        value, pct, count = tail(self.update_ms)
        self.metrics["update_tail_ms"] = self.layer["update_tail_ms"] = value
        self.samples["update_tail"] = {"percentile": round(pct, 2), "samples": count}
        if self.trace:
            self.replay_updates(self.updates)

    def record_reads(self, windows: list) -> None:
        """Read percentiles: the median over windows of each window's percentile.

        A burst of host noise then moves one window, not the run's figure.
        """
        self.samples["reads"] = sum(w.size for w in windows)
        for name, q in (("read_p50_ms", 50), ("read_p99_ms", 99)):
            self.samples[name] = [percentile(w, q) for w in windows]
            self.metrics[name] = median(self.samples[name])
        self.layer["read_p99_ms"] = self.metrics["read_p99_ms"]

    def account(self, outcome, expected) -> None:
        """Count every request of a load phase; compare reads with ``expected``."""
        for reply in outcome.replies:
            if reply.status != 200:
                self.ledger.check(False, f"{reply.tag} answered {reply.status}", wrong=False)
            elif reply.tag[0] == "read" and expected is not None:
                self.ledger.check(reply.body == expected[reply.tag[1]],
                                  f"read {reply.tag[1]} differs from the offline answer")
            else:
                self.ledger.check(True, "")
        for _ in range(outcome.unanswered):
            self.ledger.check(False, "request unanswered", wrong=False)

    def final_check(self, artifact: Path, graph, result, final_edges) -> None:
        """Served θ and persisted butterflies equal a from-scratch decomposition."""
        if final_edges is None:
            expected, edges = result, graph.edge_array()
        else:
            final = final_edges.graph(graph.name)
            expected, edges = receipt_decomposition(final, "U"), final.edge_array()
        n = expected.tip_numbers.shape[0]
        if self.served:
            served = self.server.json("/theta/batch", {"vertices": list(range(n))})["thetas"]
        else:
            served = self.offline.handle("/theta/batch", {}, {"vertices": list(range(n))})["thetas"]
        persisted = TipService([artifact]).index_for()
        self.ledger.check(
            np.array_equal(np.asarray(served), expected.tip_numbers)
            and np.array_equal(_rows(persisted.graph.edge_array()), _rows(edges))
            and np.array_equal(np.asarray(persisted.initial_butterflies),
                               expected.initial_butterflies),
            "served state after the updates differs from a from-scratch decomposition")

    # -- traced run -------------------------------------------------------
    def trace_decomposition(self, graph) -> None:
        tracer = Tracer()
        with layers.Probe(layers.DECOMPOSITION_SITES) as probe, use_tracer(tracer):
            result = receipt_decomposition(graph, "U")
        spans = layers.span_seconds(tracer.export())
        cd = result.phase_counters["cd"]
        fd = result.phase_counters["fd"]
        records = result.extra["subset_records"]
        attributed = sum(probe.seconds[key] for key in
                         ("cd.range_search", "cd.huc_cost", "cd.recount", "cd.peel"))
        fd_2w = median(self.samples["fd_2w_s"])
        self.layer.update({
            "butterfly.count_s": spans["pvBcnt"],
            "butterfly.wedges": result.phase_counters["pvBcnt"].wedges_traversed,
            "cd.s": spans["cd"],
            "cd.rounds": cd.synchronization_rounds,
            "cd.range_search_s": probe.seconds["cd.range_search"],
            "cd.huc_cost_s": probe.seconds["cd.huc_cost"],
            "cd.huc_cost_calls": probe.calls["cd.huc_cost"],
            "cd.recount_s": probe.seconds["cd.recount"],
            "cd.recounts": cd.recount_invocations,
            "cd.recount_wedges": cd.counting_wedges,
            "cd.peel_s": probe.seconds["cd.peel"],
            "cd.peel_wedges": cd.peeling_wedges,
            "cd.unattributed_share": 1.0 - attributed / spans["cd"],
            "fd.s": spans["fd"],
            "fd.pops": probe.calls["fd.pop"],
            "fd.wedges": fd.wedges_traversed,
            "fd.support_updates": fd.support_updates,
            "fd.task_max_s": max(r.elapsed_seconds for r in records),
            "fd.task_sum_s": sum(r.elapsed_seconds for r in records),
            "fd.2w_s": fd_2w,
            "engine.speedup_2w": median(self.samples["fd_serial_s"]) / fd_2w,
            "engine.idle_share": median(self.samples["engine_idle_share"]),
            "kernels.gather_s": probe.seconds["kernels.gather"],
            "kernels.pair_count_s": probe.seconds["kernels.pair_count"],
            "kernels.decrement_s": probe.seconds["kernels.decrement"],
            "kernels.key_counts_s": probe.seconds["kernels.key_counts"],
            "kernels.peak_scratch_mb": result.counters.peak_scratch_bytes / 2**20,
            "trace.phase_coverage":
                (spans["pvBcnt"] + spans["cd"] + spans["fd"]) / spans["receipt"],
            "trace.overhead_share":
                spans["receipt"] / median(self.samples["decompose_s"]) - 1.0,
        })

    def replay_reads(self, service: TipService, distinct) -> None:
        """Offline ``TipService.handle`` and ``TipIndex`` timings per route."""
        per_route: dict = {}
        with layers.Probe(layers.SERVICE_SITES[:1]) as probe:
            for request in distinct:
                params, body = request.params(), _json_body(request)
                for _ in range(1 if request.route == "/theta" else 20):
                    clock = time.perf_counter()
                    service.handle(request.route, params, body)
                    per_route.setdefault(request.route, []).append(time.perf_counter() - clock)
        index = service.index_for()
        timings: dict = {"theta_batch": [], "top_k": [], "k_tip_members": []}
        for request in distinct:
            params = request.params()
            calls = {
                "/theta/batch": ("theta_batch", lambda: index.theta_batch(
                    np.asarray(params["vertices"].split(","), dtype=np.int64))),
                "/top-k": ("top_k", lambda: index.top_k(int(params["k"]))),
                "/k-tip": ("k_tip_members", lambda: index.k_tip_members(
                    int(params["k"]), limit=int(params["limit"]))),
            }
            if request.route in calls:
                key, call = calls[request.route]
                for _ in range(20):
                    clock = time.perf_counter()
                    call()
                    timings[key].append(time.perf_counter() - clock)
        us = 1e6
        self.layer.update({
            "service.resolve_us":
                us * probe.seconds["service.resolve"] / probe.calls["service.resolve"],
            "service.theta_us": us * median(per_route["/theta"]),
            "service.theta_batch_us": us * median(per_route["/theta/batch"]),
            "service.top_k_us": us * median(per_route["/top-k"]),
            "service.k_tip_us": us * median(per_route["/k-tip"]),
            "service.community_us": us * median(per_route["/community"]),
            "index.theta_batch_us": us * median(timings["theta_batch"]),
            "index.top_k_us": us * median(timings["top_k"]),
            "index.k_tip_members_us": us * median(timings["k_tip_members"]),
        })

    def server_layers(self, reads: list) -> None:
        """Server-side read latency (``reads``: histogram buckets) and ``/stats``."""
        p50 = 1000 * layers.bucket_quantile(reads, 0.5)
        stats = self.server.json("/stats?fresh=1")
        coalescer = stats["transport"]["coalescer"]
        self.layer.update({
            "server.read_p50_ms": p50,
            "server.read_p99_ms": 1000 * layers.bucket_quantile(reads, 0.99),
            "transport.overhead_ms": self.metrics["read_p50_ms"] - p50,
            "coalesce.mean_batch": coalescer["mean_batch_size"],
            "coalesce.wait_p99_ms": coalescer["coalesce_wait_p99_ms"],
            "cache.hit_ratio": stats["cache"]["hit_rate"],
        })

    def replay_updates(self, updates) -> None:
        """The run's update batches again, offline, on a copy of the initial index."""
        copy = self.workdir / "replay.tipidx"
        shutil.copytree(self.workdir / "initial.tipidx", copy)
        service = TipService([copy])
        tracer = Tracer()
        handle_ms, payloads = [], []
        with layers.Probe(layers.SERVICE_SITES[1:]) as probe, use_tracer(tracer):
            for update in updates:
                clock = time.perf_counter()
                payloads.append(service.handle("/update", {}, _json_body(update)))
                handle_ms.append(1000 * (time.perf_counter() - clock))
        spans = layers.span_seconds(tracer.export())
        modes = _modes(payloads)
        n = len(updates)
        self.layer.update({
            "update.handle_ms": median(handle_ms),
            "artifacts.save_ms": 1000 * probe.seconds["artifacts.save"] / n,
            "streaming.apply_ms": 1000 * median(probe.samples["streaming.apply"]),
            "streaming.support_delta_ms": 1000 * spans["streaming.support_delta"] / n,
            "streaming.repair_region_ms": 1000 * spans["streaming.repair_region"] / n,
            "streaming.repeel_ms": 1000 * spans["streaming.repeel_region"] / n,
            "streaming.full_rebuild_ms": 1000 * spans["streaming.full_rebuild"] / n,
            "streaming.mode.clean": modes.get("clean", 0),
            "streaming.mode.incremental": modes.get("incremental", 0),
            "streaming.mode.full": modes.get("full", 0),
            "streaming.repeeled_vertices": sum(p["repeeled_vertices"] for p in payloads),
        })

    # -- the run ------------------------------------------------------------
    def execute(self) -> dict:
        self.workdir.mkdir(parents=True, exist_ok=True)
        try:
            graph, communities = make_graph(self.spec, self.small)
            self.graph = graph
            if self.served:
                self.serve(graph, communities)
            else:
                started = time.perf_counter()
                budget = DECOMPOSE_SHARE * self.seconds
                while (len(self.samples["decompose_s"]) < self.spec.pairs
                       or time.perf_counter() - started < budget):
                    self.decompose_pair(graph, between=self.offline_round)
                self.check_decompositions(graph)
                while self.read_slice():
                    pass
                self.query()
            self.record_updates()
            self.final_check(self.artifact, graph, self.first, self.final_edges)
        finally:
            if self.server is not None:
                self.server.stop()
            stop_resource_tracker()
            shutil.rmtree(self.workdir, ignore_errors=True)
        return {"n_u": graph.n_u, "n_v": graph.n_v, "n_edges": graph.n_edges}


def provenance(args, scale: float) -> dict:
    """What produced the numbers.  A checkout without git history is still
    identified by the digest of its program sources."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "scale": scale,
        "seconds": args.seconds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)
    # A termination request leaves through the clean-up path, which stops the
    # server and every helper process the run started.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), small=args.small)
    graph = run.execute()
    record = {
        "workload": args.workload,
        "provenance": provenance(args, graph_scale(run.spec, args.small)),
        "graph": graph,
        "samples": run.samples,
        "measured": run.metrics,
        "host_factor": reference.REFERENCE_S / median(run.samples["reference_s"]),
        "failures": run.ledger.notes,
        "fail_share": run.ledger.failed / max(run.ledger.attempted, 1),
    }
    out = ROOT / ".tipbench" / "runs"
    out.mkdir(parents=True, exist_ok=True)
    stem = out / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    stem.with_suffix(".json").write_text(json.dumps(record, default=float, indent=1))
    np.savez_compressed(stem.with_suffix(".npz"), **run.raw)
    # Latency is timed from the due time, so a late send adds into it.  A run
    # in which the generator's lateness alone moved a read percentile by
    # its metric's regression bound measured the generator, not the server.
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, shift in run.samples.get("gen_shift_ms", {}).items():
        if name in bounds and shift > bounds[name] * run.metrics[name]:
            print(f"tipbench: invalid run, the load generator's lateness added {shift:.3f} ms "
                  f"to {name} = {run.metrics[name]:.3f} ms, beyond its bound "
                  f"of {bounds[name]}", file=sys.stderr)
            return 3
    values = run.layer if args.trace else at_reference_speed(run.metrics,
                                                             run.samples["reference_s"])
    missing = sorted(set(declared) - set(values))
    if missing:
        print(f"tipbench: metrics not measured: {missing}", file=sys.stderr)
        return 4
    print(json.dumps({"tipbench_record": record}, default=float))
    print(json.dumps({
        "correct": run.ledger.wrong == 0,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
