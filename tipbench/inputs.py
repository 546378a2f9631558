"""Seeded inputs of the benchmark: graphs, read requests and update batches.

The graphs are fixed stand-ins, as the paper's datasets are fixed; the
workload seed drives everything sent to them (which vertices are read,
the request mix's order, the update batches), so two runs with the same
seed send byte-identical requests.  The program under test only ever sees
the generated graph and the HTTP requests built from it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.datasets.generators import planted_blocks
from repro.datasets.registry import load_dataset
from repro.graph.bipartite import BipartiteGraph

#: Planted-communities parameters (those of the streaming benchmark's
#: community workload): 80 dense user x product blocks over a sparse
#: background, drawn from a fixed seed.
PLANTED_BLOCKS = 80
PLANTED_SEED = 20

#: Read mix: (route, share).  The rare ``/community`` request costs an
#: order of magnitude more than the others and shares the event loop.  Its
#: share sits clearly above 1%, so p99 lands among the community requests
#: instead of flipping between them and the rest from run to run.
READ_MIX = (
    ("/theta", 0.895),
    ("/theta/batch", 0.05),
    ("/top-k", 0.02),
    ("/k-tip", 0.02),
    ("/community", 0.015),
)
#: The schedule repeats the mix in blocks of this many requests, each block
#: holding every route's exact share.
MIX_BLOCK = 200
THETA_POOL = 1024
BATCH_POOL = 64
BATCH_SIZE = 64

#: Repeating update-stream pattern: 6 session, 2 background, 2 uniform
#: batches, no two uniform batches adjacent (also across the wrap-around),
#: so two full rebuilds never queue back to back.
STREAM_PATTERN = ("session", "session", "session", "uniform", "background",
                  "session", "session", "session", "uniform", "background")
#: Seconds from a batch of each kind to the next batch.  A full rebuild
#: took 0.6-1.1 s beside 1,000 reads/s (a session repair about 30 ms), so
#: the next batch finds the writer idle: every update latency is one
#: repair's, not a queue whose length would follow the host's speed.
UPDATE_GAP_S = {"session": 0.45, "uniform": 1.6, "background": 0.45}
#: Largest batch, as a share of the edge count.
STREAM_CHURN = 0.01


def stream(seed: int, name: str) -> np.random.Generator:
    """An independent random stream per input kind, all derived from the seed."""
    return np.random.default_rng([int(seed), sum(name.encode())])


def tr_graph(scale: float) -> BipartiteGraph:
    """The registry's ``tr`` stand-in (the paper's flagship skewed graph)."""
    return load_dataset("tr", scale=scale)


@dataclass(frozen=True)
class Communities:
    """Planted-communities graph plus the id ranges its update stream needs."""

    graph: BipartiteGraph
    u_ranges: list
    v_ranges: list


def planted_graph(n_blocks: int = PLANTED_BLOCKS) -> Communities:
    rng = np.random.default_rng(PLANTED_SEED)
    blocks = [(int(rng.integers(8, 20)), int(rng.integers(6, 14))) for _ in range(n_blocks)]
    u_ranges, v_ranges = [], []
    u_cursor = v_cursor = 0
    for block_u, block_v in blocks:
        u_ranges.append((u_cursor, u_cursor + block_u))
        v_ranges.append((v_cursor, v_cursor + block_v))
        u_cursor += block_u
        v_cursor += block_v
    # A roomy background id space keeps stray background butterflies rare.
    n_u = u_cursor + max(40 * n_blocks, 800)
    n_v = v_cursor + max(24 * n_blocks, 480)
    graph = planted_blocks(n_u, n_v, blocks, background_edges=22 * n_blocks,
                           block_density=0.85, seed=rng)
    return Communities(graph, u_ranges, v_ranges)


# ----------------------------------------------------------------------
# Read requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    """One HTTP request: its route (for per-route accounting) and wire bytes."""

    route: str
    target: str
    body: bytes = b""

    def wire(self) -> bytes:
        if self.body:
            return (f"POST {self.target} HTTP/1.1\r\nHost: bench\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(self.body)}\r\n\r\n").encode() + self.body
        return f"GET {self.target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()

    def params(self) -> dict:
        """Query parameters, as the server parses them."""
        _, _, query = self.target.partition("?")
        return dict(pair.split("=", 1) for pair in query.split("&") if pair)


def community_level(tip_numbers: np.ndarray, target_size: int = 50) -> int:
    """A top tip level whose k-tip holds about ``target_size`` vertices."""
    ordered = np.sort(tip_numbers)[::-1]
    return max(1, int(ordered[min(target_size, ordered.size) - 1]))


def read_requests(seed: int, tip_numbers: np.ndarray) -> list:
    """The distinct read requests the mix draws from."""
    rng = stream(seed, "reads")
    n = tip_numbers.shape[0]
    theta_ids = rng.choice(n, size=min(THETA_POOL, n), replace=False)
    batches = [rng.choice(n, size=min(BATCH_SIZE, n), replace=False) for _ in range(BATCH_POOL)]
    levels = np.unique(tip_numbers[tip_numbers > 0])[-4:]
    return (
        [Request("/theta", f"/theta?vertex={int(v)}") for v in theta_ids]
        + [Request("/theta/batch",
                   "/theta/batch?vertices=" + ",".join(str(int(v)) for v in batch))
           for batch in batches]
        + [Request("/top-k", f"/top-k?k={k}") for k in (10, 25, 50, 100)]
        + [Request("/k-tip", f"/k-tip?k={int(k)}&limit=100") for k in levels]
        + [Request("/community", f"/community?k={community_level(tip_numbers)}")]
    )


def read_schedule(seed: int, distinct: list, count: int) -> np.ndarray:
    """``count`` indices into ``distinct``, in blocks of :data:`MIX_BLOCK`
    that each hold the mix's exact shares, shuffled within the block.

    Exact shares (rather than independent draws) keep the rare expensive
    routes at the same count in every run and in every stretch of a run,
    so a percentile or a throughput never moves because one seed, or one
    window, drew more or fewer of them.
    """
    rng = stream(seed, "schedule")
    by_route: dict = {}
    for index, request in enumerate(distinct):
        by_route.setdefault(request.route, []).append(index)
    sizes = [round(share * MIX_BLOCK) for _, share in READ_MIX]
    blocks = []
    for _ in range(-(-count // MIX_BLOCK)):
        block = np.concatenate([rng.choice(by_route[route], size=size)
                                for (route, _), size in zip(READ_MIX, sizes)])
        rng.shuffle(block)
        blocks.append(block)
    return np.concatenate(blocks)[:count]


# ----------------------------------------------------------------------
# Update batches
# ----------------------------------------------------------------------
def update_request(body: dict) -> Request:
    return Request("/update", "/update", json.dumps(body).encode())


class EdgeSet:
    """The evolving edge set the update stream is generated against."""

    def __init__(self, graph: BipartiteGraph):
        self.n_u, self.n_v = graph.n_u, graph.n_v
        self.edges = {tuple(edge) for edge in graph.edge_array().tolist()}

    def apply(self, body: dict) -> None:
        self.edges.difference_update(tuple(edge) for edge in body["delete"])
        self.edges.update(tuple(edge) for edge in body["insert"])

    def array(self) -> np.ndarray:
        return np.asarray(sorted(self.edges), dtype=np.int64).reshape(-1, 2)

    def graph(self, name: str) -> BipartiteGraph:
        return BipartiteGraph(self.n_u, self.n_v, self.array(), name=name)


def _fresh_pairs(rng, edges: set, count: int, u_range, v_range, budget: int = 4000) -> list:
    pairs, seen = [], set()
    for _ in range(budget):
        if len(pairs) >= count:
            break
        pair = (int(rng.integers(*u_range)), int(rng.integers(*v_range)))
        if pair not in edges and pair not in seen:
            pairs.append(list(pair))
            seen.add(pair)
    return pairs


def pattern_seconds() -> float:
    """How long one repetition of :data:`STREAM_PATTERN` takes."""
    return sum(UPDATE_GAP_S[kind] for kind in STREAM_PATTERN)


def update_offsets(seconds: float) -> list:
    """When each batch of the stream is due, in seconds from the start of the reads.

    Repetition ``k`` of the pattern falls inside ``[k, k + 1)`` times
    :func:`pattern_seconds`.
    """
    offsets, due = [], UPDATE_GAP_S["session"] / 2
    while due < seconds:
        offsets.append(due)
        due += UPDATE_GAP_S[STREAM_PATTERN[(len(offsets) - 1) % len(STREAM_PATTERN)]]
    return offsets


def update_stream(seed: int, communities: Communities, count: int) -> list:
    """``count`` update batches following :data:`STREAM_PATTERN`.

    Session batches churn two communities (repaired incrementally),
    background batches touch the butterfly-free background (clean) and
    uniform batches spread over the whole graph (full rebuild).  Every
    second uniform batch takes back the one before it, so the random edges
    they scatter do not pile up into butterflies that turn later batches
    into full rebuilds too (the stream's mix would then drift with the
    seed).  Each batch is generated against the edge set all earlier ones
    leave.
    """
    rng = stream(seed, "updates")
    state = EdgeSet(communities.graph)
    max_changes = max(2, int(STREAM_CHURN * len(state.edges)))
    u_ranges, v_ranges = communities.u_ranges, communities.v_ranges
    background_u = (u_ranges[-1][1], state.n_u)
    background_v = (v_ranges[-1][1], state.n_v)
    batches, undo = [], None
    for index in range(count):
        kind = STREAM_PATTERN[index % len(STREAM_PATTERN)]
        edges = state.array()
        if kind == "session":
            # Each community gets as many new edges as it loses, so its
            # density (and the cost of repairing it) does not drift.
            deletes, inserts = [], []
            for block in rng.choice(len(u_ranges), size=2, replace=False):
                lo, hi = u_ranges[block]
                candidates = np.flatnonzero((edges[:, 0] >= lo) & (edges[:, 0] < hi))
                added = _fresh_pairs(rng, state.edges,
                                     min(max_changes // 4, max(1, candidates.size // 10)),
                                     u_ranges[block], v_ranges[block])
                inserts += added
                deletes += edges[rng.choice(candidates, size=min(len(added), candidates.size),
                                            replace=False)].tolist()
        elif kind == "background":
            inserts = _fresh_pairs(rng, state.edges, max_changes // 2, background_u, background_v)
            candidates = np.flatnonzero(edges[:, 0] >= background_u[0])
            n_deletes = min(max_changes - len(inserts), candidates.size)
            deletes = edges[rng.choice(candidates, size=n_deletes, replace=False)].tolist()
        elif undo is not None:
            inserted, deleted = undo
            deletes = [edge for edge in inserted if tuple(edge) in state.edges]
            inserts = [edge for edge in deleted if tuple(edge) not in state.edges]
            undo = None
        else:
            deletes = edges[rng.choice(edges.shape[0], size=max_changes // 2,
                                       replace=False)].tolist()
            inserts, seen = [], set()
            while len(inserts) < max_changes - len(deletes):
                pair = (int(edges[rng.integers(edges.shape[0])][0]),
                        int(edges[rng.integers(edges.shape[0])][1]))
                if pair not in state.edges and pair not in seen:
                    inserts.append(list(pair))
                    seen.add(pair)
            undo = (inserts, deletes)
        body = {"insert": inserts, "delete": deletes}
        state.apply(body)
        batches.append(update_request(body))
    return batches


def pendant_toggles(seed: int, graph: BipartiteGraph, count: int) -> list:
    """Butterfly-free updates that leave the graph as they found it.

    Each pair of batches deletes, then re-inserts, the single edge of a
    degree-1 ``U`` vertex.  No butterfly contains such an edge, so every
    batch takes the clean path and the final edge set is the original one.
    """
    edges = graph.edge_array()
    degree = np.bincount(edges[:, 0], minlength=graph.n_u)
    pendant = edges[degree[edges[:, 0]] == 1]
    rng = stream(seed, "toggles")
    chosen = pendant[rng.choice(pendant.shape[0], size=count // 2, replace=False)]
    batches = []
    for u, v in chosen.tolist():
        batches.append(update_request({"insert": [], "delete": [[u, v]]}))
        batches.append(update_request({"insert": [[u, v]], "delete": []}))
    return batches
