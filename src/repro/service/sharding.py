"""θ-range sharding: split one tip index into CD-subset shards, route exactly.

RECEIPT's coarse decomposition partitions the peeled side into subsets of
*disjoint θ ranges* — which makes θ the natural shard key for serving: a
shard owns every vertex whose tip number falls in its range, and because
the artifact's ``order`` permutation is θ-sorted, a shard is simply a
*contiguous slice* of it.  Cuts are always placed on level boundaries, so
no distinct tip number ever straddles two shards.

Two layers:

* :func:`plan_shards` / :func:`write_shard_plan` — the **shard planner**:
  slice an artifact's θ-sorted permutation and level CSR into per-shard
  arrays, either in memory or persisted as a plan directory
  (``plan.json`` + one ``shard-NNN/arrays.npz`` per shard, fingerprinted
  like artifacts and written atomically).
* :class:`ShardRouter` — the **scatter/gather front end**: duck-types the
  :class:`~repro.service.index.TipIndex` query surface, routing point-θ
  lookups to exactly one shard and merging batch-θ, top-k, k-tip and
  histogram answers across shards.  Every merge reproduces the unsharded
  index's answer *bit for bit* (same boundary arithmetic, same tie-break
  lexsort, same error strings) — the serving benchmark gates exactly that.

The router is deliberately transport-free: :class:`TipService` serves one
the same way it serves a ``TipIndex``, so the HTTP front end and ``repro
query`` get sharded serving without any new code.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ArtifactError, FaultInjectedError, ServiceError
from ..obs.trace import current_tracer
from . import faults
from .artifacts import load_artifact
from .index import TipIndex

__all__ = [
    "SHARD_PLAN_FILENAME",
    "SHARD_PLAN_FORMAT_VERSION",
    "SHARD_PLAN_KIND",
    "ShardRouter",
    "is_shard_plan",
    "plan_boundaries",
    "plan_shards",
    "read_shard_plan",
    "write_shard_plan",
]

SHARD_PLAN_KIND = "tip-shard-plan"
SHARD_PLAN_FORMAT_VERSION = 1
SHARD_PLAN_FILENAME = "plan.json"
SHARD_ARRAYS_FILENAME = "arrays.npz"


def is_shard_plan(path: str | Path) -> bool:
    """Whether ``path`` is a shard-plan directory (vs a ``*.tipidx`` artifact)."""
    return (Path(path) / SHARD_PLAN_FILENAME).is_file()


def plan_boundaries(level_offsets: np.ndarray, n_shards: int) -> list[int]:
    """Cut positions in the θ-sorted order: near-equal shards, level-aligned.

    Returns ``n_cuts + 1`` strictly increasing positions starting at 0 and
    ending at ``n_vertices``.  Each interior cut is the level boundary
    nearest to the ideal equal split; when a graph has fewer levels than
    requested shards, fewer (but never zero) shards come back — a level is
    atomic and is never split.
    """
    if n_shards < 1:
        raise ServiceError(f"shard count must be >= 1, got {n_shards}")
    level_offsets = np.asarray(level_offsets, dtype=np.int64)
    n = int(level_offsets[-1]) if level_offsets.size else 0
    cuts = [0]
    for index in range(1, n_shards):
        target = round(index * n / n_shards)
        at = int(np.searchsorted(level_offsets, target, side="left"))
        candidates = []
        if at < level_offsets.size:
            candidates.append(int(level_offsets[at]))
        if at > 0:
            candidates.append(int(level_offsets[at - 1]))
        cut = min(candidates, key=lambda c: (abs(c - target), c)) if candidates else n
        if cut <= cuts[-1]:
            # The nearest boundary was already used; take the next one up
            # so shards stay non-empty (or stop when none remain).
            above = level_offsets[level_offsets > cuts[-1]]
            if above.size == 0 or int(above[0]) >= n:
                break
            cut = int(above[0])
        if cut >= n:
            break
        cuts.append(cut)
    cuts.append(n)
    return cuts


@dataclass
class _Shard:
    """One θ-range shard: a contiguous slice of the global θ-sorted order."""

    shard_id: int
    vertex_ids: np.ndarray  # the order slice: sorted by (θ asc, id asc)
    level_values: np.ndarray
    level_offsets: np.ndarray  # rebased to start at 0
    sorted_tips: np.ndarray = field(init=False)
    _ids_by_id: np.ndarray = field(init=False)
    _tips_by_id: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.vertex_ids = np.asarray(self.vertex_ids, dtype=np.int64)
        self.level_values = np.asarray(self.level_values, dtype=np.int64)
        self.level_offsets = np.asarray(self.level_offsets, dtype=np.int64)
        self.sorted_tips = np.repeat(self.level_values, np.diff(self.level_offsets))
        # Point lookups bisect an id-sorted copy instead of paying a dense
        # per-vertex array per shard (shards hold only their own vertices).
        permutation = np.argsort(self.vertex_ids, kind="stable")
        self._ids_by_id = self.vertex_ids[permutation]
        self._tips_by_id = self.sorted_tips[permutation]

    @property
    def n_vertices(self) -> int:
        """Number of vertices this shard owns."""
        return int(self.vertex_ids.shape[0])

    @property
    def theta_min(self) -> int | None:
        """Smallest tip number in this shard's θ range (None when empty)."""
        return int(self.level_values[0]) if self.level_values.size else None

    @property
    def theta_max(self) -> int | None:
        """Largest tip number in this shard's θ range (None when empty)."""
        return int(self.level_values[-1]) if self.level_values.size else None

    def lookup(self, vertices: np.ndarray) -> np.ndarray:
        """θ of vertices known to live in this shard (O(m log local))."""
        positions = np.searchsorted(self._ids_by_id, vertices)
        return self._tips_by_id[positions]

    def arrays(self) -> dict[str, np.ndarray]:
        """The shard's persistable arrays (written to ``arrays.npz``)."""
        return {
            "vertex_ids": self.vertex_ids,
            "level_values": self.level_values,
            "level_offsets": self.level_offsets,
        }

    def summary(self) -> dict:
        """Shard descriptor for ``plan.json`` and ``/stats``."""
        return {
            "shard": self.shard_id,
            "n_vertices": self.n_vertices,
            "n_levels": int(self.level_values.shape[0]),
            "theta_min": self.theta_min,
            "theta_max": self.theta_max,
        }


def _slice_shards(
    order: np.ndarray,
    level_values: np.ndarray,
    level_offsets: np.ndarray,
    n_shards: int,
) -> list[_Shard]:
    """Cut the θ-sorted order into level-aligned shards (zero-copy slices)."""
    cuts = plan_boundaries(level_offsets, n_shards)
    shards = []
    for shard_id, (low, high) in enumerate(zip(cuts, cuts[1:])):
        level_low = int(np.searchsorted(level_offsets, low, side="left"))
        level_high = int(np.searchsorted(level_offsets, high, side="left"))
        shards.append(_Shard(
            shard_id=shard_id,
            vertex_ids=np.asarray(order[low:high], dtype=np.int64),
            level_values=np.asarray(level_values[level_low:level_high], dtype=np.int64),
            level_offsets=np.asarray(
                level_offsets[level_low:level_high + 1], dtype=np.int64) - low,
        ))
    return shards


def _plan_digest(payload: dict) -> str:
    content = {key: value for key, value in payload.items() if key != "fingerprint"}
    canonical = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ShardRouter:
    """Exact scatter/gather over θ-range shards, duck-typing ``TipIndex``.

    Point θ consults exactly one shard (a routing-array lookup plus one
    local bisection); batch θ scatters vertices to their owning shards and
    gathers the answers back in request order; top-k walks shards from the
    highest θ range down until the candidate suffix covers ``k`` and then
    applies the unsharded boundary/tie-break arithmetic to it; k-tip and
    histogram concatenate per-shard slices (ranges are disjoint and
    ascending, so concatenation *is* the merge).  Every answer — values,
    ordering, error strings — is bit-identical to the unsharded
    :class:`~repro.service.index.TipIndex`.

    Community queries need the graph's CSR, which shards do not carry;
    an in-memory router built by :meth:`from_index` keeps the base index
    and delegates, a router loaded from a persisted plan answers 404.
    """

    def __init__(
        self,
        shards: list[_Shard],
        *,
        n_vertices: int,
        side: str = "U",
        algorithm: str = "",
        fingerprint: str = "",
        base_fingerprint: str = "",
        name: str = "",
        requested_shards: int | None = None,
        base: TipIndex | None = None,
    ):
        self._shards = list(shards)
        self.n_vertices = int(n_vertices)
        self.side = side
        self.algorithm = algorithm
        self.fingerprint = fingerprint
        self.base_fingerprint = base_fingerprint or fingerprint
        self.name = name
        self.requested_shards = int(requested_shards or len(self._shards))
        self.base = base
        self.graph = None  # parallel to TipIndex: no CSR behind the router
        # vertex id -> owning shard; int32 keeps the table 4 bytes/vertex.
        routing = np.full(self.n_vertices, -1, dtype=np.int32)
        for shard in self._shards:
            routing[shard.vertex_ids] = shard.shard_id
        self._routing = routing
        self.level_values = (
            np.concatenate([shard.level_values for shard in self._shards])
            if self._shards else np.zeros(0, dtype=np.int64)
        )
        # Degenerate single-shard deployment: pay the same dense θ array
        # the unsharded index holds so gathers stay O(m) — the benchmark
        # gates this path at parity.  Multi-shard routers stay thin (the
        # routing table only) and bisect per shard.
        if len(self._shards) == 1 and self._shards[0].n_vertices == self.n_vertices:
            only = self._shards[0]
            dense = np.empty(self.n_vertices, dtype=np.int64)
            dense[only.vertex_ids] = only.sorted_tips
            self._dense_tips: np.ndarray | None = dense
        else:
            self._dense_tips = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_index(cls, index: TipIndex, n_shards: int, *, name: str = "") -> "ShardRouter":
        """Shard a loaded index in memory (zero-copy slices of its arrays)."""
        shards = _slice_shards(
            index.order, index.level_values, index.level_offsets, n_shards)
        return cls(
            shards,
            n_vertices=index.n_vertices,
            side=index.side,
            algorithm=index.algorithm,
            fingerprint=index.fingerprint,
            name=name,
            requested_shards=n_shards,
            base=index,
        )

    @classmethod
    def load(cls, plan_dir: str | Path, *, mmap: bool = True) -> "ShardRouter":
        """Load a persisted shard plan written by :func:`write_shard_plan`."""
        plan_dir = Path(plan_dir)
        plan = read_shard_plan(plan_dir)
        shards = []
        for entry in plan["shards"]:
            arrays_path = plan_dir / str(entry["dir"]) / SHARD_ARRAYS_FILENAME
            try:
                with np.load(arrays_path, mmap_mode="r" if mmap else None) as payload:
                    arrays = {key: np.asarray(payload[key], dtype=np.int64)
                              for key in ("vertex_ids", "level_values", "level_offsets")}
            except (OSError, ValueError, KeyError) as exc:
                raise ArtifactError(
                    f"cannot read shard arrays from {arrays_path}: {exc}") from exc
            shards.append(_Shard(shard_id=int(entry["shard"]), **arrays))
        return cls(
            shards,
            n_vertices=int(plan["n_vertices"]),
            side=str(plan["side"]),
            algorithm=str(plan.get("algorithm", "")),
            fingerprint=str(plan.get("fingerprint", "")),
            base_fingerprint=str(plan.get("base_fingerprint", "")),
            name=str(plan.get("name", "")),
            requested_shards=int(plan.get("requested_shards", len(shards))),
        )

    # ------------------------------------------------------------------
    # Basic properties (mirror TipIndex)
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Actual shard count (may be below the requested count)."""
        return len(self._shards)

    @property
    def max_tip_number(self) -> int:
        """Largest tip number across all shards (0 when empty)."""
        return int(self.level_values[-1]) if self.level_values.size else 0

    @property
    def n_levels(self) -> int:
        """Number of distinct tip-number levels across all shards."""
        return int(self.level_values.shape[0])

    @property
    def shards(self) -> list[_Shard]:
        """The shards in ascending θ-range order."""
        return list(self._shards)

    # ------------------------------------------------------------------
    # Point / batch lookups
    # ------------------------------------------------------------------
    def _validate_vertices(self, vertices) -> np.ndarray:
        # Byte-identical error surface to TipIndex._validate_vertices.
        vertices = np.asarray(vertices, dtype=np.int64).reshape(-1)
        if vertices.size and (vertices.min() < 0 or vertices.max() >= self.n_vertices):
            bad = vertices[(vertices < 0) | (vertices >= self.n_vertices)][0]
            raise ServiceError(
                f"vertex {int(bad)} out of range for side {self.side!r} "
                f"with {self.n_vertices} vertices"
            )
        return vertices

    def theta(self, vertex: int) -> int:
        """Tip number of one vertex: route to its shard, bisect locally."""
        vertex = int(self._validate_vertices([vertex])[0])
        shard = self._shards[int(self._routing[vertex])]
        return int(shard.lookup(np.asarray([vertex], dtype=np.int64))[0])

    def gather_thetas(self, vertices: np.ndarray) -> np.ndarray:
        """Unvalidated scatter/gather batch lookup (callers range-check).

        Vertices are grouped by owning shard, each group answers with one
        local bisection, and the answers scatter back into request order.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        out = np.empty(vertices.shape[0], dtype=np.int64)
        if not vertices.size:
            return out
        if self._dense_tips is not None:
            # Single shard: no scatter needed, one dense gather — parity
            # with the unsharded index (the 1-shard benchmark gate
            # measures this path).
            faults.fire("shard.gather")
            return self._dense_tips[vertices]
        owners = self._routing[vertices]
        tracer = current_tracer()
        if self.n_shards == 1:
            faults.fire("shard.gather")
            with tracer.span("router.gather").set(shard=0, n=int(vertices.size)):
                return self._shards[0].lookup(vertices)
        for shard_id in np.unique(owners):
            mask = owners == shard_id
            shard = self._shards[int(shard_id)]
            faults.fire("shard.gather")
            with tracer.span("router.gather").set(
                    shard=int(shard_id), n=int(np.count_nonzero(mask))):
                out[mask] = shard.lookup(vertices[mask])
        return out

    def theta_batch(self, vertices) -> np.ndarray:
        """Tip numbers for a batch of vertices (validated scatter/gather)."""
        return self.gather_thetas(self._validate_vertices(vertices))

    def theta_batch_degraded(self, vertices, *, deadline=None):
        """Deadline-bounded validated scatter/gather (the degraded read path).

        Returns ``(thetas, unresolved_shards)``.  While every shard
        resolves in time ``thetas`` is exactly :meth:`theta_batch`'s array
        and ``unresolved_shards`` is empty — the serving layer then renders
        a byte-identical payload.  A shard that raises an injected fault or
        whose turn arrives after the deadline expired is *skipped*: its
        vertices come back as ``None`` and its id lands in
        ``unresolved_shards``, the structured partial answer the
        ``degraded: true`` contract promises.
        """
        vertices = self._validate_vertices(vertices)
        if self._dense_tips is not None or self.n_shards == 1:
            # One shard is all-or-nothing: either the gather answers (the
            # caller renders the exact payload) or its fault/deadline
            # failure propagates as a plain 503.
            return self.gather_thetas(vertices), []
        out = np.empty(vertices.shape[0], dtype=np.int64)
        resolved = np.zeros(vertices.shape[0], dtype=bool)
        unresolved: list[int] = []
        owners = self._routing[vertices] if vertices.size else np.zeros(0, dtype=np.int64)
        tracer = current_tracer()
        for shard_id in np.unique(owners):
            mask = owners == shard_id
            shard = self._shards[int(shard_id)]
            if deadline is not None and deadline.expired():
                unresolved.append(int(shard_id))
                continue
            try:
                faults.fire("shard.gather")
                with tracer.span("router.gather").set(
                        shard=int(shard_id), n=int(np.count_nonzero(mask))):
                    out[mask] = shard.lookup(vertices[mask])
            except FaultInjectedError:
                unresolved.append(int(shard_id))
                continue
            resolved[mask] = True
        if not unresolved:
            return out, []
        values = [int(theta) if ok else None
                  for theta, ok in zip(out, resolved)]
        return values, unresolved

    # ------------------------------------------------------------------
    # Threshold / ranking queries
    # ------------------------------------------------------------------
    def k_tip_size(self, k: int) -> int:
        """Number of vertices with tip number >= ``k`` (sum of shard counts)."""
        k = int(k)
        total = 0
        for shard in self._shards:
            position = int(np.searchsorted(shard.sorted_tips, k, side="left"))
            total += shard.n_vertices - position
        return total

    def k_tip_members(self, k: int, *, limit: int | None = None) -> np.ndarray:
        """Sorted member ids of the union of k-tips, merged across shards."""
        k = int(k)
        pieces = []
        tracer = current_tracer()
        for shard in self._shards:
            if shard.theta_max is None or shard.theta_max < k:
                continue
            position = int(np.searchsorted(shard.sorted_tips, k, side="left"))
            with tracer.span("router.k_tip").set(
                    shard=shard.shard_id, n=shard.n_vertices - position):
                pieces.append(shard.vertex_ids[position:])
        members = (np.concatenate(pieces) if pieces
                   else np.zeros(0, dtype=np.int64))
        # From here the arithmetic is TipIndex.k_tip_members verbatim: the
        # member *set* is identical, so sort/partition give identical bytes.
        if limit is None or limit >= members.size:
            return np.sort(members)
        if limit <= 0:
            return np.zeros(0, dtype=np.int64)
        return np.sort(np.partition(members, limit - 1)[:limit])

    def top_k(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` highest-θ vertices, gathered from the top shards down.

        Because shards are contiguous slices of the global θ-sorted order,
        concatenating the trailing shards reproduces the order's suffix
        exactly; once the suffix covers ``k`` vertices the unsharded
        boundary + tie-break arithmetic applies unchanged.
        """
        if k < 1:
            raise ServiceError(f"top-k requires k >= 1, got {k}")
        k = min(int(k), self.n_vertices)
        if k == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        suffix_ids: list[np.ndarray] = []
        suffix_tips: list[np.ndarray] = []
        covered = 0
        for shard in reversed(self._shards):
            if not shard.n_vertices:
                continue
            suffix_ids.append(shard.vertex_ids)
            suffix_tips.append(shard.sorted_tips)
            covered += shard.n_vertices
            if covered >= k:
                break
        ids = np.concatenate(list(reversed(suffix_ids)))
        tips = np.concatenate(list(reversed(suffix_tips)))
        boundary = int(tips[covered - k])
        # Levels never straddle shard cuts, so the boundary level lies
        # entirely inside the suffix: the bisection below sees every
        # boundary-θ vertex, exactly as the unsharded index does.
        first_at = int(np.searchsorted(tips, boundary, side="left"))
        first_above = int(np.searchsorted(tips, boundary, side="right"))
        above = ids[first_above:]
        at_boundary = np.sort(ids[first_at:first_above])[: k - above.size]
        selected = np.concatenate([above, at_boundary])
        selected_tips = np.concatenate([
            tips[first_above:],
            np.full(at_boundary.shape[0], boundary, dtype=np.int64),
        ])
        ranking = np.lexsort((selected, -selected_tips))
        return selected[ranking], selected_tips[ranking]

    def histogram(self) -> dict[int, int]:
        """Vertices per distinct tip number, concatenated shard histograms.

        Shard θ ranges are disjoint and ascending, so appending per-shard
        level counts in shard order yields the unsharded ascending dict.
        """
        merged: dict[int, int] = {}
        for shard in self._shards:
            counts = np.diff(shard.level_offsets)
            for value, count in zip(shard.level_values, counts):
                merged[int(value)] = int(count)
        return merged

    def levels(self) -> np.ndarray:
        """Sorted distinct tip numbers across all shards."""
        return self.level_values

    # ------------------------------------------------------------------
    # Unsupported surfaces
    # ------------------------------------------------------------------
    def communities(self, k: int, *, vertex: int | None = None):
        """Community extraction; delegated to the base index when present."""
        return self._community_base().communities(k, vertex=vertex)

    def community_wedge_work(self, k: int) -> int:
        """A community query's wedge work; delegated like :meth:`communities`."""
        return self._community_base().community_wedge_work(k)

    def _community_base(self) -> TipIndex:
        if self.base is None:
            raise ServiceError(
                "this shard plan carries no graph arrays; community queries "
                "require the unsharded artifact", status=404,
            )
        return self.base

    def apply_delta(self, inserts=None, deletes=None, *, config=None):
        """Reject writes: shards are derived read replicas of an artifact."""
        raise ServiceError(
            "shard plans are read-only; apply updates to the source artifact "
            "(or through the replication leader) and re-plan", status=409,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Compact summary used by ``/stats`` and ``repro query``."""
        return {
            "side": self.side,
            "algorithm": self.algorithm,
            "n_vertices": self.n_vertices,
            "max_tip_number": self.max_tip_number,
            "n_levels": self.n_levels,
            "fingerprint": self.fingerprint,
            "has_graph": self.base is not None and self.base.graph is not None,
            "n_shards": self.n_shards,
            "shards": [shard.summary() for shard in self._shards],
        }


# ----------------------------------------------------------------------
# Planning (in memory and on disk)
# ----------------------------------------------------------------------
def plan_shards(
    artifact_path: str | Path, n_shards: int, *, mmap: bool = True
) -> ShardRouter:
    """Shard an artifact in memory; the persisted form is :func:`write_shard_plan`."""
    artifact = load_artifact(artifact_path, mmap=mmap)
    index = TipIndex.from_artifact(artifact)
    router = ShardRouter.from_index(
        index, n_shards, name=artifact.manifest.name)
    streaming = artifact.manifest.streaming
    router.base_fingerprint = str(
        streaming.get("base_fingerprint") or artifact.manifest.fingerprint)
    return router


def write_shard_plan(
    artifact_path: str | Path,
    out_dir: str | Path,
    n_shards: int,
    *,
    overwrite: bool = False,
) -> dict:
    """Split an artifact into a persisted shard-plan directory.

    Layout::

        my-plan.tipshards/
          plan.json            # kind, θ ranges, source fingerprints
          shard-000/arrays.npz # vertex_ids + local level CSR
          shard-001/arrays.npz
          ...

    The plan is staged in a temporary directory and promoted with one
    rename (two for an overwrite), mirroring the artifact writer's
    crash-safety contract.  Returns the plan payload.
    """
    out_dir = Path(out_dir)
    if out_dir.exists() and not overwrite:
        raise ArtifactError(
            f"shard plan path {out_dir} already exists; pass overwrite/--force "
            "to replace it"
        )
    router = plan_shards(artifact_path, n_shards)
    payload = {
        "format_version": SHARD_PLAN_FORMAT_VERSION,
        "kind": SHARD_PLAN_KIND,
        "created_unix": time.time(),
        "name": router.name,
        "source_artifact": str(artifact_path),
        "source_fingerprint": router.fingerprint,
        "base_fingerprint": router.base_fingerprint,
        "side": router.side,
        "algorithm": router.algorithm,
        "n_vertices": router.n_vertices,
        "max_tip_number": router.max_tip_number,
        "n_levels": router.n_levels,
        "requested_shards": int(n_shards),
        "n_shards": router.n_shards,
        "shards": [
            {**shard.summary(), "dir": f"shard-{shard.shard_id:03d}"}
            for shard in router.shards
        ],
    }
    payload["fingerprint"] = _plan_digest(payload)

    out_dir.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(dir=out_dir.parent, prefix=f".{out_dir.name}.tmp-"))
    umask = os.umask(0)
    os.umask(umask)
    os.chmod(staging, 0o777 & ~umask)
    try:
        for shard in router.shards:
            shard_dir = staging / f"shard-{shard.shard_id:03d}"
            shard_dir.mkdir()
            np.savez(shard_dir / SHARD_ARRAYS_FILENAME, **shard.arrays())
        (staging / SHARD_PLAN_FILENAME).write_text(
            json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
        if out_dir.exists():
            graveyard = Path(tempfile.mkdtemp(
                dir=out_dir.parent, prefix=f".{out_dir.name}.old-"))
            displaced = graveyard / "plan"
            os.replace(out_dir, displaced)
            try:
                os.replace(staging, out_dir)
            except BaseException:
                os.replace(displaced, out_dir)
                raise
            finally:
                shutil.rmtree(graveyard, ignore_errors=True)
        else:
            os.replace(staging, out_dir)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return payload


def read_shard_plan(plan_dir: str | Path) -> dict:
    """Read and validate only a plan's ``plan.json`` (cheap, no arrays)."""
    plan_path = Path(plan_dir) / SHARD_PLAN_FILENAME
    try:
        payload = json.loads(plan_path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ArtifactError(
            f"no shard plan at {plan_dir} (missing {SHARD_PLAN_FILENAME})") from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"cannot read shard plan {plan_path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ArtifactError(f"shard plan {plan_path} is not a JSON object")
    if payload.get("kind") != SHARD_PLAN_KIND:
        raise ArtifactError(
            f"shard plan {plan_path} has kind {payload.get('kind')!r}, "
            f"expected {SHARD_PLAN_KIND!r}")
    if int(payload.get("format_version", 0)) > SHARD_PLAN_FORMAT_VERSION:
        raise ArtifactError(
            f"shard plan {plan_path} has format version "
            f"{payload.get('format_version')}, this library supports "
            f"<= {SHARD_PLAN_FORMAT_VERSION}")
    return payload
