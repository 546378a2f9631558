"""Shared-memory graph store for the process backend.

Places the immutable inputs of an FD fan-out — the dual-CSR arrays of the
working graph, the flat subset array and the ``⋈init`` support snapshot —
into POSIX shared memory (``multiprocessing.shared_memory``) so that a
persistent worker pool attaches to them zero-copy.  What crosses the process
boundary per dispatch is only a :class:`SharedFdJobSpec`: segment names,
shapes and dtypes, a few hundred bytes regardless of graph size.

Workers wrap the attached buffers back into a :class:`~repro.graph.bipartite.
BipartiteGraph` through :meth:`BipartiteGraph.from_csr_arrays` (O(1), no
copy) and mark every view read-only — the store is strictly write-once by
the parent, matching the library's graph-immutability invariant.

Lifecycle: the parent owns the segments (:class:`SharedFdJob`), unlinking
them once the fan-out completes; workers cache one attached job at a time
and close stale attachments when a new job arrives (see
:mod:`repro.engine.backends`).  Attach-side resource tracking is disabled
(``track=False`` on Python >= 3.13, unregister otherwise) so worker exits
never unlink segments the parent still owns.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..graph.bipartite import BipartiteGraph
from .tasks import FdJob

__all__ = [
    "ShmArraySpec",
    "SharedFdJobSpec",
    "SharedFdJob",
    "AttachedFdJob",
    "live_segment_stats",
    "share_fd_job",
    "attach_fd_job",
]

# Owner-side accounting of live segments (name -> bytes) so the memory
# telemetry endpoint (repro.obs.memory) can report how much shared memory
# this process is currently holding.  Only the creating side registers;
# worker attaches map the same pages and would double-count.
_LIVE_LOCK = threading.Lock()
_LIVE_SEGMENTS: dict[str, int] = {}


def _register_segment(segment: shared_memory.SharedMemory) -> None:
    with _LIVE_LOCK:
        _LIVE_SEGMENTS[segment.name] = segment.size


def _unregister_segment(segment: shared_memory.SharedMemory) -> None:
    with _LIVE_LOCK:
        _LIVE_SEGMENTS.pop(segment.name, None)


def live_segment_stats() -> dict:
    """Count and total bytes of shared-memory segments this process owns."""
    with _LIVE_LOCK:
        sizes = list(_LIVE_SEGMENTS.values())
    return {"segments": len(sizes), "bytes": int(sum(sizes))}


@dataclass(frozen=True)
class ShmArraySpec:
    """Name + layout of one numpy array living in a shared-memory segment."""

    name: str
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class SharedFdJobSpec:
    """Picklable description of a shared FD job (what workers receive).

    ``token`` identifies the job for worker-side attachment caching; it is
    derived from the segment names, which the kernel guarantees unique among
    live segments.
    """

    token: str
    n_u: int
    n_v: int
    graph_name: str
    u_offsets: ShmArraySpec
    u_neighbors: ShmArraySpec
    v_offsets: ShmArraySpec
    v_neighbors: ShmArraySpec
    subsets_flat: ShmArraySpec
    init_supports: ShmArraySpec
    peel_kernel: str
    wedge_budget: int | None = None
    narrow_ids: bool = True
    trace: bool = False

    def array_specs(self) -> tuple[ShmArraySpec, ...]:
        return (
            self.u_offsets, self.u_neighbors,
            self.v_offsets, self.v_neighbors,
            self.subsets_flat, self.init_supports,
        )


def _export_array(array: np.ndarray) -> tuple[shared_memory.SharedMemory, ShmArraySpec]:
    """Copy one array into a fresh shared-memory segment."""
    array = np.ascontiguousarray(array)
    # Zero-byte segments are rejected by the OS; keep a 1-byte segment and
    # rely on the recorded shape to reconstruct the empty array.
    segment = shared_memory.SharedMemory(create=True, size=max(array.nbytes, 1))
    _register_segment(segment)
    if array.size:
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
    return segment, ShmArraySpec(name=segment.name, shape=array.shape, dtype=str(array.dtype))


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without taking cleanup ownership.

    On Python >= 3.13 ``track=False`` keeps the attach out of the resource
    tracker.  On older versions attaching re-registers the name, but pool
    workers share the parent's tracker process and its registry is a set,
    so the duplicate registration is a no-op and the parent's ``unlink``
    remains the single cleanup; unregistering here would instead break the
    parent's bookkeeping.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # Python >= 3.13
    except TypeError:
        return shared_memory.SharedMemory(name=name)


def _attach_array(spec: ShmArraySpec) -> tuple[shared_memory.SharedMemory, np.ndarray]:
    segment = _attach_segment(spec.name)
    array = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)
    array.flags.writeable = False
    return segment, array


class SharedFdJob:
    """Parent-side handle owning the shared-memory segments of one job."""

    def __init__(self, spec: SharedFdJobSpec, segments: list[shared_memory.SharedMemory]):
        self.spec = spec
        self._segments = segments

    def destroy(self) -> None:
        """Close and unlink every segment (idempotent)."""
        for segment in self._segments:
            _unregister_segment(segment)
            try:
                segment.close()
            except Exception:
                pass
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
        self._segments = []

    def __enter__(self) -> "SharedFdJob":
        return self

    def __exit__(self, *exc_info) -> None:
        self.destroy()


class AttachedFdJob:
    """Worker-side handle: a reconstructed :class:`FdJob` over attached buffers."""

    def __init__(self, job: FdJob, segments: list[shared_memory.SharedMemory]):
        self.job = job
        self._segments = segments

    def close(self) -> None:
        for segment in self._segments:
            try:
                segment.close()
            except Exception:
                pass
        self._segments = []


def share_fd_job(job: FdJob) -> SharedFdJob:
    """Export a job's arrays into shared memory and return the owning handle."""
    csr = job.graph.csr_arrays()
    segments: list[shared_memory.SharedMemory] = []
    specs: dict[str, ShmArraySpec] = {}
    try:
        for key, array in (
            ("u_offsets", csr["u_offsets"]),
            ("u_neighbors", csr["u_neighbors"]),
            ("v_offsets", csr["v_offsets"]),
            ("v_neighbors", csr["v_neighbors"]),
            ("subsets_flat", job.subsets_flat),
            ("init_supports", job.init_supports),
        ):
            segment, spec = _export_array(np.asarray(array, dtype=np.int64))
            segments.append(segment)
            specs[key] = spec
    except Exception:
        for segment in segments:
            _unregister_segment(segment)
            segment.close()
            segment.unlink()
        raise

    spec = SharedFdJobSpec(
        token="|".join(spec.name for spec in specs.values()),
        n_u=job.graph.n_u,
        n_v=job.graph.n_v,
        graph_name=job.graph.name,
        peel_kernel=str(job.peel_kernel),
        wedge_budget=None if job.wedge_budget is None else int(job.wedge_budget),
        narrow_ids=bool(job.narrow_ids),
        trace=bool(job.trace),
        **specs,
    )
    return SharedFdJob(spec, segments)


def attach_fd_job(spec: SharedFdJobSpec) -> AttachedFdJob:
    """Reconstruct an :class:`FdJob` over the shared segments (zero-copy)."""
    segments: list[shared_memory.SharedMemory] = []
    arrays: dict[str, np.ndarray] = {}
    try:
        for key, array_spec in (
            ("u_offsets", spec.u_offsets),
            ("u_neighbors", spec.u_neighbors),
            ("v_offsets", spec.v_offsets),
            ("v_neighbors", spec.v_neighbors),
            ("subsets_flat", spec.subsets_flat),
            ("init_supports", spec.init_supports),
        ):
            segment, array = _attach_array(array_spec)
            segments.append(segment)
            arrays[key] = array
    except Exception:
        for segment in segments:
            segment.close()
        raise

    graph = BipartiteGraph.from_csr_arrays(
        spec.n_u, spec.n_v,
        arrays["u_offsets"], arrays["u_neighbors"],
        arrays["v_offsets"], arrays["v_neighbors"],
        name=spec.graph_name,
    )
    job = FdJob(
        graph=graph,
        subsets_flat=arrays["subsets_flat"],
        init_supports=arrays["init_supports"],
        peel_kernel=spec.peel_kernel,
        wedge_budget=spec.wedge_budget,
        narrow_ids=spec.narrow_ids,
        trace=spec.trace,
    )
    return AttachedFdJob(job, segments)
