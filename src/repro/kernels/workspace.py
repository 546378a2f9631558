"""Reusable scratch arena and memory policy for the wedge pipeline.

Every wedge kernel in this library manipulates a handful of *wedge-scale*
temporaries (gathered endpoints, pair keys, sort scratch, boolean masks)
whose size is the number of wedge endpoints traversed — often orders of
magnitude above the graph itself.  Allocating them afresh per peeling
iteration is pure allocator and page-fault churn, and materialising them in
int64 doubles the bytes pushed through the gather / sort / prefix-sum
passes that dominate the hot path.  A :class:`WedgeWorkspace` bundles the
three remedies:

* **scratch arena** — grow-only named byte buffers checked out per kernel
  call (:meth:`WedgeWorkspace.take`), so successive CD / FD / BUP rounds
  and streaming repairs reuse the same memory instead of faulting in fresh
  pages every iteration;
* **dtype narrowing** — :meth:`WedgeWorkspace.ids_dtype` answers int32
  whenever the value bound permits (it always does at this library's
  scales), halving the bandwidth of every wedge-scale pass;
* **wedge budget** — :attr:`WedgeWorkspace.wedge_budget` caps how many
  wedge endpoints a kernel may materialise at once; :func:`budget_spans`
  plans the corresponding chunking, and kernels fold each chunk's partial
  result into running per-vertex accumulators, so peak scratch is bounded
  by the budget instead of the total wedge count.

Checkout discipline: a buffer returned by :meth:`~WedgeWorkspace.take` is
valid until the *same name* is requested again.  Kernels therefore keep
only transient wedge-scale intermediates in the arena and return fresh,
exactly-sized arrays (pair lists, updated-vertex sets) to their callers.

:func:`WedgeWorkspace.legacy` builds a workspace that disables all three
mechanisms — every checkout is a fresh allocation, ids stay int64 and
chunking is off — which reproduces the cost profile of the pre-arena
kernels.  The benchmark harness (``benchmarks/bench_kernels.py``) uses it
as the baseline its speedup and peak-scratch gates are measured against,
and the equivalence suite uses it to assert that narrowing and chunking
never change a single counter.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Iterator

import numpy as np

__all__ = [
    "DEFAULT_WEDGE_BUDGET",
    "INT32_MAX",
    "WedgeWorkspace",
    "budget_spans",
    "default_wedge_budget",
    "get_workspace",
    "live_workspace_stats",
    "resolve_wedge_budget",
    "workspace_or_default",
]

INT32_MAX = int(np.iinfo(np.int32).max)

#: Wedge endpoints a kernel may materialise per chunk when the caller does
#: not configure a budget.  2**18 endpoints keep the working set of one
#: chunk (a few int32/int64 arrays of that length) around cache size while
#: leaving each chunk large enough that per-chunk numpy dispatch overhead
#: is negligible.  Override globally with ``REPRO_WEDGE_BUDGET`` (a
#: non-positive value disables chunking) — the variable is consulted on
#: every workspace construction / :func:`resolve_wedge_budget` call, not
#: frozen at import, so long-lived processes (the serving front end) pick
#: up mid-process changes.
DEFAULT_WEDGE_BUDGET: int | None = 1 << 18

#: Sentinel distinguishing "use the library default budget" from an
#: explicit ``None`` (= unbounded).
_USE_DEFAULT = object()

# Weak registry of every live workspace so the memory telemetry endpoint
# (repro.obs.memory) can report arena residency without the arenas having
# to know about observability.  Weak references: registration must not
# extend a workspace's lifetime past its algorithm run.
_LIVE_LOCK = threading.Lock()
_LIVE_WORKSPACES: "weakref.WeakSet[WedgeWorkspace]" = weakref.WeakSet()


def live_workspace_stats() -> dict:
    """Aggregate arena residency across every live :class:`WedgeWorkspace`.

    ``current_bytes`` sums buffer capacities actually held right now
    (legacy workspaces hold nothing between calls); ``peak_bytes`` is the
    largest single-workspace high-water mark among live arenas.
    """
    with _LIVE_LOCK:
        workspaces = list(_LIVE_WORKSPACES)
    current = 0
    peak = 0
    for workspace in workspaces:
        held = sum(buf.nbytes for buf in workspace._buffers.values())
        if workspace._iota is not None:
            held += workspace._iota.nbytes
        current += held
        peak = max(peak, workspace.peak_scratch_bytes)
    return {
        "workspaces": len(workspaces),
        "current_bytes": int(current),
        "peak_bytes": int(peak),
    }


def default_wedge_budget() -> int | None:
    """The library-default wedge budget, honouring ``REPRO_WEDGE_BUDGET``.

    Reads the environment on every call (a non-positive value disables
    chunking, an unset/empty variable keeps :data:`DEFAULT_WEDGE_BUDGET`)
    so tests and operators can retune a live process.
    """
    raw = os.environ.get("REPRO_WEDGE_BUDGET", "").strip()
    if raw:
        value = int(raw)
        return value if value > 0 else None
    return DEFAULT_WEDGE_BUDGET


def resolve_wedge_budget(budget: int | None) -> int | None:
    """Normalise a user-facing budget knob: ``None`` means "library
    default", zero or negative means "unbounded"."""
    if budget is None:
        return default_wedge_budget()
    return int(budget) if int(budget) > 0 else None


class WedgeWorkspace:
    """Grow-only scratch arena plus narrowing / chunking policy.

    Parameters
    ----------
    wedge_budget:
        Maximum wedge endpoints a kernel chunk may materialise; ``None``
        disables chunking.  Defaults to :data:`DEFAULT_WEDGE_BUDGET`.
    narrow_ids:
        Allow int32 ids and keys whenever the value bound permits.
    reuse:
        Keep buffers between checkouts.  ``False`` makes every
        :meth:`take` a fresh allocation (the legacy cost profile).
    """

    def __init__(
        self,
        *,
        wedge_budget: int | None = _USE_DEFAULT,  # type: ignore[assignment]
        narrow_ids: bool = True,
        reuse: bool = True,
    ):
        self.wedge_budget = (
            default_wedge_budget() if wedge_budget is _USE_DEFAULT else wedge_budget
        )
        self.narrow_ids = bool(narrow_ids)
        self.reuse = bool(reuse)
        self._buffers: dict[str, np.ndarray] = {}
        self._sizes: dict[str, int] = {}
        self._iota: np.ndarray | None = None
        #: High-water mark of the arena in bytes (sum of buffer capacities,
        #: including the cached iota).  Monotonic over the workspace's
        #: lifetime; algorithms report it through
        #: :attr:`~repro.peeling.base.PeelingCounters.peak_scratch_bytes`.
        self.peak_scratch_bytes = 0
        with _LIVE_LOCK:
            _LIVE_WORKSPACES.add(self)

    @classmethod
    def legacy(cls) -> "WedgeWorkspace":
        """Workspace reproducing the pre-arena kernels: fresh int64
        allocations per call, no chunking."""
        return cls(wedge_budget=None, narrow_ids=False, reuse=False)

    # ------------------------------------------------------------------
    def ids_dtype(self, bound: int) -> np.dtype:
        """Narrowest id/key dtype for values in ``[0, bound]``."""
        if self.narrow_ids and bound <= INT32_MAX:
            return np.dtype(np.int32)
        return np.dtype(np.int64)

    def _record_peak(self) -> None:
        total = sum(self._sizes.values())
        if self._iota is not None:
            total += self._iota.nbytes
        if total > self.peak_scratch_bytes:
            self.peak_scratch_bytes = total

    def take(self, name: str, size: int, dtype) -> np.ndarray:
        """Check out a ``size``-element array of ``dtype`` named ``name``.

        The content is uninitialised.  The returned view is valid until the
        same name is taken again; callers must not hand it to user code.
        """
        dtype = np.dtype(dtype)
        nbytes = int(size) * dtype.itemsize
        if not self.reuse:
            # Legacy emulation: a fresh allocation per checkout, with the
            # same high-water accounting so peaks stay comparable.
            self._sizes[name] = max(nbytes, self._sizes.get(name, 0))
            self._record_peak()
            return np.empty(int(size), dtype=dtype)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.nbytes < nbytes:
            capacity = max(nbytes, 64)
            if buffer is not None:
                # Grow geometrically so a slowly increasing request series
                # reallocates O(log) times, not O(n).
                capacity = max(capacity, 2 * buffer.nbytes)
            buffer = np.empty(capacity, dtype=np.uint8)
            self._buffers[name] = buffer
            self._sizes[name] = capacity
            self._record_peak()
        return buffer[:nbytes].view(dtype)

    def note_transient(self, name: str, nbytes: int) -> None:
        """Fold a transient allocation into the peak accounting.

        For the few temporaries that are faster as plain numpy allocations
        than as arena buffers (``np.repeat`` outputs: the run-length decode
        needed to build them in place is serially dependent), the high-water
        mark still records their size so ``peak_scratch_bytes`` reflects
        the true working set.
        """
        nbytes = int(nbytes)
        key = "transient:" + name
        if nbytes > self._sizes.get(key, 0):
            self._sizes[key] = nbytes
            self._record_peak()

    def iota(self, size: int) -> np.ndarray:
        """Read-only ascending ``arange(size)`` served from a cached buffer.

        The contents never change, so after the first growth every request
        is a free slice — gathers that need a base index vector stop paying
        an ``np.arange`` pass per call.
        """
        if not self.reuse:
            return np.arange(int(size), dtype=np.int64)
        if self._iota is None or self._iota.shape[0] < size:
            capacity = max(int(size), 1024)
            if self._iota is not None:
                capacity = max(capacity, 2 * self._iota.shape[0])
            self._iota = np.arange(capacity, dtype=np.int64)
            self._record_peak()
        return self._iota[: int(size)]


_thread_local = threading.local()


def get_workspace() -> WedgeWorkspace:
    """The calling thread's default workspace (created on first use).

    Top-level algorithms create a fresh workspace per run for precise peak
    accounting; bare kernel calls without an explicit workspace share this
    per-thread arena so they still benefit from buffer reuse.
    """
    workspace = getattr(_thread_local, "workspace", None)
    if workspace is None:
        workspace = WedgeWorkspace()
        _thread_local.workspace = workspace
    return workspace


def workspace_or_default(workspace: WedgeWorkspace | None) -> WedgeWorkspace:
    """``workspace`` itself, or the calling thread's default arena."""
    return workspace if workspace is not None else get_workspace()


def budget_spans(
    weights: np.ndarray, budget: int | None, *, max_items: int | None = None
) -> Iterator[tuple[int, int]]:
    """Split consecutive items into ``(start, stop)`` spans of bounded weight.

    Each span's total ``weights`` is at most ``budget`` unless a single
    item alone exceeds it (an item is never split, so the effective bound
    is ``max(budget, weights.max())``).  ``budget=None`` bounds no weight.
    ``max_items`` (at least 1) also caps the items per span, for callers
    whose per-span keys grow with the span's length.
    """
    n = int(weights.shape[0])
    if n == 0:
        return
    if max_items is None:
        max_items = n
    cumulative = np.cumsum(weights, dtype=np.int64)
    if n <= max_items and (budget is None or int(cumulative[-1]) <= budget):
        yield 0, n
        return
    if budget is None:
        budget = int(cumulative[-1])
    start = 0
    base = 0
    while start < n:
        stop = int(np.searchsorted(cumulative, base + budget, side="right"))
        stop = min(max(stop, start + 1), start + max_items, n)
        yield start, stop
        base = int(cumulative[stop - 1])
        start = stop
