"""Unified memory telemetry: one payload joining every residency source.

A long-lived process in this library holds memory in three distinct places
that previously had to be inspected with three different tools:

* **process residency** — RSS and its high-water mark, read from
  ``/proc/self`` (with a ``resource.getrusage`` fallback off Linux);
* **Python heap** — :mod:`tracemalloc` current/peak and top allocation
  sites, when tracing is enabled (it costs ~2x allocation overhead, so it
  stays opt-in via ``tracemalloc.start()`` or ``PYTHONTRACEMALLOC``);
* **wedge scratch arenas** — every live
  :class:`~repro.kernels.workspace.WedgeWorkspace` registers in a weak
  set; :func:`~repro.kernels.workspace.live_workspace_stats` sums held
  buffer capacity and the largest per-run high-water mark.

:func:`memory_snapshot` is the transport-free join; the serving layer adds
per-artifact memmap sizes and exposes the result as ``GET /debug/memory``
plus ``repro_memory_*`` gauges on ``/metrics``.  Everything degrades to
zeros/None off Linux — no source is allowed to fail the snapshot.
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from typing import Any, Dict, Optional

__all__ = [
    "memory_snapshot",
    "peak_rss_bytes",
    "rss_bytes",
    "tracemalloc_stats",
]

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def rss_bytes() -> Optional[int]:
    """Current resident set size in bytes, or ``None`` if unavailable."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            fields = handle.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        # ru_maxrss is the *peak*, in KiB on Linux and bytes on macOS; as a
        # current-RSS fallback it is an upper bound, which is the useful
        # direction for a residency alarm.
        scale = 1 if sys.platform == "darwin" else 1024
        return int(usage.ru_maxrss) * scale
    except Exception:
        return None


def peak_rss_bytes() -> Optional[int]:
    """High-water resident set size (``VmHWM``), or ``None`` if unavailable."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        scale = 1 if sys.platform == "darwin" else 1024
        return int(usage.ru_maxrss) * scale
    except Exception:
        return None


def tracemalloc_stats(top: int = 10) -> Dict[str, Any]:
    """Python-heap telemetry from :mod:`tracemalloc` (zeros when off).

    When tracing is active the payload carries the ``top`` largest
    allocation sites grouped by file:line — enough to answer "which call
    site holds the heap" without shipping whole tracebacks.
    """
    if not tracemalloc.is_tracing():
        return {"tracing": False, "current_bytes": 0, "peak_bytes": 0, "top": []}
    current, peak = tracemalloc.get_traced_memory()
    snapshot = tracemalloc.take_snapshot()
    ranked = []
    for stat in snapshot.statistics("lineno")[: max(int(top), 0)]:
        frame = stat.traceback[0]
        ranked.append({
            "site": f"{frame.filename}:{frame.lineno}",
            "size_bytes": int(stat.size),
            "count": int(stat.count),
        })
    return {
        "tracing": True,
        "current_bytes": int(current),
        "peak_bytes": int(peak),
        "top": ranked,
    }


def memory_snapshot(*, top: int = 10, extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Join every memory source into one JSON-able payload.

    ``extra`` lets a caller graft in sources only it can see (the serving
    layer adds per-artifact memmap bytes); it is merged at the top level.
    The workspace import is lazy so importing :mod:`repro.obs` never drags
    in numpy-heavy kernel modules.
    """
    from ..kernels.workspace import live_workspace_stats

    payload: Dict[str, Any] = {
        "process": {
            "rss_bytes": rss_bytes(),
            "peak_rss_bytes": peak_rss_bytes(),
        },
        "tracemalloc": tracemalloc_stats(top=top),
        "workspaces": live_workspace_stats(),
    }
    if extra:
        payload.update(extra)
    return payload
