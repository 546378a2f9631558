"""Zero-dependency sampling profiler: per-thread stack sampling.

A :class:`SamplingProfiler` wakes a background daemon thread every
``interval`` seconds, snapshots every live thread's Python stack via
``sys._current_frames()`` and folds each stack into a semicolon-joined
*folded stack* line (root→leaf, the input format of Brendan Gregg's
``flamegraph.pl`` and of speedscope/Perfetto importers).  Aggregation
happens inside the sampler thread — the profiled code is never paused
beyond the GIL hand-off the snapshot itself costs — so attaching the
profiler to a hot numpy kernel perturbs it by well under the 5% ceiling
``benchmarks/bench_obs.py`` gates.

Two consumption paths:

* **CLI** — ``repro decompose/build-index --profile-out FILE`` runs the
  command under a profiler and writes the profile; a ``*.json`` suffix
  selects the full JSON payload, anything else gets folded-stack text.
* **Serving** — ``GET /debug/profile?seconds=N`` samples the live
  server for N seconds and answers the JSON payload;
  ``GET /debug/profile?last=1`` returns the most recent collected
  profile without sampling again (cheap to poll, byte-identical to the
  offline ``handle()`` answer).

Only one profiler may sample a process at a time (``sys._current_frames``
is global state and two samplers would double the overhead for no signal);
:func:`acquire_profile_slot` enforces that.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "DEFAULT_INTERVAL_SECONDS",
    "MAX_PROFILE_SECONDS",
    "ProfileBusyError",
    "SamplingProfiler",
    "acquire_profile_slot",
    "collect_profile",
    "render_folded",
    "render_top",
]

#: 5 ms between samples: ~200 Hz, fine enough to attribute a 100 ms phase
#: to within a few percent while keeping sampler CPU well under 1%.
DEFAULT_INTERVAL_SECONDS = 0.005

#: Hard cap on one on-demand profiling run (``/debug/profile?seconds=N``);
#: a handler must not be pinnable for minutes by a single request.
MAX_PROFILE_SECONDS = 30.0

#: Frames deeper than this are truncated (a runaway recursion would
#: otherwise make every folded key pathologically long).
MAX_STACK_DEPTH = 128


class ProfileBusyError(RuntimeError):
    """Another profiler is already sampling this process."""


_SLOT = threading.Lock()


@contextmanager
def acquire_profile_slot() -> Iterator[None]:
    """Serialise samplers: raises :class:`ProfileBusyError` if one is live."""
    if not _SLOT.acquire(blocking=False):
        raise ProfileBusyError("a profiling run is already in progress")
    try:
        yield
    finally:
        _SLOT.release()


def _frame_label(frame) -> str:
    code = frame.f_code
    return f"{code.co_name} ({code.co_filename}:{code.co_firstlineno})"


class SamplingProfiler:
    """Background-thread stack sampler with folded-stack aggregation.

    Usage::

        profiler = SamplingProfiler(interval=0.005)
        profiler.start()
        ...                      # workload under test
        profiler.stop()
        payload = profiler.payload(top=20)

    ``start()``/``stop()`` are idempotent; ``payload()`` is valid any time
    after ``stop()`` (and mid-run, at the cost of a lock).
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL_SECONDS):
        self.interval = max(float(interval), 0.0005)
        self._lock = threading.Lock()
        self._stacks: Counter = Counter()  # folded tuple -> samples
        self._thread_samples: Counter = Counter()  # thread name -> samples
        self._samples = 0
        self._errors = 0
        self._started_unix: Optional[float] = None
        self._t0 = 0.0
        self._duration = 0.0
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            return self
        self._stop_event.clear()
        self._started_unix = time.time()
        self._t0 = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        thread = self._thread
        if thread is None:
            return self
        self._stop_event.set()
        thread.join(timeout=5.0)
        self._thread = None
        self._duration += time.perf_counter() - self._t0
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _run(self) -> None:
        own_ident = threading.get_ident()
        names: Dict[int, str] = {}  # thread ident -> name, refreshed per sample
        while not self._stop_event.wait(self.interval):
            self._sample_once(own_ident, names)

    def _sample_once(self, own_ident: int, names: Optional[Dict[int, str]] = None) -> None:
        """One sampling pass: snapshot every live stack and fold it in.

        Factored out of the sampler loop so ``benchmarks/bench_obs.py``
        can time the exact per-sample cost the profiled process pays (the
        GIL hand-off plus the stack walk) and gate it against the
        sampling interval.
        """
        if names is None:
            names = {}
        try:
            frames = sys._current_frames()
        except Exception:  # pragma: no cover - interpreter shutdown
            self._errors += 1
            return
        names.clear()
        for thread in threading.enumerate():
            names[thread.ident] = thread.name
        sampled: List[tuple] = []
        counted: List[str] = []
        for ident, frame in frames.items():
            if ident == own_ident:
                continue
            stack: List[str] = []
            depth = 0
            while frame is not None and depth < MAX_STACK_DEPTH:
                stack.append(_frame_label(frame))
                frame = frame.f_back
                depth += 1
            if not stack:
                continue
            stack.reverse()  # root-first, the folded-stack convention
            sampled.append(tuple(stack))
            counted.append(names.get(ident, f"thread-{ident}"))
        with self._lock:
            self._samples += 1
            for stack, name in zip(sampled, counted):
                self._stacks[stack] += 1
                self._thread_samples[name] += 1

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def duration_seconds(self) -> float:
        if self._thread is not None:
            return self._duration + (time.perf_counter() - self._t0)
        return self._duration

    def snapshot(self) -> Dict[tuple, int]:
        with self._lock:
            return dict(self._stacks)

    def payload(self, top: int = 25) -> Dict[str, Any]:
        """The complete profile as a JSON-able dict (stable key order)."""
        with self._lock:
            stacks = dict(self._stacks)
            thread_samples = dict(self._thread_samples)
            samples = self._samples
            errors = self._errors
        self_time: Counter = Counter()
        total_time: Counter = Counter()
        for stack, count in stacks.items():
            self_time[stack[-1]] += count
            for label in set(stack):
                total_time[label] += count
        stack_samples = sum(stacks.values())
        folded = [
            {"stack": ";".join(stack), "samples": count}
            for stack, count in sorted(
                stacks.items(), key=lambda item: (-item[1], item[0]))
        ]
        ranked = [
            {
                "frame": label,
                "self_samples": count,
                "total_samples": total_time[label],
                "self_pct": round(100.0 * count / stack_samples, 2)
                if stack_samples else 0.0,
            }
            for label, count in sorted(
                self_time.items(), key=lambda item: (-item[1], item[0]))[:top]
        ]
        return {
            "profile": "sampling",
            "interval_seconds": self.interval,
            "duration_seconds": round(self.duration_seconds(), 4),
            "samples": samples,
            "stack_samples": stack_samples,
            "sample_errors": errors,
            "started_unix": self._started_unix,
            "threads": {
                name: thread_samples[name] for name in sorted(thread_samples)
            },
            "top": ranked,
            "folded": folded,
        }


def render_folded(payload: Dict[str, Any]) -> str:
    """Folded-stack text (``flamegraph.pl`` input) from a profile payload."""
    lines = [f"{entry['stack']} {entry['samples']}" for entry in payload["folded"]]
    return "\n".join(lines) + ("\n" if lines else "")


def render_top(payload: Dict[str, Any], limit: int = 15) -> str:
    """Human-readable top-N self-time table from a profile payload."""
    rows = [
        f"profile: {payload['stack_samples']} stack samples over "
        f"{payload['duration_seconds']}s "
        f"(interval {payload['interval_seconds'] * 1000:.1f} ms)",
        f"  {'self%':>6} {'self':>6} {'total':>6}  frame",
    ]
    for entry in payload["top"][:limit]:
        rows.append(
            f"  {entry['self_pct']:>5.1f}% {entry['self_samples']:>6}"
            f" {entry['total_samples']:>6}  {entry['frame']}"
        )
    return "\n".join(rows)


def collect_profile(
    seconds: float,
    *,
    interval: float = DEFAULT_INTERVAL_SECONDS,
    top: int = 25,
) -> Dict[str, Any]:
    """Sample this process for ``seconds`` and return the profile payload.

    The body of ``GET /debug/profile?seconds=N``.  Raises
    :class:`ProfileBusyError` when another run is already sampling and
    ``ValueError`` on an out-of-range duration.
    """
    seconds = float(seconds)
    if not 0.0 <= seconds <= MAX_PROFILE_SECONDS:
        raise ValueError(
            f"profile duration must be in [0, {MAX_PROFILE_SECONDS}] seconds, "
            f"got {seconds}"
        )
    with acquire_profile_slot():
        profiler = SamplingProfiler(interval=interval)
        if seconds > 0:
            profiler.start()
            time.sleep(seconds)
            profiler.stop()
        return profiler.payload(top=top)


@contextmanager
def profile_to_file(path: Optional[str], *, interval: float = DEFAULT_INTERVAL_SECONDS,
                    top: int = 25) -> Iterator[Optional[SamplingProfiler]]:
    """Run the with-body under a profiler and write the profile to ``path``.

    The body of ``--profile-out``: a ``*.json`` path gets the full JSON
    payload, anything else folded-stack text.  ``path=None`` is a no-op
    so call sites need no conditional.
    """
    if not path:
        yield None
        return
    import json

    with acquire_profile_slot():
        profiler = SamplingProfiler(interval=interval)
        profiler.start()
        try:
            yield profiler
        finally:
            profiler.stop()
        payload = profiler.payload(top=top)
        with open(path, "w", encoding="utf-8") as handle:
            if path.endswith(".json"):
                json.dump(payload, handle, indent=2)
                handle.write("\n")
            else:
                handle.write(render_folded(payload))
    print(render_top(payload), file=sys.stderr)
    print(f"profile written to {path} ({payload['stack_samples']} stack samples)",
          file=sys.stderr)
