"""Counters, gauges and fixed-bucket histograms with Prometheus text output.

The increment path is lock-free: each metric child keeps one shard per
thread (registered once under a lock, then owned exclusively by that
thread), and a scrape merges the shards.  Under the GIL a reader may
observe a shard mid-update and miss the very latest increment, which is
acceptable for monitoring; it never sees torn or decreasing totals for
counters because each shard only ever grows.

Naming convention (documented in ARCHITECTURE.md):
``repro_<subsystem>_<name>_<unit>`` -- e.g. ``repro_http_request_seconds``,
``repro_coalesce_batch_size``, ``repro_cache_hits_total``.
"""

from __future__ import annotations

import logging
import math
import re
import threading
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_SECONDS",
    "MetricRegistry",
    "escape_help",
    "escape_label_value",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

# Request latency in seconds, spanning sub-millisecond cache hits up to
# multi-second cold re-peels.
LATENCY_BUCKETS_SECONDS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

# Power-of-two buckets for batch sizes / queue depths.
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def escape_help(text: str) -> str:
    """Escape a HELP string per the Prometheus text exposition format."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_le(edge: float) -> str:
    return "+Inf" if edge == math.inf else _format_value(float(edge))


def _render_labels(labels: Sequence[Tuple[str, str]]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{escape_label_value(str(value))}"' for key, value in labels
    )
    return "{" + body + "}"


class _CounterChild:
    """One labelled counter series; per-thread cells merged on read."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cells: List[List[float]] = []
        self._local = threading.local()

    def _cell(self) -> List[float]:
        try:
            return self._local.cell
        except AttributeError:
            cell = [0.0]
            with self._lock:
                self._cells.append(cell)
            self._local.cell = cell
            return cell

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self._cell()[0] += amount

    def value(self) -> float:
        with self._lock:
            return float(sum(cell[0] for cell in self._cells))


class _GaugeChild:
    """One labelled gauge series (plain last-write-wins float)."""

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    def value(self) -> float:
        return self._value


class _HistogramShard:
    __slots__ = ("counts", "total", "n")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets
        self.total = 0.0
        self.n = 0


class _HistogramChild:
    """One labelled histogram series with fixed bucket upper bounds."""

    def __init__(self, edges: Tuple[float, ...]) -> None:
        self._edges = edges  # finite, ascending; +Inf bucket is implicit
        self._lock = threading.Lock()
        self._shards: List[_HistogramShard] = []
        self._local = threading.local()

    def _shard(self) -> _HistogramShard:
        try:
            return self._local.shard
        except AttributeError:
            shard = _HistogramShard(len(self._edges) + 1)
            with self._lock:
                self._shards.append(shard)
            self._local.shard = shard
            return shard

    def observe(self, value: float) -> None:
        shard = self._shard()
        # ``le`` semantics: bucket i counts observations <= edges[i];
        # bisect_left returns the first edge >= value.
        shard.counts[bisect_left(self._edges, value)] += 1
        shard.total += value
        shard.n += 1

    def snapshot(self) -> Tuple[List[int], float, int]:
        with self._lock:
            shards = list(self._shards)
        counts = [0] * (len(self._edges) + 1)
        total = 0.0
        n = 0
        for shard in shards:
            for i, c in enumerate(shard.counts):
                counts[i] += c
            total += shard.total
            n += shard.n
        return counts, total, n

    @property
    def count(self) -> int:
        return self.snapshot()[2]

    @property
    def sum(self) -> float:
        return self.snapshot()[1]

    def quantile_bounds(self, q: float) -> Tuple[float, float]:
        """(lo, hi) bracketing the empirical q-quantile of observations.

        The bracket is exact for the type-1 (inverted CDF) empirical
        quantile ``sorted(values)[ceil(q*n) - 1]``: that order statistic
        lies strictly above ``lo`` (the previous bucket edge, ``-inf``
        for the first bucket) and at or below ``hi`` (the containing
        bucket's edge, ``+inf`` for the overflow bucket).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        counts, _total, n = self.snapshot()
        if n == 0:
            return (math.nan, math.nan)
        target = min(n, max(1, math.ceil(q * n)))
        cum = 0
        for i, c in enumerate(counts):
            cum += c
            if cum >= target:
                lo = self._edges[i - 1] if i > 0 else -math.inf
                hi = self._edges[i] if i < len(self._edges) else math.inf
                return (lo, hi)
        return (self._edges[-1], math.inf)  # unreachable; defensive

    def quantile(self, q: float) -> float:
        """Conservative quantile estimate: the containing bucket's upper edge."""
        return self.quantile_bounds(q)[1]

    def count_le(self, bound: float) -> Tuple[int, int]:
        """``(observations <= bound, total observations)`` from the buckets.

        Exact when ``bound`` is a bucket edge; otherwise conservative
        (counts only buckets whose edge is <= ``bound``, an undercount).
        SLO evaluation picks thresholds on bucket edges for this reason.
        """
        counts, _total, n = self.snapshot()
        k = bisect_right(self._edges, bound)
        return sum(counts[:k]), n


_CHILD_FACTORIES = {
    "counter": _CounterChild,
    "gauge": _GaugeChild,
}


class _MetricFamily:
    """A named metric with zero or more labelled children."""

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Tuple[str, ...],
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name: {label!r}")
        self.name = name
        self.help_text = help_text
        self.kind = kind
        self.labelnames = labelnames
        self.buckets = buckets
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}
        if not labelnames:
            self._default = self._make_child()
            self._children[()] = self._default
        else:
            self._default = None

    def _make_child(self) -> Any:
        if self.kind == "histogram":
            assert self.buckets is not None
            return _HistogramChild(self.buckets)
        return _CHILD_FACTORIES[self.kind]()

    def labels(self, *values: Any, **kwargs: Any) -> Any:
        if kwargs:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            values = tuple(kwargs[name] for name in self.labelnames)
        key = tuple(str(value) for value in values)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {key}"
            )
        try:
            return self._children[key]
        except KeyError:
            with self._lock:
                return self._children.setdefault(key, self._make_child())

    def _require_default(self) -> Any:
        if self._default is None:
            raise ValueError(f"{self.name} has labels {self.labelnames}; use .labels()")
        return self._default

    # Unlabelled convenience -- proxy to the default child.
    def inc(self, amount: float = 1.0) -> None:
        self._require_default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._require_default().dec(amount)

    def set(self, value: float) -> None:
        self._require_default().set(value)

    def observe(self, value: float) -> None:
        self._require_default().observe(value)

    def value(self) -> float:
        return self._require_default().value()

    def quantile(self, q: float) -> float:
        return self._require_default().quantile(q)

    def quantile_bounds(self, q: float) -> Tuple[float, float]:
        return self._require_default().quantile_bounds(q)

    @property
    def count(self) -> int:
        return self._require_default().count

    @property
    def sum(self) -> float:
        return self._require_default().sum

    def children(self) -> Iterable[Tuple[Dict[str, str], Any]]:
        """Snapshot of ``(label_dict, child)`` pairs across the family.

        The public aggregation surface: SLO evaluation sums latency and
        status counts across every labelled series without reaching into
        family internals.
        """
        with self._lock:
            items = sorted(self._children.items())
        for key, child in items:
            yield dict(zip(self.labelnames, key)), child

    # -- exposition ----------------------------------------------------

    def samples(self) -> Iterable[Tuple[str, List[Tuple[str, str]], float]]:
        with self._lock:
            children = sorted(self._children.items())
        for key, child in children:
            base = list(zip(self.labelnames, key))
            if self.kind == "histogram":
                counts, total, n = child.snapshot()
                cum = 0
                edges = list(child._edges) + [math.inf]
                for edge, c in zip(edges, counts):
                    cum += c
                    yield "_bucket", base + [("le", _format_le(edge))], float(cum)
                yield "_sum", base, total
                yield "_count", base, float(n)
            else:
                yield "", base, child.value()


class Counter(_MetricFamily):
    def __init__(self, name: str, help_text: str, labelnames: Tuple[str, ...] = ()):
        super().__init__(name, help_text, "counter", labelnames)


class Gauge(_MetricFamily):
    def __init__(self, name: str, help_text: str, labelnames: Tuple[str, ...] = ()):
        super().__init__(name, help_text, "gauge", labelnames)


class Histogram(_MetricFamily):
    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Tuple[str, ...] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS_SECONDS,
    ):
        edges = tuple(float(edge) for edge in buckets)
        if not edges or list(edges) != sorted(set(edges)):
            raise ValueError("histogram buckets must be non-empty, ascending, unique")
        if edges and edges[-1] == math.inf:
            edges = edges[:-1]  # +Inf bucket is implicit
        super().__init__(name, help_text, "histogram", labelnames, buckets=edges)


class MetricRegistry:
    """Get-or-create metric store rendering the Prometheus text format."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _MetricFamily] = {}
        self._callbacks: List[Callable[[], None]] = []

    def _get_or_create(self, cls: type, name: str, help_text: str, **kwargs: Any) -> Any:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            family = cls(name, help_text, **kwargs)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(
            Counter, name, help_text, labelnames=tuple(labelnames)
        )

    def gauge(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames=tuple(labelnames))

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS_SECONDS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, labelnames=tuple(labelnames), buckets=buckets
        )

    def register_callback(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` at every scrape, before rendering.

        Callbacks refresh scrape-time gauges (uptime, cache hit ratio,
        staleness) from their live sources.
        """
        with self._lock:
            self._callbacks.append(callback)

    def gauges_from(
        self,
        source: Callable[[], Mapping[str, Any]],
        rows: Sequence[Tuple[str, str, str]],
    ) -> None:
        """Mirror a stats dict as gauges, one per ``(key, family, help)`` row.

        Registers one scrape callback that calls ``source()`` once and sets
        each row's gauge to the value under its key.  A missing or ``None``
        key leaves that gauge at its last value; a source that raises
        leaves all of its gauges there, and no other source's.
        """
        gauges = [(key, self.gauge(name, help_text)) for key, name, help_text in rows]

        def refresh() -> None:
            values = source()
            for key, gauge in gauges:
                value = values.get(key)
                if value is not None:
                    gauge.set(value)

        self.register_callback(refresh)

    def render(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        with self._lock:
            callbacks = list(self._callbacks)
            families = list(self._families.values())
        for callback in callbacks:
            try:
                callback()
            except Exception:  # a broken collector must not take down /metrics
                logging.getLogger("repro.obs").warning(
                    "metrics collector callback failed", exc_info=True
                )
        lines: List[str] = []
        for family in families:
            lines.append(f"# HELP {family.name} {escape_help(family.help_text)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for suffix, labels, value in family.samples():
                lines.append(
                    f"{family.name}{suffix}{_render_labels(labels)} "
                    f"{_format_value(value)}"
                )
        return "\n".join(lines) + "\n"
