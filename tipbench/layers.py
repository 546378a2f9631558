"""Per-layer measurement for the traced run.

The benchmark only calls into the program: it times the public functions
of each layer by rebinding them, for the duration of one probe, at the
modules that look them up (``repro.core.cd.recount_cost`` is the name CD
calls, so that is the one replaced).  It also records the program's own
``receipt``/``cd``/``fd``/``streaming.*`` spans and parses the server's
``/metrics`` histograms.
"""

from __future__ import annotations

import importlib
import math
import re
import time
from collections import Counter, defaultdict

#: (module, attribute, layer key) rebound during the traced decomposition.
DECOMPOSITION_SITES = (
    ("repro.core.cd", "find_range_upper_bound", "cd.range_search"),
    ("repro.core.cd", "recount_cost", "cd.huc_cost"),
    ("repro.core.cd", "recount_supports", "cd.recount"),
    ("repro.core.cd", "peel_batch", "cd.peel"),
    ("repro.peeling.bup", "peel_vertex", "fd.pop"),
    ("repro.kernels.csr", "gather_ranges", "kernels.gather"),
    ("repro.kernels.wedges", "gather_ranges", "kernels.gather"),
    ("repro.butterfly.counting", "gather_ranges", "kernels.gather"),
    ("repro.peeling.update", "count_pair_wedges", "kernels.pair_count"),
    ("repro.peeling.update", "apply_clamped_decrements", "kernels.decrement"),
    ("repro.peeling.update", "key_counts", "kernels.key_counts"),
    ("repro.kernels.peel", "key_counts", "kernels.key_counts"),
)

#: Sites rebound while requests and updates are replayed offline.
SERVICE_SITES = (
    ("repro.service.server", "TipService.index_for", "service.resolve"),
    ("repro.service.server", "save_artifact", "artifacts.save"),
    ("repro.service.index", "TipIndex.apply_delta", "streaming.apply"),
)


class Probe:
    """Call counts and inclusive seconds per layer key, over rebound sites."""

    def __init__(self, sites):
        self.sites = sites
        self.seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self.samples: dict = defaultdict(list)
        self._restore: list = []

    def _timed(self, original, key):
        seconds, calls, samples = self.seconds, self.calls, self.samples[key]

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                seconds[key] += elapsed
                calls[key] += 1
                samples.append(elapsed)

        return timed

    def __enter__(self) -> "Probe":
        for module_name, attribute, key in self.sites:
            owner = importlib.import_module(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[name]
            self._restore.append((owner, name, original))
            setattr(owner, name, self._timed(original, key))
        return self

    def __exit__(self, *exc) -> bool:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
        return False


def span_seconds(spans: list) -> Counter:
    """Total duration per span name."""
    totals: Counter = Counter()
    for span in spans:
        totals[span["name"]] += span["dur"]
    return totals


# ----------------------------------------------------------------------
# Server /metrics histograms
# ----------------------------------------------------------------------
_BUCKET = re.compile(
    r'^repro_http_request_seconds_bucket\{transport="async",route="([^"]*)",le="([^"]+)"\} (\S+)$')


def latency_buckets(metrics_text: str, routes) -> list:
    """Cumulative ``(upper bound, count)`` pairs summed over ``routes``."""
    totals: dict = defaultdict(float)
    for line in metrics_text.splitlines():
        match = _BUCKET.match(line)
        if match and match.group(1) in routes:
            totals[float(match.group(2))] += float(match.group(3))
    return sorted(totals.items())


def bucket_delta(after: list, before: list) -> list:
    earlier = dict(before)
    return [(bound, count - earlier.get(bound, 0.0)) for bound, count in after]


def bucket_sum(deltas: list) -> list:
    """Bucket counts added up over several :func:`bucket_delta` results."""
    totals: dict = defaultdict(float)
    for buckets in deltas:
        for bound, count in buckets:
            totals[bound] += count
    return sorted(totals.items())


def bucket_quantile(buckets: list, quantile: float) -> float:
    """Quantile interpolated within the cumulative buckets (in seconds)."""
    if not buckets or buckets[-1][1] <= 0:
        return 0.0
    rank = quantile * buckets[-1][1]
    lower_bound, lower_count = 0.0, 0.0
    for bound, count in buckets:
        if count >= rank:
            if math.isinf(bound):
                return lower_bound
            share = (rank - lower_count) / max(count - lower_count, 1e-12)
            return lower_bound + share * (bound - lower_bound)
        lower_bound, lower_count = bound, count
    return lower_bound
