"""RECEIPT's results and work counters, pinned on two small committed graphs.

For every graph, variant (RECEIPT, RECEIPT-, RECEIPT--) and side, the test
compares a digest of θ, of CD's subsets, bounds and ⋈init and of its
iteration records, plus every pvBcnt, CD and FD counter except the
timing- and arena-dependent ``elapsed_seconds`` and ``peak_scratch_bytes``,
with ``data/pinned_counts.json``.  ParB's rounds, wedges, support updates
and peeled vertices are pinned too.  The graphs are the registry's ``tr`` and ``it`` stand-ins, committed
as gzip'd edge lists so the pin does not depend on NumPy's random streams.

A change that moves any of these on purpose regenerates the file (and
says why in CHANGES.md)::

    PYTHONPATH=src python tests/test_pinned_counts.py

Missing edge lists are first written from the registry.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.receipt import ReceiptConfig, receipt_decomposition
from repro.graph.io import read_edge_list
from repro.peeling.parbutterfly import parbutterfly_decomposition

DATA = Path(__file__).resolve().parent / "data"
PINNED = DATA / "pinned_counts.json"
#: Registry key -> scale of each pinned stand-in.
GRAPHS = {"tr": 0.2, "it": 0.1}
VARIANTS = ("receipt", "receipt-", "receipt--")
SIDES = ("U", "V")
UNPINNED = ("elapsed_seconds", "peak_scratch_bytes")


def edge_list_path(key: str) -> Path:
    return DATA / f"{key}_{GRAPHS[key]}.txt.gz"


def digest(*arrays) -> str:
    """SHA-256 over each array's length and little-endian int64 bytes."""
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array, dtype="<i8")
        sha.update(array.shape[0].to_bytes(8, "little"))
        sha.update(array.tobytes())
    return sha.hexdigest()


def receipt_summary(graph, variant: str, side: str) -> dict:
    result = receipt_decomposition(graph, side, config=ReceiptConfig.from_variant(variant))
    records = json.dumps(result.extra["iteration_records"], sort_keys=True)
    return {
        "theta": digest(result.tip_numbers),
        "subsets": digest(*result.extra["subsets"]),
        "bounds": digest(result.extra["bounds"]),
        "init_supports": digest(result.extra["init_supports"]),
        "iteration_records": hashlib.sha256(records.encode()).hexdigest(),
        "counters": {
            phase: {name: value for name, value in counters.as_dict().items()
                    if name not in UNPINNED}
            for phase, counters in sorted(result.phase_counters.items())
        },
    }


def parb_summary(graph, side: str) -> dict:
    counters = parbutterfly_decomposition(graph, side).counters
    return {"rounds": counters.synchronization_rounds, "wedges": counters.wedges_traversed,
            "support_updates": counters.support_updates,
            "vertices_peeled": counters.vertices_peeled}


def load_pinned() -> dict:
    return json.loads(PINNED.read_text())


def pinned_graph(key: str):
    sizes = load_pinned()["graphs"][key]
    return read_edge_list(edge_list_path(key), n_u=sizes["n_u"], n_v=sizes["n_v"], name=key)


@pytest.fixture(scope="module")
def graphs():
    return {key: pinned_graph(key) for key in GRAPHS}


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("key", sorted(GRAPHS))
def test_receipt_matches_pinned_counts(graphs, key, variant, side):
    expected = load_pinned()["receipt"][key][variant][side]
    assert receipt_summary(graphs[key], variant, side) == expected


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("key", sorted(GRAPHS))
def test_parb_matches_pinned_counts(graphs, key, side):
    assert parb_summary(graphs[key], side) == load_pinned()["parb"][key][side]


def regenerate() -> None:
    from repro.datasets.registry import load_dataset

    DATA.mkdir(exist_ok=True)
    pinned: dict = {"graphs": {}, "receipt": {}, "parb": {}}
    for key, scale in GRAPHS.items():
        path = edge_list_path(key)
        if path.exists() and PINNED.exists():
            sizes = tuple(load_pinned()["graphs"][key][name] for name in ("n_u", "n_v"))
        else:
            generated = load_dataset(key, scale=scale)
            with gzip.open(path, "wt", encoding="utf-8") as handle:
                handle.writelines(f"{u} {v}\n" for u, v in generated.edge_array().tolist())
            sizes = (generated.n_u, generated.n_v)
        graph = read_edge_list(path, n_u=sizes[0], n_v=sizes[1], name=key)
        pinned["graphs"][key] = {"scale": scale, "n_u": graph.n_u, "n_v": graph.n_v,
                                 "n_edges": graph.n_edges}
        pinned["receipt"][key] = {
            variant: {side: receipt_summary(graph, variant, side) for side in SIDES}
            for variant in VARIANTS
        }
        pinned["parb"][key] = {side: parb_summary(graph, side) for side in SIDES}
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED}")


if __name__ == "__main__":
    regenerate()
