"""Artifact round-trip tests: persistence of decomposition results.

The acceptance contract of the serving layer is that an artifact is a
*lossless* record of the decomposition it was built from: tip numbers,
initial butterfly counts and every work counter must round-trip
bit-identically regardless of which execution backend produced them, and
with the per-vertex reference kernel rebound in place of the batched one.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.receipt import receipt_decomposition, tip_decomposition
from repro.engine import ThreadBackend
from repro.errors import ArtifactError, ArtifactMismatchError
from repro.graph.builders import from_edge_list
from repro.service.artifacts import (
    ARRAYS_FILENAME,
    ARTIFACT_FORMAT_VERSION,
    MANIFEST_FILENAME,
    TipArtifact,
    graph_fingerprint,
    load_artifact,
    read_manifest,
    save_artifact,
)
from repro.service.build import build_index_artifact
from repro.service.index import TipIndex


@pytest.fixture
def graph(blocks_graph):
    return blocks_graph


def _decompose(graph, *, backend="serial"):
    return tip_decomposition(
        graph, "U", algorithm="receipt",
        backend=backend, n_threads=2 if backend != "serial" else 1, n_partitions=4,
    )


class TestRoundTrip:
    # The reference kernel is rebound in this process only, so it runs on
    # the serial backend; backend equivalence is the batched kernel's.
    @pytest.mark.parametrize(("backend", "peel_kernel"), [
        ("process", "batched"), ("serial", "batched"), ("serial", "reference"),
    ])
    def test_bit_identical_across_kernels_and_backends(
        self, graph, tmp_path, peel_kernel, backend, peel_with
    ):
        with peel_with(peel_kernel):
            result = _decompose(graph, backend=backend)
        path = tmp_path / f"{peel_kernel}-{backend}.tipidx"
        save_artifact(path, graph, result)

        loaded = load_artifact(path)
        assert np.array_equal(loaded.arrays["tip_numbers"], result.tip_numbers)
        assert np.array_equal(loaded.arrays["initial_butterflies"],
                              result.initial_butterflies)
        decomposition = loaded.manifest.decomposition
        assert (decomposition["algorithm"], decomposition["side"]) == (
            result.algorithm, result.side)
        assert loaded.manifest.counters == result.counters.as_dict()
        # Per-phase counters survive too.
        assert loaded.manifest.phase_counters == {
            phase: counters.as_dict() for phase, counters in result.phase_counters.items()
        }

    def test_mmap_and_eager_loads_agree(self, graph, tmp_path):
        result = _decompose(graph)
        path = tmp_path / "idx.tipidx"
        save_artifact(path, graph, result)

        mapped = load_artifact(path, mmap=True)
        eager = load_artifact(path, mmap=False)
        assert mapped.mmapped and not eager.mmapped
        assert set(mapped.arrays) == set(eager.arrays)
        for key in mapped.arrays:
            assert np.array_equal(mapped.arrays[key], eager.arrays[key]), key
        # mmap really maps: the big arrays come back as np.memmap views.
        assert isinstance(mapped.arrays["tip_numbers"], np.memmap)

    def test_index_from_artifact_matches_fresh_index(self, graph, tmp_path):
        result = _decompose(graph)
        path = tmp_path / "idx.tipidx"
        save_artifact(path, graph, result)

        fresh = TipIndex.from_result(result, graph=graph)
        loaded = TipIndex.from_artifact(load_artifact(path))
        assert np.array_equal(fresh.order, loaded.order)
        assert np.array_equal(fresh.level_values, loaded.level_values)
        assert np.array_equal(fresh.level_offsets, loaded.level_offsets)
        assert fresh.histogram() == loaded.histogram()
        assert loaded.graph == graph

    def test_build_index_artifact_records_config(self, graph, tmp_path):
        path = tmp_path / "built.tipidx"
        manifest = build_index_artifact(
            graph, path, side="U", backend="serial", n_partitions=4,
        )
        assert manifest.decomposition["backend"] == "serial"
        assert manifest.decomposition["n_partitions"] == 4
        assert manifest.graph["fingerprint"] == graph_fingerprint(graph)
        # The on-disk manifest equals the returned one.
        assert read_manifest(path).as_dict() == manifest.as_dict()

    def test_caller_owned_engine_is_recorded(self, graph, tmp_path):
        # The manifest names the engine that ran, not the config's default
        # serial backend.
        with ThreadBackend(2) as engine:
            result = receipt_decomposition(graph, "U", n_partitions=4, engine=engine)
        path = tmp_path / "engine.tipidx"
        save_artifact(path, graph, result)
        decomposition = read_manifest(path).decomposition
        assert (decomposition["backend"], decomposition["n_threads"]) == ("thread", 2)

    def test_unspecified_partitions_keep_resolved_value(self, graph, tmp_path):
        # build_index_artifact(n_partitions=None) must not clobber the
        # partition count the decomposition actually resolved to.
        manifest = build_index_artifact(graph, tmp_path / "default.tipidx", side="U")
        assert manifest.decomposition["n_partitions"] is not None
        assert manifest.decomposition["n_partitions"] > 0

    def test_artifact_is_readable_with_default_umask(self, graph, tmp_path):
        result = _decompose(graph)
        path = tmp_path / "perm.tipidx"
        save_artifact(path, graph, result)
        mode = path.stat().st_mode & 0o777
        # mkdtemp alone would leave 0o700; the save must honour the umask
        # so another account can serve the artifact.
        import os
        umask = os.umask(0)
        os.umask(umask)
        assert mode == (0o777 & ~umask)


class TestValidation:
    def test_existing_path_requires_overwrite(self, graph, tmp_path):
        result = _decompose(graph)
        path = tmp_path / "idx.tipidx"
        save_artifact(path, graph, result)
        with pytest.raises(ArtifactError, match="already exists"):
            save_artifact(path, graph, result)
        save_artifact(path, graph, result, overwrite=True)  # replaces atomically
        assert load_artifact(path).manifest.graph["n_u"] == graph.n_u

    def test_result_graph_size_mismatch_rejected(self, graph, tmp_path):
        result = _decompose(graph)
        other = from_edge_list([(0, 0), (1, 1)], n_u=2, n_v=2)
        with pytest.raises(ArtifactError, match="tip numbers"):
            save_artifact(tmp_path / "bad.tipidx", other, result)

    def test_graph_fingerprint_mismatch_raises(self, graph, tmp_path):
        result = _decompose(graph)
        path = tmp_path / "idx.tipidx"
        save_artifact(path, graph, result)
        other = from_edge_list([(0, 0), (0, 1), (1, 0)], n_u=2, n_v=2)
        with pytest.raises(ArtifactMismatchError, match="different graph"):
            load_artifact(path, expected_graph=other)
        # The graph it was built for loads fine.
        load_artifact(path, expected_graph=graph)

    def test_manifest_fingerprint_mismatch_raises(self, graph, tmp_path):
        result = _decompose(graph)
        path = tmp_path / "idx.tipidx"
        save_artifact(path, graph, result)
        with pytest.raises(ArtifactMismatchError, match="fingerprint"):
            load_artifact(path, expected_fingerprint="0" * 64)

    def test_missing_artifact_raises_clear_error(self, tmp_path):
        with pytest.raises(ArtifactError, match="no artifact"):
            read_manifest(tmp_path / "nope.tipidx")

    def test_corrupt_manifest_raises(self, graph, tmp_path):
        result = _decompose(graph)
        path = tmp_path / "idx.tipidx"
        save_artifact(path, graph, result)
        (path / MANIFEST_FILENAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(ArtifactError, match="cannot read artifact manifest"):
            load_artifact(path)

    def test_future_format_version_rejected(self, graph, tmp_path):
        result = _decompose(graph)
        path = tmp_path / "idx.tipidx"
        save_artifact(path, graph, result)
        payload = json.loads((path / MANIFEST_FILENAME).read_text())
        payload["format_version"] = ARTIFACT_FORMAT_VERSION + 1
        (path / MANIFEST_FILENAME).write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ArtifactError, match="format version"):
            load_artifact(path)

    @pytest.mark.parametrize("mmap", [True, False])
    def test_swapped_order_entries_raise(self, graph, tmp_path, mmap):
        """A same-shape corruption of ``order`` is caught on load."""
        result = _decompose(graph)
        path = tmp_path / "idx.tipidx"
        save_artifact(path, graph, result)

        def swap_across_levels(arrays):
            order = arrays["order"]
            order[[0, -1]] = order[[-1, 0]]

        assert result.tip_numbers.min() < result.tip_numbers.max()
        _rewrite_arrays(path, swap_across_levels)
        with pytest.raises(ArtifactError, match="corrupt θ order"):
            load_artifact(path, mmap=mmap)

    @pytest.mark.parametrize("corrupt, problem", [
        (lambda arrays: arrays["order"].__setitem__(0, arrays["order"][1]), "permutation"),
        (lambda arrays: arrays["order"].__setitem__(0, -1), "out of range"),
        (lambda arrays: arrays["level_offsets"].__setitem__(1, 0), "level offsets"),
        (lambda arrays: arrays["level_values"].__setitem__(0, 10**6), "level values"),
        (lambda arrays: arrays["tip_numbers"].__setitem__(
            arrays["order"][0], arrays["level_values"][0] - 1), "disagree"),
        (lambda arrays: arrays["order"].__setitem__(
            [0, 1], arrays["order"][[1, 0]]), "ascend within a level"),
    ], ids=["duplicate-id", "negative-id", "empty-level", "falling-values",
            "theta-mismatch", "ties-descending"])
    def test_structural_checks_name_the_problem(self, graph, tmp_path, corrupt, problem):
        result = _decompose(graph)
        path = tmp_path / "idx.tipidx"
        save_artifact(path, graph, result)
        sizes = np.diff(load_artifact(path).arrays["level_offsets"])
        assert sizes[0] >= 2 and sizes.size >= 2
        _rewrite_arrays(path, corrupt)
        with pytest.raises(ArtifactError, match=problem):
            load_artifact(path)

    def test_no_stale_temp_dirs_after_save(self, graph, tmp_path):
        result = _decompose(graph)
        save_artifact(tmp_path / "a.tipidx", graph, result)
        save_artifact(tmp_path / "a.tipidx", graph, result, overwrite=True)
        leftovers = [p for p in tmp_path.iterdir() if p.name != "a.tipidx"]
        assert leftovers == []


def _rewrite_arrays(path, corrupt):
    """Rewrite ``arrays.npz`` after ``corrupt`` edited its arrays in place."""
    with np.load(path / ARRAYS_FILENAME) as payload:
        arrays = {key: payload[key].copy() for key in payload.files}
    shapes = {key: value.shape for key, value in arrays.items()}
    corrupt(arrays)
    assert {key: value.shape for key, value in arrays.items()} == shapes
    np.savez(path / ARRAYS_FILENAME, **arrays)


class TestEmptyGraph:
    def test_empty_side_round_trips(self, empty, tmp_path):
        result = tip_decomposition(empty, "U", algorithm="bup")
        path = tmp_path / "empty.tipidx"
        save_artifact(path, empty, result)
        artifact = load_artifact(path)
        index = TipIndex.from_artifact(artifact)
        assert index.n_vertices == empty.n_u
        assert index.max_tip_number == 0
        assert index.k_tip_members(1).size == 0

    def test_to_result_is_reconstructible(self, graph, tmp_path):
        """The saved result's tip numbers, summary and counters read back."""
        result = _decompose(graph)
        path = tmp_path / "idx.tipidx"
        save_artifact(path, graph, result)
        artifact = load_artifact(path)
        assert isinstance(artifact, TipArtifact)
        assert np.array_equal(artifact.arrays["tip_numbers"], result.tip_numbers)
        assert (artifact.manifest.summary["max_tip_number"]
                == result.summary()["max_tip_number"])
        assert artifact.manifest.counters == result.counters.as_dict()
