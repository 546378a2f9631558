"""Versioned on-disk artifacts for tip decompositions.

An artifact is a directory::

    my-index.tipidx/
      manifest.json   # versioned metadata + fingerprints (human-readable)
      arrays.npz      # uncompressed npz: tip numbers, θ-sorted order,
                      # level CSR, per-vertex butterflies, dual graph CSR

Design points:

* **Atomic save.**  The directory is assembled under a temporary name in
  the destination's parent and moved into place with ``os.replace``, so a
  crash mid-save can never leave a half-written artifact at the target
  path and readers only ever see complete directories.  An *overwrite*
  swap needs two renames (POSIX cannot exchange non-empty directories),
  leaving a microsecond window with no directory at the path; a failed
  promotion restores the old artifact, and the serving cache retries
  reads across the window (:mod:`repro.service.cache`).
* **mmap-backed load.**  ``arrays.npz`` is written *uncompressed*
  (``np.savez``), which makes it a plain zip of ``.npy`` members stored
  contiguously; the loader resolves each member's absolute data offset and
  maps it with ``np.memmap`` — loading a multi-GB index touches no array
  bytes until a query does.  Anything unexpected (compressed members,
  exotic dtypes) falls back to an eager ``np.load`` copy.
* **Fingerprints.**  The manifest records a SHA-256 fingerprint of the
  source graph's CSR structure and is itself fingerprinted (digest over the
  canonical manifest JSON).  The artifact fingerprint keys the serving
  cache; the graph fingerprint lets callers detect stale indexes
  (:class:`~repro.errors.ArtifactMismatchError`).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
import tempfile
import time
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ArtifactError, ArtifactMismatchError
from ..graph.bipartite import BipartiteGraph
from ..peeling.base import TipDecompositionResult
from .index import TipIndex

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "MANIFEST_FILENAME",
    "ARRAYS_FILENAME",
    "ArtifactManifest",
    "TipArtifact",
    "graph_fingerprint",
    "save_artifact",
    "load_artifact",
    "manifest_stamp",
    "read_manifest",
]

ARTIFACT_FORMAT_VERSION = 1
MANIFEST_FILENAME = "manifest.json"
ARRAYS_FILENAME = "arrays.npz"

#: Arrays every version-1 artifact must carry.
REQUIRED_ARRAYS = (
    "tip_numbers",
    "initial_butterflies",
    "order",
    "level_values",
    "level_offsets",
    "u_offsets",
    "u_neighbors",
    "v_offsets",
    "v_neighbors",
)


def graph_fingerprint(graph: BipartiteGraph) -> str:
    """SHA-256 digest of a graph's structure (sizes + dual CSR bytes).

    Two graphs fingerprint equal iff they have identical vertex-set sizes
    and identical sorted adjacency — the exact precondition for an index
    built on one to be valid for the other.
    """
    digest = hashlib.sha256()
    digest.update(struct.pack("<qqq", graph.n_u, graph.n_v, graph.n_edges))
    arrays = graph.csr_arrays()
    for key in ("u_offsets", "u_neighbors", "v_offsets", "v_neighbors"):
        digest.update(np.ascontiguousarray(arrays[key], dtype=np.int64).tobytes())
    return digest.hexdigest()


def _manifest_digest(payload: dict) -> str:
    """Digest over the canonical JSON of a manifest dict (sans fingerprint)."""
    content = {key: value for key, value in payload.items() if key != "fingerprint"}
    canonical = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class ArtifactManifest:
    """Parsed ``manifest.json`` of one artifact."""

    format_version: int
    kind: str
    created_unix: float
    graph: dict
    decomposition: dict
    counters: dict
    phase_counters: dict = field(default_factory=dict)
    arrays: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    streaming: dict = field(default_factory=dict)
    fingerprint: str = ""

    def as_dict(self) -> dict:
        """Manifest as the JSON-serialisable dict written to disk."""
        return {
            "format_version": self.format_version,
            "kind": self.kind,
            "created_unix": self.created_unix,
            "graph": self.graph,
            "decomposition": self.decomposition,
            "counters": self.counters,
            "phase_counters": self.phase_counters,
            "arrays": self.arrays,
            "summary": self.summary,
            "streaming": self.streaming,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, payload: dict, *, source: str = "") -> "ArtifactManifest":
        """Parse and validate a manifest dict read from ``manifest.json``."""
        try:
            manifest = cls(
                format_version=int(payload["format_version"]),
                kind=str(payload["kind"]),
                created_unix=float(payload["created_unix"]),
                graph=dict(payload["graph"]),
                decomposition=dict(payload["decomposition"]),
                counters=dict(payload["counters"]),
                phase_counters=dict(payload.get("phase_counters", {})),
                arrays=dict(payload.get("arrays", {})),
                summary=dict(payload.get("summary", {})),
                streaming=dict(payload.get("streaming", {})),
                fingerprint=str(payload.get("fingerprint", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(f"malformed artifact manifest {source or ''}: {exc}") from exc
        if manifest.format_version > ARTIFACT_FORMAT_VERSION:
            raise ArtifactError(
                f"artifact {source or ''} has format version {manifest.format_version}, "
                f"this library supports <= {ARTIFACT_FORMAT_VERSION}"
            )
        if manifest.kind != "tip-index":
            raise ArtifactError(
                f"artifact {source or ''} has kind {manifest.kind!r}, expected 'tip-index'"
            )
        return manifest

    @property
    def name(self) -> str:
        """Display name: graph name + decomposed side."""
        graph_name = str(self.graph.get("name") or "graph")
        return f"{graph_name}.{self.decomposition.get('side', '?')}"


@dataclass
class TipArtifact:
    """A loaded artifact: manifest plus (possibly mmap-backed) arrays."""

    path: Path
    manifest: ArtifactManifest
    arrays: dict[str, np.ndarray]
    mmapped: bool = False


# ----------------------------------------------------------------------
# Saving
# ----------------------------------------------------------------------
def save_artifact(
    path: str | Path,
    graph: BipartiteGraph,
    result: TipDecompositionResult,
    *,
    config: dict | None = None,
    overwrite: bool = False,
    streaming: dict | None = None,
    center_butterflies: np.ndarray | None = None,
    index: TipIndex | None = None,
) -> ArtifactManifest:
    """Persist a decomposition (plus its graph CSR) as an artifact directory.

    Parameters
    ----------
    path:
        Destination directory (conventionally ``*.tipidx``).
    graph:
        The graph the decomposition was computed on; its dual CSR is stored
        so community queries need no other input, and its fingerprint is
        recorded for staleness checks.
    result:
        The decomposition to persist.
    config:
        Extra decomposition configuration to record in the manifest
        (execution backend, partition count ...).  Merged over what can be
        inferred from ``result.extra["config"]``.
    overwrite:
        Replace an existing artifact at ``path``.  Without it, an existing
        path raises :class:`~repro.errors.ArtifactError`.
    streaming:
        Staleness bookkeeping recorded when the artifact is refreshed by
        the streaming update engine (update/edge counters, last-update
        timestamp, the fingerprint the update stream started from).
    center_butterflies:
        Optional per-vertex butterfly counts of the *non*-decomposed side.
        When stored, streaming updates maintain them incrementally and a
        damage fallback can skip its global re-count phase.
    index:
        A :class:`~repro.service.index.TipIndex` over ``result``'s tip
        numbers whose θ order and level CSR are written as they are (the
        ``/update`` path hands over the repaired index, so a clean update
        sorts nothing).  Derived with
        :meth:`~repro.service.index.TipIndex.from_result` when omitted.
    """
    path = Path(path)
    if result.tip_numbers.shape[0] != graph.side_size(result.side):
        raise ArtifactError(
            f"result has {result.tip_numbers.shape[0]} tip numbers but side "
            f"{result.side!r} of the graph has {graph.side_size(result.side)} vertices"
        )
    if path.exists() and not overwrite:
        raise ArtifactError(
            f"artifact path {path} already exists; pass overwrite=True to replace it"
        )

    if index is None:
        index = TipIndex.from_result(result)
    level_values = index.level_values
    csr = graph.csr_arrays()
    arrays: dict[str, np.ndarray] = {
        key: np.ascontiguousarray(value, dtype=np.int64) for key, value in (
            ("tip_numbers", result.tip_numbers),
            ("initial_butterflies", result.initial_butterflies),
            ("order", index.order),
            ("level_values", level_values),
            ("level_offsets", index.level_offsets),
            *csr.items(),
        )
    }
    if center_butterflies is not None:
        arrays["center_butterflies"] = np.ascontiguousarray(center_butterflies, dtype=np.int64)

    decomposition = {
        "algorithm": result.algorithm,
        "side": result.side,
    }
    embedded_config = result.extra.get("config") if isinstance(result.extra, dict) else None
    if embedded_config is not None and hasattr(embedded_config, "__dataclass_fields__"):
        for key in ("backend", "n_partitions", "n_threads"):
            if hasattr(embedded_config, key):
                decomposition[key] = getattr(embedded_config, key)
    if config:
        # None means "caller didn't specify" — never clobber a value
        # resolved from the result's embedded config with it.
        decomposition.update(
            {key: value for key, value in config.items() if value is not None}
        )

    payload = {
        "format_version": ARTIFACT_FORMAT_VERSION,
        "kind": "tip-index",
        "created_unix": time.time(),
        "graph": {
            "name": graph.name,
            "n_u": graph.n_u,
            "n_v": graph.n_v,
            "n_edges": graph.n_edges,
            "fingerprint": graph_fingerprint(graph),
        },
        "decomposition": decomposition,
        "counters": result.counters.as_dict(),
        "phase_counters": {
            phase: counters.as_dict() for phase, counters in result.phase_counters.items()
        },
        "arrays": {
            key: {"dtype": str(value.dtype), "shape": list(value.shape)}
            for key, value in arrays.items()
        },
        # Pre-computed so /stats can answer without loading the arrays.
        "summary": {
            "n_vertices": int(arrays["tip_numbers"].shape[0]),
            "max_tip_number": int(level_values[-1]) if level_values.size else 0,
            "n_levels": int(level_values.shape[0]),
        },
        "streaming": dict(streaming or {}),
    }
    payload["fingerprint"] = _manifest_digest(payload)

    path.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(dir=path.parent, prefix=f".{path.name}.tmp-"))
    # mkdtemp creates 0o700 directories; honour the umask instead so the
    # promoted artifact is readable by whoever will serve it.
    umask = os.umask(0)
    os.umask(umask)
    os.chmod(staging, 0o777 & ~umask)
    try:
        # np.savez (no compression) keeps members mmap-able on load.
        np.savez(staging / ARRAYS_FILENAME, **arrays)
        manifest_text = json.dumps(payload, indent=2, sort_keys=True)
        (staging / MANIFEST_FILENAME).write_text(manifest_text, encoding="utf-8")
        if path.exists():
            # Swap: move the old artifact aside, promote the new one, then
            # drop the old.  Readers race against complete directories only.
            graveyard = Path(tempfile.mkdtemp(dir=path.parent, prefix=f".{path.name}.old-"))
            displaced = graveyard / "artifact"
            os.replace(path, displaced)
            try:
                os.replace(staging, path)
            except BaseException:
                # Promotion failed: put the old artifact back so the target
                # path never ends up empty.
                os.replace(displaced, path)
                raise
            finally:
                shutil.rmtree(graveyard, ignore_errors=True)
        else:
            os.replace(staging, path)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return ArtifactManifest.from_dict(payload, source=str(path))


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def manifest_stamp(status: os.stat_result) -> tuple[int, int, int, int, int]:
    """Device, inode, size, mtime and ctime of a manifest file.

    ``save_artifact`` writes every version's manifest as a new file while
    the live one still exists, so two versions on one device never share an
    inode, and the ctime moves on a copy that keeps the old mtime.
    """
    return (status.st_dev, status.st_ino, status.st_size,
            status.st_mtime_ns, status.st_ctime_ns)


def read_manifest(path: str | Path) -> ArtifactManifest:
    """Read and validate only the manifest of an artifact (cheap)."""
    return _read_manifest_stamped(path)[1]


def _read_manifest_stamped(path: str | Path) -> tuple[tuple, ArtifactManifest]:
    """The manifest with its :func:`manifest_stamp`, taken with ``os.fstat``
    on the descriptor the content is read from, so both describe the same
    version of the file."""
    path = Path(path)
    manifest_path = path / MANIFEST_FILENAME
    try:
        with open(manifest_path, "rb") as handle:
            stamp = manifest_stamp(os.fstat(handle.fileno()))
            payload = json.loads(handle.read().decode("utf-8"))
    except FileNotFoundError as exc:
        raise ArtifactError(f"no artifact at {path} (missing {MANIFEST_FILENAME})") from exc
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"cannot read artifact manifest {manifest_path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ArtifactError(f"artifact manifest {manifest_path} is not a JSON object")
    return stamp, ArtifactManifest.from_dict(payload, source=str(path))


def _npz_member_offsets(path: Path) -> dict[str, tuple[int, tuple, np.dtype, bool]]:
    """Absolute data offset, shape, dtype and order of every npz member.

    An uncompressed npz is a zip of ``.npy`` files.  For each member the
    zip central directory gives the local-header offset; the local header
    (30 fixed bytes + filename + extra field, whose lengths live at bytes
    26..30) gives the ``.npy`` start, and the parsed npy header gives the
    payload start — the offset ``np.memmap`` needs.
    """
    members: dict[str, tuple[int, tuple, np.dtype, bool]] = {}
    with zipfile.ZipFile(path) as archive, open(path, "rb") as raw:
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise ArtifactError(f"npz member {info.filename} is compressed")
            with archive.open(info) as member:
                version = np.lib.format.read_magic(member)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(member)
                elif version == (2, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(member)
                else:
                    raise ArtifactError(f"unsupported npy version {version}")
                npy_header_size = member.tell()
            if dtype.hasobject:
                raise ArtifactError(f"npz member {info.filename} holds objects")
            # Local-header filename/extra lengths can differ from the
            # central directory's; read them from the local header itself.
            raw.seek(info.header_offset + 26)
            name_length, extra_length = struct.unpack("<HH", raw.read(4))
            data_offset = info.header_offset + 30 + name_length + extra_length + npy_header_size
            key = info.filename[:-4] if info.filename.endswith(".npy") else info.filename
            members[key] = (data_offset, shape, dtype, fortran)
    return members


def _load_arrays_mmap(path: Path) -> dict[str, np.ndarray]:
    """Map every member of an uncompressed npz without copying."""
    arrays: dict[str, np.ndarray] = {}
    for key, (offset, shape, dtype, fortran) in _npz_member_offsets(path).items():
        if int(np.prod(shape)) == 0:
            arrays[key] = np.zeros(shape, dtype=dtype)
            continue
        arrays[key] = np.memmap(
            path, dtype=dtype, mode="r", offset=offset, shape=shape,
            order="F" if fortran else "C",
        )
    return arrays


def _load_arrays_eager(path: Path) -> dict[str, np.ndarray]:
    with np.load(path) as payload:
        return {key: payload[key].copy() for key in payload.files}


def load_artifact(
    path: str | Path,
    *,
    mmap: bool = True,
    expected_graph: BipartiteGraph | None = None,
    expected_fingerprint: str | None = None,
) -> TipArtifact:
    """Load an artifact: validated manifest plus its arrays.

    Parameters
    ----------
    mmap:
        Map arrays directly from ``arrays.npz`` (zero-copy, lazy paging)
        instead of reading them into memory.  Falls back to an eager load
        if the file layout defeats mapping.
    expected_graph:
        When given, the artifact's recorded graph fingerprint must match
        this graph's (:class:`~repro.errors.ArtifactMismatchError`
        otherwise) — the guard against serving a stale index after the
        graph changed.
    expected_fingerprint:
        When given, the manifest fingerprint must match exactly.

    Every load checks the arrays' shapes against the manifest, then reads
    ``order``, ``tip_numbers`` and the level arrays once to check the θ
    order (a permutation, ids ascending within each level) against the
    level CSR (strictly rising, 0 to n); a corrupt artifact raises
    :class:`~repro.errors.ArtifactError` and is never served.  The other
    arrays stay unread until a query pages them in.
    """
    path = Path(path)
    manifest = read_manifest(path)

    if expected_fingerprint is not None and manifest.fingerprint != expected_fingerprint:
        raise ArtifactMismatchError(
            f"artifact {path} has fingerprint {manifest.fingerprint[:12]}..., "
            f"expected {expected_fingerprint[:12]}..."
        )
    if expected_graph is not None:
        expected = graph_fingerprint(expected_graph)
        recorded = str(manifest.graph.get("fingerprint", ""))
        if recorded != expected:
            raise ArtifactMismatchError(
                f"artifact {path} was built for a different graph: recorded "
                f"graph fingerprint {recorded[:12]}... != expected {expected[:12]}... "
                "(rebuild the index with `repro build-index`)"
            )

    arrays_path = path / ARRAYS_FILENAME
    if not arrays_path.is_file():
        raise ArtifactError(f"artifact {path} is missing {ARRAYS_FILENAME}")
    mmapped = False
    if mmap:
        try:
            arrays = _load_arrays_mmap(arrays_path)
            mmapped = True
        except (ArtifactError, OSError, ValueError, zipfile.BadZipFile):
            arrays = None  # fall through to the eager path
    else:
        arrays = None
    if arrays is None:
        try:
            arrays = _load_arrays_eager(arrays_path)
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise ArtifactError(f"cannot read arrays from {arrays_path}: {exc}") from exc

    missing = [key for key in REQUIRED_ARRAYS if key not in arrays]
    if missing:
        raise ArtifactError(f"artifact {path} is missing arrays: {', '.join(missing)}")
    declared = manifest.arrays
    for key in REQUIRED_ARRAYS:
        meta = declared.get(key)
        if meta is not None and list(arrays[key].shape) != list(meta.get("shape", [])):
            raise ArtifactError(
                f"artifact {path} array {key!r} has shape {list(arrays[key].shape)} "
                f"but the manifest declares {meta.get('shape')}"
            )
    problem = _theta_order_problem(
        arrays["tip_numbers"], arrays["order"], arrays["level_values"], arrays["level_offsets"]
    )
    if problem:
        raise ArtifactError(f"artifact {path} has a corrupt θ order: {problem}")
    return TipArtifact(path=path, manifest=manifest, arrays=arrays, mmapped=mmapped)


def _theta_order_problem(tip_numbers, order, level_values, level_offsets) -> str:
    """What is wrong with an artifact's θ order and level CSR ("" when nothing).

    O(n) structural checks run on every load: an update that changes no θ
    re-saves the loaded order as it is, so a corrupt one must not get past
    the load that first reads it.
    """
    n = tip_numbers.shape[0]
    if order.shape != (n,) or level_offsets.shape != (level_values.shape[0] + 1,):
        return "array lengths disagree"
    order = np.asarray(order, dtype=np.int64)
    if n and (order.min() < 0 or order.max() >= n):
        return "order holds ids out of range"
    hit = np.zeros(n, dtype=bool)
    hit[order] = True
    if not hit.all():
        return "order is not a permutation"
    sizes = np.diff(level_offsets)
    if level_offsets[0] != 0 or level_offsets[-1] != n or np.any(sizes <= 0):
        return f"level offsets do not rise strictly from 0 to {n}"
    if np.any(np.diff(level_values) <= 0):
        return "level values do not rise strictly"
    sorted_tips = np.asarray(tip_numbers, dtype=np.int64)[order]
    if not np.array_equal(sorted_tips, np.repeat(level_values, sizes)):
        return "tip numbers in order disagree with the level CSR"
    tied = sorted_tips[1:] == sorted_tips[:-1]
    if np.any(order[1:][tied] <= order[:-1][tied]):
        return "ids do not ascend within a level"
    return ""
