"""Flat-CSR primitives: multi-row gathering, segment arithmetic, compaction.

A CSR adjacency is an ``(offsets, values)`` pair where row ``r`` occupies
``values[offsets[r]:offsets[r + 1]]``.  These helpers implement the handful
of array manipulations every wedge kernel needs without materialising
Python-level lists of row slices: gathering an arbitrary multiset of rows is
one fancy-indexed load, and compacting a CSR under a keep-mask is one
cumulative-sum pass.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gather_rows",
    "gather_ranges",
    "segment_offsets",
    "segment_ids",
    "segment_sums",
    "compact_csr",
    "int_bincount",
    "locate_csr_entries",
    "insert_csr_entries",
    "delete_csr_entries",
]


def gather_rows(
    offsets: np.ndarray, values: np.ndarray, rows: np.ndarray, *, workspace=None, name: str = "gather"
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``values[offsets[r]:offsets[r + 1]]`` for every ``r`` in ``rows``.

    Rows may repeat and appear in any order; the output preserves the given
    row order.  Returns ``(gathered, lengths)`` where ``lengths[i]`` is the
    size of the ``i``-th requested row, so callers can recover segment
    boundaries with :func:`segment_offsets`.  With a ``workspace`` the
    gathered array lives in the arena buffer ``name`` (valid until that
    name is taken again).
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = offsets[rows]
    lengths = (offsets[rows + 1] - starts).astype(np.int64)
    return gather_ranges(values, starts, lengths, workspace=workspace, name=name), lengths


def gather_ranges(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray, *, workspace=None, name: str = "gather"
) -> np.ndarray:
    """Concatenate ``values[starts[k]: starts[k] + lengths[k]]`` for every ``k``.

    The range form of :func:`gather_rows` for callers that already hold the
    per-row starts and lengths (chunked wedge gathers slice them once per
    batch, and counting trims rows to rank-filtered prefixes).  With a
    ``workspace`` the gathered output is checked out of the arena (buffer
    ``name``), the base index comes from the cached iota, and the transient
    source-index vector is folded into the peak accounting as
    ``name + "_src"``.
    """
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=values.dtype)
    # Output position i belongs to range k with out_starts[k] <= i; the
    # source index is starts[k] + (i - out_starts[k]), built without a
    # Python loop.
    if workspace is None:
        out_starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        source = np.arange(total, dtype=np.int64) + np.repeat(starts - out_starts, lengths)
        return values[source]
    out_starts = np.empty(lengths.shape[0], dtype=np.int64)
    out_starts[0] = 0
    np.cumsum(lengths[:-1], out=out_starts[1:])
    # The source index stays a plain np.repeat allocation: run-length
    # decoding it into an arena buffer costs a serially-dependent cumsum
    # that measures slower at every size.  Its footprint still counts
    # towards the arena's high-water mark so reported peaks stay honest.
    source = np.repeat(starts - out_starts, lengths)
    workspace.note_transient(name + "_src", source.nbytes)
    np.add(source, workspace.iota(total), out=source)
    out = workspace.take(name, total, values.dtype)
    # Indices are in-bounds by construction (built from the CSR offsets);
    # "clip" skips the bounds check, which is measurably faster.
    np.take(values, source, out=out, mode="clip")
    return out


def segment_offsets(lengths: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums of segment lengths (CSR-style offsets)."""
    offsets = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def segment_ids(lengths: np.ndarray) -> np.ndarray:
    """Segment index of every element of the concatenated segments."""
    return np.repeat(np.arange(lengths.shape[0], dtype=np.int64), lengths)


def segment_sums(values: np.ndarray, lengths: np.ndarray, *, workspace=None, name: str = "segsum") -> np.ndarray:
    """Per-segment sums of consecutive segments of the given lengths.

    Unlike ``np.add.reduceat`` this handles empty segments (their sum is 0)
    and an empty ``values`` array without special cases.  With a
    ``workspace`` the value-scale prefix array lives in the arena buffer
    ``name``; the returned per-segment array is always freshly allocated.
    """
    ends = np.cumsum(lengths)
    if workspace is None:
        prefix = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))
    else:
        prefix = workspace.take(name, values.shape[0] + 1, np.int64)
        prefix[0] = 0
        np.cumsum(values, out=prefix[1:])
    return prefix[ends] - prefix[ends - lengths]


def compact_csr(
    offsets: np.ndarray, values: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Drop the entries where ``keep`` is ``False``, preserving row structure.

    ``keep`` is a boolean mask over ``values``.  Returns new
    ``(offsets, values)`` arrays; the pass is linear in ``values.size`` and
    allocates no per-row intermediates (this is the DGM rebuild of Sec. 4.2).
    """
    kept_before = np.zeros(values.shape[0] + 1, dtype=np.int64)
    np.cumsum(keep, out=kept_before[1:])
    return kept_before[offsets], values[keep]


def locate_csr_entries(
    offsets: np.ndarray,
    values: np.ndarray,
    rows: np.ndarray,
    query_values: np.ndarray,
    value_bound: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Position of each ``(row, value)`` query in the flat CSR value array.

    Returns ``(positions, present)``: ``positions[i]`` is where the query
    would sit in ``values`` (the exact index when ``present[i]``, the
    insertion point otherwise).  Only the rows the queries touch are
    gathered: keyed ``local_row * value_bound + value`` they are globally
    sorted (every row's values ascend), so one ``searchsorted`` places
    every query and the cost follows the touched rows, not the whole CSR.
    Query values must lie in ``[0, value_bound)``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    query_values = np.asarray(query_values, dtype=np.int64)
    touched = np.unique(rows)
    gathered, lengths = gather_rows(offsets, values, touched)
    bound = np.int64(value_bound)
    local_rows = np.searchsorted(touched, rows)
    gathered_keys = segment_ids(lengths) * bound + gathered
    query_keys = local_rows * bound + query_values
    local = np.searchsorted(gathered_keys, query_keys)
    present = np.zeros(rows.shape[0], dtype=bool)
    inside = local < gathered_keys.shape[0]
    present[inside] = gathered_keys[local[inside]] == query_keys[inside]
    # ``local`` lands inside the query's own gathered row, so the offset
    # into that row carries over to the full CSR.
    positions = offsets[rows] + (local - segment_offsets(lengths)[local_rows])
    return positions, present


def insert_csr_entries(
    offsets: np.ndarray,
    values: np.ndarray,
    rows: np.ndarray,
    new_values: np.ndarray,
    value_bound: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Insert ``(row, value)`` entries into a CSR, keeping rows sorted.

    The streaming write path: :func:`locate_csr_entries` finds every
    insertion point inside the touched rows and one ``np.insert`` splices
    all new entries in a single pass — no per-row Python loop and no full
    rebuild/sort of the adjacency.  Entries must not already be present
    and must be unique within the batch (``ValueError`` otherwise).
    """
    rows = np.asarray(rows, dtype=np.int64)
    new_values = np.asarray(new_values, dtype=np.int64)
    if rows.size == 0:
        return offsets, values
    order = np.argsort(rows * np.int64(value_bound) + new_values, kind="stable")
    rows = rows[order]
    new_values = new_values[order]
    sorted_keys = rows * np.int64(value_bound) + new_values
    if np.any(sorted_keys[1:] == sorted_keys[:-1]):
        raise ValueError("duplicate (row, value) entries in the insert batch")
    positions, present = locate_csr_entries(offsets, values, rows, new_values, value_bound)
    if present.any():
        raise ValueError(f"{int(present.sum())} inserted entries already present in the CSR")
    merged = np.insert(values, positions, new_values)
    return _shift_offsets(offsets, rows, 1), merged


def delete_csr_entries(
    offsets: np.ndarray,
    values: np.ndarray,
    rows: np.ndarray,
    del_values: np.ndarray,
    value_bound: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Remove ``(row, value)`` entries from a CSR: one ``np.delete`` plus an offsets shift.

    Every entry must be present and unique within the batch
    (``ValueError`` otherwise).
    """
    rows = np.asarray(rows, dtype=np.int64)
    del_values = np.asarray(del_values, dtype=np.int64)
    if rows.size == 0:
        return offsets, values
    positions, present = locate_csr_entries(offsets, values, rows, del_values, value_bound)
    if not present.all():
        raise ValueError(f"{int((~present).sum())} deleted entries not present in the CSR")
    if np.unique(positions).shape[0] != positions.shape[0]:
        raise ValueError("duplicate (row, value) entries in the delete batch")
    return _shift_offsets(offsets, rows, -1), np.delete(values, positions)


def _shift_offsets(offsets: np.ndarray, rows: np.ndarray, step: int) -> np.ndarray:
    """Offsets after every row in ``rows`` grew by ``step`` entries (per occurrence)."""
    per_row = np.bincount(rows, minlength=offsets.shape[0] - 1)
    shift = np.zeros(offsets.shape[0], dtype=np.int64)
    np.cumsum(per_row, out=shift[1:])
    return offsets + step * shift


def int_bincount(
    indices: np.ndarray, weights: np.ndarray | None, minlength: int
) -> np.ndarray:
    """Integer-exact bincount.

    ``np.bincount`` with a ``weights`` argument accumulates in float64 and
    silently loses precision once counts exceed 2**53; this variant
    accumulates int64 via ``np.add.at`` instead.
    """
    out = np.zeros(minlength, dtype=np.int64)
    if indices.size == 0:
        return out
    if weights is None:
        np.add.at(out, indices, 1)
    else:
        np.add.at(out, indices, np.asarray(weights, dtype=np.int64))
    return out
