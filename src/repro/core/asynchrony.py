"""Asynchrony scores — the paper's temporal-complementarity metric (Sec. 3.4).

For a set of power traces *M*::

    A_M = Σ_{j∈M} peak(P_j)  /  peak(Σ_{j∈M} P_j)          (Eq. 6)

``A_M = 1`` means every member peaks simultaneously (worst grouping);
``A_M = |M|`` means aggregation adds nothing to the peak (best grouping).

Instances are embedded for clustering via *I-to-S* score vectors: the
asynchrony score of the instance's averaged I-trace against each of the
top-consumer S-traces (Sec. 3.5).  Sec. 3.6's adaptation loop uses the
*differential* asynchrony score of an instance against the rest of its power
node.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from .. import obs
from ..traces.series import PowerTrace
from ..traces.traceset import TraceSet

ArrayLike = Union[np.ndarray, Sequence[float]]

#: Default ceiling for :func:`score_matrix`'s chunk sizing.  A chunk may
#: hold at most ``max_bytes // (n_basis × n_samples × itemsize)`` rows:
#: the rows whose full ``(chunk, n_basis, n_samples)`` sum block would fit
#: in the bound.  The kernel never builds that block, so a chunk's real
#: working set (its rows in the work dtype, its scores and one tile
#: buffer) stays well below the bound; at the default the bound only
#: shrinks the chunk for very long traces or very large bases.
DEFAULT_SCORE_MAX_BYTES = 128 * 1024 * 1024

#: Size of the sum buffer :func:`_score_rows` reduces at once: a tile of
#: rows whose ``(rows, n_basis, n_samples)`` sums fit in it (6 rows for
#: 10 float64 basis traces of a 10-minute week, 97 for 8 float32 traces
#: of an hourly week), so the buffer stays in cache between the add and
#: the max.  Sized in bytes rather than rows because a fixed row count
#: is either too large for long traces or, for short ones, leaves the
#: kernel paying per-call overhead on tiny tiles.
SCORE_TILE_BYTES = 512 * 1024

def asynchrony_score(traces: Union[TraceSet, Sequence[PowerTrace]]) -> float:
    """The asynchrony score ``A_M`` of a set of power traces (Eq. 6).

    Accepts either a :class:`TraceSet` or a sequence of :class:`PowerTrace`.
    Raises on an empty set; a singleton scores exactly 1.0.
    """
    if isinstance(traces, TraceSet):
        if len(traces) == 0:
            raise ValueError("asynchrony score of an empty set is undefined")
        numerator = traces.sum_of_peaks()
        denominator = traces.aggregate_peak()
    else:
        traces = list(traces)
        if not traces:
            raise ValueError("asynchrony score of an empty set is undefined")
        numerator = sum(trace.peak() for trace in traces)
        denominator = PowerTrace.aggregate(traces).peak()
    if denominator == 0:
        # All-zero traces peak "together" by convention: perfectly synchronous.
        return 1.0
    return numerator / denominator


def pairwise_asynchrony(a: PowerTrace, b: PowerTrace) -> float:
    """The I-to-I asynchrony score of two traces (Eq. 7)."""
    return asynchrony_score([a, b])


def score_vector(instance: PowerTrace, basis: TraceSet) -> np.ndarray:
    """The I-to-S asynchrony score vector of one instance (Sec. 3.4).

    Element *k* is the asynchrony score between the instance's averaged
    I-trace and the *k*-th basis S-trace.  Shape ``(len(basis),)``.
    """
    instance.grid.require_same(basis.grid)
    return _score_rows(instance.values[np.newaxis, :], basis.matrix)[0]


def score_matrix(
    instances: Union[TraceSet, np.ndarray],
    basis: TraceSet,
    *,
    chunk_size: int = 256,
    max_bytes: Optional[int] = DEFAULT_SCORE_MAX_BYTES,
    dtype: Optional[object] = None,
) -> np.ndarray:
    """I-to-S score vectors for a whole fleet, shape ``(n_instances, n_basis)``.

    Rows are scored a chunk at a time: each chunk is cast to the work
    dtype and its combined peaks ``peak(PI_i + PS_k)`` are reduced over
    small row tiles in one reused, cache-sized buffer, so no
    ``(chunk, n_basis, n_samples)`` block is ever built.  ``chunk_size``
    bounds the rows per chunk, and so the size of the chunk's row copy
    and score block.  ``max_bytes`` caps it further, at the rows whose
    full sum block would fit in ``max_bytes`` (see
    :data:`DEFAULT_SCORE_MAX_BYTES`); pass ``max_bytes=None`` to chunk
    by ``chunk_size`` alone.  Results are identical whatever the
    chunking, only memory and locality change.

    ``dtype`` is the exactness toggle: ``None`` (default) sums in
    float64 — bit-identical to every historical result — while
    ``np.float32`` is the fleet-scale fast path, halving the scoring
    memory traffic at the cost of float32 rounding in the peaks (scores
    still come back float64).

    ``instances`` may also be a bare ``(n_instances, n_samples)`` matrix
    on ``basis``'s grid — the placer scores row blocks of the fleet
    matrix without wrapping them in a :class:`TraceSet`.
    """
    if isinstance(instances, TraceSet):
        instances.grid.require_same(basis.grid)
        matrix = instances.matrix
    else:
        matrix = np.asarray(instances)
        if matrix.ndim != 2 or matrix.shape[1] != basis.grid.n_samples:
            raise ValueError(
                f"instance matrix shape {matrix.shape} does not match "
                f"{basis.grid.n_samples} samples"
            )
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    work_dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
    if max_bytes is not None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        bytes_per_row = len(basis) * basis.grid.n_samples * work_dtype.itemsize
        chunk_size = max(1, min(chunk_size, max_bytes // max(bytes_per_row, 1)))
    n = matrix.shape[0]
    with obs.span(
        "score",
        instances=n,
        basis=len(basis),
        chunk_size=chunk_size,
    ):
        obs.count("score.pairs", n * len(basis))
        basis_block = np.asarray(basis.matrix, dtype=work_dtype)
        scores = np.empty((n, len(basis)))
        for start in range(0, n, chunk_size):
            stop = min(start + chunk_size, n)
            obs.count("score.chunks")
            scores[start:stop] = _score_rows(
                np.asarray(matrix[start:stop], dtype=work_dtype),
                basis_block,
            )
        return scores


def _tile_rows(basis_matrix: np.ndarray, work_dtype: np.dtype) -> int:
    """Rows per :func:`_score_rows` tile: as many as fit
    :data:`SCORE_TILE_BYTES` of sums, at least one."""
    row_bytes = basis_matrix.shape[0] * basis_matrix.shape[1] * work_dtype.itemsize
    return max(1, SCORE_TILE_BYTES // max(row_bytes, 1))


def _score_rows(rows: np.ndarray, basis_matrix: np.ndarray) -> np.ndarray:
    """Score each row trace against every basis trace.

    The sums run in ``np.result_type(rows, basis_matrix)`` (the float32
    fast path stays float32) and the scores are returned as float64.
    Combined peaks are reduced one row tile (:func:`_tile_rows`) at a
    time in one reused buffer, which stays in cache; a maximum of the
    same sums does not depend on the tiling, so the result equals a full
    ``(rows, n_basis, n_samples)`` broadcast bit for bit.
    """
    work_dtype = np.result_type(rows, basis_matrix)
    tile_rows = _tile_rows(basis_matrix, work_dtype)
    row_peaks = rows.max(axis=1)                          # (c,)
    basis_peaks = basis_matrix.max(axis=1)                # (m,)
    combined_peaks = np.empty((rows.shape[0], basis_matrix.shape[0]), work_dtype)
    buffer = np.empty(
        (min(tile_rows, rows.shape[0]),) + basis_matrix.shape, work_dtype
    )
    for start in range(0, rows.shape[0], tile_rows):
        tile = rows[start : start + tile_rows]
        sums = buffer[: tile.shape[0]]
        np.add(tile[:, np.newaxis, :], basis_matrix[np.newaxis, :, :], out=sums)
        sums.max(axis=2, out=combined_peaks[start : start + tile.shape[0]])
    numerator = row_peaks[:, np.newaxis] + basis_peaks[np.newaxis, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(combined_peaks > 0, numerator / combined_peaks, 1.0)
    return np.asarray(scores, dtype=np.float64)


def averaged_group_trace(
    group: TraceSet, exclude_id: str
) -> PowerTrace:
    """``PA_{i,N}``: the averaged aggregate trace of a node, excluding one
    instance (Sec. 3.6).

    Defined as ``Σ_{j∈S_N, j≠i} PI_j / |S_N − 1|``.
    """
    if exclude_id not in group:
        raise ValueError(f"instance {exclude_id} is not in the group")
    if len(group) < 2:
        raise ValueError("differential score needs at least two instances at the node")
    total = group.matrix.sum(axis=0) - group.row(exclude_id)
    return PowerTrace(group.grid, total / (len(group) - 1))


def differential_score(instance: PowerTrace, group_average: PowerTrace) -> float:
    """``AD_{i,N}``: differential asynchrony score of an instance against a
    node's averaged aggregate (Sec. 3.6)::

        AD = (peak(PI_i) + peak(PA_{i,N})) / peak(PI_i + PA_{i,N})
    """
    return pairwise_asynchrony(instance, group_average)


def differential_scores_for_node(group: TraceSet) -> dict:
    """Differential asynchrony score of every member of one node's group.

    The instance with the *lowest* score is the node's worst citizen — the
    swap candidate of the Sec. 3.6 adaptation loop.
    """
    if len(group) < 2:
        raise ValueError("differential scores need at least two instances")
    total = group.matrix.sum(axis=0)
    scores = {}
    divisor = len(group) - 1
    for trace_id in group.ids:
        rest = (total - group.row(trace_id)) / divisor
        instance = group.row(trace_id)
        combined_peak = float((instance + rest).max())
        numerator = float(instance.max()) + float(rest.max())
        scores[trace_id] = numerator / combined_peak if combined_peak > 0 else 1.0
    return scores
