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

#: Default ceiling on the broadcast block a :func:`score_matrix` chunk may
#: materialise.  At ``chunk_size=256``, 20 basis services, and a week of
#: per-minute samples the naive block is ~415 MB; the bound derives an
#: effective chunk size that keeps it under ~128 MB while leaving small
#: inputs on the configured chunk size.
DEFAULT_SCORE_MAX_BYTES = 128 * 1024 * 1024

#: Below this many instance rows a :func:`score_matrix` call ignores
#: ``workers``: publishing shared segments and round-tripping the pool
#: costs more than scoring a small fleet in place.  The placer's per-node
#: recursion stays serial; only fleet-scale calls fan out.
PARALLEL_MIN_ROWS = 4096


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
    workers: int = 1,
    parallel_min_rows: int = PARALLEL_MIN_ROWS,
) -> np.ndarray:
    """I-to-S score vectors for a whole fleet, shape ``(n_instances, n_basis)``.

    Vectorised and chunked: computing ``peak(PI_i + PS_k)`` for all (i, k)
    pairs materialises an ``(chunk, n_basis, n_samples)`` block at a time
    rather than the full fleet tensor.  The effective chunk size is the
    smaller of ``chunk_size`` and what fits a block into ``max_bytes``
    (pass ``max_bytes=None`` to disable the bound); results are identical
    whatever the chunking, only memory and locality change.

    ``dtype`` is the exactness toggle: ``None`` (default) broadcasts in
    float64 — bit-identical to every historical result — while
    ``np.float32`` is the fleet-scale fast path, halving the broadcast
    block's memory traffic at the cost of float32 rounding in the peaks
    (scores still come back float64).

    ``workers > 1`` shards the rows across the persistent worker pool
    (:mod:`repro.engine.parallel`) over shared-memory views of the two
    matrices — tasks carry only row ranges, never trace data.  Row scores
    are independent, so the result is identical for any worker count;
    batches smaller than ``parallel_min_rows`` run serially regardless.

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
        workers=workers,
    ):
        obs.count("score.pairs", n * len(basis))
        if workers > 1 and n >= max(parallel_min_rows, 2 * workers):
            return _score_matrix_sharded(
                matrix, basis, work_dtype, chunk_size, workers
            )
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


def _score_matrix_sharded(
    instances: np.ndarray,
    basis: TraceSet,
    work_dtype: np.dtype,
    chunk_size: int,
    workers: int,
) -> np.ndarray:
    """Fan row shards out to the persistent pool over shared memory.

    The instance and basis matrices are published once; each task is a
    ``(handle, handle, start, stop, chunk_size, dtype)`` descriptor a few
    hundred bytes long.  Segments are unlinked in the ``finally`` whatever
    happens — normal return, a worker death surfacing as
    ``BrokenProcessPool`` after retries, or a ``KeyboardInterrupt``.
    """
    # Lazy imports: repro.engine imports repro.core via the chaos harness,
    # so the reverse edge must not exist at module scope.
    from ..engine.parallel import get_pool
    from ..engine.sharedmem import SharedMatrix, shard_ranges

    n = instances.shape[0]
    pool = get_pool(workers)
    with SharedMatrix.create(instances, dtype=work_dtype) as shared_rows:
        with SharedMatrix.create(basis.matrix, dtype=work_dtype) as shared_basis:
            tasks = [
                (
                    shared_rows.handle,
                    shared_basis.handle,
                    start,
                    stop,
                    chunk_size,
                )
                for start, stop in shard_ranges(n, workers)
            ]
            obs.count("score.shards", len(tasks))
            blocks = pool.map_shards(_score_shard, tasks, label="score.shard")
    scores = np.empty((n, len(basis)))
    row = 0
    for block in blocks:
        scores[row : row + block.shape[0]] = block
        row += block.shape[0]
    return scores


def _score_shard(
    rows_handle: object,
    basis_handle: object,
    start: int,
    stop: int,
    chunk_size: int,
) -> np.ndarray:
    """One worker's row range of the score matrix (runs in the pool)."""
    from ..engine.sharedmem import attach_rows, attached_view

    rows = attach_rows(rows_handle, start, stop)
    basis_block = attached_view(basis_handle)
    scores = np.empty((stop - start, basis_block.shape[0]))
    for offset in range(0, rows.shape[0], chunk_size):
        block = rows[offset : offset + chunk_size]
        scores[offset : offset + block.shape[0]] = _score_rows(block, basis_block)
    return scores


def _score_rows(rows: np.ndarray, basis_matrix: np.ndarray) -> np.ndarray:
    """Score each row trace against every basis trace (dense broadcast).

    ``rows`` and ``basis_matrix`` must share a dtype; the broadcast runs in
    that dtype (the float32 fast path halves its footprint) and the scores
    are returned as float64 either way.
    """
    row_peaks = rows.max(axis=1)                          # (c,)
    basis_peaks = basis_matrix.max(axis=1)                # (m,)
    # (c, m, T) broadcast sum, reduced over T immediately.
    combined_peaks = (rows[:, np.newaxis, :] + basis_matrix[np.newaxis, :, :]).max(axis=2)
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
