"""The tiled I-to-S score kernel equals a full broadcast bit for bit.

``_legacy_score_rows`` is a frozen copy of the kernel that built the whole
``(rows, n_basis, n_samples)`` sum block before reducing it; every
comparison is exact (``array_equal``).
"""

import numpy as np
import pytest

from repro.core import score_matrix, score_vector
from repro.core.asynchrony import _score_rows, _tile_rows
from repro.traces import PowerTrace, TimeGrid, TraceSet

GRID = TimeGrid(0, 60, 168)


def _legacy_score_rows(rows, basis_matrix):
    row_peaks = rows.max(axis=1)
    basis_peaks = basis_matrix.max(axis=1)
    combined_peaks = (rows[:, np.newaxis, :] + basis_matrix[np.newaxis, :, :]).max(axis=2)
    numerator = row_peaks[:, np.newaxis] + basis_peaks[np.newaxis, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(combined_peaks > 0, numerator / combined_peaks, 1.0)
    return np.asarray(scores, dtype=np.float64)


def _matrix(rows, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return (90.0 + 150.0 * rng.random((rows, GRID.n_samples))).astype(dtype)


def _basis(n_basis, seed, dtype=np.float64):
    ids = [f"s{k}" for k in range(n_basis)]
    return TraceSet(GRID, ids, _matrix(n_basis, seed) * 20.0, dtype=dtype)


def _tile(basis):
    return _tile_rows(basis, basis.dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("n_basis", [1, 10])
@pytest.mark.parametrize(
    "tiles,extra",
    [(0, 1), (1, -1), (1, 0), (1, 1), (0, 257)],
    ids=["1", "tile-1", "tile", "tile+1", "257"],
)
def test_score_rows_matches_broadcast(tiles, extra, n_basis, dtype):
    basis = _basis(n_basis, seed=100 + n_basis, dtype=dtype).matrix
    count = tiles * _tile(basis) + extra
    matrix = _matrix(count, seed=count, dtype=dtype)
    got = _score_rows(matrix, basis)
    assert got.dtype == np.float64
    assert np.array_equal(got, _legacy_score_rows(matrix, basis))


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
def test_all_zero_rows_and_basis_score_one(dtype):
    basis = _basis(4, seed=2, dtype=dtype).matrix.copy()
    rows = _tile(basis) + 3
    matrix = _matrix(rows, seed=1, dtype=dtype)
    matrix[::2] = 0.0
    basis[1] = 0.0
    got = _score_rows(matrix, basis)
    assert np.array_equal(got, _legacy_score_rows(matrix, basis))
    # Zero row against the zero basis trace: no combined peak, score 1.0.
    assert got[0, 1] == 1.0

    zeros = np.zeros((rows, GRID.n_samples), dtype)
    zero_basis = np.zeros((3, GRID.n_samples), dtype)
    got = _score_rows(zeros, zero_basis)
    assert np.array_equal(got, _legacy_score_rows(zeros, zero_basis))
    assert np.array_equal(got, np.ones((rows, 3)))


def test_mixed_dtypes_sum_in_the_wider_type():
    basis = _basis(10, seed=4, dtype=np.float32).matrix
    matrix = _matrix(_tile_rows(basis, np.dtype(np.float64)) + 1, seed=3)
    assert np.array_equal(
        _score_rows(matrix, basis), _legacy_score_rows(matrix, basis)
    )


def test_score_vector_float64_instance_against_float32_basis():
    basis = _basis(10, seed=5, dtype=np.float32)
    instance = PowerTrace(GRID, _matrix(1, seed=6)[0])
    got = score_vector(instance, basis)
    expected = _legacy_score_rows(instance.values[np.newaxis, :], basis.matrix)[0]
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("dtype", [None, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize(
    "chunk_size,max_bytes",
    [(1, None), (7, None), (256, None), (256, 1), (7, 1)],
)
def test_score_matrix_matches_broadcast(chunk_size, max_bytes, dtype):
    matrix = _matrix(257, seed=7)
    basis = _basis(10, seed=8)
    work = np.float64 if dtype is None else dtype
    expected = _legacy_score_rows(matrix.astype(work), basis.matrix.astype(work))
    got = score_matrix(
        matrix, basis, chunk_size=chunk_size, max_bytes=max_bytes, dtype=dtype
    )
    assert np.array_equal(got, expected)

