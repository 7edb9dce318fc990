"""Dense linear algebra helpers used across the package.

Matrices are plain numpy arrays and vectorization is always column-major,
so ``vec(A X B^T) = kron(B, A) vec(X)`` holds with ``numpy.kron``.  All
routines are pure functions of their inputs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import NotPsdError

# Relative threshold for every numerical rank decision in the package: the
# span basis of ``lmi.reduce``, ``orth_complement`` and ``factor_gram``.
RANK_RTOL = 1e-9


def coincident(residual: float, scale: float) -> bool:
    """The package's one test of ``x x^T = z z^T`` (x not spurious): the residual
    ``||x x^T - z z^T||_F`` is at most 1e-12 of ``scale = max(||x||^2, ||z||^2)``."""
    return residual <= 1e-12 * scale


def vec(a: np.ndarray) -> np.ndarray:
    """Column-major vectorization of a matrix."""
    return np.asarray(a).reshape(-1, order="F")


def mat(v: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of :func:`vec` for the given matrix shape."""
    return np.asarray(v).reshape(shape, order="F")


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part of a square matrix."""
    return 0.5 * (a + a.T)


def as_factor(a: np.ndarray, name: str, shape: tuple = (None, None)) -> np.ndarray:
    """The package's one factor check: a nonempty, finite float matrix, a vector
    as an n x 1 column; each entry of ``shape`` but None fixes that dimension."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"{name} must be a nonempty vector or matrix")
    if any(want not in (None, got) for want, got in zip(shape, a.shape)):
        want = ", ".join("any" if s is None else str(s) for s in shape)
        raise ValueError(f"{name} has shape {a.shape}, need ({want})")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def pow2_rescale(x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """``2^-k x``, ``2^-k z`` and ``k``, for the k that brings their largest entry into
    ``[1/2, 1)``: exact, so pairs that differ by a factor ``2^j`` give equal bits."""
    k = math.frexp(max(np.abs(x).max(), np.abs(z).max()))[1]
    return np.ldexp(x, -k), np.ldexp(z, -k), k


def orth_complement(p: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the span of ``p``.

    Singular values at most ``RANK_RTOL`` times the largest count as zero.
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    # An n x 0 input has no singular values, and u is then the identity.
    u, s, _ = np.linalg.svd(p, full_matrices=True)
    rank = int(np.sum(s > RANK_RTOL * s.max(initial=0.0)))
    return u[:, rank:]


def factor_gram(h: np.ndarray) -> np.ndarray:
    """Factor a PSD matrix as ``h = a.T @ a``.

    An eigenvalue factorization whose row count equals the numerical rank:
    eigenvalues at most ``RANK_RTOL * max(|eigenvalues|)`` are dropped.
    Raises :class:`NotPsdError` when an eigenvalue is below
    ``-RANK_RTOL * max(|eigenvalues|, 1)``.
    """
    values, vectors = np.linalg.eigh(h)
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    if values.size and values[0] < -RANK_RTOL * max(scale, 1.0):
        raise NotPsdError(
            f"matrix has negative eigenvalue {values[0]:.3e} (scale {scale:.3e})"
        )
    keep = values > RANK_RTOL * scale
    return (np.sqrt(values[keep])[:, None] * vectors[:, keep].T)


@lru_cache(maxsize=None)
def svec_indices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row/column indices of the lower triangle in column-major order, and
    the svec weight of each entry: 1 on the diagonal, sqrt(2) off it.  The
    cached arrays are read-only."""
    cols, rows = np.triu_indices(n)
    out = rows, cols, np.where(rows == cols, 1.0, np.sqrt(2.0))
    for a in out:
        a.flags.writeable = False
    return out


def svec_dim(n: int) -> int:
    """Length of the symmetric vectorization of an n x n matrix."""
    return n * (n + 1) // 2


def svec(s: np.ndarray) -> np.ndarray:
    """Isometric vectorization of a symmetric matrix.

    Off-diagonal entries are scaled by sqrt(2) so that
    ``svec(a) @ svec(b) == <a, b>_F``.
    """
    s = np.asarray(s, dtype=float)
    n = s.shape[-1]
    rows, cols, weights = svec_indices(n)
    return s[..., rows, cols] * weights


def svec_side(m: int) -> int:
    """Side of the symmetric matrices whose svec has length ``m``."""
    return (math.isqrt(8 * m + 1) - 1) // 2


def smat(v: np.ndarray, n: int | None = None) -> np.ndarray:
    """Inverse of :func:`svec`."""
    v = np.asarray(v, dtype=float)
    if n is None:
        n = svec_side(v.shape[-1])
    rows, cols, weights = svec_indices(n)
    vals = v / weights
    out = np.empty(v.shape[:-1] + (n, n))
    out[..., rows, cols] = vals
    out[..., cols, rows] = vals
    return out


@lru_cache(maxsize=None)
def sym_basis(n: int) -> np.ndarray:
    """Orthonormal ``n^2 x svec_dim(n)`` basis Q of the vectorized symmetric matrices.

    Column j is ``vec(smat(e_j))``, so ``Q^T vec(S) = svec(S)`` for symmetric
    ``S`` and ``Q v = vec(smat(v))``.  The cached array is read-only.
    """
    q = smat(np.eye(svec_dim(n)), n).reshape(-1, n * n).T
    q.flags.writeable = False
    return q
