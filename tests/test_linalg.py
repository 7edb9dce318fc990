"""Tests for the dense symmetric-matrix helpers."""
import numpy as np
import pytest

from ripsharp.errors import NotPsdError
from ripsharp.linalg import (
    as_float,
    as_int,
    factor_gram,
    mat,
    orth_complement,
    smat,
    svec,
    svec_dim,
    svec_side,
    sym,
    sym_basis,
    vec,
)


def test_number_check():
    # a whole float reads as an int, as in a JSON plan or bundle; a bool
    # (JSON true) is no number, though True == 1 in Python
    assert as_int(3, "k") == as_int(3.0, "k") == as_int(np.int64(3), "k") == 3
    assert as_float(2, "t") == 2.0 and isinstance(as_float(2, "t"), float)
    for bad in (True, "3", None, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="^k must be a finite number$"):
            as_int(bad, "k")
    with pytest.raises(ValueError, match="^k must be an integer$"):
        as_int(2.5, "k")


def test_vec_mat_roundtrip():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3))
    assert np.array_equal(mat(vec(a), (4, 3)), a)


def test_vec_is_column_major():
    a = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vec(a), np.array([1.0, 2.0, 3.0, 4.0]))


def test_kron_vec_identity():
    # vec(B X A^T) = (A kron B) vec(X)
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    x = rng.standard_normal((3, 3))
    lhs = vec(b @ x @ a.T)
    rhs = np.kron(a, b) @ vec(x)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_sym_idempotent():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((5, 5))
    s = sym(a)
    assert np.allclose(s, s.T)
    assert np.allclose(sym(s), s)


def test_svec_isometry():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 6):
        a = sym(rng.standard_normal((n, n)))
        b = sym(rng.standard_normal((n, n)))
        v, w = svec(a), svec(b)
        assert v.shape == (svec_dim(n),)
        assert abs(float(v @ w) - float(np.tensordot(a, b))) < 1e-12
        assert np.allclose(smat(v), a, atol=1e-13)


def test_svec_batched():
    rng = np.random.default_rng(4)
    stack = np.array([sym(rng.standard_normal((3, 3))) for _ in range(5)])
    vs = svec(stack)
    assert vs.shape == (5, 6)
    assert np.allclose(smat(vs), stack, atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_sym_basis_is_orthonormal_svec_map(n):
    rng = np.random.default_rng(5)
    q = sym_basis(n)
    assert q.shape == (n * n, svec_dim(n))
    assert svec_side(svec_dim(n)) == n
    assert np.abs(q.T @ q - np.eye(svec_dim(n))).max() <= 1e-15
    s = sym(rng.standard_normal((n, n)))
    assert np.abs(q.T @ vec(s) - svec(s)).max() <= 1e-14
    # the symmetric vectors are the whole range: Q Q^T fixes vec(S) ...
    assert np.abs(q @ (q.T @ vec(s)) - vec(s)).max() <= 1e-14
    # ... and annihilates vec of a skew matrix
    k = rng.standard_normal((n, n))
    assert np.abs(q.T @ vec(k - k.T)).max() <= 1e-14
    assert sym_basis(n) is q and not q.flags.writeable


def test_orth_complement():
    rng = np.random.default_rng(7)
    cols = rng.standard_normal((6, 2))
    # a duplicated column leaves the span, and so the complement, unchanged
    q_perp = orth_complement(np.hstack([cols, cols[:, :1]]))
    assert q_perp.shape == (6, 4)
    assert np.allclose(cols.T @ q_perp, 0.0, atol=1e-12)
    assert np.allclose(q_perp.T @ q_perp, np.eye(4), atol=1e-12)


def test_factor_gram_psd():
    rng = np.random.default_rng(8)
    b = rng.standard_normal((4, 4))
    g = b @ b.T
    f = factor_gram(g)
    assert np.allclose(f.T @ f, g, atol=1e-10)


def test_factor_gram_rank_deficient():
    rng = np.random.default_rng(9)
    b = rng.standard_normal((5, 2))
    g = b @ b.T
    f = factor_gram(g)
    assert f.shape == (2, 5)
    assert np.allclose(f.T @ f, g, atol=1e-10)


def test_factor_gram_rejects_indefinite():
    with pytest.raises(NotPsdError):
        factor_gram(np.diag([1.0, -0.5]))
