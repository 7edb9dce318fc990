"""Measurement operators and the nonconvex recovery objective.

The objective is ``f(X) = c * ||A(X X^T - Z Z^T)||^2`` where ``A`` maps a
symmetric matrix to the vector of inner products with the measurement
matrices and ``c`` is 1/2 or 1.  Gradient and Hessian are reported with
respect to the factor ``X`` (an n x r matrix); the Hessian is the
``nr x nr`` matrix of the quadratic form on ``vec(U)``.

The criticality conditions under ``H = A^T A`` see only ``H' = Q^T H Q``
(``Q = sym_basis(n)``), so they are written once, here, in svec coordinates
``J' = Q^T J``, ``e' = svec(x x^T - z z^T)``: the stationarity rows, the
Hessian form and its adjoint, for ``evaluate`` and every program of ``lmi``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import as_factor, as_int, mat, smat, svec, sym, sym_basis, vec


@dataclass
class MeasurementOperator:
    """Linear measurement operator given by a list of n x n matrices."""

    matrices: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.matrices, dtype=float)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ValueError(f"expected (m, n, n) matrices, got {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("operator matrices must be finite")
        self.matrices = a

    @property
    def m(self) -> int:
        return self.matrices.shape[0]

    @property
    def n(self) -> int:
        return self.matrices.shape[1]

    @cached_property
    def stacked(self) -> np.ndarray:
        """m x n^2 matrix whose i-th row is vec(A_i)."""
        return self.matrices.transpose(0, 2, 1).reshape(self.m, -1)

    @cached_property
    def gram(self) -> np.ndarray:
        """n^2 x n^2 Gram matrix of the stacked operator."""
        return self.stacked.T @ self.stacked

    @cached_property
    def gram_eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of :attr:`gram`, for ||A||^2 and the RIP constant."""
        return np.linalg.eigvalsh(self.gram)

    @classmethod
    def from_stacked(cls, stacked: np.ndarray, n: int) -> "MeasurementOperator":
        stacked = np.asarray(stacked, dtype=float)
        return cls(stacked.reshape(-1, n, n).transpose(0, 2, 1))


@dataclass
class RecoveryInstance:
    """Recovery problem with ground truth ZZ^T and objective scale c."""

    operator: MeasurementOperator
    z: np.ndarray
    scale: float = 0.5

    def __post_init__(self) -> None:
        self.z = as_factor(self.z, "ground truth", (self.operator.n, None))
        if isinstance(self.scale, bool) or self.scale not in (0.5, 1.0):
            raise ValueError("scale must be 1/2 or 1")

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def r(self) -> int:
        return self.z.shape[1]

    def to_dict(self) -> dict:
        """JSON-ready payload with keys n, r, scale, Z and A."""
        return {
            "n": self.n,
            "r": self.r,
            "scale": self.scale,
            "Z": self.z.tolist(),
            "A": [a.tolist() for a in self.operator.matrices],
        }

    @classmethod
    def from_dict(cls, payload) -> "RecoveryInstance":
        if not isinstance(payload, dict):
            raise ValueError("serialized instance must be a JSON object")
        op = MeasurementOperator(np.asarray(payload["A"], dtype=float))
        inst = cls(op, np.asarray(payload["Z"], dtype=float), payload["scale"])
        if inst.n != as_int(payload["n"], "n") or inst.r != as_int(payload["r"], "r"):
            raise ValueError("inconsistent dimensions in serialized instance")
        return inst


@dataclass
class CriticalityCertificate:
    """First- and second-order stationarity report at a candidate point."""

    f_value: float
    grad_norm: float
    hess_min_eig: float
    tol_g: float
    tol_h: float
    is_first_order: bool = field(init=False)
    is_second_order: bool = field(init=False)

    def __post_init__(self) -> None:
        self.is_first_order = self.grad_norm <= self.tol_g
        self.is_second_order = self.is_first_order and self.hess_min_eig >= -self.tol_h


def jacobian_mat(x: np.ndarray) -> np.ndarray:
    """n^2 x nr matrix J with J vec(U) = vec(X U^T + U X^T)."""
    x = as_factor(x, "x")
    n = x.shape[0]
    # Column j*n + i of kron(x, I) is vec(e_i x_j^T); swapping the two
    # row indices transposes it to vec(x_j e_i^T).
    ux = np.kron(x, np.eye(n))
    return ux + ux.reshape(n, n, -1).swapaxes(0, 1).reshape(n * n, -1)


def stationarity_rows(jac: np.ndarray, evec: np.ndarray) -> np.ndarray:
    """Rows r_k with r_k . svec(H') = (jac^T H' evec)_k: the gradient, linear in H'."""
    outers = jac.T[:, :, None] * evec[None, None, :]
    return svec(0.5 * (outers + outers.transpose(0, 2, 1)))


def curvature_form(jac: np.ndarray, evec: np.ndarray, h: np.ndarray, r: int) -> np.ndarray:
    """``jac^T H' jac + 2 I_r kron smat(H' evec)`` for one H' or a (..., D, D) stack: the
    Hessian of ``f / (2c)`` on ``vec(U)``, ``J^T H J + 2 I_r kron sym(mat(H e))``."""
    side = jac.shape[1] // r
    out = jac.T @ h @ jac
    half = smat(h @ evec, side)
    for j in range(r):
        out[..., j * side : (j + 1) * side, j * side : (j + 1) * side] += 2.0 * half
    return out


def curvature_adjoint(jac: np.ndarray, evec: np.ndarray, v: np.ndarray, r: int) -> np.ndarray:
    """Adjoint of :func:`curvature_form` in H': ``jac V jac^T + t evec^T + evec t^T``, with
    ``t`` the svec of the sum of the r diagonal blocks of V (symmetric H' and V)."""
    side = v.shape[0] // r
    t = svec(sum(v[j * side : (j + 1) * side, j * side : (j + 1) * side] for j in range(r)))
    return np.outer(t, evec) + np.outer(evec, t) + jac @ v @ jac.T


def evaluate(inst: RecoveryInstance, x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Objective value, gradient (n x r) and Hessian (nr x nr) at ``x``, from H' = Q^T H Q."""
    x = as_factor(x, "candidate", inst.z.shape)
    n, r = x.shape
    c = inst.scale
    q = sym_basis(n)
    h = q.T @ inst.operator.gram @ q
    e = svec(x @ x.T - inst.z @ inst.z.T)
    jac = q.T @ jacobian_mat(x)
    he = h @ e
    f = c * float(e @ he)
    grad = 2.0 * c * mat(jac.T @ he, (n, r))
    hess = 2.0 * c * curvature_form(jac, e, h, r)
    return f, grad, sym(hess)


def criticality_certificate(
    inst: RecoveryInstance, x: np.ndarray
) -> CriticalityCertificate:
    """Check approximate second-order stationarity of ``x``.

    The tolerances scale with the operator norm and residual size so that
    exact critical points pass under floating-point noise.
    """
    x = as_factor(x, "candidate", inst.z.shape)
    f, grad, hess = evaluate(inst, x)
    op_sq = float(inst.operator.gram_eigenvalues[-1])
    e_norm = float(np.linalg.norm(vec(x @ x.T - inst.z @ inst.z.T)))
    return CriticalityCertificate(
        f_value=f,
        grad_norm=float(np.linalg.norm(grad)),
        hess_min_eig=float(np.linalg.eigvalsh(hess)[0]),
        tol_g=1e-8 * (1.0 + op_sq * e_norm),
        tol_h=1e-8 * (1.0 + op_sq),
    )


def rip_constant_fullspace(op: MeasurementOperator) -> float:
    """Smallest delta with (1-delta)||M||^2 <= ||A(M)||^2 <= (1+delta)||M||^2
    over all of R^{n x n}, i.e. the eigenvalue spread of the Gram matrix."""
    return max(1.0 - float(op.gram_eigenvalues[0]), float(op.gram_eigenvalues[-1]) - 1.0, 0.0)
