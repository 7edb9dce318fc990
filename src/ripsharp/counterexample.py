"""Measurement operators attaining the sharp spurious-point threshold.

For any nonzero ground truth ``z`` this builds an operator with n^2
measurements whose full-space RIP constant is exactly 1/2 while
``x = (||z||/sqrt(2)) u_2`` (with ``u_2`` any unit vector orthogonal to
``z``) is a spurious second-order critical point of the c = 1 objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .linalg import as_factor
from .objective import (
    MeasurementOperator,
    RecoveryInstance,
    evaluate,
    rip_constant_fullspace,
)


@dataclass
class ExampleInstance:
    """Sharp-threshold instance together with its spurious point."""

    basis: np.ndarray
    instance: RecoveryInstance
    spurious_x: np.ndarray


@dataclass
class ExampleReport:
    """Measured quantities behind the sharpness claim."""

    f_at_x: float
    f_expected: float
    grad_norm: float
    hess_gap_min_eig: float
    rip: float
    f_at_z: float
    ok: bool


def generate_example(z: np.ndarray, seed: int = 0) -> ExampleInstance:
    """Build the sharp instance for ground truth ``z``, a vector or one-column
    factor of length n >= 2, checked by :func:`linalg.as_factor`.

    The orthonormal completion of ``z/||z||`` is drawn from a seeded
    Gaussian ensemble, so equal seeds give identical instances.
    """
    z = as_factor(z, "ground truth z", (None, 1))[:, 0]
    n = z.shape[0]
    if n < 2:
        raise ValueError("need dimension n >= 2")
    z_norm = float(np.linalg.norm(z))
    if z_norm == 0.0:
        raise DegenerateInputError("ground truth z must be nonzero")
    basis = _completed_basis(z / z_norm, seed)
    u1, u2 = basis[:, 0], basis[:, 1]

    matrices = np.empty((n * n, n, n))
    for j in range(n):
        for i in range(n):
            matrices[i + n * j] = np.outer(basis[:, i], basis[:, j])
    matrices[0] = np.outer(u1, u1) + 0.5 * np.outer(u2, u2)
    matrices[1] = (np.sqrt(3.0) / 2.0) * (np.outer(u1, u2) + np.outer(u2, u1))
    matrices[n] = (1.0 / np.sqrt(2.0)) * (np.outer(u1, u2) - np.outer(u2, u1))
    matrices[n + 1] = (np.sqrt(3.0) / 2.0) * np.outer(u2, u2)

    instance = RecoveryInstance(MeasurementOperator(matrices), z, scale=1.0)
    spurious_x = (z_norm / np.sqrt(2.0)) * u2
    return ExampleInstance(basis=basis, instance=instance, spurious_x=spurious_x)


def verify_example(ex: ExampleInstance) -> ExampleReport:
    """Re-derive the sharpness facts for a generated instance.

    Checks the objective value 3/4 ||zz^T||_F^2 at the spurious point, a
    vanishing gradient, the Hessian bound hess >= 8 x x^T, the full-space
    RIP constant 1/2, and a zero objective at the ground truth.
    """
    inst = ex.instance
    x = ex.spurious_x
    f_x, grad, hess = evaluate(inst, x)
    f_expected = 0.75 * float(np.linalg.norm(inst.z) ** 4)
    hess_gap = hess - 8.0 * np.outer(x, x)
    hess_gap_min = float(np.linalg.eigvalsh(hess_gap)[0])
    rip = rip_constant_fullspace(inst.operator)
    f_z, _, _ = evaluate(inst, inst.z)
    ok = (
        abs(f_x - f_expected) <= 1e-9
        and float(np.linalg.norm(grad)) <= 1e-9
        and hess_gap_min >= -1e-8
        and abs(rip - 0.5) <= 1e-9
        and abs(f_z) <= 1e-12
    )
    return ExampleReport(
        f_at_x=f_x,
        f_expected=f_expected,
        grad_norm=float(np.linalg.norm(grad)),
        hess_gap_min_eig=hess_gap_min,
        rip=rip,
        f_at_z=f_z,
        ok=ok,
    )


def _completed_basis(u1: np.ndarray, seed: int) -> np.ndarray:
    """Orthonormal basis whose first column is ``u1``."""
    n = u1.shape[0]
    rng = np.random.default_rng(seed)
    raw = np.column_stack([u1, rng.standard_normal((n, n - 1))])
    q, r = np.linalg.qr(raw)
    q = q * np.sign(np.diag(r))
    # QR keeps the first column up to sign; pin it to u1 exactly.
    q[:, 0] = u1
    return q
