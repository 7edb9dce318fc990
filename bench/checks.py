"""Correctness checks on the outputs of the benchmark workloads.

Every check compares an output against a value computed apart from the
interior-point solver, or against a property the method must have; none
compares against a stored copy of earlier output.  Each function returns
``{unit key: reason}`` for the units that fail, so a caller counts failed
units with ``len``.
"""

from __future__ import annotations

import math

import numpy as np

from ripsharp import closedform, lmi

# Slack on delta comparisons; the solver stops at a relative gap of 1e-9.
DELTA_TOL = 1e-6
# The paper's rank-1 theorem: delta(x, z) >= 1/2 for every spurious pair.
RANK1_FLOOR = 0.5
# The grid point nearest (1/sqrt(2), 90 deg), where the rank-1 floor is met.
SWEEP_FLOOR_AT = (0.7, 90.0)
SWEEP_FLOOR_TOL = 1e-3
# Closed-form columns are recomputed from the same formula; only rounding
# in the CSV-bound floats separates them.
CLOSED_FORM_TOL = 1e-12
# Reduced and ambient programs have the same optimum (reduction exactness).
AMBIENT_TOL = 1e-6
# Certificate residuals are relative.  A multiplier of size M carries
# rounding of order eps * M through every dual row, and the curvature
# block, hence its primal residual, scales with ||x x^T - z z^T||.
CERT_RTOL = 1e-8
# Recovered operator: its RIP constant is the eigenvalue spread of a
# gram matrix rebuilt from its rows.
RIP_TOL = 1e-8
COINCIDENT_TOL = 1e-9


def residual_norm(x: np.ndarray, z: np.ndarray) -> float:
    """||x x^T - z z^T||_F, the scale of the curvature block and the Hessian."""
    x = np.asarray(x, dtype=float).reshape(len(x), -1)
    z = np.asarray(z, dtype=float).reshape(len(z), -1)
    return float(np.linalg.norm(x @ x.T - z @ z.T))


def coincident(x: np.ndarray, z: np.ndarray) -> bool:
    """True when x x^T = z z^T, so no operator makes x spurious."""
    scale = max(1.0, float(np.sum(np.square(x))), float(np.sum(np.square(z))))
    return residual_norm(x, z) <= COINCIDENT_TOL * scale


def polar_point(rho: float, phi_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """The planar pair at polar coordinates (rho, phi) against z = e_1."""
    phi = math.radians(phi_deg)
    return np.array([rho * math.cos(phi), rho * math.sin(phi)]), np.array([1.0, 0.0])


def sweep_failures(rows: list[tuple[float, ...]]) -> dict[int, str]:
    """Failed grid points of a ``cli.sweep_grid`` result in mode ``both``.

    Values must appear exactly where x x^T != z z^T, the exact threshold
    must lie above the closed-form bound and the rank-1 floor 1/2, and the
    smallest threshold must sit at (0.7, 90 deg) within 1e-3 of 1/2.
    """
    bad: dict[int, str] = {}
    finite = []
    for i, (rho, phi_deg, exact, lower, gap) in enumerate(rows):
        if coincident(*polar_point(rho, phi_deg)):
            if not (math.isnan(exact) and math.isnan(lower) and math.isnan(gap)):
                bad[i] = f"value at coincident point ({rho:g}, {phi_deg:g})"
            continue
        if math.isnan(exact) or math.isnan(lower) or math.isnan(gap):
            bad[i] = f"nan at spurious point ({rho:g}, {phi_deg:g})"
            continue
        finite.append(i)
        lb = closedform.delta_lower(
            closedform.from_polar(rho, math.radians(phi_deg))
        ).delta_lb
        if abs(lower - lb) > CLOSED_FORM_TOL or abs(gap - (exact - lower)) > CLOSED_FORM_TOL:
            bad[i] = f"closed-form columns differ at ({rho:g}, {phi_deg:g})"
        elif exact < lb - DELTA_TOL:
            bad[i] = f"exact {exact:.9g} below closed form {lb:.9g} at ({rho:g}, {phi_deg:g})"
        elif not RANK1_FLOOR - DELTA_TOL <= exact <= 1.0:
            bad[i] = f"exact {exact:.9g} outside [1/2, 1] at ({rho:g}, {phi_deg:g})"
    if finite:
        k = min(finite, key=lambda i: rows[i][2])
        rho, phi_deg, exact = rows[k][:3]
        at = abs(rho - SWEEP_FLOOR_AT[0]) <= 1e-9 and abs(phi_deg - SWEEP_FLOOR_AT[1]) <= 1e-9
        if not at or abs(exact - RANK1_FLOOR) > SWEEP_FLOOR_TOL:
            bad.setdefault(k, f"minimum {exact:.9g} at ({rho:g}, {phi_deg:g})")
    return bad


def ecdf_failures(
    rows: list[tuple[int, float]], num_samples: int, ambient: dict[int, float]
) -> dict[int, str]:
    """Failed samples of a ``cli.sample_ecdf`` result.

    Every delta must lie in [1/2, 1], and for the samples in ``ambient``
    the ambient-dimension program must reach the same optimum.
    """
    bad: dict[int, str] = {}
    if [i for i, _ in rows] != list(range(num_samples)):
        return {i: "sample indices out of order" for i in range(num_samples)}
    for i, delta in rows:
        if not RANK1_FLOOR - DELTA_TOL <= delta <= 1.0:
            bad[i] = f"delta {delta!r} outside [1/2, 1]"
    for i, lo in ambient.items():
        if abs(rows[i][1] - lo) > AMBIENT_TOL:
            bad.setdefault(i, f"reduced {rows[i][1]:.12g} != ambient {lo:.12g}")
    return bad


def multiplier_size(dual) -> float:
    """Largest Frobenius norm among the multipliers (y, U1, U2, V)."""
    return max(float(np.linalg.norm(m)) for m in (dual.y, dual.u1, dual.u2, dual.v))


def certificate_bound(x, z, sol) -> float:
    """Largest certificate violation accepted for a solved pair."""
    return CERT_RTOL * max(1.0, multiplier_size(sol.dual), residual_norm(x, z))


def hessian_tol(x, z, crit) -> float:
    """Curvature tolerance of a criticality certificate at the pair's scale.

    The certificate's default ``tol_h`` scales with ||A||^2 only, but the
    Hessian's ``2 I kron mat(H e)`` term grows with ||e|| = ||x x^T - z z^T||,
    and so does the rounding in its smallest eigenvalue.
    """
    return crit.tol_h * max(1.0, residual_norm(x, z))


def certify_failure(x, z, sol, report, crit, rip) -> str | None:
    """Why one certified rank-r unit fails, or None when it passes.

    ``report`` is ``lmi.verify_certificates(sol, ...)``; ``crit`` and
    ``rip`` are the criticality certificate and full-space RIP constant
    of the operator recovered from ``sol`` (None unless it is optimal).
    """
    if sol.status == lmi.STATUS_NOT_BELOW_ONE:
        if sol.delta < 1.0 - DELTA_TOL:
            return f"not below one yet delta {sol.delta!r}"
        return None
    if sol.status != lmi.STATUS_OPTIMAL:
        return f"status {sol.status}"
    if sol.delta < RANK1_FLOOR - DELTA_TOL:
        return f"delta {sol.delta!r} below 1/2"
    violation = report.max_violation()
    bound = certificate_bound(x, z, sol)
    if not violation <= bound:
        worst = max(report.checks, key=report.checks.get)
        return f"certificate {worst} {violation:.3g} > {bound:.3g}"
    if coincident(x, z):
        return "x x^T = z z^T"
    if not (crit.is_first_order and crit.hess_min_eig >= -hessian_tol(x, z, crit)):
        return (
            f"x not second-order critical: grad {crit.grad_norm:.3g}, "
            f"hess {crit.hess_min_eig:.3g} (tol {hessian_tol(x, z, crit):.3g})"
        )
    if abs(rip - sol.delta) > RIP_TOL:
        return f"operator RIP {rip!r} != delta {sol.delta!r}"
    return None


def cert_digits(violation: float) -> float:
    """Correct digits of a certificate: -log10 of its largest violation."""
    return -math.log10(max(violation, 1e-16))
