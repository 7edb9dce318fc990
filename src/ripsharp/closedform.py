"""Closed-form restricted-isometry thresholds for rank-1 candidates.

For unit-rank recovery the minimum RIP constant admits a two-regime closed
form in the polar coordinates of the candidate against the ground truth:
the length ratio ``rho`` and the angle ``phi``.  This module also carries
the one-dimensional dual curve whose minimum produces the bound, and the
local/sublevel guarantees derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, NotSpuriousError
from .linalg import coincident

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# Relative tolerance for the regime boundary; the two formulas agree there.
REGION_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class PolarParams:
    """Polar description of a rank-1 candidate/ground-truth pair.

    ``alpha`` and ``beta`` are the residual-normalized quantities
    ``sin^2(phi) / D`` and ``rho^2 / D`` with
    ``D = sqrt((rho^2-1)^2 + 2 rho^2 sin^2(phi))``; the residual norm is
    ``||x x^T - z z^T||_F = ||z||^2 D``.
    """

    rho: float
    phi: float
    alpha: float
    beta: float


@dataclass(frozen=True)
class ThresholdReport:
    """Closed-form lower bound and the dual-curve witness behind it."""

    delta_lb: float
    region: str
    eta_ub: float
    gamma_star: float


def canonical_pair(rho: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Canonical planar pair with the given polar coordinates."""
    x = np.array([rho * np.cos(phi), rho * np.sin(phi)])
    z = np.array([1.0, 0.0])
    return x, z


def polar_params(x: np.ndarray, z: np.ndarray) -> PolarParams:
    """Polar coordinates of a rank-1 pair.

    A zero candidate is assigned ``phi = pi/2`` (any angle gives the same
    residual).  Raises :class:`NotSpuriousError` when ``x x^T = z z^T``.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    z = np.asarray(z, dtype=float).reshape(-1)
    z_norm = float(np.linalg.norm(z))
    if z_norm == 0.0:
        raise DegenerateInputError("ground truth z must be nonzero")
    x_norm = float(np.linalg.norm(x))
    rho = x_norm / z_norm
    if x_norm == 0.0:
        phi = np.pi / 2.0
    else:
        cos_phi = float(x @ z) / (x_norm * z_norm)
        phi = float(np.arccos(np.clip(cos_phi, -1.0, 1.0)))
    return from_polar(rho, phi)


def from_polar(rho: float, phi: float) -> PolarParams:
    """Polar parameters from the coordinates themselves."""
    if not (np.isfinite(rho) and np.isfinite(phi)):
        raise ValueError("rho and phi must be finite")
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    sin_sq = np.sin(phi) ** 2
    d = np.sqrt((rho**2 - 1.0) ** 2 + 2.0 * rho**2 * sin_sq)
    # For ||z|| = 1 the residual norm is d and the larger squared norm max(rho^2, 1).
    if coincident(d, max(rho**2, 1.0)):
        raise NotSpuriousError("candidate reproduces the ground truth")
    return PolarParams(rho=rho, phi=float(phi), alpha=sin_sq / d, beta=rho**2 / d)


def psi(gamma, alpha: float):
    """Inner-product envelope sqrt term of the dual curve."""
    gamma = np.asarray(gamma, dtype=float)
    s = np.sqrt(np.clip(1.0 - alpha**2, 0.0, None))
    out = gamma * alpha + np.sqrt(np.clip(1.0 - gamma**2, 0.0, None)) * s
    return out if out.ndim else float(out)


def big_psi(gamma, params: PolarParams):
    """Dual curve whose minimum over [0, alpha] gives the eta upper bound."""
    gamma = np.asarray(gamma, dtype=float)
    p = psi(gamma, params.alpha)
    out = (2.0 * params.beta * gamma + 1.0 - p) / (1.0 + p)
    return out if out.ndim else float(out)


def eta_to_delta(eta: float) -> float:
    """Convert the complementarity ratio eta to a RIP constant."""
    return (1.0 - eta) / (1.0 + eta)


def delta_lower(params: PolarParams) -> ThresholdReport:
    """Closed-form minimum RIP constant for a rank-1 pair.

    Regime ``a`` holds when ``beta >= alpha / (1 + sqrt(1 - alpha^2))``;
    there the bound is ``sqrt(1 - alpha^2)`` and the dual curve is
    minimized at gamma = 0.  Otherwise (regime ``b``) the minimizer is
    interior and the bound is ``(1 - 2 alpha beta + beta^2)/(1 - beta^2)``.
    """
    alpha = min(params.alpha, 1.0)
    beta = params.beta
    s = np.sqrt(1.0 - alpha**2)
    threshold = alpha / (1.0 + s)
    if beta >= threshold - REGION_TIE_RTOL * max(1.0, threshold):
        eta = (1.0 - s) / (1.0 + s)
        return ThresholdReport(
            delta_lb=float(s), region="a", eta_ub=float(eta), gamma_star=0.0
        )
    eta = beta * (beta - alpha) / (alpha * beta - 1.0)
    delta = (1.0 - 2.0 * alpha * beta + beta**2) / (1.0 - beta**2)
    gamma_star = ((1.0 + eta) * alpha - 2.0 * beta) / (1.0 - eta)
    return ThresholdReport(
        delta_lb=float(delta),
        region="b",
        eta_ub=float(eta),
        gamma_star=float(np.clip(gamma_star, 0.0, alpha)),
    )


def delta_lower_from_vectors(x: np.ndarray, z: np.ndarray) -> ThresholdReport:
    """Convenience composition of :func:`polar_params` and :func:`delta_lower`."""
    return delta_lower(polar_params(x, z))


def local_threshold(epsilon: float) -> float:
    """RIP constant below which no spurious second-order critical point
    exists within relative distance epsilon of the ground truth."""
    if not 0.0 <= epsilon <= GOLDEN + 1e-15:
        raise ValueError(f"epsilon must lie in [0, {GOLDEN}]")
    return float(np.sqrt(1.0 - epsilon**2 / (2.0 * (1.0 - epsilon))))


def sublevel_epsilon(delta: float) -> float:
    """Largest guaranteed spurious-free relative neighborhood for a given
    RIP constant."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    return float(min(np.sqrt(1.0 - delta**2), GOLDEN))
