"""Tests for the rank-one closed-form threshold and its dual curve."""
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from ripsharp.closedform import (
    GOLDEN,
    PolarParams,
    big_psi,
    canonical_pair,
    delta_lower,
    delta_lower_from_vectors,
    eta_to_delta,
    from_polar,
    local_threshold,
    polar_params,
    psi,
    sublevel_epsilon,
)
from ripsharp.errors import DegenerateInputError, NotSpuriousError


def min_big_psi(params):
    """Independent grid-plus-refinement minimization of the dual curve."""
    alpha = min(params.alpha, 1.0)
    grid = np.linspace(0.0, alpha, 10_000)
    vals = big_psi(grid, params)
    k = int(np.argmin(vals))
    best = float(vals[k])
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    if hi > lo:
        res = minimize_scalar(
            lambda g: big_psi(g, params),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-14},
        )
        best = min(best, float(res.fun))
    return best


def test_polar_params_canonical_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rho = float(rng.uniform(0.05, 2.0))
        phi = float(rng.uniform(0.01, np.pi / 2))
        x, z = canonical_pair(rho, phi)
        params = polar_params(x, z)
        assert abs(params.rho - rho) <= 1e-12
        assert abs(params.phi - phi) <= 1e-9


def test_polar_params_invariants():
    x = np.array([1.0, 1.0, 0.0])
    z = np.array([1.0, 0.0, 0.0])
    params = polar_params(x, z)
    assert abs(params.rho - np.sqrt(2.0)) <= 1e-12
    assert abs(params.phi - np.pi / 4) <= 1e-12
    d = np.hypot(params.rho**2 - 1.0, np.sqrt(2.0) * params.rho * np.sin(params.phi))
    assert abs(params.alpha - np.sin(params.phi) ** 2 / d) <= 1e-12
    assert abs(params.beta - params.rho**2 / d) <= 1e-12


def test_zero_candidate_angle():
    params = polar_params(np.zeros(3), np.array([2.0, 0.0, 0.0]))
    assert params.rho == 0.0
    assert abs(params.phi - np.pi / 2) <= 1e-15


def test_zero_ground_truth_rejected():
    with pytest.raises(DegenerateInputError):
        polar_params(np.array([1.0, 0.0]), np.zeros(2))


@pytest.mark.parametrize(
    "x,z",
    [(np.ones((4, 2)), np.ones((4, 2))), (np.ones(4), np.ones(3)),
     (np.zeros(2), np.array([np.inf, 0.0]))],
    ids=["rank-2", "lengths", "nonfinite"],
)
def test_malformed_factors_rejected(x, z):
    # the closed form covers two vectors of one length only
    with pytest.raises(ValueError):
        delta_lower_from_vectors(x, z)


def test_coincident_pair_rejected():
    with pytest.raises(NotSpuriousError):
        from_polar(1.0, 0.0)


def test_negative_rho_rejected():
    with pytest.raises(ValueError):
        from_polar(-0.5, 0.3)


@pytest.mark.parametrize("rho,phi", [(np.nan, 0.3), (np.inf, 0.3), (0.5, np.nan)])
def test_nonfinite_polar_rejected(rho, phi):
    with pytest.raises(ValueError, match="finite"):
        from_polar(rho, phi)


def test_psi_endpoints():
    alpha = 0.6
    assert abs(psi(0.0, alpha) - np.sqrt(1.0 - alpha**2)) <= 1e-15
    assert abs(psi(1.0, alpha) - alpha) <= 1e-15


def test_delta_matches_dual_curve_minimum():
    rng = np.random.default_rng(42)
    for _ in range(30):
        rho = float(rng.uniform(0.05, 2.0))
        phi = float(rng.uniform(np.deg2rad(2.0), np.pi / 2))
        params = from_polar(rho, phi)
        rep = delta_lower(params)
        assert abs(eta_to_delta(min_big_psi(params)) - rep.delta_lb) <= 1e-9
        assert abs(eta_to_delta(rep.eta_ub) - rep.delta_lb) <= 1e-12


def test_dual_curve_minimized_at_gamma_star():
    rng = np.random.default_rng(43)
    for _ in range(20):
        rho = float(rng.uniform(0.05, 2.0))
        phi = float(rng.uniform(np.deg2rad(2.0), np.pi / 2))
        params = from_polar(rho, phi)
        rep = delta_lower(params)
        assert abs(big_psi(rep.gamma_star, params) - rep.eta_ub) <= 1e-9


def test_dual_curve_unimodal():
    # at most one sign change of the finite differences on a fine grid
    rng = np.random.default_rng(44)
    for _ in range(50):
        rho = float(rng.uniform(0.05, 2.0))
        phi = float(rng.uniform(np.deg2rad(2.0), np.pi / 2))
        params = from_polar(rho, phi)
        grid = np.linspace(0.0, min(params.alpha, 1.0), 2001)
        diffs = np.diff(big_psi(grid, params))
        signs = np.sign(diffs[np.abs(diffs) > 1e-12])
        changes = int(np.sum(signs[1:] != signs[:-1])) if signs.size else 0
        assert changes <= 1


def test_region_boundary_continuity():
    # bisect the regime switch in phi and compare both closed forms there
    def region(rho, phi):
        return delta_lower(from_polar(rho, phi)).region

    for rho in (0.3, 0.5, 0.7):
        lo, hi = np.deg2rad(1.0), np.pi / 2
        assert region(rho, lo) != region(rho, hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if region(rho, mid) == region(rho, np.deg2rad(1.0)):
                lo = mid
            else:
                hi = mid
        params = from_polar(rho, 0.5 * (lo + hi))
        a, b = min(params.alpha, 1.0), params.beta
        val_a = np.sqrt(1.0 - a * a)
        val_b = (1.0 - 2.0 * a * b + b * b) / (1.0 - b * b)
        assert abs(val_a - val_b) <= 1e-10
        # the reported bound is continuous across the switch
        below = delta_lower(from_polar(rho, lo)).delta_lb
        above = delta_lower(from_polar(rho, hi)).delta_lb
        assert abs(below - above) <= 1e-10


def test_region_b_rational_identity():
    rng = np.random.default_rng(45)
    count = 0
    while count < 30:
        rho = float(rng.uniform(0.05, 1.5))
        phi = float(rng.uniform(np.deg2rad(2.0), np.pi / 2))
        rep = delta_lower(from_polar(rho, phi))
        if rep.region != "b":
            continue
        count += 1
        ident = ((rho**2 - 1.0) ** 2 + rho**4) / (
            1.0 - 2.0 * rho**2 * np.cos(phi) ** 2
        )
        assert abs(rep.delta_lb - ident) <= 1e-10


def test_known_values():
    # orthogonal pair with length ratio 1/sqrt(2) sits at the global floor
    rep = delta_lower(from_polar(1 / np.sqrt(2), np.pi / 2))
    assert abs(rep.delta_lb - 0.5) <= 1e-12
    # orthogonal equal-length pair
    rep = delta_lower(from_polar(1.0, np.pi / 2))
    assert abs(rep.delta_lb - np.sqrt(0.5)) <= 1e-12
    assert rep.region == "a"


def test_delta_lower_from_vectors_matches_polar():
    rng = np.random.default_rng(46)
    x = rng.standard_normal(4)
    z = rng.standard_normal(4)
    direct = delta_lower_from_vectors(x, z)
    via_polar = delta_lower(polar_params(x, z))
    assert abs(direct.delta_lb - via_polar.delta_lb) <= 1e-15
    assert direct.region == via_polar.region
    assert delta_lower_from_vectors(x[:, None], z[:, None]) == direct
    # the pair is rescaled by a power of two before its norms are formed
    for k in (-600, 600):
        assert delta_lower_from_vectors(np.ldexp(x, k), np.ldexp(z, k)) == direct


def test_local_threshold_values():
    assert local_threshold(0.0) == 1.0
    assert abs(local_threshold(GOLDEN) - np.sqrt(0.5)) <= 1e-12


def test_local_threshold_domain():
    with pytest.raises(ValueError):
        local_threshold(GOLDEN + 1e-6)
    with pytest.raises(ValueError):
        local_threshold(-1e-9)


def test_sublevel_epsilon_monotone():
    grid = np.linspace(0.0, 1.0, 100)
    vals = [sublevel_epsilon(d) for d in grid]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[0] == GOLDEN


def test_eta_to_delta_endpoints():
    assert eta_to_delta(0.0) == 1.0
    assert eta_to_delta(1.0) == 0.0
