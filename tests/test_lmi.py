"""Tests for the minimum-RIP LMI reduction, solve, and certificates."""
import numpy as np
import pytest

from ripsharp.errors import NotSpuriousError
from ripsharp.linalg import mat, smat, svec, svec_dim, sym
from ripsharp.lmi import (
    NORM_CAP_RADIUS,
    STATUS_NOT_BELOW_ONE,
    STATUS_OPTIMAL,
    SdpSolution,
    build_lower_lmi,
    build_upper_lmi,
    delta_exact,
    recover_minimizer,
    reduce,
    solve_lmi,
    verify_certificates,
)

# frozen from an independent convex-programming solver
SHARP_DELTA = 0.49999999999643974
RHO1_PHI90_DELTA = 0.7071067811918429
RANK2_SEED7_DELTA = 0.9913622137116854


def test_sharp_point_value():
    sol = delta_exact(np.array([0.0, 1 / np.sqrt(2)]), np.array([1.0, 0.0]))
    assert sol.status == STATUS_OPTIMAL
    assert abs(sol.delta - SHARP_DELTA) <= 1e-6


def test_orthogonal_equal_norm_value():
    sol = delta_exact(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert sol.status == STATUS_OPTIMAL
    assert abs(sol.delta - RHO1_PHI90_DELTA) <= 1e-6


def test_rank_two_value():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 2))
    z = rng.standard_normal((5, 2))
    sol = delta_exact(x, z)
    assert sol.status == STATUS_OPTIMAL
    assert abs(sol.delta - RANK2_SEED7_DELTA) <= 1e-6


def test_reduce_span_contains_columns():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 2))
    z = rng.standard_normal((5, 2))
    pair = reduce(x, z)
    assert pair.p.shape == (5, pair.d)
    assert np.allclose(pair.p.T @ pair.p, np.eye(pair.d), atol=1e-12)
    assert np.allclose(pair.p @ pair.xhat, x, atol=1e-10)
    assert np.allclose(pair.p @ pair.zhat, z, atol=1e-10)


@pytest.mark.parametrize("seed,shape", [(100, (4, 1)), (104, (4, 1)), (200, (5, 2))])
def test_reduced_and_ambient_optima_agree(seed, shape):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    z = rng.standard_normal(shape)
    up = delta_exact(x, z)
    pair = reduce(x, z)
    lo = solve_lmi(build_lower_lmi(x, z, pair.p))
    assert up.status == STATUS_OPTIMAL and lo.status == STATUS_OPTIMAL
    assert abs(up.delta - lo.delta) <= 1e-6
    assert abs(up.gap) <= 1e-7 and abs(lo.gap) <= 1e-7


def test_certificates_on_solved_pair():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 1))
    z = rng.standard_normal((4, 1))
    sol = delta_exact(x, z)
    rep = verify_certificates(sol, reduce(x, z))
    assert rep.max_violation() <= 1e-8
    assert abs(rep.gap) <= 1e-7
    # every advertised check family is present
    names = set(rep.checks)
    assert any(k.startswith("dual-") for k in names)
    assert any(k.startswith("lift-") for k in names)
    assert "stationarity" in names and "curvature-psd" in names


def test_boundary_gram_is_feasible():
    # delta = 1 with the projector complement of the residual satisfies
    # every block, whatever the pair
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 1))
    z = rng.standard_normal((4, 1))
    prob = build_upper_lmi(reduce(x, z))
    e = prob.evec
    h = np.eye(prob.dim_h) - np.outer(e, e) / float(e @ e)
    y = np.concatenate([[1.0], prob.basis.T @ svec(h)])
    for role, blk in zip(prob.roles, prob.cone.blocks):
        assert np.linalg.eigvalsh(blk.value(y))[0] >= -1e-12, role
    # stationarity rows vanish as well
    assert np.linalg.norm(prob.jac.T @ (h @ e)) <= 1e-12


def test_certificates_flag_gram_violation():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 1))
    z = rng.standard_normal((3, 1))
    pair = reduce(x, z)
    fake = SdpSolution(
        delta=0.1,
        h=2.0 * np.eye(pair.d**2),
        dual=None,
        gap=0.0,
        status=STATUS_OPTIMAL,
    )
    rep = verify_certificates(fake, pair)
    assert abs(rep.checks["gram-upper"] - 0.9) <= 1e-12
    assert rep.checks["gram-lower"] == 0.0


def test_equal_products_not_spurious():
    z = np.array([1.0, 2.0, 0.5])
    with pytest.raises(NotSpuriousError):
        delta_exact(z, z)


def test_rotated_factor_not_spurious():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((4, 2))
    theta = 0.3
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    with pytest.raises(NotSpuriousError):
        delta_exact(z @ q, z)


def test_collinear_candidate_hits_unit_bound():
    z = np.array([1.0, 0.0, 0.0])
    sol = delta_exact(2.0 * z, z)
    assert sol.status == STATUS_NOT_BELOW_ONE
    assert sol.delta == 1.0


def test_zero_candidate_hits_unit_bound():
    sol = delta_exact(np.zeros(3), np.array([1.0, 1.0, 0.0]))
    assert sol.status == STATUS_NOT_BELOW_ONE
    assert sol.delta == 1.0


def test_recovered_operator_matches_gram():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((4, 1))
    z = rng.standard_normal((4, 1))
    sol = delta_exact(x, z)
    pair = reduce(x, z)
    op = recover_minimizer(sol, pair)
    n = pair.n
    pp = np.kron(pair.p, pair.p)
    h_full = pp @ sol.h @ pp.T + np.eye(n * n) - pp @ pp.T
    assert np.linalg.norm(op.gram - h_full) <= 1e-10
    rank = int(np.sum(np.linalg.eigvalsh(sol.h) > 1e-9))
    assert op.m == rank + n * n - pair.d**2


def test_recover_requires_optimal():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 1))
    z = rng.standard_normal((3, 1))
    pair = reduce(x, z)
    bad = SdpSolution(
        delta=1.0, h=np.eye(pair.d**2), dual=None, gap=0.0,
        status=STATUS_NOT_BELOW_ONE,
    )
    with pytest.raises(ValueError):
        recover_minimizer(bad, pair)


def test_scaling_leaves_delta_invariant():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((3, 1))
    z = rng.standard_normal((3, 1))
    base = delta_exact(x, z).delta
    scaled = delta_exact(7.0 * x, 7.0 * z).delta
    assert abs(base - scaled) <= 1e-6


def test_upper_problem_shapes():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((5, 2))
    z = rng.standard_normal((5, 2))
    pair = reduce(x, z)
    prob = build_upper_lmi(pair)
    assert prob.dim_h == pair.d**2
    assert prob.evec.shape == (pair.d**2,)
    assert prob.jac.shape == (pair.d**2, pair.d * pair.r)
    assert prob.roles == ["curvature", "gram-lower", "gram-upper"]
    assert prob.cone.block_sizes == (pair.d * pair.r, pair.d**2, pair.d**2)
    assert prob.cone.num_vars == 1 + prob.basis.shape[1]


def _program(lower, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 2))
    z = rng.standard_normal((4, 2))
    pair = reduce(x, z)
    if lower:
        return build_lower_lmi(x, z, pair.p), np.kron(pair.p, pair.p), rng
    return build_upper_lmi(pair), None, rng


def _explicit_blocks(prob, pp, delta, h):
    """Every block of the program written out from its definition."""
    jac, e, r = prob.jac, prob.evec, prob.factor_rank
    side = jac.shape[1] // r
    curvature = 2.0 * np.kron(np.eye(r), sym(mat(h @ e, (side, side)))) + jac.T @ h @ jac
    bounded = h if pp is None else pp.T @ h @ pp
    eye = np.eye(bounded.shape[0])
    blocks = {
        "curvature": curvature,
        "gram-lower": bounded - (1.0 - delta) * eye,
        "gram-upper": (1.0 + delta) * eye - bounded,
    }
    if pp is not None:
        cap = NORM_CAP_RADIUS * np.eye(prob.dim_h)
        blocks["norm-cap-lower"] = cap + h
        blocks["norm-cap-upper"] = cap - h
    return blocks


@pytest.mark.parametrize("lower", [False, True])
def test_cone_blocks_match_explicit_forms(lower):
    # at a random stationary H, the null-space coordinates reproduce each
    # block of the program in (delta, H)
    prob, pp, rng = _program(lower, 12)
    delta = 0.37
    h = smat(prob.basis @ rng.standard_normal(prob.basis.shape[1]), prob.dim_h)
    y = np.concatenate([[delta], prob.basis.T @ svec(h)])
    expected = _explicit_blocks(prob, pp, delta, h)
    assert prob.roles == list(expected)
    for role, blk in zip(prob.roles, prob.cone.blocks):
        want = expected[role]
        assert np.linalg.norm(blk.value(y) - want) <= 1e-12 * np.linalg.norm(want), role


@pytest.mark.parametrize("lower", [False, True])
def test_null_space_basis_is_orthonormal_and_stationary(lower):
    prob, _, _ = _program(lower, 13)
    basis = prob.basis
    assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
    # every basis direction H_k satisfies jac^T H_k e = 0 ...
    stack = smat(basis.T, prob.dim_h)
    assert np.abs(prob.jac.T @ stack @ prob.evec).max() <= 1e-12
    # ... and the basis spans all of them: H -> jac^T H e has rank(jac)
    assert basis.shape[1] == svec_dim(prob.dim_h) - np.linalg.matrix_rank(prob.jac)


def test_collinear_pair_keeps_only_gram_blocks():
    # d = 1: the null space is empty and the curvature block is constant
    z = np.array([1.0, 0.0, 0.0])
    prob = build_upper_lmi(reduce(2.0 * z, z))
    assert prob.basis.shape[1] == 0
    assert prob.roles == ["gram-lower", "gram-upper"]
