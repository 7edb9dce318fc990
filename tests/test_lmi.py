"""Tests for the minimum-RIP LMI reduction, solve, and certificates."""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from ripsharp import cli, lmi, sdp
from ripsharp.closedform import canonical_pair, delta_lower_from_vectors
from ripsharp.errors import NotSpuriousError
from ripsharp.linalg import coincident, mat, orth_complement, smat, svec, svec_dim, sym, sym_basis, vec
from ripsharp.lmi import (
    INITIAL_DELTA,
    STATUS_NOT_BELOW_ONE,
    STATUS_OPTIMAL,
    ReducedPair,
    SdpSolution,
    build_lower_lmi,
    build_upper_lmi,
    delta_exact,
    recover_minimizer,
    reduce,
    solve_lmi,
    verify_certificates,
)
from ripsharp.objective import RecoveryInstance, criticality_certificate, jacobian_mat
from ripsharp.objective import rip_constant_fullspace, stationarity_rows

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
    # and a (7, 3) pair with z in the span of x: d is their rank, 3, not 6
    x3 = rng.standard_normal((7, 3))
    for x, z, d in [(x, z, 4), (x3, x3 @ rng.standard_normal((3, 3)), 3)]:
        pair = reduce(x, z)
        assert pair.d == d
        assert pair.p.shape == (x.shape[0], d)
        assert np.allclose(pair.p.T @ pair.p, np.eye(d), atol=1e-12)
        assert np.allclose(pair.p @ pair.xhat, x, atol=1e-10)
        assert np.allclose(pair.p @ pair.zhat, z, atol=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_factor_rejected(bad):
    x = np.array([[bad, 1.0], [0.5, 0.2], [0.1, -1.0]])
    with pytest.raises(ValueError, match="finite"):
        delta_exact(x, np.eye(3, 2))


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


@pytest.mark.parametrize(
    "case,match",
    [("not-orthonormal", "orthonormal"), ("p-rows", "rows"), ("z-rows", "rows"),
     ("ranks", "shape")],
)
def test_lower_program_rejects_bad_span(case, match):
    rng = np.random.default_rng(12)
    x = rng.standard_normal((4, 2))
    z = rng.standard_normal((4, 2))
    p = reduce(x, z).p
    args = {
        "not-orthonormal": (x, z, 2.0 * p),
        "p-rows": (x, z, p[:3]),
        "z-rows": (x, z[:3], p),
        "ranks": (x, z[:, :1], p),
    }[case]
    with pytest.raises(ValueError, match=match):
        build_lower_lmi(*args)


def test_span_basis_with_nan_rejected():
    with pytest.raises(ValueError, match="orthonormal"):
        ReducedPair(np.full((3, 1), np.nan), [[1.0]], [[0.5]])


def test_certificates_on_solved_pair():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 1))
    z = rng.standard_normal((4, 1))
    sol = delta_exact(x, z)
    rep = verify_certificates(sol, reduce(x, z))
    assert rep.max_violation() <= 1e-8
    assert abs(rep.gap) <= 1e-7
    # one frame: each primal and dual row once
    assert set(rep.checks) == {
        "stationarity", "curvature-psd", "gram-lower", "gram-upper", "dual-trace",
        "dual-equation", "dual-curvature-psd", "dual-gram-lower-psd", "dual-gram-upper-psd",
    }


def test_boundary_gram_is_feasible():
    # delta = 1 with the projector complement of the residual satisfies
    # every block, whatever the pair.  On the symmetric subspace the
    # residual is e' = svec(x x^T - z z^T) and H' has side d(d+1)/2; the
    # program is posed on H'' = R H' R, in the residual-aligned frame R.
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 1))
    z = rng.standard_normal((4, 1))
    pair = reduce(x, z)
    prob = build_upper_lmi(pair)
    resid = pair.xhat @ pair.xhat.T - pair.zhat @ pair.zhat.T
    e = svec(resid)
    h = np.eye(svec_dim(pair.d)) - np.outer(e, e) / float(e @ e)
    h_frame = svec(prob.frame @ h @ prob.frame)
    # H'' is stationary: the null-space basis reproduces it
    assert np.linalg.norm(prob.basis @ (prob.basis.T @ h_frame) - h_frame) <= 1e-12
    y = np.concatenate([[1.0], prob.basis.T @ h_frame])
    lay = sdp._layout(prob.cone.block_sizes)
    for role, value in zip(prob.roles, lay.blocks(prob.cone.f0 + y @ prob.cone.a)):
        assert np.linalg.eigvalsh(value)[0] >= -1e-12, role
    # stationarity rows vanish as well, for H = Q H' Q^T in vec coordinates
    q = sym_basis(pair.d)
    grad = jacobian_mat(pair.xhat).T @ (q @ h @ q.T @ vec(resid))
    assert np.linalg.norm(grad) <= 1e-12


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


@pytest.mark.parametrize("t", [0.0, 1e-13, -1e-13, 1e-10, -1e-10, 1e-8, -1e-8])
def test_closed_form_and_program_share_the_coincidence_rule(t):
    # x = (1 + t) z: coincident within 1e-12 of the scale, else spurious with delta = 1
    x, z = canonical_pair(1.0 + t, 0.0)
    if abs(t) < 1e-12:
        for solve in (delta_lower_from_vectors, delta_exact):
            with pytest.raises(NotSpuriousError):
                solve(x, z)
    else:
        assert delta_lower_from_vectors(x, z).delta_lb == 1.0
        assert abs(delta_exact(x, z).delta - 1.0) <= 1e-9


@pytest.mark.parametrize("s", [1.0, 1e-8])
def test_coincidence_boundary_is_relative(s):
    z = np.array([[s], [0.0]])
    for t, expected in ((0.4e-12, True), (0.6e-12, False)):
        x = (1.0 + t) * z
        residual = np.linalg.norm(x @ x.T - z @ z.T)
        assert coincident(residual, max(np.sum(x * x), np.sum(z * z))) == expected, t


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


def _check_recovered(sol, pair):
    """The operator's gram is ``sol.h`` on the span and the identity off it."""
    op = recover_minimizer(sol, pair)
    n = pair.n
    pp = np.kron(pair.p, pair.p)
    h_full = pp @ sol.h @ pp.T + np.eye(n * n) - pp @ pp.T
    assert np.linalg.norm(op.gram - h_full) <= 1e-10
    rank = int(np.sum(np.linalg.eigvalsh(sol.h) > 1e-9))
    assert op.m == rank + n * n - pair.d**2
    return op


@pytest.mark.parametrize("shape", [(4, 1), (5, 2), (6, 3)], ids=["4x1", "5x2", "6x3"])
def test_recovered_operator_matches_gram(shape):
    rng = np.random.default_rng(8)
    x = rng.standard_normal(shape)
    z = rng.standard_normal(shape)
    sol = delta_exact(x, z)
    assert sol.status == STATUS_OPTIMAL
    _check_recovered(sol, reduce(x, z))


def test_recovered_operator_from_singular_gram():
    # a rank-2 PSD gram matrix: factor_gram drops its two zero eigenvalues,
    # so H contributes two rows and the identity off the span the rest
    rng = np.random.default_rng(8)
    pair = reduce(rng.standard_normal((4, 1)), rng.standard_normal((4, 1)))
    g = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, -1.0]])
    sol = SdpSolution(delta=0.5, h=g @ g.T, dual=None, gap=0.0, status=STATUS_OPTIMAL)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(sol.h)
    op = _check_recovered(sol, pair)
    assert op.m == 2 + pair.n**2 - pair.d**2


def test_recovered_operators_pass_the_criticality_certificate():
    # the operator recovered from each (6, 3) pair of seed 3 makes x a
    # second-order critical point at criticality_certificate's default
    # tolerances, and its isometry constant on all of R^{n x n} is delta
    for k in range(12):
        rng = np.random.default_rng((3, k))
        x, z = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
        sol = delta_exact(x, z)
        assert sol.status == STATUS_OPTIMAL, k
        op = recover_minimizer(sol, reduce(x, z))
        assert criticality_certificate(RecoveryInstance(op, z), x).is_second_order, k
        assert abs(rip_constant_fullspace(op) - sol.delta) <= 1e-6, k


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
    # H' has side D = d(d+1)/2 and the curvature block dr - r(r-1)/2;
    # d = 4 at (5, 2) and d = 6 at (6, 3)
    rng = np.random.default_rng(11)
    for shape, num_vars in (((5, 2), 49), ((6, 3), 217)):
        x = rng.standard_normal(shape)
        z = rng.standard_normal(shape)
        pair = reduce(x, z)
        prob = build_upper_lmi(pair)
        d, r = pair.d, pair.r
        side = svec_dim(d)
        face = d * r - r * (r - 1) // 2
        assert prob.dim_h == side
        assert prob.evec.shape == (side,)
        assert prob.jac.shape == (side, d * r)
        assert prob.face.shape == (d * r, face)
        assert prob.roles == ["curvature", "gram-lower", "gram-upper"]
        assert prob.cone.block_sizes == (face, side, side)
        assert prob.cone.num_vars == 1 + prob.basis.shape[1] == num_vars


def _program(lower, seed, shape=(4, 2)):
    """A program with the factors it constrains: (prob, x, z, rng).

    The reduced program constrains the projected pair, the ambient one
    the pair itself.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    z = rng.standard_normal(shape)
    pair = reduce(x, z)
    if lower:
        return build_lower_lmi(x, z, pair.p), x, z, rng
    return build_upper_lmi(pair), pair.xhat, pair.zhat, rng


def _vec_stack(prob, x):
    """The null-space directions H''_k lifted to H_k = Q R H''_k R Q^T in vec coordinates."""
    q = sym_basis(x.shape[0]) @ prob.frame
    return q @ smat(prob.basis.T, prob.dim_h) @ q.T


def _skew_tangents(x):
    """vec(x Omega) for the skew basis matrices Omega = E_ab - E_ba, a < b."""
    r = x.shape[1]
    out = []
    for a in range(r):
        for b in range(a + 1, r):
            omega = np.zeros((r, r))
            omega[a, b], omega[b, a] = 1.0, -1.0
            out.append(vec(x @ omega))
    return np.array(out).reshape(-1, x.size)


def _vec_curvature(jac, e, h, r):
    """The Hessian form ``2 I_r kron sym(mat(H e)) + J^T H J`` of one vec-coordinate H,
    from its definition: a reference independent of the svec-frame kernel in objective."""
    n = jac.shape[1] // r
    return 2.0 * np.kron(np.eye(r), sym(mat(h @ e, (n, n)))) + jac.T @ h @ jac


def _explicit_blocks(prob, x, z, delta, h):
    """Every block of the program written out from its definition.

    ``h`` is H' on the symmetric subspace; the curvature form is that of
    the vec-coordinate program at H = Q H' Q^T, compressed to the face,
    for the pair scaled as the builder scales it.  The gram blocks bound
    all of H'.
    """
    n, r = x.shape
    x, z = prob.scale * x, prob.scale * z
    q = sym_basis(n)
    h_vec = q @ h @ q.T
    jac = jacobian_mat(x)
    e = vec(x @ x.T - z @ z.T)
    curvature = _vec_curvature(jac, e, h_vec, r)
    eye = np.eye(prob.dim_h)
    return {
        "curvature": prob.face.T @ curvature @ prob.face,
        "gram-lower": h - (1.0 - delta) * eye,
        "gram-upper": (1.0 + delta) * eye - h,
    }


@pytest.mark.parametrize("lower", [False, True])
def test_cone_blocks_match_explicit_forms(lower):
    # at a random stationary H'' = R H' R, the null-space coordinates
    # reproduce each block of the program in (delta, H'); the gram blocks
    # are posed on H'', so R maps them back
    prob, x, z, rng = _program(lower, 12)
    delta = 0.37
    h = smat(prob.basis @ rng.standard_normal(prob.basis.shape[1]), prob.dim_h)
    y = np.concatenate([[delta], prob.basis.T @ svec(h)])
    expected = _explicit_blocks(prob, x, z, delta, prob.frame @ h @ prob.frame)
    assert prob.roles == list(expected)
    lay = sdp._layout(prob.cone.block_sizes)
    for role, value in zip(prob.roles, lay.blocks(prob.cone.f0 + y @ prob.cone.a)):
        if role != "curvature":
            value = prob.frame @ value @ prob.frame
        want = expected[role]
        assert np.linalg.norm(value - want) <= 1e-12 * np.linalg.norm(want), role


@pytest.mark.parametrize("lower", [False, True])
def test_null_space_basis_is_orthonormal_and_stationary(lower):
    prob, x, z, _ = _program(lower, 13)
    basis = prob.basis
    assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
    # every basis direction lifts to an H_k with J^T H_k e = 0 in vec coordinates ...
    jac = jacobian_mat(x)
    e = vec(x @ x.T - z @ z.T)
    assert np.abs(jac.T @ _vec_stack(prob, x) @ e).max() <= 1e-12
    # ... and the basis spans all of them: H' -> jac'^T H' e' has rank(jac)
    assert basis.shape[1] == svec_dim(prob.dim_h) - np.linalg.matrix_rank(jac)


@pytest.mark.parametrize("lower", [False, True])
@pytest.mark.parametrize("shape", [(4, 2), (6, 3)], ids=["4x2", "6x3"])
def test_curvature_face_drops_rotation_null_space(lower, shape):
    prob, x, z, _ = _program(lower, 14, shape)
    r = x.shape[1]
    tangents = _skew_tangents(x)
    # before reduction, every coefficient annihilates every vec(x Omega)
    jac, e = jacobian_mat(x), vec(x @ x.T - z @ z.T)
    coeffs = [_vec_curvature(jac, e, h, r) for h in _vec_stack(prob, x)]
    for coeff in coeffs:
        assert np.abs(coeff @ tangents.T).max() <= 1e-12 * np.abs(coeff).max()
    # the face is an orthonormal basis of their complement
    face = prob.face
    assert face.shape == (x.size, x.size - r * (r - 1) // 2)
    assert np.abs(face.T @ face - np.eye(face.shape[1])).max() <= 1e-12
    assert np.abs(tangents @ face).max() <= 1e-12 * np.abs(tangents).max()


def test_frame_aligns_the_residual():
    # R is an orthogonal reflector that takes e' to the first axis, so the
    # stationarity rows touch only the first column of H''
    for lower in (False, True):
        prob, x, z, _ = _program(lower, 15)
        r, e = prob.frame, prob.evec
        assert np.abs(r - r.T).max() == 0.0
        assert np.abs(r @ r - np.eye(prob.dim_h)).max() <= 1e-14
        assert np.abs((r @ e)[1:]).max() <= 1e-14 and abs(abs((r @ e)[0]) - 1.0) <= 1e-14
        rows = stationarity_rows(r @ prob.jac, r @ e)
        assert np.abs(rows[:, prob.dim_h:]).max() <= 1e-14


@pytest.mark.parametrize("shape", [(3, 1), (5, 2), (6, 3), (8, 4)])
def test_gram_blocks_carry_unit_rows(shape):
    # every svec(H'') coordinate off the first column is a variable of its
    # own: svec_dim(D) - D rows of each gram block with one entry, +1 in the
    # lower block and -1 in the upper, which the solver takes by formula
    # from side sdp._UNIT_SIDE on
    rng = np.random.default_rng((0, 0))
    pair = reduce(rng.standard_normal(shape), rng.standard_normal(shape))
    prob = build_upper_lmi(pair)
    side = prob.dim_h
    lay = sdp._layout(prob.cone.block_sizes)
    units = svec_dim(side) - side
    for b, (role, sign) in enumerate((("gram-lower", 1.0), ("gram-upper", -1.0)), start=1):
        assert prob.roles[b] == role
        rows = prob.cone.a[:, lay.gathers[b][0]]
        single = np.count_nonzero(rows, axis=1) == 1
        assert single.sum() == units, (shape, role, single.sum())
        assert np.all(rows[single].sum(axis=1) == sign)
    scaling = sdp._Scaling(lay, prob.cone.a)
    if side >= sdp._UNIT_SIDE:
        assert sorted(scaling.units) == [1, 2]
        assert all(scaling.units[b][1].size == units for b in (1, 2))
    else:
        assert not scaling.units


def test_collinear_pair_keeps_only_gram_blocks():
    # d = 1: the null space is empty and the curvature block is constant
    z = np.array([1.0, 0.0, 0.0])
    prob = build_upper_lmi(reduce(2.0 * z, z))
    assert prob.basis.shape[1] == 0
    assert prob.roles == ["gram-lower", "gram-upper"]


def vec_program(pair):
    """The delta LMI with the gram matrix on all of R^{d^2}, from its definition.

    This is the formulation before the compression to the symmetric
    subspace and the face of the curvature block: stationarity rows on
    ``svec(H)`` of the ``d^2 x d^2`` matrix, the Hessian form and the two
    gram blocks of side ``d^2``.  Returns the cone program and ``y0``.
    """
    x, z, r = pair.xhat, pair.zhat, pair.r
    jac = jacobian_mat(x)
    e = vec(x @ x.T - z @ z.T)
    m, q = jac.shape
    outers = jac.T[:, :, None] * e[None, None, :]
    rows = svec(0.5 * (outers + outers.transpose(0, 2, 1)))
    basis = orth_complement(rows.T)
    stack = smat(basis.T, m)
    eye = np.eye(m)
    curvature = np.array([np.zeros((q, q))] + [_vec_curvature(jac, e, h, r) for h in stack])
    blocks = [
        (np.zeros((q, q)), curvature),
        (-eye, np.concatenate([eye[None], stack])),
        (eye, np.concatenate([eye[None], -stack])),
    ]
    c = np.zeros(1 + basis.shape[1])
    c[0] = 1.0
    y0 = np.concatenate([[INITIAL_DELTA], basis.T @ svec(eye)])
    return sdp.ConeProgram(c=c, blocks=[(svec(f0), svec(a)) for f0, a in blocks]), y0


def _pair(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape), rng.standard_normal(shape)


def _certificate_bound(x, z, sol):
    """1e-8 times the scale of the multipliers and of the residual x x^T - z z^T."""
    dual = sol.dual
    size = max(float(np.linalg.norm(m)) for m in (dual.y, dual.u1, dual.u2, dual.v))
    return 1e-8 * max(1.0, size, float(np.linalg.norm(x @ x.T - z @ z.T)))


@pytest.mark.parametrize("t", [1e-3, 1.0, 10.0])
def test_certificate_scale_in_both_frames(t):
    # the report is taken in the span frame, so it is the same, bit for bit,
    # whatever span basis the pair carries: that of reduce, I_d, or a random
    # orthonormal 8 x d one.  Its scale is max(1, multiplier norm,
    # ||x x^T - z z^T||_F); on (5, 2) ecdf stream 0 sample 3 scaled by t,
    # the multiplier y sets it at t = 1e-3 (3.6e6) and the residual (about
    # 10.8 t^2) at 1 and 10
    x, z = (t * m for m in cli.draw_pair(5, 2, 0, 3))
    pair = reduce(x, z)
    sol = delta_exact(x, z)
    rep = verify_certificates(sol, pair)
    basis, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((8, pair.d)))
    for p in (np.eye(pair.d), basis):
        other = verify_certificates(sol, ReducedPair(p, pair.xhat, pair.zhat))
        assert (other.checks, other.gap, other.scale) == (rep.checks, rep.gap, rep.scale)
    assert abs(rep.scale - 1e8 * _certificate_bound(x, z, sol)) <= 1e-12 * rep.scale
    assert (rep.scale > 1e6) == (t < 1.0)
    assert rep.max_relative_violation() == rep.max_violation() / rep.scale
    assert rep.max_relative_violation() <= 1e-8
    # without a dual only the residual sets the scale
    rep = verify_certificates(dataclasses.replace(sol, dual=None), pair)
    residual = max(1.0, np.linalg.norm(pair.xhat @ pair.xhat.T - pair.zhat @ pair.zhat.T))
    assert abs(rep.scale - residual) <= 1e-12 * residual
    assert rep.max_relative_violation() <= 1e-8


def test_certificate_report_memory_is_free_of_n():
    # the report never forms an ambient n^2 x n^2 matrix: at (12, 1) its
    # traced peak stays below one of them, 8 n^4 bytes
    x, z = _pair((12, 1), 26)
    pair = reduce(x, z)
    sol = delta_exact(x, z)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        rep = verify_certificates(sol, pair)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rep.max_relative_violation() <= 1e-8
    assert peak < 8 * pair.n**4, peak


SHAPES_AND_SEEDS = [(4, 1, 20), (4, 1, 21), (5, 2, 22), (5, 2, 23), (6, 3, 24), (6, 3, 25)]


@pytest.mark.parametrize("n,r,seed", SHAPES_AND_SEEDS)
def test_symmetric_program_matches_vec_program(n, r, seed):
    x, z = _pair((n, r), seed)
    sol = delta_exact(x, z)
    # the same unit-residual scaling the builder applies
    pair = reduce(x, z)
    c = float(np.linalg.norm(pair.xhat @ pair.xhat.T - pair.zhat @ pair.zhat.T)) ** -0.5
    pair = dataclasses.replace(pair, xhat=c * pair.xhat, zhat=c * pair.zhat)
    prog, y0 = vec_program(pair)
    ref = sdp.solve(prog, y0=y0)
    ref_delta = float(ref.y[0])
    ref_status = ref.status
    if ref_status == STATUS_OPTIMAL and ref_delta >= 1.0 - 1e-6:
        ref_status = STATUS_NOT_BELOW_ONE
    assert sol.status == ref_status
    assert abs(sol.delta - min(ref_delta, 1.0)) <= max(1e-9, sol.gap, ref.gap)
    # the symmetric program is smaller: side d(d+1)/2 against d^2
    d = pair.d
    assert prog.block_sizes[1] == d * d
    assert build_upper_lmi(pair).cone.block_sizes[1] == svec_dim(d)


@pytest.mark.parametrize("n,r,seed", SHAPES_AND_SEEDS)
def test_lifted_solution_passes_certificates(n, r, seed):
    x, z = _pair((n, r), seed)
    sol = delta_exact(x, z)
    pair = reduce(x, z)
    d = pair.d
    assert sol.status == STATUS_OPTIMAL
    assert sol.h.shape == sol.dual.u1.shape == sol.dual.u2.shape == (d * d, d * d)
    assert sol.dual.v.shape == (d * r, d * r)
    # the lifted gram matrix is the identity on vec of skew matrices
    k = np.random.default_rng(seed).standard_normal((d, d))
    skew = vec(k - k.T)
    assert np.abs(sol.h @ skew - skew).max() <= 1e-12 * np.abs(skew).max()
    rep = verify_certificates(sol, pair)
    assert rep.max_violation() <= _certificate_bound(x, z, sol)


@pytest.mark.parametrize(
    "stream,index",
    [(4, 86), (2, 65), (4, 58), (6, 55), (8, 23), (10, 70), (14, 92)]
    + [(3, 69), (6, 13), (8, 54), (12, 0), (6, 22), (9, 55)],
)
def test_former_step_failures_are_certified(stream, index):
    # (5, 2) ecdf samples that ended in a step failure, or stopped just
    # above the gap floor, before the curvature block was facially reduced;
    # then those whose solve returned the latest iterate at the rounding
    # floor, with a dual residual far above that of an earlier one
    x, z = cli.draw_pair(5, 2, stream, index)
    sol = delta_exact(x, z)
    assert sol.status == STATUS_OPTIMAL
    rep = verify_certificates(sol, reduce(x, z))
    assert rep.max_violation() <= _certificate_bound(x, z, sol)


@pytest.mark.parametrize(
    "rho,phi",
    [(1.4, 10), (1.4, 45), (1.6, 25), (1.7, 20), (1.7, 40), (1.7, 45), (1.8, 20), (1.9, 40)],
)
def test_floor_sweep_points_are_certified(rho, phi, monkeypatch):
    # criterion-4 grid points whose solve ended at the rounding floor before
    # the steps were taken in the scaled frame; now each meets the clean
    # stopping rule.  The values are those of cli.sweep_grid: these differ
    # from the literals in the last bit, and the literals take another
    # solver path
    rho = float(np.linspace(0, 2, 21)[round(10 * rho)])
    phi = float(np.linspace(0, 90, 19)[round(phi / 5)])
    x, z = canonical_pair(rho, np.deg2rad(phi))
    results = []

    def capture(prog, y0=None):
        results.append(sdp.solve(prog, y0=y0))
        return results[-1]

    monkeypatch.setattr(lmi, "_solve_cone", capture)
    sol = delta_exact(x, z)
    assert sol.status == STATUS_OPTIMAL
    (res,) = results
    assert res.gap <= sdp.GAP_TOL * max(1.0, abs(res.pobj), abs(res.dobj)), res.gap
    assert res.pinf <= sdp.FEAS_TOL and res.dinf <= sdp.FEAS_TOL, (res.pinf, res.dinf)
    rep = verify_certificates(sol, reduce(x, z))
    assert rep.max_violation() <= _certificate_bound(x, z, sol)


@pytest.mark.parametrize("shape", [(4, 1), (5, 2), (6, 3)], ids=["4x1", "5x2", "6x3"])
def test_builders_are_scale_invariant(shape):
    # each builder scales the pair by a power of two and then to unit
    # residual, so a tiny or huge pair gives the delta of the pair at unit
    # scale, and a pair scaled by 2^k the same program bit for bit
    x, z = _pair(shape, 7)
    pair = reduce(x, z)
    refs = [solve_lmi(build_upper_lmi(pair)), solve_lmi(build_lower_lmi(x, z, pair.p))]
    for s in (1e-9, 1e-7, 1e-3, 1e6, 2.0**-300, 2.0**300):
        pair = reduce(s * x, s * z)
        for ref, prob in zip(refs, (build_upper_lmi(pair), build_lower_lmi(s * x, s * z, pair.p))):
            sol = solve_lmi(prob)
            assert sol.status == STATUS_OPTIMAL, (s, prob.dim_h)
            assert abs(sol.delta - refs[0].delta) <= 1e-9, (s, prob.dim_h)
            if np.log2(s).is_integer():
                got = (sol.status, sol.delta, sol.iterations)
                assert got == (ref.status, ref.delta, ref.iterations), (s, prob.dim_h)


@pytest.mark.parametrize("n,r,seed", [(4, 1, 20), (5, 2, 22), (6, 3, 24)])
def test_ambient_solution_passes_certificates(n, r, seed):
    # the ambient program's gram matrix and multipliers are all in vec
    # coordinates of R^n, so they certify the pair with the basis I_n
    x, z = _pair((n, r), seed)
    pair = reduce(x, z)
    sol = solve_lmi(build_lower_lmi(x, z, pair.p))
    assert sol.status == STATUS_OPTIMAL
    assert sol.h.shape == sol.dual.u1.shape == (n * n, n * n)
    ambient = ReducedPair(np.eye(n), pair.p @ pair.xhat, pair.p @ pair.zhat)
    rep = verify_certificates(sol, ambient)
    assert rep.max_violation() <= _certificate_bound(x, z, sol)
