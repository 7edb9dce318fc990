"""Tests for the recovery objective and its derivatives."""
import json

import numpy as np
import pytest

from ripsharp.linalg import mat, svec, svec_dim, sym, sym_basis, vec
from ripsharp.objective import (
    MeasurementOperator,
    RecoveryInstance,
    criticality_certificate,
    curvature_adjoint,
    curvature_form,
    evaluate,
    jacobian_mat,
    rip_constant_fullspace,
)


def random_instance(seed, n, r):
    rng = np.random.default_rng(seed)
    m = n * n + 2
    op = MeasurementOperator(rng.standard_normal((m, n, n)) / np.sqrt(m))
    z = rng.standard_normal((n, r))
    return RecoveryInstance(operator=op, z=z, scale=0.5), rng


def fd_gradient(inst, x, eps=1e-5):
    g = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        g[idx] = (evaluate(inst, xp)[0] - evaluate(inst, xm)[0]) / (2 * eps)
    return g


def fd_hessian(inst, x, eps=1e-5):
    # columns ordered like vec(x), matching the analytic Hessian
    n, r = x.shape
    h = np.zeros((n * r, n * r))
    flat = x.flatten(order="F")
    for k in range(n * r):
        xp = flat.copy()
        xp[k] += eps
        xm = flat.copy()
        xm[k] -= eps
        gp = evaluate(inst, xp.reshape((n, r), order="F"))[1]
        gm = evaluate(inst, xm.reshape((n, r), order="F"))[1]
        h[:, k] = vec((gp - gm) / (2 * eps))
    return 0.5 * (h + h.T)


@pytest.mark.parametrize("seed,n,r", [(0, 3, 1), (1, 4, 1), (2, 4, 2), (3, 5, 2)])
def test_gradient_matches_finite_differences(seed, n, r):
    inst, rng = random_instance(seed, n, r)
    x = rng.standard_normal((n, r))
    _, grad, _ = evaluate(inst, x)
    approx = fd_gradient(inst, x)
    rel = np.linalg.norm(grad - approx) / max(1.0, np.linalg.norm(grad))
    assert rel <= 1e-5


@pytest.mark.parametrize("seed,n,r", [(4, 3, 1), (5, 4, 2)])
def test_hessian_matches_finite_differences(seed, n, r):
    inst, rng = random_instance(seed, n, r)
    x = rng.standard_normal((n, r))
    _, _, hess = evaluate(inst, x)
    approx = fd_hessian(inst, x)
    rel = np.linalg.norm(hess - approx) / max(1.0, np.linalg.norm(hess))
    assert rel <= 1e-4


@pytest.mark.parametrize("n,r", [(2, 1), (4, 2), (6, 3)])
def test_curvature_form_and_adjoint_are_adjoint(n, r):
    # <C(H'), V> = <H', C*(V)> for random symmetric H' and V, in svec coordinates
    rng = np.random.default_rng(n)
    x, z = rng.standard_normal((n, r)), rng.standard_normal((n, r))
    jac, evec = sym_basis(n).T @ jacobian_mat(x), svec(x @ x.T - z @ z.T)
    h = sym(rng.standard_normal((svec_dim(n),) * 2))
    v = sym(rng.standard_normal((n * r, n * r)))
    lhs = float(np.sum(curvature_form(jac, evec, h, r) * v))
    rhs = float(np.sum(h * curvature_adjoint(jac, evec, v, r)))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs), (lhs, rhs)


@pytest.mark.parametrize("seed,n,r", [(8, 3, 1), (9, 5, 2)])
def test_evaluate_matches_vec_frame_formulas(seed, n, r):
    # gradient 2c J^T H e and Hessian 2c (J^T H J + 2 I_r kron sym(mat(H e))),
    # written out in vec coordinates with the n^2 x n^2 gram matrix H
    inst, rng = random_instance(seed, n, r)
    x = rng.standard_normal((n, r))
    c, h = inst.scale, inst.operator.gram
    jac, e = jacobian_mat(x), vec(x @ x.T - inst.z @ inst.z.T)
    grad = 2.0 * c * mat(jac.T @ h @ e, (n, r))
    hess = 2.0 * c * (jac.T @ h @ jac + 2.0 * np.kron(np.eye(r), sym(mat(h @ e, (n, n)))))
    f, got_grad, got_hess = evaluate(inst, x)
    assert abs(f - c * float(e @ h @ e)) <= 1e-12 * f
    assert np.linalg.norm(got_grad - grad) <= 1e-12 * np.linalg.norm(grad)
    assert np.linalg.norm(got_hess - sym(hess)) <= 1e-12 * np.linalg.norm(hess)


def test_residual_and_value_consistent():
    inst, rng = random_instance(6, 4, 1)
    x = rng.standard_normal((4, 1))
    e = vec(x @ x.T - inst.z @ inst.z.T)
    f, _, _ = evaluate(inst, x)
    h = inst.operator.gram
    assert abs(f - inst.scale * float(e @ h @ e)) < 1e-12


def test_jacobian_action():
    # jacobian columns are d vec(x x^T) / d vec(x)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 2))
    jac = jacobian_mat(x)
    u = rng.standard_normal((4, 2))
    assert np.allclose(jac @ vec(u), vec(x @ u.T + u @ x.T), atol=1e-12)


def test_jacobian_singular_values_rank_one():
    # for a single column the nonzero singular values are 2||x|| once and
    # sqrt(2)||x|| with multiplicity n-1
    rng = np.random.default_rng(8)
    for n in (2, 3, 5):
        x = rng.standard_normal((n, 1))
        sv = np.linalg.svd(jacobian_mat(x), compute_uv=False)
        norm = np.linalg.norm(x)
        expected = np.sort(np.r_[2.0 * norm, np.sqrt(2.0) * norm * np.ones(n - 1)])
        assert np.allclose(np.sort(sv[:n]), expected, atol=1e-12 * max(1.0, norm))
        assert np.all(sv[n:] < 1e-12 * max(1.0, norm))


def test_residual_projection_off_range():
    # the residual component orthogonal to the jacobian range is the
    # rank-one piece of z z^T orthogonal to x, scaled by ||z||^2 sin^2(phi)
    rng = np.random.default_rng(9)
    for _ in range(5):
        n = 4
        x = rng.standard_normal((n, 1))
        z = rng.standard_normal((n, 1))
        op = MeasurementOperator(np.eye(n * n).reshape(n * n, n, n))
        inst = RecoveryInstance(operator=op, z=z, scale=0.5)
        e = vec(x @ x.T - z @ z.T)
        jac = jacobian_mat(x)
        resid = e - jac @ np.linalg.pinv(jac) @ e
        xhat = (x / np.linalg.norm(x)).ravel()
        v2 = z.ravel() - (z.ravel() @ xhat) * xhat
        sin_sq = float(v2 @ v2) / float(z.ravel() @ z.ravel())
        v2 = v2 / np.linalg.norm(v2)
        expected = -vec(np.outer(v2, v2)) * float(z.ravel() @ z.ravel()) * sin_sq
        assert np.allclose(resid, expected, atol=1e-10)


def test_criticality_certificate_at_ground_truth():
    inst, _ = random_instance(10, 4, 1)
    cert = criticality_certificate(inst, inst.z)
    assert cert.f_value <= 1e-15
    assert cert.is_first_order
    assert cert.is_second_order


def test_criticality_certificate_generic_point():
    inst, rng = random_instance(11, 4, 1)
    x = rng.standard_normal((4, 1))
    cert = criticality_certificate(inst, x)
    assert cert.grad_norm > cert.tol_g
    assert not cert.is_first_order


def test_rip_constant_identity_operator():
    n = 3
    op = MeasurementOperator(np.eye(n * n).reshape(n * n, n, n))
    assert rip_constant_fullspace(op) == 0.0


def test_rip_constant_scaled_operator():
    n = 3
    op = MeasurementOperator(1.1 * np.eye(n * n).reshape(n * n, n, n))
    assert abs(rip_constant_fullspace(op) - 0.21) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_operator_rejects_nonfinite_matrices(bad):
    a = np.eye(4).reshape(4, 2, 2)
    a[1, 0, 1] = bad
    with pytest.raises(ValueError, match="operator matrices must be finite"):
        MeasurementOperator(a)


def test_operator_rejects_non_stack():
    # a stack of square matrices, not one matrix nor non-square ones
    for shape in ((4, 4), (2, 2, 3)):
        with pytest.raises(ValueError, match=r"^expected \(m, n, n\) matrices, got "):
            MeasurementOperator(np.zeros(shape))


def test_instance_json_roundtrip():
    # JSON writes the shortest repr of every float, so the text round trip is exact
    inst, _ = random_instance(12, 3, 1)
    back = RecoveryInstance.from_dict(json.loads(json.dumps(inst.to_dict())))
    assert np.array_equal(back.z, inst.z)
    assert back.scale == inst.scale
    assert np.array_equal(back.operator.matrices, inst.operator.matrices)


def test_instance_json_rejects_dim_mismatch():
    inst, _ = random_instance(13, 3, 1)
    payload = inst.to_dict()
    payload["n"] = 4
    with pytest.raises(ValueError, match="inconsistent dimensions"):
        RecoveryInstance.from_dict(payload)


@pytest.mark.parametrize("payload", [[1, 2], "instance", None])
def test_instance_json_rejects_non_object(payload):
    with pytest.raises(ValueError, match="JSON object"):
        RecoveryInstance.from_dict(payload)


def test_evaluate_rejects_wrong_shape():
    inst, rng = random_instance(14, 3, 1)
    with pytest.raises(ValueError):
        evaluate(inst, rng.standard_normal((4, 1)))


def jacobian_reference(x):
    """Column j*n + i is vec(x_j e_i^T + e_i x_j^T), built one at a time."""
    n, r = x.shape
    cols = np.empty((n * n, n * r))
    eye = np.eye(n)
    for j in range(r):
        for i in range(n):
            outer = np.outer(x[:, j], eye[i])
            cols[:, j * n + i] = vec(outer + outer.T)
    return cols


@pytest.mark.parametrize("n,r", [(1, 1), (2, 1), (4, 2), (6, 3)])
def test_jacobian_closed_form_matches_loop(n, r):
    x = np.random.default_rng(10 * n + r).standard_normal((n, r))
    assert np.array_equal(jacobian_mat(x), jacobian_reference(x))

