"""Tests for the half-RIP spurious-instance generator."""
import numpy as np
import pytest

from ripsharp.counterexample import generate_example, verify_example
from ripsharp.lmi import STATUS_OPTIMAL, delta_exact
from ripsharp.objective import criticality_certificate, evaluate


@pytest.mark.parametrize("n", [2, 3, 8])
def test_generated_instance_verifies(n):
    z = np.zeros(n)
    z[0] = 1.0
    ex = generate_example(z, seed=n)
    rep = verify_example(ex)
    assert rep.ok
    assert abs(rep.rip - 0.5) <= 1e-9
    assert abs(rep.f_at_x - rep.f_expected) <= 1e-9
    assert abs(rep.f_expected - 0.75) <= 1e-12
    assert rep.grad_norm <= 1e-9
    assert rep.hess_gap_min_eig >= -1e-8
    assert abs(rep.f_at_z) <= 1e-12


def test_general_ground_truth():
    rng = np.random.default_rng(21)
    z = rng.standard_normal(5)
    ex = generate_example(z, seed=3)
    rep = verify_example(ex)
    assert rep.ok
    assert abs(rep.rip - 0.5) <= 1e-9
    assert abs(rep.f_expected - 0.75 * np.linalg.norm(z) ** 4) <= 1e-9


def test_spurious_point_is_second_order_critical():
    z = np.array([1.0, 0.0, 0.0])
    ex = generate_example(z, seed=0)
    cert = criticality_certificate(ex.instance, ex.spurious_x)
    assert cert.is_first_order
    assert cert.is_second_order
    assert cert.f_value > 0.5  # spurious: nonzero residual


def test_spurious_point_attains_half_threshold():
    z = np.array([1.0, 0.0, 0.0])
    ex = generate_example(z, seed=0)
    sol = delta_exact(ex.spurious_x, z)
    assert sol.status == STATUS_OPTIMAL
    assert abs(sol.delta - 0.5) <= 1e-3


def test_spurious_factor_geometry():
    # the candidate is orthogonal to the ground truth with squared norm
    # half of it, whatever the basis seed
    rng = np.random.default_rng(4)
    z = rng.standard_normal(6)
    ex = generate_example(z, seed=11)
    x = ex.spurious_x.ravel()
    assert abs(float(x @ z)) <= 1e-12 * np.linalg.norm(z) ** 2
    assert abs(np.linalg.norm(x) ** 2 - 0.5 * np.linalg.norm(z) ** 2) <= 1e-12


def test_basis_is_orthonormal_and_seeded():
    z = np.array([0.0, 2.0, 0.0, 0.0])
    ex_a = generate_example(z, seed=5)
    ex_b = generate_example(z, seed=5)
    ex_c = generate_example(z, seed=6)
    q = ex_a.basis
    assert np.allclose(q.T @ q, np.eye(4), atol=1e-12)
    assert np.array_equal(ex_a.basis, ex_b.basis)
    assert not np.array_equal(ex_a.basis, ex_c.basis)
    # first basis vector is pinned to the normalized ground truth
    assert np.allclose(q[:, 0], z / np.linalg.norm(z), atol=1e-12)


def test_ground_truth_is_global_minimum():
    z = np.array([1.0, 2.0, 2.0])
    ex = generate_example(z, seed=9)
    f, grad, _ = evaluate(ex.instance, z)
    assert abs(f) <= 1e-12
    assert np.linalg.norm(grad) <= 1e-9


def test_operator_row_count():
    z = np.array([1.0, 0.0, 0.0, 0.0])
    ex = generate_example(z, seed=1)
    assert ex.instance.operator.m == 16
    assert ex.instance.n == 4


def test_scalar_ground_truth_rejected():
    with pytest.raises(ValueError):
        generate_example(np.array([1.0]), seed=0)
    with pytest.raises(ValueError):
        generate_example(np.ones((3, 2)), seed=0)
