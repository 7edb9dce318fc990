"""Tests for the dense block interior-point solver."""
import numpy as np
import pytest
import scipy.linalg as sla
from numpy.random import default_rng

from ripsharp import cli, lmi, sdp
from ripsharp.linalg import svec
from ripsharp.sdp import MAX_ITERATIONS, OPTIMAL, ConeBlock, ConeProgram, solve


def random_cone_program(seed):
    rng = default_rng(seed)
    p = int(rng.integers(3, 7))
    y0 = 0.3 * rng.standard_normal(p)
    blocks = []
    for size in rng.integers(2, 5, size=2):
        size = int(size)
        coeffs = rng.standard_normal((p, size, size))
        coeffs = 0.5 * (coeffs + coeffs.transpose(0, 2, 1))
        chol = rng.standard_normal((size, size))
        interior = chol @ chol.T + size * np.eye(size)
        f0 = interior - np.einsum("i,ijk->jk", y0, coeffs)
        blocks.append(ConeBlock(f0, coeffs))
    radius = 10.0
    coeffs = np.zeros((p, 2 * p, 2 * p))
    f0 = radius * np.eye(2 * p)
    for i in range(p):
        coeffs[i, 2 * i, 2 * i] = 1.0
        coeffs[i, 2 * i + 1, 2 * i + 1] = -1.0
    blocks.append(ConeBlock(f0, coeffs))
    c = rng.standard_normal(p)
    return ConeProgram(c=c, blocks=blocks)


# optima of random_cone_program(0..9) frozen from an independent solver
REFERENCE_OPTIMA = [
    -15.273197829262022,
    -7.285622645223036,
    -11.633797120794572,
    -37.640932265808765,
    -2.164473304108628,
    -4.650640566981446,
    -4.549064083402602,
    -9.499830744266601,
    -9.54013349802884,
    -7.536308362797339,
]


def analytic_program():
    # min delta s.t. (1-delta) I <= diag(0.6, 1.4) <= (1+delta) I;
    # optimum delta = 0.4 with both bounds active
    target = np.diag([0.6, 1.4])
    eye = np.eye(2)
    lower = ConeBlock(target - eye, eye[None])
    upper = ConeBlock(eye - target, eye[None])
    return ConeProgram(c=np.array([1.0]), blocks=[lower, upper])


def test_reference_optima():
    for seed, ref in enumerate(REFERENCE_OPTIMA):
        res = solve(random_cone_program(seed))
        assert res.status == OPTIMAL, (seed, res.status)
        assert abs(res.pobj - ref) <= 1e-6, (seed, res.pobj, ref)


def test_reference_residuals():
    # primal and dual cone feasibility, the dual equation and the
    # objective gap, recomputed from the returned pair
    for seed in range(10):
        prog = random_cone_program(seed)
        res = solve(prog)
        for blk, z in zip(prog.blocks, res.duals):
            value = blk.value(res.y)
            assert np.linalg.eigvalsh(0.5 * (value + value.T))[0] >= -1e-6, seed
            assert np.linalg.eigvalsh(z)[0] >= -1e-6, seed
        adjoint = sum(
            np.tensordot(blk.coeffs, z, axes=([1, 2], [0, 1]))
            for blk, z in zip(prog.blocks, res.duals)
        )
        assert np.abs(prog.c - adjoint).max() <= 1e-6, seed
        pobj = float(prog.c @ res.y)
        dobj = -sum(float(np.vdot(blk.f0, z)) for blk, z in zip(prog.blocks, res.duals))
        assert abs(pobj - dobj) <= 1e-6, seed


def test_analytic_bound_spread():
    res = solve(analytic_program())
    assert res.status == OPTIMAL
    assert abs(res.y[0] - 0.4) <= 1e-8


def test_analytic_dual_structure():
    # complementarity pins the duals to the active diagonal entries and
    # the objective row forces their traces to sum to one
    res = solve(analytic_program())
    z_lo, z_up = res.duals
    assert abs(z_lo[1, 1]) <= 1e-7
    assert abs(z_up[0, 0]) <= 1e-7
    assert abs(np.trace(z_lo) + np.trace(z_up) - 1.0) <= 1e-7
    assert abs(res.dobj - 0.4) <= 1e-7


def test_objective_rescaling():
    prog = random_cone_program(1)
    scaled = ConeProgram(c=100.0 * prog.c, blocks=prog.blocks)
    base = solve(prog)
    res = solve(scaled)
    assert res.status == OPTIMAL
    assert np.allclose(res.y, base.y, atol=1e-4)
    assert abs(res.pobj - 100.0 * base.pobj) <= 1e-4 * max(1.0, abs(res.pobj))


def test_constraint_rescaling():
    # scaling every block leaves the feasible set, hence the optimum
    prog = random_cone_program(2)
    scaled = ConeProgram(
        c=prog.c,
        blocks=[ConeBlock(100.0 * b.f0, 100.0 * b.coeffs) for b in prog.blocks],
    )
    base = solve(prog)
    res = solve(scaled)
    assert res.status == OPTIMAL
    assert abs(res.pobj - base.pobj) <= 1e-6


def test_block_value_symmetrized():
    coeffs = np.zeros((1, 2, 2))
    coeffs[0, 0, 1] = 2.0
    blk = ConeBlock(np.eye(2), coeffs)
    val = blk.value(np.array([1.0]))
    assert np.allclose(val, val.T)
    assert abs(val[0, 1] - 1.0) < 1e-15


def test_iteration_cap_reported(monkeypatch):
    monkeypatch.setattr(sdp, "ITERATION_LIMIT", 2)
    res = solve(random_cone_program(3))
    assert res.status == MAX_ITERATIONS
    assert res.iterations == 2


def test_iteration_cap_returns_best_floor_iterate(monkeypatch):
    # (5, 2) ecdf stream 6 sample 54: its solve first reaches the rounding
    # floor at iteration 10, the next iterate has a smaller dual residual,
    # and the later ones have dual residuals up to 43x larger until the
    # scaling fails at iteration 17; every cap from 10 returns the best
    # floor iterate seen so far
    seen = []

    def capture(prog, y0=None):
        seen.append((prog, y0))
        return solve(prog, y0=y0)

    # the cone program and start point delta_exact passes to sdp.solve
    with monkeypatch.context() as m:
        m.setattr(lmi, "_solve_cone", capture)
        lmi.delta_exact(*cli.draw_pair(5, 2, 6, 54))
    prog, y0 = seen[0]
    uncapped = solve(prog, y0=y0).iterations
    dinfs = []
    for limit in range(10, 26):
        monkeypatch.setattr(sdp, "ITERATION_LIMIT", limit)
        res = solve(prog, y0=y0)
        assert res.status == OPTIMAL, (limit, res.status)
        assert res.dinf <= sdp.STALL_DINF_TOL
        # iterations counts the iterations run, not the returned iterate's index
        assert res.iterations == min(limit, uncapped), (limit, res.iterations)
        dinfs.append(res.dinf)
    assert all(b <= a for a, b in zip(dinfs, dinfs[1:])), dinfs


def test_final_gap_meets_stopping_rule():
    # the returned gap is that of the iterate the stopping rule accepted,
    # and it is the complementarity of the returned pair to rounding
    prog = random_cone_program(4)
    res = solve(prog)
    assert res.status == OPTIMAL
    assert res.iterations >= 1
    scale = max(1.0, abs(res.pobj), abs(res.dobj))
    assert 0.0 < res.gap <= sdp.GAP_TOL * scale
    complementarity = sum(
        float(np.vdot(blk.value(res.y), z)) for blk, z in zip(prog.blocks, res.duals)
    )
    assert abs(complementarity - res.gap) <= 1e-8 * scale


def random_lam(rng, size, cond):
    # scaled-frame eigenvalues spread from 1 to cond
    return rng.permutation(np.logspace(0, np.log10(cond), size))


def random_pd_matrix(rng, size):
    a = rng.standard_normal((size, size))
    return a @ a.T + size * np.eye(size)


def random_sym(rng, size):
    d = rng.standard_normal((size, size))
    return 0.5 * (d + d.T)


def reference_step(lam, d):
    # generalized eigenvalues of (d, diag(lam)): diag(lam) + t d >= 0 iff
    # 1 + t mu >= 0 for each of them
    lam_min = sla.eigh(d, np.diag(lam), eigvals_only=True)[0]
    return np.inf if lam_min >= 0.0 else -1.0 / lam_min


def test_max_step_matches_generalized_eigenvalues():
    rng = default_rng(11)
    for cond in (1.0, 1e2, 1e4, 1e6, 1e8):
        # rounding in the scaled direction grows with the spread of lam
        rtol = 1e-14 * cond
        for _ in range(20):
            size = int(rng.integers(2, 9))
            lam, d = random_lam(rng, size, cond), random_sym(rng, size)
            ref = reference_step(lam, d)
            step = sdp._max_step([lam], [d])
            if np.isinf(ref):
                assert np.isinf(step)
            else:
                assert abs(step - ref) <= rtol * ref, (cond, step, ref)


def test_max_step_unbounded_for_psd_direction():
    rng = default_rng(12)
    a = rng.standard_normal((5, 3))
    for cond in (1.0, 1e4, 1e8):
        lam = random_lam(rng, 5, cond)
        for d in (np.zeros((5, 5)), np.eye(5), a @ a.T + 1e-3 * np.eye(5)):
            assert sdp._max_step([lam], [d]) == np.inf
    # singular PSD directions: zero eigenvalues computed to rounding
    assert sdp._max_step([np.ones(5)], [a @ a.T]) == np.inf


def test_max_step_is_minimum_over_blocks():
    rng = default_rng(13)
    lams = [random_lam(rng, size, 1e3) for size in (2, 4, 4)]
    ds = [random_sym(rng, lam.size) - 2.0 * np.eye(lam.size) for lam in lams]
    refs = [reference_step(lam, d) for lam, d in zip(lams, ds)]
    step = sdp._max_step(lams, ds)
    assert abs(step - min(refs)) <= 1e-10 * min(refs)
    # a PSD direction on one block does not bound the step
    ds[0] = np.eye(2)
    step = sdp._max_step(lams, ds)
    assert abs(step - min(refs[1:])) <= 1e-10 * min(refs[1:])


def test_direction_solves_scaled_newton_system():
    # at a random interior iterate with nonzero residuals, the scaled steps
    # returned by _direction satisfy the dual equation and are the scaled
    # image of the primal step dy.F + rp, each to rounding of the terms
    rtol = 1e-12
    rng = default_rng(15)
    for seed in range(10):
        prog = random_cone_program(seed)
        y = rng.standard_normal(prog.num_vars)
        s_list = [random_pd_matrix(rng, blk.size) for blk in prog.blocks]
        z_list = [random_pd_matrix(rng, blk.size) for blk in prog.blocks]
        rp_list, rd = sdp._residuals(prog, y, s_list, z_list, 1.0, 1.0)[:2]
        states = [sdp._BlockState(*a) for a in zip(prog.blocks, s_list, z_list, rp_list)]
        schur = sum(st.t_svec @ st.t_svec.T for st in states)
        rc_hats = [random_sym(rng, blk.size) for blk in prog.blocks]
        dy, ds_hats, dz_hats = sdp._direction(
            states, rc_hats, rd, schur, sdp._robust_cholesky(schur)
        )
        terms = [st.t_svec @ svec(dz) for st, dz in zip(states, dz_hats)]
        scale = np.linalg.norm(rd) + sum(np.linalg.norm(t) for t in terms)
        assert np.linalg.norm(sum(terms) - rd) <= rtol * scale, seed
        for blk, st, rp, ds_hat in zip(prog.blocks, states, rp_list, ds_hats):
            ds = np.einsum("i,ijk->jk", dy, blk.coeffs) + rp
            ref = st.ginv @ ds @ st.ginv.T
            size = np.linalg.norm(rp) + np.abs(dy) @ np.linalg.norm(blk.coeffs, axis=(1, 2))
            scale = np.linalg.norm(st.ginv, 2) ** 2 * size
            assert np.linalg.norm(ds_hat - ref) <= rtol * scale, seed


def test_scaling_rejects_non_pd_dual():
    # a Z that is not positive definite fails the NT scaling, so the
    # solve takes the step-failure path instead of stepping on
    blk = random_cone_program(0).blocks[0]
    size = blk.size
    indefinite = np.eye(size)
    indefinite[0, 0] = -1e-3
    for z in (indefinite, np.zeros((size, size))):
        with pytest.raises(np.linalg.LinAlgError):
            sdp._BlockState(blk, np.eye(size), z, np.zeros((size, size)))


def test_contractions_match_reference_forms():
    # the reshaped matrix products sum in another order than the einsum
    # and tensordot forms they replace; agreement is to rounding
    rtol = 1e-12
    rng = default_rng(14)
    for seed in range(10):
        prog = random_cone_program(seed)
        y = rng.standard_normal(prog.num_vars)
        zs = [random_sym(rng, blk.size) for blk in prog.blocks]
        for blk in prog.blocks:
            ref = blk.f0 + np.einsum("i,ijk->jk", y, blk.coeffs)
            assert np.linalg.norm(blk.value(y) - ref) <= rtol * np.linalg.norm(ref)
        ref = sum(
            np.tensordot(blk.coeffs, z, axes=([1, 2], [0, 1]))
            for blk, z in zip(prog.blocks, zs)
        )
        adj = sdp._adjoint(prog, zs)
        assert np.linalg.norm(adj - ref) <= rtol * np.linalg.norm(ref)


def test_coefficient_view_shares_memory():
    blk = random_cone_program(0).blocks[0]
    assert np.shares_memory(blk.flat, blk.coeffs)
