"""Tests for the dense block interior-point solver."""
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.random import default_rng

import ripsharp
from ripsharp import cli, lmi, sdp
from ripsharp.linalg import smat, svec, svec_dim
from ripsharp.sdp import MAX_ITERATIONS, OPTIMAL, STEP_FAILURE, ConeProgram, solve


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
        blocks.append((f0, coeffs))
    radius = 10.0
    coeffs = np.zeros((p, 2 * p, 2 * p))
    f0 = radius * np.eye(2 * p)
    for i in range(p):
        coeffs[i, 2 * i, 2 * i] = 1.0
        coeffs[i, 2 * i + 1, 2 * i + 1] = -1.0
    blocks.append((f0, coeffs))
    c = rng.standard_normal(p)
    return ConeProgram(c, *packed(blocks))


def packed(blocks):
    # (F0, (p, k, k) stack) pairs of symmetric matrices as the (f0, a,
    # block_sizes) ConeProgram takes: their svecs side by side
    f0s, stacks = zip(*blocks)
    return (np.concatenate([svec(f0) for f0 in f0s]), np.hstack([svec(s) for s in stacks]),
            [len(f0) for f0 in f0s])


def parts(prog):
    # each block's F0 and (p, k, k) coefficient stack, unpacked from the program's svecs
    lay = sdp._layout(prog.block_sizes)
    return list(zip(lay.blocks(prog.f0), lay.blocks(prog.a)))


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
    lower = (target - eye, eye[None])
    upper = (eye - target, eye[None])
    return ConeProgram(np.array([1.0]), *packed([lower, upper]))


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
        for (f0, coeffs), z in zip(parts(prog), res.duals):
            value = f0 + np.tensordot(res.y, coeffs, axes=1)
            assert np.linalg.eigvalsh(0.5 * (value + value.T))[0] >= -1e-6, seed
            assert np.linalg.eigvalsh(z)[0] >= -1e-6, seed
        adjoint = sum(
            np.tensordot(coeffs, z, axes=([1, 2], [0, 1]))
            for (_, coeffs), z in zip(parts(prog), res.duals)
        )
        assert np.abs(prog.c - adjoint).max() <= 1e-6, seed
        pobj = float(prog.c @ res.y)
        dobj = -sum(float(np.vdot(f0, z)) for (f0, _), z in zip(parts(prog), res.duals))
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
    scaled = ConeProgram(100.0 * prog.c, prog.f0, prog.a, prog.block_sizes)
    base = solve(prog)
    res = solve(scaled)
    assert res.status == OPTIMAL
    assert np.allclose(res.y, base.y, atol=1e-4)
    assert abs(res.pobj - 100.0 * base.pobj) <= 1e-4 * max(1.0, abs(res.pobj))


def test_constraint_rescaling():
    # scaling every block leaves the feasible set, hence the optimum
    prog = random_cone_program(2)
    scaled = ConeProgram(prog.c, 100.0 * prog.f0, 100.0 * prog.a, prog.block_sizes)
    base = solve(prog)
    res = solve(scaled)
    assert res.status == OPTIMAL
    assert abs(res.pobj - base.pobj) <= 1e-6


def test_block_rejects_mismatched_coefficients():
    # one packed svec row of length k(k+1)/2 = 3 per variable
    for coeffs in (np.zeros((1, 6)), np.zeros((1, 2)), np.zeros(3), np.zeros((2, 3)),
                   np.zeros((1, 2, 2))):
        with pytest.raises(ValueError, match=r"blocks \(2,\) take F0 of shape \(3,\), "
                                             r"coefficients \(1, 3\); got \(3,\) and"):
            ConeProgram(np.zeros(1), svec(np.eye(2)), coeffs, (2,))


def test_program_rejects_non_square_f0_and_no_blocks():
    # F0 is the packed svec of the blocks, of length sum k(k+1)/2
    for f0 in (np.zeros(2), np.zeros(4), np.zeros((2, 2)), np.zeros((3, 1))):
        with pytest.raises(ValueError, match=r"take F0 of shape \(3,\)"):
            ConeProgram(np.zeros(1), f0, np.zeros((1, 3)), (2,))
    with pytest.raises(ValueError, match=r"take F0 of shape \(4,\)"):
        ConeProgram(np.zeros(1), np.zeros(3), np.zeros((1, 3)), (1, 2))
    with pytest.raises(ValueError, match="program has no blocks"):
        ConeProgram(np.zeros(1), np.zeros(0), np.zeros((1, 0)), ())
    # a block of side 0 or below, alone or beside a proper one, and a program with no variables
    for sizes in ((0,), (2, 0), (-1,), (2, -1)):
        with pytest.raises(ValueError, match="every block must have side at least 1"):
            ConeProgram(np.zeros(1), svec(np.eye(2)), np.zeros((1, 3)), sizes)
    with pytest.raises(ValueError, match="program has no variables"):
        ConeProgram(np.zeros(0), svec(np.eye(2)), np.zeros((0, 3)), (2,))
    # a non-finite objective, F0 entry or coefficient, or start point
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="c must be finite"):
            ConeProgram(np.array([bad]), svec(np.eye(2)), np.zeros((1, 3)), (2,))
        f0, coeffs = svec(np.eye(2)), np.zeros((1, 3))
        f0[1] = bad
        with pytest.raises(ValueError, match="F0 and coefficients must be finite"):
            ConeProgram(np.zeros(1), f0, np.zeros((1, 3)), (2,))
        coeffs[0, 2] = bad
        with pytest.raises(ValueError, match="F0 and coefficients must be finite"):
            ConeProgram(np.zeros(1), svec(np.eye(2)), coeffs, (2,))
        with pytest.raises(ValueError, match="y0 must be a finite vector"):
            solve(analytic_program(), y0=np.array([bad]))


def test_iteration_cap_reported(monkeypatch):
    monkeypatch.setattr(sdp, "ITERATION_LIMIT", 2)
    res = solve(random_cone_program(3))
    assert res.status == MAX_ITERATIONS
    assert res.iterations == 2


def stalling_program():
    # random_cone_program(5) with a seventh variable whose coefficients and
    # cost are those of the first to 1e-7: the Schur complement is nearly
    # singular, and the dual residual floors near 1e-8, above FEAS_TOL
    base = random_cone_program(5)
    rng = default_rng(55)
    a = np.vstack([base.a, base.a[:1] + 1e-7 * rng.standard_normal(base.a.shape[1])])
    c = np.append(base.c, base.c[0] * (1.0 + 1e-7))
    return ConeProgram(c, base.f0, a, base.block_sizes)


def assert_objectives_of_returned_pair(prog, res):
    # pobj and dobj are the objectives of the returned y and duals, and the
    # gap is their complementarity <F(y), Z> to rounding
    scale = max(1.0, abs(res.pobj), abs(res.dobj))
    assert res.pobj == float(prog.c @ res.y)
    packed = np.concatenate([svec(z) for z in res.duals])
    assert abs(res.dobj + float(prog.f0 @ packed)) <= 1e-12 * scale
    complementarity = sum(
        float(np.vdot(f0 + np.tensordot(res.y, coeffs, axes=1), z))
        for (f0, coeffs), z in zip(parts(prog), res.duals)
    )
    assert abs(complementarity - res.gap) <= 1e-8 * scale


def test_stalled_solve_reports_why_it_stopped(monkeypatch):
    # a solve that stops short: no iterate meets the strict rule, and the
    # scaling fails at iteration 15, with the primal and dual residuals
    # (1.4e-10 and 1.7e-8) above their bounds.  Caps 1-14 stop at the cap
    # as max-iterations, and caps from 15 at the failure; either way the
    # result is the last iterate with its own gap, residuals and
    # objectives.  None of the 2318 delta programs of tools/parity.py
    # stops short, so the program is built to stall
    prog = stalling_program()
    for limit in [sdp.ITERATION_LIMIT] + list(range(1, 26)):
        monkeypatch.setattr(sdp, "ITERATION_LIMIT", limit)
        res = solve(prog)
        expected = (MAX_ITERATIONS, limit) if limit < 15 else (STEP_FAILURE, 15)
        assert (res.status, res.iterations) == expected, limit
        scale = max(1.0, abs(res.pobj), abs(res.dobj))
        strict = (res.gap <= sdp.GAP_TOL * scale and res.pinf <= sdp.PRIMAL_FEAS_TOL
                  and res.dinf <= sdp.FEAS_TOL)
        assert not strict, (limit, res.gap, res.pinf, res.dinf)
        assert_objectives_of_returned_pair(prog, res)


def test_final_gap_meets_stopping_rule():
    # the returned gap is that of the iterate the stopping rule accepted
    prog = random_cone_program(4)
    res = solve(prog)
    assert res.status == OPTIMAL
    assert res.iterations >= 1
    assert 0.0 < res.gap <= sdp.GAP_TOL * max(1.0, abs(res.pobj), abs(res.dobj))
    assert_objectives_of_returned_pair(prog, res)


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


def layout(sizes):
    # the index tables of a program with blocks of these sizes
    return sdp._layout(tuple(sizes))


def block_slices(lay):
    # per block: its rows of a packed svec and its rows of the n x n matrix
    ends = np.cumsum([k * (k + 1) // 2 for k in lay.sizes])
    offs = np.cumsum(lay.sizes)
    return [(slice(e - k * (k + 1) // 2, e), slice(o - k, o))
            for e, o, k in zip(ends, offs, lay.sizes)]


def packed_steps(lams, ds, dz):
    # _max_steps on the packed svecs of the blocks' scaled steps
    lay = layout([lam.size for lam in lams])
    lam = np.concatenate(lams)
    unit = 1.0 / np.sqrt(lam[lay.i] * lam[lay.j])
    pack = [np.concatenate([svec(x) for x in d]) for d in (ds, dz)]
    return sdp._max_steps(lay, unit, *pack)


def test_layout_tables():
    # each block of a packed svec is the smat of its rows, the block-diagonal
    # scatter is zero off the blocks, the svec gather of that matrix is the
    # blocks' svecs side by side, and the block starts sum each block
    rng = default_rng(19)
    more = [random_cone_program(k).block_sizes for k in range(3)]
    for sizes in [(2, 3, 3), (1,), (4, 1, 2)] + more:
        lay = layout(sizes)
        v = rng.standard_normal(sum(k * (k + 1) // 2 for k in sizes))
        blocks = lay.blocks(v)
        for blk, (rows, _), k in zip(blocks, block_slices(lay), sizes):
            assert np.array_equal(blk, smat(v[rows], k))
        assert np.array_equal(lay.smat(v), sla.block_diag(*blocks))
        assert np.array_equal(lay.svec(lay.smat(v)), np.concatenate([svec(b) for b in blocks]))
        assert np.allclose(lay.svec(lay.smat(v)), v, rtol=1e-15, atol=0.0)
        sums = [v[rows] @ v[rows] for rows, _ in block_slices(lay)]
        assert np.allclose(np.add.reduceat(v * v, lay.starts), sums, rtol=1e-14, atol=0.0)
        lam = rng.standard_normal(lay.n)
        assert np.array_equal(lay.svec(np.diag(lam)), lay.eye * lam[lay.i])


def test_layout_tables_shared_and_read_only():
    # programs with the same block sizes share one layout, whose tables no
    # solve can write to; the program data stay per program
    first, second = random_cone_program(0), random_cone_program(0)
    lay = sdp._layout(first.block_sizes)
    assert lay is sdp._layout(second.block_sizes)
    names = ("offsets", "starts", "i", "j", "w", "eye", "lower", "upper")
    for table in [getattr(lay, name) for name in names] + [lower for _, lower in lay.gathers]:
        with pytest.raises(ValueError):
            table[0] = 1
    assert not np.shares_memory(first.a, second.a) and not np.shares_memory(first.f0, second.f0)


def test_max_step_matches_generalized_eigenvalues():
    rng = default_rng(11)
    for cond in (1.0, 1e2, 1e4, 1e6, 1e8):
        # rounding in the scaled direction grows with the spread of lam
        rtol = 1e-14 * cond
        for _ in range(20):
            size = int(rng.integers(2, 9))
            lam = random_lam(rng, size, cond)
            ds, dz = random_sym(rng, size), random_sym(rng, size)
            steps = packed_steps([lam], [ds], [dz])
            for d, step in zip((ds, dz), steps):
                ref = reference_step(lam, d)
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
            assert packed_steps([lam], [d], [d]) == (np.inf, np.inf)
    # singular PSD directions: zero eigenvalues computed to rounding
    assert packed_steps([np.ones(5)], [a @ a.T], [a @ a.T]) == (np.inf, np.inf)
    # one unbounded direction leaves the other step finite
    primal, dual = packed_steps([np.ones(5)], [np.eye(5)], [-np.eye(5)])
    assert primal == np.inf and abs(dual - 1.0) <= 1e-15


def test_max_step_is_minimum_over_blocks():
    rng = default_rng(13)
    lams = [random_lam(rng, size, 1e3) for size in (2, 4, 4)]
    ds = [random_sym(rng, lam.size) - 2.0 * np.eye(lam.size) for lam in lams]
    dz = [random_sym(rng, lam.size) - 2.0 * np.eye(lam.size) for lam in lams]
    for side, d in enumerate((ds, dz)):
        refs = [reference_step(lam, x) for lam, x in zip(lams, d)]
        step = packed_steps(lams, ds, dz)[side]
        assert abs(step - min(refs)) <= 1e-10 * min(refs)
    # a PSD direction on one block does not bound the step
    for side, d in enumerate((ds, dz)):
        d[0] = np.eye(2)
        refs = [reference_step(lam, x) for lam, x in zip(lams[1:], d[1:])]
        step = packed_steps(lams, ds, dz)[side]
        assert abs(step - min(refs)) <= 1e-10 * min(refs)


def test_max_step_with_shared_eigenvalue():
    # blocks whose scaled frames share eigenvalues exactly, some or all:
    # the packed step is still the minimum of the blocks' own steps
    rng = default_rng(18)
    for _ in range(20):
        lam = random_lam(rng, 3, 1e3)
        for lams in ([lam, lam.copy()], [lam, rng.permutation(np.append(lam[:2], 7.0))]):
            ds = [random_sym(rng, 3) - np.eye(3) for _ in lams]
            dz = [random_sym(rng, 3) - np.eye(3) for _ in lams]
            for side, d in enumerate((ds, dz)):
                refs = [reference_step(l, x) for l, x in zip(lams, d)]
                step = packed_steps(lams, ds, dz)[side]
                assert abs(step - min(refs)) <= 1e-10 * min(refs), (step, refs)


def random_iterates(rng, prog, fill=None):
    # a random interior iterate of prog with nonzero residuals, as packed
    # svecs, and its scaling, whose buffers start as fill if it is given
    lay = sdp._layout(prog.block_sizes)
    y = rng.standard_normal(prog.num_vars)
    s, z = (np.concatenate([svec(random_pd_matrix(rng, k)) for k in lay.sizes]) for _ in "sz")
    rp, rd = sdp._residuals(lay, prog, y, s, z, 1.0, 1.0)[:2]
    sc = sdp._Scaling(lay, prog.a)
    if fill is not None:
        for buffer in work_buffers(sc):
            buffer.fill(fill)
    sc.factor(s, z, rp)
    return lay, rp, rd, sc


def work_buffers(sc):
    # the arrays every factor call overwrites: the three work buffers that
    # every chunk's products and gathers take views of, the svecs of the blocks
    # without unit rows and the cross terms of those with, the Schur matrix and
    # its factor
    assert all(np.shares_memory(u, sc.work[0]) and np.shares_memory(t, sc.work[1])
               and (gather is out or np.shares_memory(gather, sc.work[0]))
               for chunks in sc.chunks for _, u, t, gather, out in chunks)
    crosses = [unit[-1] for unit in sc.units.values()]
    return [sc.work, sc.svecs, *crosses, sc.schur, sc.chol]


def reference_map(prog, sc):
    # the packed svecs of G^-1 F_i G^-T, one per column, from a loop over
    # the coefficients: the map apply stands for, whatever path a row takes
    lay = sc.lay
    cols = [np.concatenate([svec(sc.ginv[sub, sub] @ f[i] @ sc.ginv[sub, sub].T)
                            for (_, f), (_, sub) in zip(parts(prog), block_slices(lay))])
            for i in range(prog.num_vars)]
    return np.array(cols).T


def planted_program(seed, sizes=(1, 3, 17, 21)):
    # random blocks in which half the rows, the trailing run that a unit row
    # must lie in, have one entry: +-1 or another value, four of them, drawn
    # per block, at one svec position; blocks of side 1 and on both sides of
    # sdp._UNIT_SIDE
    rng = default_rng(seed)
    p = 30
    rows = []
    for k in sizes:
        a = rng.standard_normal((p, svec_dim(k)))
        unit = np.arange(p - p // 2, p)
        a[unit] = 0.0
        pos = rng.integers(0, svec_dim(k), unit.size)
        share = rng.permutation(unit.size)[:4]
        pos[share] = pos[share[0]]
        a[unit, pos] = rng.choice([1.0, -1.0, 0.3, -2.5], unit.size)
        rows.append(a)
    f0 = np.concatenate([svec(5.0 * np.eye(k)) for k in sizes])
    return ConeProgram(rng.standard_normal(p), f0, np.hstack(rows), sizes)


def random_direction(rng, lay, rd, sc):
    # the Newton direction of a random packed centering term
    rc = np.concatenate([svec(random_sym(rng, k)) for k in lay.sizes])
    return sdp._direction(sc, rd, rc)


def delta_program(n, r):
    # the delta program of the (n, r) pair of default_rng((0, 0)), x then z
    rng = default_rng((0, 0))
    return lmi.build_upper_lmi(lmi.reduce(rng.standard_normal((n, r)),
                                          rng.standard_normal((n, r)))).cone


def kernel_programs():
    # random_cone_program(0..9) and one (6, 3) delta program, blocks (15, 21, 21)
    return [random_cone_program(seed) for seed in range(10)] + [delta_program(6, 3)]


def test_scaled_rows_match_per_coefficient_loop():
    # the chunked products and their gathers give every column of svecs the
    # svec of the lower triangle of G^-1 F_i G^-T on the blocks without unit
    # rows, and the Schur matrix is the Gram matrix of the whole map
    rng = default_rng(16)
    for prog in kernel_programs():
        lay, _, _, sc = random_iterates(rng, prog)
        ref = reference_map(prog, sc)
        full = ref[sc.full]
        assert np.linalg.norm(sc.svecs - full) <= 1e-13 * np.linalg.norm(full), prog.block_sizes
        schur = ref.T @ ref
        err = np.linalg.norm(sc.schur - schur)
        assert err <= 1e-13 * np.linalg.norm(schur), (prog.block_sizes, err)
        assert np.array_equal(sc.schur, sc.schur.T)


@pytest.mark.parametrize("unit_side", [1, 4, sdp._UNIT_SIDE])
def test_unit_rows_match_per_coefficient_congruence(monkeypatch, unit_side):
    # with unit rows taken by formula from side unit_side on, the Schur
    # matrix, the map dy -> svec(G^-1 F(dy) G^-T) and its adjoint match the
    # per-coefficient congruences to 1e-13, and the Newton direction solves
    # the reference system
    monkeypatch.setattr(sdp, "_UNIT_SIDE", unit_side)
    rng = default_rng(23)
    for seed in range(6):
        prog = planted_program(seed)
        sc = assert_matches_reference(rng, prog, seed)
        assert sorted(sc.units) == [b for b, k in enumerate(prog.block_sizes) if k >= unit_side]


def test_single_entry_rows_before_a_dense_row_are_dense():
    # in a block of side >= sdp._UNIT_SIDE, the unit rows are the trailing run
    # of single-entry rows only: with three planted unit rows moved to the
    # front, the side-17 block takes the rest of its run by formula, and with
    # a dense last row the side-21 block takes every row by congruence; the
    # result still matches the reference
    rng = default_rng(25)
    for seed in range(3):
        prog = planted_program(seed)
        p, run = prog.num_vars, prog.num_vars // 2
        order = np.r_[p - 3:p, :p - 3]
        a = prog.a[order]
        wide = sdp._layout(prog.block_sizes).gathers[3][0]
        a[-1, wide] = rng.standard_normal(wide.stop - wide.start)
        prog = ConeProgram(prog.c[order], prog.f0, a, prog.block_sizes)
        sc = assert_matches_reference(rng, prog, seed)
        assert sorted(sc.units) == [2] and sc.units[2][0] == p - (run - 3), seed


def assert_matches_reference(rng, prog, label):
    # at random iterates, the Schur matrix, the map dy -> svec(G^-1 F(dy) G^-T)
    # and its adjoint match the per-coefficient congruences to 1e-13, and the
    # Newton direction solves the reference system; returns the scaling
    lay, _, rd, sc = random_iterates(rng, prog)
    ref = reference_map(prog, sc)
    schur = ref.T @ ref
    assert np.linalg.norm(sc.schur - schur) <= 1e-13 * np.linalg.norm(schur), label
    dy, v = rng.standard_normal(prog.num_vars), rng.standard_normal(lay.w.size)
    for got, want in ((sc.apply(dy), ref @ dy), (sc.adjoint(v), ref.T @ v)):
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), label
    rc = np.concatenate([svec(random_sym(rng, k)) for k in lay.sizes])
    dy, ds, dz = sdp._direction(sc, rd, rc)
    x = sc.lyap * rc
    want = np.linalg.solve(schur, ref.T @ (x - sc.rp_hat) - rd)
    assert np.linalg.norm(dy - want) <= 1e-11 * np.linalg.norm(want), label
    assert np.linalg.norm(ds - ref @ dy - sc.rp_hat) <= 1e-13 * np.linalg.norm(ds), label
    assert np.array_equal(dz, x - ds)
    return sc


def test_unit_rows_solve_as_congruences(monkeypatch):
    # delta programs solved with the formula at every block side, and with
    # the congruences at every side, end alike: the x = 0 program, whose
    # three blocks of side 1 share one entry in every row, and (3, 1), (5, 2)
    progs = [lmi.build_upper_lmi(lmi.reduce(np.zeros(3), np.array([1.0, 0.0, 0.0]))).cone,
             delta_program(3, 1), delta_program(5, 2)]
    assert progs[0].block_sizes == (1, 1, 1)
    monkeypatch.setattr(sdp, "_UNIT_SIDE", 1)
    unit = [solve(prog) for prog in progs]
    monkeypatch.setattr(sdp, "_UNIT_SIDE", 10**9)
    for prog, res in zip(progs, unit):
        ref = solve(prog)
        assert res.status == ref.status == OPTIMAL, (prog.block_sizes, res.status)
        assert abs(res.iterations - ref.iterations) <= 1, (res.iterations, ref.iterations)
        moved = abs(res.y[0] - ref.y[0])
        assert moved <= max(1e-9, ref.gap), (prog.block_sizes, moved)


def test_product_buffers_are_overwritten():
    # a scaling writes every entry of its buffers before it reads them, so
    # one whose buffers start as NaN equals one whose buffers start as zeros;
    # every output buffer is written whole (the work buffers' tails may stay
    # unused)
    for seed, prog in enumerate(kernel_programs() + [planted_program(0)]):
        nan = random_iterates(default_rng(seed), prog, np.nan)[3]
        zero = random_iterates(default_rng(seed), prog, 0.0)[3]
        assert not any(np.isnan(b).any() for b in work_buffers(nan)[1:]), seed
        for name in ("svecs", "rp_hat", "lam", "ginv", "schur", "chol"):
            assert np.array_equal(getattr(nan, name), getattr(zero, name)), (seed, name)
        for b in nan.units:
            assert np.array_equal(nan.units[b][-1], zero.units[b][-1]), (seed, b)


def test_product_buffers_kept_for_the_solve(monkeypatch):
    # every scaling of one solve reuses the same lam, G^-1, chunk, svec, Schur
    # and factor buffers, G^-1 stays zero off its diagonal blocks, and dpotrf
    # factors the Schur matrix in place, in the factor buffer
    seen, factor = [], sdp._Scaling.factor

    def record(sc, *args):
        factor(sc, *args)
        seen.append(([sc.lam, sc.ginv] + work_buffers(sc), sc.schur.copy(), sc.chol.copy(),
                     sc.ginv.copy()))

    monkeypatch.setattr(sdp._Scaling, "factor", record)
    prog = kernel_programs()[-1]
    assert solve(prog).status == OPTIMAL
    assert len(seen) >= 2
    off_block = np.ones((sum(prog.block_sizes),) * 2, dtype=bool)
    for _, sub in block_slices(sdp._layout(prog.block_sizes)):
        off_block[sub, sub] = False
    for buffers, _, _, ginv in seen:
        assert all(np.shares_memory(a, b) for a, b in zip(seen[0][0], buffers))
        assert buffers[-1].flags.f_contiguous
        assert not ginv[off_block].any()
    for _, schur, chol, _ in seen:
        factor_rows = np.tril(chol)
        err = np.linalg.norm(factor_rows @ factor_rows.T - schur)
        assert err <= 1e-12 * np.linalg.norm(schur), err


def test_chunk_boundaries_do_not_move_the_solve(monkeypatch):
    # chunks of a few variables, the last one ragged, solve every program as
    # the default chunks do: same status and iterations, delta within 1e-12;
    # a block's chunks cover its dense rows, all rows but its unit rows
    progs = [delta_program(6, 3), delta_program(5, 2)]
    base = [solve(prog) for prog in progs]
    monkeypatch.setattr(sdp, "_CHUNK", 2000)
    for prog, ref in zip(progs, base):
        sc = sdp._Scaling(sdp._layout(prog.block_sizes), prog.a)
        for b, (chunks, k) in enumerate(zip(sc.chunks, prog.block_sizes)):
            widths = [out.shape[1] for *_, out in chunks]
            assert len(chunks) > 1 and widths[-1] < widths[0] == 2000 // (k * k), widths
            units = prog.num_vars - sc.units[b][0] if b in sc.units else 0
            assert sum(widths) + units == prog.num_vars
        res = solve(prog)
        assert res.status == ref.status == OPTIMAL and res.iterations == ref.iterations
        assert abs(res.y[0] - ref.y[0]) <= 1e-12, (prog.block_sizes, res.y[0] - ref.y[0])


def test_chunks_gather_into_contiguous_buffers():
    # a block that takes several chunks gathers each into a C-contiguous
    # buffer and copies it once, never through a write-back temporary: at
    # (6, 3) the curvature block takes two chunks
    prog = delta_program(6, 3)
    lay, _, _, sc = random_iterates(default_rng(24), prog)
    assert len(sc.chunks[0]) == 2
    for chunks in sc.chunks:
        for *_, gather, out in chunks:
            assert gather.flags.c_contiguous
            assert gather is out or not np.shares_memory(gather, out)


def test_solve_memory_bounded_by_program():
    # the solve holds the unpacked program, svecs and the Schur buffers, and
    # the congruence products only a chunk at a time: its traced peak stays
    # within 6x the packed coefficients (10.1x and 10.2x with whole products)
    for n, r in ((6, 3), (8, 4)):
        prog = delta_program(n, r)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert solve(prog).status == OPTIMAL
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 6 * prog.a.nbytes, ((n, r), peak / prog.a.nbytes)


def test_schur_cholesky_retries_with_jitter():
    # a singular PSD Schur matrix fails the first dpotrf and is factored in
    # place with diagonal jitter, each retry starting from the unfactored
    # matrix, which stays as it was; an indefinite one fails every retry
    v = np.array([[1.0, 2.0, 3.0]])
    schur = v.T @ v
    keep, out = schur.copy(), np.empty((3, 3), order="F")
    sdp._robust_cholesky(schur, out)
    low = np.tril(out)
    assert np.array_equal(schur, keep)
    assert 0.0 < np.diag(low @ low.T - schur).min() and np.abs(low @ low.T - schur).max() <= 1e-11
    with pytest.raises(np.linalg.LinAlgError):
        sdp._robust_cholesky(-np.eye(3), out)


def test_step_lengths_match_each_block():
    # at the Newton steps of random iterates, both step lengths of every
    # block agree with the generalized eigenvalue reference, and the
    # packed step over all blocks is their minimum
    rng = default_rng(17)
    for prog in kernel_programs():
        lay, _, rd, sc = random_iterates(rng, prog)
        _, ds, dz = random_direction(rng, lay, rd, sc)
        refs = []
        for rows, sub in block_slices(lay):
            lam = sc.lam[sub]
            rtol = 1e-14 * lam.max() / lam.min()
            steps = sdp._max_steps(layout([lam.size]), sc.unit[rows], ds[rows], dz[rows])
            refs.append([reference_step(lam, smat(d[rows])) for d in (ds, dz)])
            for ref, step in zip(refs[-1], steps):
                if np.isinf(ref):
                    assert np.isinf(step)
                else:
                    assert abs(step - ref) <= rtol * ref, (prog.block_sizes, step, ref)
        rtol = 1e-14 * sc.lam.max() / sc.lam.min()
        for ref, step in zip(np.min(refs, axis=0), sdp._max_steps(lay, sc.unit, ds, dz)):
            assert step == ref if np.isinf(ref) else abs(step - ref) <= rtol * ref


def test_direction_solves_scaled_newton_system():
    # at a random interior iterate with nonzero residuals, the scaled steps
    # returned by _direction satisfy the dual equation and are the scaled
    # image of the primal step dy.F + rp, each to rounding of the terms
    rtol = 1e-12
    rng = default_rng(15)
    for seed in range(10):
        prog = random_cone_program(seed)
        lay, rp, rd, sc = random_iterates(rng, prog)
        dy, ds, dz = random_direction(rng, lay, rd, sc)
        ref = reference_map(prog, sc)
        terms = [dz[rows] @ ref[rows] for rows, _ in block_slices(lay)]
        scale = np.linalg.norm(rd) + sum(np.linalg.norm(t) for t in terms)
        assert np.linalg.norm(sum(terms) - rd) <= rtol * scale, seed
        for (_, coeffs), rp_k, (rows, sub) in zip(parts(prog), lay.blocks(rp), block_slices(lay)):
            ginv = sc.ginv[sub, sub]
            ref = ginv @ (np.einsum("i,ijk->jk", dy, coeffs) + rp_k) @ ginv.T
            size = np.linalg.norm(rp_k) + np.abs(dy) @ np.linalg.norm(coeffs, axis=(1, 2))
            scale = np.linalg.norm(ginv, 2) ** 2 * size
            assert np.linalg.norm(smat(ds[rows]) - ref) <= rtol * scale, seed


def test_scaling_rejects_non_pd_dual():
    # a Z that is not positive definite fails the NT scaling, so the
    # solve takes the step-failure path instead of stepping on
    prog = random_cone_program(0)
    prog = ConeProgram(prog.c, *packed(parts(prog)[:1]))
    lay = sdp._layout(prog.block_sizes)
    size = lay.n
    indefinite = np.eye(size)
    indefinite[0, 0] = -1e-3
    sc = sdp._Scaling(lay, prog.a)
    for z in (indefinite, np.zeros((size, size))):
        with pytest.raises(np.linalg.LinAlgError):
            sc.factor(svec(np.eye(size)), svec(z), np.zeros(lay.w.size))


def test_contractions_match_reference_forms():
    # the packed products F(y) = f0 + y A and A z sum in another order than
    # the einsum and tensordot forms they replace; agreement is to rounding
    rtol = 1e-12
    rng = default_rng(14)
    for seed in range(10):
        prog = random_cone_program(seed)
        lay = sdp._layout(prog.block_sizes)
        y = rng.standard_normal(prog.num_vars)
        zs = [random_sym(rng, k) for k in prog.block_sizes]
        for (f0, coeffs), fy in zip(parts(prog), lay.blocks(prog.f0 + y @ prog.a)):
            ref = f0 + np.einsum("i,ijk->jk", y, coeffs)
            assert np.linalg.norm(fy - ref) <= rtol * np.linalg.norm(ref)
        ref = sum(
            np.tensordot(coeffs, z, axes=([1, 2], [0, 1]))
            for (_, coeffs), z in zip(parts(prog), zs)
        )
        adj = prog.a @ np.concatenate([svec(z) for z in zs])
        assert np.linalg.norm(adj - ref) <= rtol * np.linalg.norm(ref)


def test_block_order_does_not_move_optimum():
    # the packed iterate lays the blocks out in program order; reversing
    # or rotating that order leaves the optimum to within the final gap
    for seed in range(10):
        prog = random_cone_program(seed)
        base = solve(prog)
        pairs = parts(prog)
        for blocks in (pairs[::-1], pairs[1:] + pairs[:1]):
            res = solve(ConeProgram(prog.c, *packed(blocks)))
            assert res.status == OPTIMAL, (seed, res.status)
            bound = max(1e-9, base.gap, res.gap)
            assert abs(res.pobj - base.pobj) <= bound, (seed, res.pobj - base.pobj, bound)


def test_coefficient_view_shares_memory():
    # one stored program, in svec coordinates: f0 and a column-major a are
    # stored as given, not copied, and a has one column per svec entry of
    # the blocks, side by side
    rng = default_rng(21)
    p, sizes = 4, (3, 1, 5)
    width = sum(svec_dim(k) for k in sizes)
    f0, a = rng.standard_normal(width), np.asfortranarray(rng.standard_normal((p, width)))
    prog = ConeProgram(np.ones(p), f0, a, sizes)
    assert prog.block_sizes == sizes
    assert prog.f0 is f0 and prog.a is a
    lay = sdp._layout(prog.block_sizes)
    assert [rows.stop - rows.start for rows, _ in lay.gathers] == [svec_dim(k) for k in sizes]
    assert lay.gathers[-1][0].stop == prog.a.shape[1] == prog.f0.size


def test_stored_coefficients_are_column_major():
    # the solve's rounding depends on the order of a: the delta programs are
    # written column-major, and a C-ordered a is stored as a column-major copy
    # of the same values; with a C-ordered a, delta moves at the rounding level
    # in most of the parity programs
    for shape in ((3, 1), (5, 2), (6, 3)):
        assert delta_program(*shape).a.flags.f_contiguous, shape
    a = default_rng(22).standard_normal((4, 9))
    prog = ConeProgram(np.ones(4), np.zeros(9), a, (2, 3))
    assert a.flags.c_contiguous and prog.a.flags.f_contiguous
    assert np.array_equal(prog.a, a)


# Prints the iterations summed over the 12 (6, 3) certify-rank3 pairs of seed 0.
CERTIFY_ITERATIONS = """
from numpy.random import default_rng
from ripsharp import lmi
total = 0
for index in range(12):
    rng = default_rng((0, index))
    total += lmi.delta_exact(rng.standard_normal((6, 3)), rng.standard_normal((6, 3))).iterations
print(total)
"""


def test_iteration_totals_within_budget(monkeypatch):
    # interior-point iterations summed over the criterion-4 sweep (3712),
    # the 100 (5, 2) samples of ecdf stream 0 (965) and the 12 (6, 3)
    # certify-rank3 pairs of seed 0 (140 at one BLAS thread, 139 at two),
    # with 5% headroom over the larger count: a change that costs
    # iterations fails
    counts = []

    def count(prog, y0=None):
        res = solve(prog, y0=y0)
        counts.append(res.iterations)
        return res

    monkeypatch.setattr(lmi, "_solve_cone", count)
    cli.sweep_grid(cli.SweepConfig(0.0, 2.0, 21, 0.0, 90.0, 19, mode="exact"))
    assert len(counts) == 398 and sum(counts) <= 3899, sum(counts)
    counts.clear()
    cli.sample_ecdf(cli.EcdfConfig(n=5, r=2, num_samples=100, seed=0))
    assert len(counts) == 100 and sum(counts) <= 1014, sum(counts)
    # the thread count is fixed when OpenBLAS loads, so each run of the
    # certify pairs is a fresh interpreter
    for threads in ("1", "2"):
        out = fresh_python(CERTIFY_ITERATIONS, OPENBLAS_NUM_THREADS=threads)
        assert int(out) <= 147, (threads, out)


SRC = str(Path(ripsharp.__file__).resolve().parents[1])


def fresh_python(code: str, **env: str) -> str:
    """Stdout of ``code`` run by a new interpreter that imports this ripsharp."""
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC, **env),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout


# Modules of scipy.linalg's import chain that loading LAPACK alone avoids.
SCIPY_LINALG_CHAIN = ("scipy.linalg", "scipy._lib._util", "numpy.f2py", "numpy.testing")


def test_solve_imports_no_scipy_linalg():
    out = fresh_python(f"""
import sys
import ripsharp
from ripsharp import cli
assert ripsharp.delta_exact(*cli.draw_pair(4, 1, 0, 0)).status == "optimal"
print([name for name in {SCIPY_LINALG_CHAIN!r} if name in sys.modules])
""")
    assert out.strip() == "[]"


def test_scipy_linalg_imported_after_shares_lapack():
    fresh_python("""
import numpy as np
import ripsharp
import scipy.linalg
assert scipy.linalg.lapack._flapack is ripsharp.sdp.lapack
assert scipy.linalg.lapack.dpotrf is ripsharp.sdp.lapack.dpotrf
a = np.array([[4.0, 1.0], [1.0, 3.0]])
x = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), np.array([1.0, 2.0]))
assert np.allclose(a @ x, [1.0, 2.0])
""")


def test_scipy_linalg_imported_before_is_reused():
    fresh_python("""
import sys
import scipy.linalg
flapack = sys.modules["scipy.linalg._flapack"]
import ripsharp
from ripsharp import cli
assert ripsharp.sdp.lapack is flapack and sys.modules["scipy.linalg._flapack"] is flapack
assert ripsharp.delta_exact(*cli.draw_pair(4, 1, 0, 0)).status == "optimal"
""")


def test_missing_lapack_extension_names_its_path(tmp_path):
    # a scipy without the extension: import fails naming the file, no fallback
    (tmp_path / "scipy" / "linalg").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, str(tmp_path)]))
    run = subprocess.run([sys.executable, "-c", "import ripsharp"], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode != 0
    assert f"ImportError: {tmp_path / 'scipy' / 'linalg' / '_flapack'}" in run.stderr
