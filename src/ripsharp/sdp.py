"""Dense primal-dual interior-point solver for block-diagonal LMIs.

Solves   minimize  c^T y   subject to   F0^k + sum_i y_i Fi^k >= 0
for every block k, together with the conic dual
maximize -sum_k <F0^k, Z_k>  subject to  sum_k <Fi^k, Z_k> = c_i, Z_k >= 0.

The method is infeasible-start path following with Nesterov-Todd scaling
and a Mehrotra predictor-corrector step.  Directions, step lengths and
the corrector are taken in the NT-scaled frame, where S and Z are one
diagonal matrix; only the accepted step is unscaled.  All blocks are dense;
the Schur complement is assembled explicitly and factored by Cholesky,
which is the right trade for the small matrices this package produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import SolverError
from .linalg import smat, svec, svec_indices, sym

OPTIMAL = "optimal"
MAX_ITERATIONS = "max-iterations"
STEP_FAILURE = "step-failure"

# Stopping rule: relative duality gap and scaled infeasibilities.  The
# primal residual rp = F(y) - S is held ten times tighter, because the
# certificates check F(y) itself while only the slack S is kept in the cone.
GAP_TOL = 1e-9
FEAS_TOL = 1e-9
PRIMAL_FEAS_TOL = 1e-10
# Ceilings for accepting a numerically stalled iterate.
STALL_GAP_TOL = 1e-8
STALL_DINF_TOL = 1e-6
ITERATION_LIMIT = 200

# Fraction-to-boundary factor for accepted steps.
STEP_SHRINK = 0.98


class ConeBlock:
    """One PSD constraint F0 + sum_i y_i F_i >= 0, with symmetrized F_i.

    The p coefficients of side k are stored once, side by side in the
    (k, p*k) array ``wide = [F_1 ... F_p]``, so that a product with G on the
    left acts on all of them at once; ``coeffs`` is a (p, k, k) view of it.
    """

    __slots__ = ("f0", "wide")

    def __init__(self, f0: np.ndarray, coeffs: np.ndarray):
        self.f0 = sym(np.asarray(f0, dtype=float))
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 3 or coeffs.shape[1:] != self.f0.shape:
            raise ValueError("coefficients must be a stack of matrices shaped like F0")
        coeffs = 0.5 * (coeffs + coeffs.transpose(0, 2, 1))
        self.wide = coeffs.transpose(1, 0, 2).reshape(self.size, -1)

    @property
    def size(self) -> int:
        return self.f0.shape[0]

    @property
    def coeffs(self) -> np.ndarray:
        return self.wide.reshape(self.size, -1, self.size).transpose(1, 0, 2)

    def linear(self, y: np.ndarray) -> np.ndarray:
        """sum_i y_i F_i."""
        return y @ self.wide.reshape(self.size, -1, self.size)

    def adjoint(self, z: np.ndarray) -> np.ndarray:
        """The vector of <F_i, Z>."""
        return (self.wide.reshape(self.size, -1, self.size) @ z[:, :, None]).sum(axis=(0, 2))

    def value(self, y: np.ndarray) -> np.ndarray:
        return self.f0 + self.linear(y)


@dataclass
class ConeProgram:
    """Block LMI with linear objective over the free variables y."""

    c: np.ndarray
    blocks: list[ConeBlock]

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float).reshape(-1)
        for blk in self.blocks:
            if blk.coeffs.shape[0] != self.num_vars:
                raise ValueError("block coefficient count != variable count")

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(blk.size for blk in self.blocks)


@dataclass
class SolveResult:
    """What :func:`solve` returns; ``iterations`` counts the iterations run."""

    y: np.ndarray
    duals: list[np.ndarray]
    gap: float
    status: str
    pobj: float
    dobj: float
    iterations: int
    pinf: float
    dinf: float


class _BlockState:
    """NT scaling G^-1 S G^-T = G^T Z G = diag(lam); LinAlgError unless S, Z are PD.

    Column i of ``svecs`` is svec(sym(G^-1 F_i G^-T)).  ``lyap`` =
    2 / (lam_i + lam_j) solves (X D + D X)/2 = R for symmetric X with
    D = diag(lam) as X = lyap * R, and ``unit`` = (lam_i lam_j)^-1/2 maps a
    step to D^-1/2 step D^-1/2.
    """

    __slots__ = ("lam", "ginv", "svecs", "rp_hat", "lyap", "unit")

    def __init__(self, blk: ConeBlock, s: np.ndarray, z: np.ndarray, rp: np.ndarray):
        ls, info = lapack.dpotrf(s, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError("S is not positive definite")
        # NT scaling point W = G G^T with G = L_S Q diag(evals)^-1/4, so that
        # G^-T = L_S^-T Q diag(evals)^1/4 takes one triangular solve.
        evals, q, info = lapack.dsyevd(sym(ls.T @ z @ ls))
        if info != 0 or evals[0] <= 0.0:
            raise np.linalg.LinAlgError("Z is not positive definite")
        self.lam = np.sqrt(evals)
        self.ginv = lapack.dtrtrs(ls, q * evals[None, :] ** 0.25, lower=1, trans=1)[0].T
        # All p congruences in two products: G^-1 [F_1 ... F_p] as rows
        # (a, i), then G^-1 times its transpose gives t[c, a, i] =
        # (G^-1 F_i G^-T)[a, c], so each svec entry is one row of t.
        k, (rows, cols, weights) = self.lam.size, svec_indices(self.lam.size)
        t = (self.ginv @ (self.ginv @ blk.wide).reshape(-1, k).T).reshape(k * k, -1)
        self.svecs = (t[cols * k + rows] + t[rows * k + cols]) * (0.5 * weights)[:, None]
        self.rp_hat = self.ginv @ rp @ self.ginv.T
        self.lyap = 2.0 / (self.lam[:, None] + self.lam[None, :])
        self.unit = 1.0 / np.sqrt(np.outer(self.lam, self.lam))


def _residuals(prog, y, s_list, z_list, f_scale, c_scale):
    """Residuals rp_k and rd, gap, scaled infeasibilities and objectives."""
    rp_list = [sym(blk.value(y)) - s for blk, s in zip(prog.blocks, s_list)]
    rd = prog.c - sum(blk.adjoint(z) for blk, z in zip(prog.blocks, z_list))
    # Residuals are scaled by the iterate norms: near-degenerate optima
    # have unbounded multipliers, and the absolute residual then floors
    # at the rounding level of the matching products.
    s_scale = math.sqrt(max(np.vdot(s, s) for s in s_list))
    z_scale = math.sqrt(max(np.vdot(z, z) for z in z_list))
    gap = sum(float(np.vdot(s, z)) for s, z in zip(s_list, z_list))
    pinf = math.sqrt(max(np.vdot(rp, rp) for rp in rp_list)) / (f_scale + s_scale)
    dinf = float(np.abs(rd).max()) / (c_scale + z_scale)
    dobj = -sum(float(np.vdot(blk.f0, z)) for blk, z in zip(prog.blocks, z_list))
    return rp_list, rd, gap, pinf, dinf, float(prog.c @ y), dobj


def solve(prog: ConeProgram, y0: np.ndarray | None = None) -> SolveResult:
    """Run the interior-point method on ``prog``.

    Each iteration is one Mehrotra predictor and one corrector step.  The
    solve stops as ``optimal`` once the duality gap is within ``GAP_TOL``
    of ``max(1, |pobj|, |dobj|)``, the scaled primal infeasibility within
    ``PRIMAL_FEAS_TOL`` and the scaled dual one within ``FEAS_TOL``.  It
    stops short as ``step-failure`` when the NT scaling fails (S or Z is
    not positive definite) or the Schur complement cannot be factored, or
    as ``max-iterations`` after ``ITERATION_LIMIT`` iterations; then, of
    the iterates at the rounding floor (gap within ``STALL_GAP_TOL``,
    primal infeasibility within ``FEAS_TOL``, dual within
    ``STALL_DINF_TOL``), the one with the smallest dual infeasibility, if
    any, is returned as ``optimal``; ``iterations`` still counts all
    iterations run, so it exceeds that iterate's index.  The duals are the
    per-block PSD multipliers.
    """
    p = prog.num_vars
    y = np.zeros(p) if y0 is None else np.asarray(y0, dtype=float).copy()
    if y.shape != (p,):
        raise ValueError("y0 has wrong length")
    if not prog.blocks:
        raise SolverError("program has no blocks")

    total_dim = sum(prog.block_sizes)
    zeta = max(1.0, float(np.linalg.norm(prog.c))) / np.sqrt(total_dim)
    s_list, z_list = [], []
    for blk in prog.blocks:
        fy = sym(blk.value(y))
        lam_min = float(np.linalg.eigvalsh(fy)[0])
        scale = max(1.0, float(np.linalg.norm(fy, 2)))
        if lam_min <= 1e-3 * scale:
            fy = fy + (1e-1 * scale - lam_min) * np.eye(blk.size)
        s_list.append(fy)
        z_list.append(zeta * np.eye(blk.size))

    c_scale = 1.0 + float(np.abs(prog.c).max(initial=0.0))
    f_scale = 1.0 + max(float(np.linalg.norm(b.f0)) for b in prog.blocks)
    status = MAX_ITERATIONS
    it = 0
    floor, floor_dinf = None, STALL_DINF_TOL

    for it in range(1, ITERATION_LIMIT + 1):
        rp_list, rd, gap, pinf, dinf, pobj, dobj = _residuals(
            prog, y, s_list, z_list, f_scale, c_scale
        )
        mu = gap / total_dim
        gap_scale = max(1.0, abs(pobj), abs(dobj))
        if gap <= GAP_TOL * gap_scale and pinf <= PRIMAL_FEAS_TOL and dinf <= FEAS_TOL:
            status = OPTIMAL
            break
        # At degenerate optima the dual residual floors at the rounding
        # level of the Newton system, a few orders above the target, and
        # then only gathers rounding; of the iterates where complementarity
        # and primal feasibility made it, the one with the smallest is kept.
        if gap <= STALL_GAP_TOL * gap_scale and pinf <= FEAS_TOL and dinf <= floor_dinf:
            floor, floor_dinf = (y, s_list, z_list), dinf

        try:
            states = [_BlockState(*a) for a in zip(prog.blocks, s_list, z_list, rp_list)]
            svecs = np.vstack([st.svecs for st in states])
            schur = svecs.T @ svecs
            schur_chol = _robust_cholesky(schur)
        except np.linalg.LinAlgError:
            status = STEP_FAILURE
            break
        newton = (states, svecs, schur, schur_chol, rd)
        units = [st.unit for st in states]

        # Predictor: aim at mu = 0.
        lams = [st.lam for st in states]
        centering = [np.diag(-(lam**2)) for lam in lams]
        _, ds_aff, dz_aff = _direction(*newton, centering)
        ap_aff, ad_aff = (min(1.0, t) for t in _max_steps(units, ds_aff, dz_aff))
        gap_aff = sum(
            float(np.vdot(np.diag(lam) + ap_aff * ds, np.diag(lam) + ad_aff * dz))
            for lam, ds, dz in zip(lams, ds_aff, dz_aff)
        )
        sigma = float(np.clip((max(gap_aff, 0.0) / gap) ** 3, 1e-10, 1.0))

        # Corrector: recenter and cancel the second-order term.
        rc_hats = [
            sigma * mu * np.eye(lam.size) - np.diag(lam**2) - sym(ds @ dz)
            for lam, ds, dz in zip(lams, ds_aff, dz_aff)
        ]
        dy, ds_hats, dz_hats = _direction(*newton, rc_hats)
        ap, ad = (min(1.0, STEP_SHRINK * t) for t in _max_steps(units, ds_hats, dz_hats))
        # Only the accepted step is unscaled; S moves along dy.F + rp, so F(y) - S stays affine.
        y = y + ap * dy
        s_list = [
            sym(s + ap * (blk.linear(dy) + rp))
            for blk, s, rp in zip(prog.blocks, s_list, rp_list)
        ]
        z_list = [
            sym(z + ad * (st.ginv.T @ dz @ st.ginv))
            for st, z, dz in zip(states, z_list, dz_hats)
        ]

    if status != OPTIMAL and floor is not None:
        (y, s_list, z_list), status = floor, OPTIMAL
    _, _, gap, pinf, dinf, pobj, dobj = _residuals(prog, y, s_list, z_list, f_scale, c_scale)
    return SolveResult(
        y=y,
        duals=[z.copy() for z in z_list],
        gap=gap,
        status=status,
        pobj=pobj,
        dobj=dobj,
        iterations=it,
        pinf=pinf,
        dinf=dinf,
    )


def _direction(states, svecs, schur, schur_chol, rd, rc_hats):
    """Newton solve for one centering rhs: dy, ds_hat = G^-1 dS G^-T, dz_hat = G^T dZ G.

    ``svecs`` stacks the blocks' ``svecs``, and ``schur = svecs^T svecs``,
    so the right-hand side takes one product.
    """
    xs = [st.lyap * rc for st, rc in zip(states, rc_hats)]
    rhs = svecs.T @ np.concatenate([svec(x - st.rp_hat) for st, x in zip(states, xs)]) - rd
    dy = lapack.dpotrs(schur_chol, rhs, lower=1)[0]
    # One round of iterative refinement keeps late iterations accurate.
    dy += lapack.dpotrs(schur_chol, rhs - schur @ dy, lower=1)[0]
    ds_hats = [smat(st.svecs @ dy, st.lam.size) + st.rp_hat for st in states]
    dz_hats = [x - ds for x, ds in zip(xs, ds_hats)]
    return dy, ds_hats, dz_hats


def _max_steps(units, ds_hats, dz_hats) -> tuple[float, float]:
    """Largest t_s and t_z with diag(lam_k) + t*d_k >= 0 on every block k.

    In the scaled frame S and Z are both diag(lam), so each bound is the
    minimum over blocks of -1/lambda_min(unit_k * d_k), with
    unit_k = (lam_i lam_j)^-1/2, or inf if no eigenvalue is negative.
    LAPACK is called directly: at these sizes numpy's wrapper costs more
    than the eigenvalues.
    """
    steps = []
    for deltas in (ds_hats, dz_hats):
        eigs = [lapack.dsyevd(unit * d, compute_v=0) for unit, d in zip(units, deltas)]
        if any(info for *_, info in eigs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        low = min(float(w[0]) for w, *_ in eigs)
        steps.append(np.inf if low >= -1e-14 else -1.0 / low)
    return steps[0], steps[1]


def _robust_cholesky(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of m, with growing diagonal jitter if needed."""
    jitter = 0.0
    base = max(float(np.trace(m)) / max(m.shape[0], 1), 1.0)
    for _ in range(4):
        chol, info = lapack.dpotrf(m + jitter * np.eye(m.shape[0]), lower=1)
        if info == 0:
            return chol
        jitter = max(10.0 * jitter, 1e-14 * base)
    raise np.linalg.LinAlgError("Schur complement not positive definite")
