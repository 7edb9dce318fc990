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

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import lapack

from .errors import SolverError
from .linalg import smat, svec, sym

OPTIMAL = "optimal"
MAX_ITERATIONS = "max-iterations"
STEP_FAILURE = "step-failure"

# Stopping rule: relative duality gap and scaled infeasibilities.
GAP_TOL = 1e-9
FEAS_TOL = 1e-9
# Ceilings for accepting a numerically stalled iterate.
STALL_GAP_TOL = 1e-8
STALL_DINF_TOL = 1e-6
ITERATION_LIMIT = 200

# Fraction-to-boundary factor for accepted steps.
STEP_SHRINK = 0.98


@dataclass
class ConeBlock:
    """One PSD constraint F0 + sum_i y_i coeffs[i] >= 0."""

    f0: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.f0 = sym(np.asarray(self.f0, dtype=float))
        coeffs = np.asarray(self.coeffs, dtype=float)
        self.coeffs = 0.5 * (coeffs + coeffs.transpose(0, 2, 1))

    @property
    def size(self) -> int:
        return self.f0.shape[0]

    @property
    def flat(self) -> np.ndarray:
        """The coefficients as a (p, k*k) view, one flattened matrix per row."""
        return self.coeffs.reshape(self.coeffs.shape[0], -1)

    def value(self, y: np.ndarray) -> np.ndarray:
        return self.f0 + (y @ self.flat).reshape(self.f0.shape)


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
    """NT scaling G^-1 S G^-T = G^T Z G = diag(lam); LinAlgError unless S, Z are PD."""

    __slots__ = ("lam", "ginv", "t_svec", "rp_hat")

    def __init__(self, blk: ConeBlock, s: np.ndarray, z: np.ndarray, rp: np.ndarray):
        ls = np.linalg.cholesky(s)
        # NT scaling point W = G G^T with G = L_S Q diag(evals)^-1/4, so that
        # G^-T = L_S^-T Q diag(evals)^1/4 takes one triangular solve.
        evals, q = np.linalg.eigh(sym(ls.T @ z @ ls))
        if evals[0] <= 0.0:
            raise np.linalg.LinAlgError("Z is not positive definite")
        self.lam = np.sqrt(evals)
        self.ginv = lapack.dtrtrs(ls, q * evals[None, :] ** 0.25, lower=1, trans=1)[0].T
        t = self.ginv @ blk.coeffs @ self.ginv.T
        self.t_svec = svec(0.5 * (t + t.transpose(0, 2, 1)))
        self.rp_hat = self.ginv @ rp @ self.ginv.T

    def lyapunov(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (X D + D X)/2 = rhs for symmetric X with D = diag(lam)."""
        return 2.0 * rhs / (self.lam[:, None] + self.lam[None, :])


def _residuals(prog, y, s_list, z_list, f_scale, c_scale):
    """Residuals rp_k and rd, gap, scaled infeasibilities and objectives."""
    rp_list = [sym(blk.value(y)) - s for blk, s in zip(prog.blocks, s_list)]
    rd = prog.c - _adjoint(prog, z_list)
    # Residuals are scaled by the iterate norms: near-degenerate optima
    # have unbounded multipliers, and the absolute residual then floors
    # at the rounding level of the matching products.
    s_scale = max(float(np.linalg.norm(s)) for s in s_list)
    z_scale = max(float(np.linalg.norm(z)) for z in z_list)
    gap = sum(float(np.vdot(s, z)) for s, z in zip(s_list, z_list))
    pinf = max(float(np.linalg.norm(rp)) for rp in rp_list) / (f_scale + s_scale)
    dinf = float(np.abs(rd).max()) / (c_scale + z_scale)
    dobj = -sum(float(np.vdot(blk.f0, z)) for blk, z in zip(prog.blocks, z_list))
    return rp_list, rd, gap, pinf, dinf, float(prog.c @ y), dobj


def solve(prog: ConeProgram, y0: np.ndarray | None = None) -> SolveResult:
    """Run the interior-point method on ``prog``.

    Each iteration is one Mehrotra predictor and one corrector step.  The
    solve stops as ``optimal`` once the duality gap is within ``GAP_TOL``
    of ``max(1, |pobj|, |dobj|)`` and both scaled infeasibilities are
    within ``FEAS_TOL``.  It stops short as ``step-failure`` when the NT
    scaling fails (S or Z is not positive definite) or the Schur complement
    cannot be factored, or as ``max-iterations`` after ``ITERATION_LIMIT``
    iterations; then, of the iterates at the rounding floor (gap within
    ``STALL_GAP_TOL``, primal infeasibility within ``FEAS_TOL``, dual within
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
    zeta = max(1.0, float(np.linalg.norm(prog.c))) / total_dim
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
        if gap <= GAP_TOL * gap_scale and pinf <= FEAS_TOL and dinf <= FEAS_TOL:
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
            schur = sum(st.t_svec @ st.t_svec.T for st in states)
            schur_chol = _robust_cholesky(schur)
        except np.linalg.LinAlgError:
            status = STEP_FAILURE
            break

        # Predictor: aim at mu = 0.
        lams = [st.lam for st in states]
        centering = [np.diag(-(lam**2)) for lam in lams]
        _, ds_aff, dz_aff = _direction(states, centering, rd, schur, schur_chol)
        ap_aff, ad_aff = min(1.0, _max_step(lams, ds_aff)), min(1.0, _max_step(lams, dz_aff))
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
        dy, ds_hats, dz_hats = _direction(states, rc_hats, rd, schur, schur_chol)
        ap = min(1.0, STEP_SHRINK * _max_step(lams, ds_hats))
        ad = min(1.0, STEP_SHRINK * _max_step(lams, dz_hats))
        # Only the accepted step is unscaled; S moves along dy.F + rp, so F(y) - S stays affine.
        y = y + ap * dy
        s_list = [
            sym(s + ap * ((dy @ blk.flat).reshape(rp.shape) + rp))
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


def _adjoint(prog: ConeProgram, z_list: Sequence[np.ndarray]) -> np.ndarray:
    return sum(blk.flat @ z.reshape(-1) for blk, z in zip(prog.blocks, z_list))


def _direction(states, rc_hats, rd, schur, schur_chol):
    """Newton solve for one centering rhs: dy, ds_hat = G^-1 dS G^-T, dz_hat = G^T dZ G."""
    rhs = -rd.copy()
    for st, rc in zip(states, rc_hats):
        rhs += st.t_svec @ svec(st.lyapunov(rc) - st.rp_hat)
    dy = lapack.dpotrs(schur_chol, rhs, lower=1)[0]
    # One round of iterative refinement keeps late iterations accurate.
    dy += lapack.dpotrs(schur_chol, rhs - schur @ dy, lower=1)[0]
    ds_hats = [smat(dy @ st.t_svec, st.lam.size) + st.rp_hat for st in states]
    dz_hats = [st.lyapunov(rc) - ds for st, rc, ds in zip(states, rc_hats, ds_hats)]
    return dy, ds_hats, dz_hats


def _max_step(lams: Sequence[np.ndarray], deltas: Sequence[np.ndarray]) -> float:
    """Largest t with  diag(lam_k) + t*delta_k >= 0  on every block k.

    In the scaled frame S and Z are both diag(lam), so this one bound
    serves both step lengths: the minimum over blocks of
    -1/lambda_min(diag(lam)^-1/2 delta diag(lam)^-1/2), or inf if no
    eigenvalue is negative.
    """
    lam_min = min(
        float(np.linalg.eigvalsh(d / np.sqrt(np.outer(lam, lam)))[0])
        for lam, d in zip(lams, deltas)
    )
    return np.inf if lam_min >= -1e-14 else -1.0 / lam_min


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
