"""Convex programs whose optimum is the sharpest isometry constant.

``delta_exact(x, z)`` computes the smallest delta such that some
measurement operator A with ``(1-delta) I <= A^T A <= (1+delta) I``
admits ``x`` as a second-order critical point of the factored recovery
objective whose ground truth is ``z z^T``.  Both criticality conditions
are linear in the gram matrix ``H = A^T A``, so the search over
operators is a semidefinite program in ``(delta, H)``; projecting onto
the joint column span of ``x`` and ``z`` shrinks the variable to
``d^2 x d^2`` with ``d <= 2r``, and the optimum is unchanged.

A companion program keeps ``H`` in the ambient dimension but imposes the
isometry bounds only on a chosen span, which can only lower the optimum;
for the joint span of ``x`` and ``z`` the two optima coincide, which is
what makes the reduced program exact rather than merely an upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import DegenerateInputError, NotSpuriousError, SolverError
from .linalg import (
    factor_gram,
    kron,
    mat,
    orth_basis,
    orth_complement,
    smat,
    svec,
    svec_dim,
    sym,
    sym_eig,
    vec,
)
from .objective import MeasurementOperator, jacobian_mat
from .sdp import ConeBlock, ConeProgram, SolverOptions
from .sdp import OPTIMAL as _CONE_OPTIMAL
from .sdp import STEP_FAILURE as _CONE_STEP_FAILURE
from .sdp import solve as _solve_cone

STATUS_OPTIMAL = "optimal"
STATUS_NOT_BELOW_ONE = "infeasible-at-delta-below-one"
STATUS_MAX_ITERATIONS = "max-iterations"
STATUS_STEP_FAILURE = "step-failure"

# Spectral cap on the gram variable of span-restricted programs.  Any
# optimal gram matrix satisfies ||H||_2 <= 1 + delta <= 2, so the cap
# never binds at an optimum; it only keeps the feasible set bounded in
# the directions the isometry bounds no longer see.
NORM_CAP_RADIUS = 8.0

# Threshold for dropping linearly dependent stationarity rows.
EQ_RANK_TOL = 1e-10


@dataclass
class ReducedPair:
    """Candidate/ground-truth factors projected onto a joint orthonormal span."""

    p: np.ndarray
    xhat: np.ndarray
    zhat: np.ndarray

    def __post_init__(self) -> None:
        self.p = np.asarray(self.p, dtype=float)
        self.xhat = _factor(self.xhat, "xhat")
        self.zhat = _factor(self.zhat, "zhat")
        if self.p.ndim != 2 or self.p.shape[1] != self.xhat.shape[0]:
            raise ValueError("span basis does not match the projected factors")
        if self.xhat.shape != self.zhat.shape:
            raise ValueError("projected factors must share one shape")
        gram = self.p.T @ self.p
        if np.abs(gram - np.eye(self.d)).max() > 1e-8:
            raise ValueError("span basis is not orthonormal")

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @property
    def d(self) -> int:
        return self.p.shape[1]

    @property
    def r(self) -> int:
        return self.xhat.shape[1]


@dataclass
class LmiBlock:
    """One affine-in-(delta, svec(H)) constraint block required to be PSD."""

    name: str
    base: np.ndarray
    delta_coeff: np.ndarray
    h_tensor: np.ndarray

    def __post_init__(self) -> None:
        self.base = sym(np.asarray(self.base, dtype=float))
        self.delta_coeff = sym(np.asarray(self.delta_coeff, dtype=float))
        t = np.asarray(self.h_tensor, dtype=float)
        self.h_tensor = 0.5 * (t + t.transpose(0, 2, 1))

    @property
    def size(self) -> int:
        return self.base.shape[0]

    def value(self, delta: float, h: np.ndarray) -> np.ndarray:
        """Evaluate the block at a candidate point (delta, H)."""
        return (
            self.base
            + delta * self.delta_coeff
            + np.tensordot(svec(sym(h)), self.h_tensor, axes=1)
        )


@dataclass
class LmiProblem:
    """Minimize delta subject to stationarity rows and PSD blocks.

    The symmetric variable ``H`` has side ``dim_h``; ``eq_rows`` act on
    ``svec(H)`` and have full row rank after redundancy elimination.
    ``jac`` and ``evec`` are the lifted derivative map and residual the
    blocks were built from, kept so multipliers can be recovered.
    """

    dim_h: int
    eq_rows: np.ndarray
    blocks: list[LmiBlock]
    jac: np.ndarray
    evec: np.ndarray
    factor_rank: int
    span: np.ndarray | None = None

    @property
    def num_eq(self) -> int:
        return self.eq_rows.shape[0]


class DualVariables:
    """Multipliers (y, U1, U2, V) certifying the optimum from below."""

    __slots__ = ("y", "u1", "u2", "v")

    def __init__(self, y: np.ndarray, u1: np.ndarray, u2: np.ndarray, v: np.ndarray):
        self.y = np.asarray(y, dtype=float)
        self.u1 = sym(np.asarray(u1, dtype=float))
        self.u2 = sym(np.asarray(u2, dtype=float))
        self.v = sym(np.asarray(v, dtype=float))


@dataclass
class SdpSolution:
    """Solved program: sharpest delta, gram matrix, and dual certificate."""

    delta: float
    h: np.ndarray
    dual: DualVariables | None
    gap: float
    status: str
    iterations: int = 0


@dataclass
class CertificateReport:
    """Nonnegative violation per feasibility check, plus the duality gap.

    Keys: ``stationarity``, ``curvature-psd``, ``gram-lower``,
    ``gram-upper`` for the primal rows; ``dual-trace``, ``dual-equation``
    and the three ``dual-*-psd`` cone checks when a dual is present; and
    ``lift-*`` variants after expanding the solution to the ambient
    dimension through the pair's span basis.
    """

    checks: dict[str, float]
    gap: float | None

    def max_violation(self) -> float:
        return max(self.checks.values(), default=0.0)


def reduce(x: np.ndarray, z: np.ndarray) -> ReducedPair:
    """Project a factor pair onto an orthonormal basis of their joint span."""
    x = _factor(x, "x")
    z = _factor(z, "z")
    if x.shape != z.shape:
        raise ValueError(f"factor shapes differ: {x.shape} vs {z.shape}")
    if not (np.any(x) or np.any(z)):
        raise DegenerateInputError("x and z are both zero; no span to reduce to")
    p = orth_basis(np.hstack([x, z]))
    return ReducedPair(p=p, xhat=p.T @ x, zhat=p.T @ z)


def build_upper_lmi(pair: ReducedPair) -> LmiProblem:
    """Program over (delta, H) whose optimum equals the sharpest constant.

    The stationarity rows force the gradient of the recovery objective to
    vanish under gram matrix ``H``, the curvature block keeps its Hessian
    PSD, and the two gram blocks pin ``H`` between ``(1 -/+ delta) I``.
    """
    d, r = pair.d, pair.r
    jac = jacobian_mat(pair.xhat)
    evec = vec(pair.xhat @ pair.xhat.T - pair.zhat @ pair.zhat.T)
    _require_spurious(evec, pair.xhat, pair.zhat)
    m = d * d
    eye = np.eye(m)
    basis_h = smat(np.eye(svec_dim(m)), m)
    blocks = [
        LmiBlock(
            "curvature",
            np.zeros((d * r, d * r)),
            np.zeros((d * r, d * r)),
            _curvature_tensor(basis_h, jac, evec, r),
        ),
        LmiBlock("gram-lower", -eye, eye, basis_h),
        LmiBlock("gram-upper", eye, eye, -basis_h),
    ]
    return LmiProblem(
        dim_h=m,
        eq_rows=_eliminate_rows(_stationarity_rows(jac, evec)),
        blocks=blocks,
        jac=jac,
        evec=evec,
        factor_rank=r,
    )


def build_lower_lmi(x: np.ndarray, z: np.ndarray, p: np.ndarray) -> LmiProblem:
    """Ambient-dimension program with isometry bounds only on a given span.

    The stationarity and curvature constraints are those of
    :func:`build_upper_lmi` in the full ``n^2`` dimension, but the gram
    blocks only constrain ``(P kron P)^T H (P kron P)``, so the optimum
    can only drop below the exact value.  A pair of spectral-cap blocks
    bounds the directions of ``H`` the gram blocks no longer see; the cap
    is slack at every optimum with ``||H||_2 <= 2`` and therefore does
    not change the value whenever such an optimum exists (always the case
    when ``p`` spans both factors).
    """
    x = _factor(x, "x")
    z = _factor(z, "z")
    if x.shape != z.shape:
        raise ValueError(f"factor shapes differ: {x.shape} vs {z.shape}")
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != x.shape[0]:
        raise ValueError("span basis rows must match the factor dimension")
    if np.abs(p.T @ p - np.eye(p.shape[1])).max() > 1e-8:
        raise ValueError("span basis is not orthonormal")
    jac = jacobian_mat(x)
    evec = vec(x @ x.T - z @ z.T)
    _require_spurious(evec, x, z)
    n, r = x.shape
    d = p.shape[1]
    m = n * n
    basis_h = smat(np.eye(svec_dim(m)), m)
    pp = kron(p, p)
    bounded = pp.T @ basis_h @ pp
    eye_s = np.eye(d * d)
    eye_m = np.eye(m)
    zero_m = np.zeros((m, m))
    blocks = [
        LmiBlock(
            "curvature",
            np.zeros((n * r, n * r)),
            np.zeros((n * r, n * r)),
            _curvature_tensor(basis_h, jac, evec, r),
        ),
        LmiBlock("gram-lower", -eye_s, eye_s, bounded),
        LmiBlock("gram-upper", eye_s, eye_s, -bounded),
        LmiBlock("norm-cap-lower", NORM_CAP_RADIUS * eye_m, zero_m, basis_h),
        LmiBlock("norm-cap-upper", NORM_CAP_RADIUS * eye_m, zero_m, -basis_h),
    ]
    return LmiProblem(
        dim_h=m,
        eq_rows=_eliminate_rows(_stationarity_rows(jac, evec)),
        blocks=blocks,
        jac=jac,
        evec=evec,
        factor_rank=r,
        span=pp,
    )


def solve_lmi(
    prob: LmiProblem,
    opts: SolverOptions | None = None,
    y0: np.ndarray | None = None,
) -> SdpSolution:
    """Solve an assembled program and recover the full set of multipliers."""
    opts = opts or SolverOptions()
    cone, basis, roles = _cone_program(prob)
    if y0 is None:
        # Start from the identity gram matrix projected onto the
        # stationarity rows, with delta close to its largest useful value.
        y0 = np.concatenate(
            [[opts.initial_delta], basis.T @ svec(np.eye(prob.dim_h))]
        )
    res = _solve_cone(cone, opts=opts, y0=y0)
    delta_raw = float(res.y[0])
    h = smat(basis @ res.y[1:], prob.dim_h)
    q = prob.jac.shape[1]
    by_role = dict(zip(roles, res.duals))
    v = by_role.get("curvature", np.zeros((q, q)))
    u1 = by_role["gram-lower"]
    u2 = by_role["gram-upper"]
    dual = DualVariables(
        y=_recover_multiplier(prob, v, by_role), u1=u1, u2=u2, v=v
    )
    if res.status == _CONE_OPTIMAL:
        status = STATUS_NOT_BELOW_ONE if delta_raw >= 1.0 - 1e-6 else STATUS_OPTIMAL
    elif res.status == _CONE_STEP_FAILURE:
        status = STATUS_STEP_FAILURE
    else:
        status = STATUS_MAX_ITERATIONS
    return SdpSolution(
        delta=float(np.clip(delta_raw, 0.0, 1.0)),
        h=sym(h),
        dual=dual,
        gap=res.gap,
        status=status,
        iterations=res.iterations,
    )


def delta_exact(
    x: np.ndarray, z: np.ndarray, opts: SolverOptions | None = None
) -> SdpSolution:
    """Sharpest isometry constant admitting ``x`` as a spurious critical point.

    Solves the reduced program on the joint span after rescaling both
    factors so the lifted residual has unit norm; the optimum is
    invariant under that rescaling, and the returned multipliers are
    mapped back to the original scale.  The gram matrix refers to the
    span basis of ``reduce(x, z)``.
    """
    x = _factor(x, "x")
    z = _factor(z, "z")
    if x.shape != z.shape:
        raise ValueError(f"factor shapes differ: {x.shape} vs {z.shape}")
    e_norm = float(np.linalg.norm(x @ x.T - z @ z.T))
    scale = max(float(np.sum(x * x)), float(np.sum(z * z)), 1.0)
    if e_norm <= 1e-12 * scale:
        raise NotSpuriousError(
            "x x^T equals z z^T; every operator makes x a global optimum"
        )
    pair = reduce(x, z)
    c = e_norm**-0.5
    scaled = ReducedPair(p=pair.p, xhat=c * pair.xhat, zhat=c * pair.zhat)
    sol = solve_lmi(build_upper_lmi(scaled), opts)
    dual = sol.dual
    if dual is not None:
        dual = DualVariables(y=c**3 * dual.y, u1=dual.u1, u2=dual.u2, v=c**2 * dual.v)
    return SdpSolution(
        delta=sol.delta,
        h=sol.h,
        dual=dual,
        gap=sol.gap,
        status=sol.status,
        iterations=sol.iterations,
    )


def recover_minimizer(sol: SdpSolution, pair: ReducedPair) -> MeasurementOperator:
    """Measurement operator whose gram matrix lifts the solved one.

    The rows are the factor of the solved gram matrix pushed through the
    span basis, padded with the mixed and complementary products of the
    basis and its orthogonal complement, so that ``A^T A`` equals the
    solved matrix on the span and the identity off it.  The row count is
    ``rank(H) + n^2 - d^2``.
    """
    if sol.status != STATUS_OPTIMAL:
        raise ValueError(f"minimizer requires an optimal solution, got {sol.status!r}")
    p = pair.p
    n, d = p.shape
    ahat = factor_gram(sol.h)
    mats = ahat.reshape(-1, d, d).transpose(0, 2, 1)
    lifted = np.einsum("ij,ajk,lk->ail", p, mats, p)
    rows_span = lifted.transpose(0, 2, 1).reshape(-1, n * n)
    perp = orth_complement(p)
    stacked = np.vstack(
        [
            rows_span,
            kron(p, perp).T,
            kron(perp, p).T,
            kron(perp, perp).T,
        ]
    )
    return MeasurementOperator.from_stacked(stacked, n)


def verify_certificates(primal: SdpSolution, pair: ReducedPair) -> CertificateReport:
    """Residuals of every feasibility row the solution claims to satisfy.

    Checks the reduced-dimension primal rows, the dual rows when a dual
    is attached, and the same rows after lifting the solution to the
    ambient dimension through the pair's span basis (gram matrix extended
    by the identity off the span, multipliers pushed through the basis).
    Pure report: nothing is thresholded away, nothing raises.
    """
    d, r = pair.d, pair.r
    h = sym(np.asarray(primal.h, dtype=float))
    delta = float(primal.delta)
    jac = jacobian_mat(pair.xhat)
    evec = vec(pair.xhat @ pair.xhat.T - pair.zhat @ pair.zhat.T)
    checks = _primal_checks(jac, evec, h, delta, r, d, prefix="")
    gap = None
    dual = primal.dual
    if dual is not None:
        checks.update(_dual_checks(jac, evec, dual, r, d, prefix=""))
        gap = delta - float(np.trace(dual.u1) - np.trace(dual.u2))

    # The same solution, expanded to the ambient dimension.
    p = pair.p
    n = pair.n
    pp = kron(p, p)
    x = p @ pair.xhat
    z = p @ pair.zhat
    jac_full = jacobian_mat(x)
    e_full = vec(x @ x.T - z @ z.T)
    checks["lift-residual"] = float(np.abs(e_full - pp @ evec).max())
    checks["lift-jacobian"] = float(
        np.abs(jac_full @ kron(np.eye(r), p) - pp @ jac).max()
    )
    h_full = pp @ h @ pp.T + np.eye(n * n) - pp @ pp.T
    checks.update(
        _primal_checks(jac_full, e_full, h_full, delta, r, n, prefix="lift-")
    )
    if dual is not None:
        lifted = DualVariables(
            y=kron(np.eye(r), p) @ dual.y,
            u1=pp @ dual.u1 @ pp.T,
            u2=pp @ dual.u2 @ pp.T,
            v=kron(np.eye(r), p) @ dual.v @ kron(np.eye(r), p).T,
        )
        checks.update(_dual_checks(jac_full, e_full, lifted, r, n, prefix="lift-"))
    return CertificateReport(checks=checks, gap=gap)


def _primal_checks(jac, evec, h, delta, r, side, prefix):
    he = h @ evec
    curvature = 2.0 * np.kron(np.eye(r), sym(mat(he, (side, side)))) + jac.T @ h @ jac
    eigs = sym_eig(sym(h)).values
    return {
        prefix + "stationarity": float(np.abs(jac.T @ he).max()),
        prefix + "curvature-psd": max(0.0, -float(sym_eig(sym(curvature)).values[0])),
        prefix + "gram-lower": max(0.0, (1.0 - delta) - float(eigs[0])),
        prefix + "gram-upper": max(0.0, float(eigs[-1]) - (1.0 + delta)),
    }


def _dual_checks(jac, evec, dual, r, side, prefix):
    t = sum(
        dual.v[j * side : (j + 1) * side, j * side : (j + 1) * side] for j in range(r)
    )
    s = r * (jac @ dual.y) - vec(t)
    lhs = np.outer(s, evec) + np.outer(evec, s) - jac @ dual.v @ jac.T
    return {
        prefix + "dual-trace": abs(float(np.trace(dual.u1) + np.trace(dual.u2)) - 1.0),
        prefix + "dual-equation": float(np.abs(lhs - (dual.u1 - dual.u2)).max()),
        prefix + "dual-curvature-psd": max(0.0, -float(sym_eig(dual.v).values[0])),
        prefix + "dual-gram-lower-psd": max(0.0, -float(sym_eig(dual.u1).values[0])),
        prefix + "dual-gram-upper-psd": max(0.0, -float(sym_eig(dual.u2).values[0])),
    }


def _factor(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"{name} must be a nonempty vector or matrix")
    return a


def _require_spurious(evec: np.ndarray, x: np.ndarray, z: np.ndarray) -> None:
    scale = max(float(np.sum(x * x)), float(np.sum(z * z)), 1.0)
    if float(np.linalg.norm(evec)) <= 1e-12 * scale:
        raise NotSpuriousError(
            "x x^T equals z z^T; every operator makes x a global optimum"
        )


def _stationarity_rows(jac: np.ndarray, evec: np.ndarray) -> np.ndarray:
    """Rows r_k with r_k . svec(H) = (jac^T H evec)_k."""
    outers = jac.T[:, :, None] * evec[None, None, :]
    return svec(0.5 * (outers + outers.transpose(0, 2, 1)))


def _eliminate_rows(raw: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the row space, dropping dependent rows."""
    if raw.size == 0 or not np.any(raw):
        return np.zeros((0, raw.shape[1]))
    _, s, vt = np.linalg.svd(raw, full_matrices=False)
    rank = int(np.sum(s > EQ_RANK_TOL * s[0]))
    return vt[:rank]


def _curvature_tensor(
    basis_h: np.ndarray, jac: np.ndarray, evec: np.ndarray, r: int
) -> np.ndarray:
    """Hessian block of each svec(H) direction: 2 I_r kron mat(H e) + jac^T H jac."""
    side = basis_h.shape[-1]
    b = int(round(np.sqrt(side)))
    he = basis_h @ evec
    mats = he.reshape(-1, b, b).transpose(0, 2, 1)
    mats = 0.5 * (mats + mats.transpose(0, 2, 1))
    q = jac.shape[1]
    out = np.zeros((basis_h.shape[0], q, q))
    for j in range(r):
        out[:, j * b : (j + 1) * b, j * b : (j + 1) * b] = 2.0 * mats
    out += jac.T @ basis_h @ jac
    return out


def _cone_program(prob: LmiProblem) -> tuple[ConeProgram, np.ndarray, list[str]]:
    """Eliminate the stationarity rows and drop vacuous constant blocks."""
    dim = svec_dim(prob.dim_h)
    basis = sla.null_space(prob.eq_rows) if prob.eq_rows.size else np.eye(dim)
    c = np.zeros(1 + basis.shape[1])
    c[0] = 1.0
    blocks: list[ConeBlock] = []
    roles: list[str] = []
    for blk in prob.blocks:
        coeffs = np.concatenate(
            [blk.delta_coeff[None], np.tensordot(basis.T, blk.h_tensor, axes=1)]
        )
        if np.abs(coeffs).max(initial=0.0) <= 1e-12:
            # Constant block: vacuous if PSD, contradictory otherwise.
            floor = float(sym_eig(blk.base).values[0])
            if floor < -1e-9 * max(1.0, float(np.linalg.norm(blk.base, 2))):
                raise SolverError(f"block {blk.name!r} is constant and not PSD")
            continue
        blocks.append(ConeBlock(f0=blk.base, coeffs=coeffs))
        roles.append(blk.name)
    if not blocks:
        raise SolverError("every constraint block is vacuous")
    return ConeProgram(c=c, blocks=blocks), basis, roles


def _recover_multiplier(
    prob: LmiProblem, v: np.ndarray, by_role: dict[str, np.ndarray]
) -> np.ndarray:
    """Stationarity-row multiplier consistent with the cone duals.

    The eliminated rows leave the dual equation determined only up to the
    row space; the least-squares solve puts it back, scaled to match the
    multiplier convention of the dual program.  Span-restricted gram
    duals (and, when present, spectral-cap duals) are expanded to the
    full dimension before the solve.
    """
    jac, evec, r = prob.jac, prob.evec, prob.factor_rank
    side = jac.shape[1] // r
    t = sum(v[j * side : (j + 1) * side, j * side : (j + 1) * side] for j in range(r))
    g = -(np.outer(vec(t), evec) + np.outer(evec, vec(t))) - jac @ v @ jac.T
    diff = by_role["gram-lower"] - by_role["gram-upper"]
    if prob.span is not None:
        diff = prob.span @ diff @ prob.span.T
    if "norm-cap-lower" in by_role:
        diff = diff + by_role["norm-cap-lower"] - by_role["norm-cap-upper"]
    g -= diff
    rows = _stationarity_rows(jac, evec)
    w, *_ = np.linalg.lstsq(rows.T, svec(sym(g)), rcond=None)
    return -w / (2.0 * r)
