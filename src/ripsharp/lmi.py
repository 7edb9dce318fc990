"""Convex programs whose optimum is the sharpest isometry constant.

``delta_exact(x, z)`` computes the smallest delta such that some
measurement operator A with ``(1-delta) I <= A^T A <= (1+delta) I``
admits ``x`` as a second-order critical point of the factored recovery
objective whose ground truth is ``z z^T``.  Both criticality conditions
are linear in the gram matrix ``H = A^T A``, so the search over
operators is a semidefinite program in ``(delta, H)``; projecting onto
the joint column span of ``x`` and ``z`` shrinks ``H`` to ``d^2 x d^2``
with ``d <= 2r``, and the optimum is unchanged.

The columns of the Jacobian ``J`` and the residual ``e`` lie in
``vec(Sym_d)``, so the conditions see only ``H' = Q^T H Q`` for its
orthonormal basis ``Q = sym_basis(d)``.  Compression keeps
``(1 -/+ delta) I`` (Cauchy interlacing) and ``Q H' Q^T + (I - Q Q^T)``
is feasible at the same delta, so the programs are posed on ``H'`` of
side ``d(d+1)/2`` and their solutions lifted back.  The stationarity
condition ``J'^T H' e' = 0`` (``J' = Q^T J``, ``e' = Q^T e``) is a set of
linear rows on ``svec(H')``; each program is built in coordinates of
their null space, ``svec(H') = N w`` for an orthonormal basis ``N``, so
every iterate is exactly stationary and every PSD block is affine in the
cone variables ``y = (delta, w)``.

For ``r >= 2`` every curvature coefficient annihilates ``vec(x Omega)``
for skew ``Omega``, as the objective is invariant under ``x -> x R``.
The curvature block is restricted to the orthogonal complement ``K`` of
those vectors (facial reduction, Borwein and Wolkowicz 1981), which
gives it an interior.

A companion program keeps ``H`` in the ambient dimension but imposes the
isometry bounds only on a chosen span, which can only lower the optimum;
for the joint span of ``x`` and ``z`` the two optima coincide, which is
what makes the reduced program exact rather than merely an upper bound.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NotSpuriousError, SolverError
from .linalg import as_factor, factor_gram, orth_basis, orth_complement, smat, svec
from .linalg import svec_dim, svec_side, sym, sym_basis, vec
from .objective import MeasurementOperator, curvature_form, jacobian_mat
from .sdp import MAX_ITERATIONS as STATUS_MAX_ITERATIONS
from .sdp import OPTIMAL as STATUS_OPTIMAL
from .sdp import STEP_FAILURE as STATUS_STEP_FAILURE
from .sdp import ConeBlock, ConeProgram
from .sdp import solve as _solve_cone

STATUS_NOT_BELOW_ONE = "infeasible-at-delta-below-one"

# Spectral cap on the gram variable of span-restricted programs.  Any
# optimal gram matrix satisfies ||H||_2 <= 1 + delta <= 2, so the cap
# never binds at an optimum; it only keeps the feasible set bounded in
# the directions the isometry bounds no longer see.
NORM_CAP_RADIUS = 8.0

# Threshold for dropping linearly dependent stationarity rows.
EQ_RANK_TOL = 1e-10

# Starting delta of every solve, close to its largest useful value.
INITIAL_DELTA = 0.999


@dataclass
class ReducedPair:
    """Candidate/ground-truth factors projected onto a joint orthonormal span."""

    p: np.ndarray
    xhat: np.ndarray
    zhat: np.ndarray

    def __post_init__(self) -> None:
        self.p = np.asarray(self.p, dtype=float)
        self.xhat = as_factor(self.xhat, "xhat")
        self.zhat = as_factor(self.zhat, "zhat")
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
class LmiProblem:
    """Minimize delta over the stationary gram matrices, as one cone program.

    ``H'`` is the gram matrix on the symmetric subspace, of side
    ``dim_h = m(m+1)/2`` for factors with ``m`` rows; ``jac = Q^T J`` and
    ``evec = svec(x x^T - z z^T)`` are in the same svec coordinates.  The
    orthonormal columns of ``basis`` span the ``svec(H')`` that satisfy
    the stationarity rows ``jac^T H' evec = 0``, and ``cone`` is posed in
    ``y = (delta, w)`` with ``svec(H') = basis @ w``; its objective is
    delta.  ``roles[k]`` names block ``k`` of ``cone`` (``curvature``,
    ``gram-lower``, ``gram-upper`` and, for span-restricted programs,
    ``norm-cap-lower``/``norm-cap-upper``); blocks constant in ``y``
    were checked PSD and dropped.  The curvature block is compressed to
    the orthonormal columns of ``face`` (``K``, ``m r - r(r-1)/2`` of
    them).  ``jac``, ``evec``, ``face`` and ``span`` (the map
    ``Q_m^T (P kron P) Q_d`` of a span-restricted program) are kept so
    the multipliers can be recovered.
    """

    dim_h: int
    cone: ConeProgram
    basis: np.ndarray
    roles: list[str]
    jac: np.ndarray
    evec: np.ndarray
    factor_rank: int
    face: np.ndarray
    span: np.ndarray | None = None


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
    x = as_factor(x, "x")
    z = as_factor(z, "z")
    if x.shape != z.shape:
        raise ValueError(f"factor shapes differ: {x.shape} vs {z.shape}")
    if not (np.any(x) or np.any(z)):
        raise NotSpuriousError("x and z are both zero; no span to reduce to")
    p = orth_basis(np.hstack([x, z]))
    return ReducedPair(p=p, xhat=p.T @ x, zhat=p.T @ z)


def build_upper_lmi(pair: ReducedPair) -> LmiProblem:
    """Program over (delta, H) whose optimum equals the sharpest constant.

    The stationarity rows force the gradient of the recovery objective to
    vanish under gram matrix ``H`` (they define the null-space basis), the
    curvature block keeps its Hessian PSD, and the two gram blocks pin
    ``H`` between ``(1 -/+ delta) I``.
    """
    return _null_space_program(pair.xhat, pair.zhat)


def build_lower_lmi(x: np.ndarray, z: np.ndarray, p: np.ndarray) -> LmiProblem:
    """Ambient-dimension program with isometry bounds only on a given span.

    The stationarity and curvature constraints are those of
    :func:`build_upper_lmi` in the ambient dimension, but the gram
    blocks only constrain ``(P kron P)^T H (P kron P)``, so the optimum
    can only drop below the exact value.  A pair of spectral-cap blocks
    bounds the directions of ``H`` the gram blocks no longer see; the cap
    is slack at every optimum with ``||H||_2 <= 2`` and therefore does
    not change the value whenever such an optimum exists (always the case
    when ``p`` spans both factors).
    """
    x = as_factor(x, "x")
    z = as_factor(z, "z")
    if x.shape != z.shape:
        raise ValueError(f"factor shapes differ: {x.shape} vs {z.shape}")
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != x.shape[0]:
        raise ValueError("span basis rows must match the factor dimension")
    if np.abs(p.T @ p - np.eye(p.shape[1])).max() > 1e-8:
        raise ValueError("span basis is not orthonormal")
    return _null_space_program(x, z, p)


def solve_lmi(prob: LmiProblem) -> SdpSolution:
    """Solve an assembled program and recover the full set of multipliers.

    The gram matrix is lifted to vec coordinates as ``Q H' Q^T + (I - Q Q^T)``,
    the gram duals as ``Q U Q^T`` and the curvature dual as ``K V K^T``.
    """
    # Start from the identity gram matrix projected onto the null space.
    y0 = np.concatenate([[INITIAL_DELTA], prob.basis.T @ svec(np.eye(prob.dim_h))])
    res = _solve_cone(prob.cone, y0=y0)
    delta_raw = float(res.y[0])
    h = smat(prob.basis @ res.y[1:], prob.dim_h)
    face = prob.face
    by_role = dict(zip(prob.roles, res.duals))
    v = face @ by_role.get("curvature", np.zeros((face.shape[1],) * 2)) @ face.T
    dual = DualVariables(
        y=_recover_multiplier(prob, v, by_role),
        u1=_lift(by_role["gram-lower"]),
        u2=_lift(by_role["gram-upper"]),
        v=v,
    )
    # Q H' Q^T + (I - Q Q^T): the identity off the symmetric subspace.
    h = _lift(h - np.eye(prob.dim_h))
    h += np.eye(h.shape[0])
    status = res.status
    if status == STATUS_OPTIMAL and delta_raw >= 1.0 - 1e-6:
        status = STATUS_NOT_BELOW_ONE
    return SdpSolution(
        delta=float(np.clip(delta_raw, 0.0, 1.0)),
        h=sym(h),
        dual=dual,
        gap=res.gap,
        status=status,
        iterations=res.iterations,
    )


def delta_exact(x: np.ndarray, z: np.ndarray) -> SdpSolution:
    """Sharpest isometry constant admitting ``x`` as a spurious critical point.

    Solves the reduced program on the joint span after rescaling both
    factors so the lifted residual has unit norm; the optimum is
    invariant under that rescaling, and the returned multipliers are
    mapped back to the original scale.  The gram matrix refers to the
    span basis of ``reduce(x, z)``.
    """
    pair = reduce(x, z)
    e_norm = float(np.linalg.norm(pair.xhat @ pair.xhat.T - pair.zhat @ pair.zhat.T))
    # A zero residual is left unscaled for build_upper_lmi to reject; after
    # scaling, its relative test no longer depends on the input scale.
    c = e_norm**-0.5 if e_norm else 1.0
    scaled = dataclasses.replace(pair, xhat=c * pair.xhat, zhat=c * pair.zhat)
    sol = solve_lmi(build_upper_lmi(scaled))
    dual = sol.dual
    return dataclasses.replace(
        sol,
        dual=DualVariables(y=c**3 * dual.y, u1=dual.u1, u2=dual.u2, v=c**2 * dual.v),
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
            np.kron(p, perp).T,
            np.kron(perp, p).T,
            np.kron(perp, perp).T,
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
    r = pair.r
    h = sym(np.asarray(primal.h, dtype=float))
    delta = float(primal.delta)
    jac = jacobian_mat(pair.xhat)
    evec = vec(pair.xhat @ pair.xhat.T - pair.zhat @ pair.zhat.T)
    checks = _primal_checks(jac, evec, h, delta, r, prefix="")
    gap = None
    dual = primal.dual
    if dual is not None:
        checks.update(_dual_checks(jac, evec, dual, r, prefix=""))
        gap = delta - float(np.trace(dual.u1) - np.trace(dual.u2))

    # The same solution, expanded to the ambient dimension.
    p = pair.p
    n = pair.n
    pp = np.kron(p, p)
    ip = np.kron(np.eye(r), p)
    x = p @ pair.xhat
    z = p @ pair.zhat
    jac_full = jacobian_mat(x)
    e_full = vec(x @ x.T - z @ z.T)
    checks["lift-residual"] = float(np.abs(e_full - pp @ evec).max())
    checks["lift-jacobian"] = float(np.abs(jac_full @ ip - pp @ jac).max())
    h_full = pp @ h @ pp.T + np.eye(n * n) - pp @ pp.T
    checks.update(_primal_checks(jac_full, e_full, h_full, delta, r, prefix="lift-"))
    if dual is not None:
        lifted = DualVariables(
            y=ip @ dual.y,
            u1=pp @ dual.u1 @ pp.T,
            u2=pp @ dual.u2 @ pp.T,
            v=ip @ dual.v @ ip.T,
        )
        checks.update(_dual_checks(jac_full, e_full, lifted, r, prefix="lift-"))
    return CertificateReport(checks=checks, gap=gap)


def _primal_checks(jac, evec, h, delta, r, prefix):
    curvature = curvature_form(jac, evec, h, r)
    eigs = np.linalg.eigvalsh(sym(h))
    return {
        prefix + "stationarity": float(np.abs(jac.T @ (h @ evec)).max()),
        prefix + "curvature-psd": max(0.0, -float(np.linalg.eigvalsh(sym(curvature))[0])),
        prefix + "gram-lower": max(0.0, (1.0 - delta) - float(eigs[0])),
        prefix + "gram-upper": max(0.0, float(eigs[-1]) - (1.0 + delta)),
    }


def _dual_checks(jac, evec, dual, r, prefix):
    s = r * (jac @ dual.y) - vec(_block_trace(dual.v, r))
    lhs = np.outer(s, evec) + np.outer(evec, s) - jac @ dual.v @ jac.T
    return {
        prefix + "dual-trace": abs(float(np.trace(dual.u1) + np.trace(dual.u2)) - 1.0),
        prefix + "dual-equation": float(np.abs(lhs - (dual.u1 - dual.u2)).max()),
        prefix + "dual-curvature-psd": max(0.0, -float(np.linalg.eigvalsh(dual.v)[0])),
        prefix + "dual-gram-lower-psd": max(0.0, -float(np.linalg.eigvalsh(dual.u1)[0])),
        prefix + "dual-gram-upper-psd": max(0.0, -float(np.linalg.eigvalsh(dual.u2)[0])),
    }


def _block_trace(v: np.ndarray, r: int) -> np.ndarray:
    """Sum of the ``r`` diagonal blocks of ``V``: the partial trace over I_r."""
    side = v.shape[0] // r
    return sum(v[j * side : (j + 1) * side, j * side : (j + 1) * side] for j in range(r))


def _require_spurious(evec: np.ndarray, x: np.ndarray, z: np.ndarray) -> None:
    scale = max(float(np.sum(x * x)), float(np.sum(z * z)), 1.0)
    if float(np.linalg.norm(evec)) <= 1e-12 * scale:
        raise NotSpuriousError(
            "x x^T equals z z^T; every operator makes x a global optimum"
        )


def _lift(m: np.ndarray) -> np.ndarray:
    """``Q M Q^T``: a matrix in svec coordinates as one in vec coordinates."""
    q = sym_basis(svec_side(m.shape[0]))
    return q @ m @ q.T


def _face(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis K of the complement of ``{vec(x Omega) : Omega skew}``.

    ``x Omega_ab`` for ``Omega_ab = E_ab - E_ba`` holds ``x_a`` in column
    ``b`` and ``-x_b`` in column ``a``; for ``r = 1`` there are none, K = I.
    """
    n, r = x.shape
    tangents = np.zeros((n * r, r * (r - 1) // 2))
    for k, (a, b) in enumerate(itertools.combinations(range(r), 2)):
        tangents[b * n : (b + 1) * n, k] = x[:, a]
        tangents[a * n : (a + 1) * n, k] = -x[:, b]
    return orth_complement(tangents)


def _stationarity_rows(jac: np.ndarray, evec: np.ndarray) -> np.ndarray:
    """Rows r_k with r_k . svec(H) = (jac^T H evec)_k."""
    outers = jac.T[:, :, None] * evec[None, None, :]
    return svec(0.5 * (outers + outers.transpose(0, 2, 1)))


def _null_space_program(
    x: np.ndarray, z: np.ndarray, p: np.ndarray | None = None
) -> LmiProblem:
    """Cone program in ``y = (delta, w)`` with ``svec(H') = N w``.

    ``N`` is an orthonormal basis of the null space of the stationarity
    rows: the complement of their span, counting singular values below
    ``EQ_RANK_TOL`` times the largest as zero.  The H'-coefficients of the
    gram blocks are the matrices ``smat(N^T)``, taken through
    ``Q_m^T (P kron P) Q_d`` when the bounds are restricted to the span
    ``P``, and those of the curvature block are the Hessian form of the
    same stack, restricted to the face ``K``.  A block constant in ``y``
    is dropped when PSD and makes the program infeasible otherwise; it
    occurs when ``x`` and ``z`` are collinear and the null space is empty.
    """
    m, r = x.shape
    q = sym_basis(m)
    jac = q.T @ jacobian_mat(x)
    evec = svec(x @ x.T - z @ z.T)
    _require_spurious(evec, x, z)
    dim_h = svec_dim(m)
    basis = orth_complement(_stationarity_rows(jac, evec).T, rtol=EQ_RANK_TOL)
    stack = smat(basis.T, dim_h)
    span = None if p is None else q.T @ np.kron(p, p) @ sym_basis(p.shape[1])
    bounded = stack if span is None else span.T @ stack @ span
    eye = np.eye(bounded.shape[-1])
    # The Hessian form 2 I_r kron smat(H' e') + J'^T H' J', on the face.
    curvature = jac.T @ stack @ jac
    half = smat(stack @ evec, m)
    for j in range(r):
        curvature[:, j * m : (j + 1) * m, j * m : (j + 1) * m] += 2.0 * half
    face = _face(x)
    curvature = face.T @ curvature @ face
    zero_q = np.zeros((face.shape[1],) * 2)
    blocks = [
        ("curvature", zero_q, zero_q, curvature),
        ("gram-lower", -eye, eye, bounded),
        ("gram-upper", eye, eye, -bounded),
    ]
    if span is not None:
        cap, zero_m = NORM_CAP_RADIUS * np.eye(dim_h), np.zeros((dim_h, dim_h))
        blocks.append(("norm-cap-lower", cap, zero_m, stack))
        blocks.append(("norm-cap-upper", cap, zero_m, -stack))
    cone_blocks: list[ConeBlock] = []
    roles: list[str] = []
    for name, base, delta_coeff, h_coeffs in blocks:
        coeffs = np.concatenate([delta_coeff[None], h_coeffs])
        if np.abs(coeffs).max(initial=0.0) <= 1e-12:
            # Constant block: vacuous if PSD, contradictory otherwise.
            floor = float(np.linalg.eigvalsh(base)[0])
            if floor < -1e-9 * max(1.0, float(np.linalg.norm(base, 2))):
                raise SolverError(f"block {name!r} is constant and not PSD")
            continue
        cone_blocks.append(ConeBlock(f0=base, coeffs=coeffs))
        roles.append(name)
    if not cone_blocks:
        raise SolverError("every constraint block is vacuous")
    c = np.zeros(1 + basis.shape[1])
    c[0] = 1.0
    return LmiProblem(
        dim_h=dim_h,
        cone=ConeProgram(c=c, blocks=cone_blocks),
        basis=basis,
        roles=roles,
        jac=jac,
        evec=evec,
        factor_rank=r,
        face=face,
        span=span,
    )


def _recover_multiplier(
    prob: LmiProblem, v: np.ndarray, by_role: dict[str, np.ndarray]
) -> np.ndarray:
    """Stationarity-row multiplier consistent with the cone duals.

    The null-space coordinates leave the dual equation determined only up
    to the row space; the least-squares solve puts it back, scaled to match the
    multiplier convention of the dual program.  It is solved in the svec
    coordinates of ``H'``; span-restricted gram duals (and, when present,
    spectral-cap duals) are expanded to the full dimension before the solve.
    """
    jac, evec, r = prob.jac, prob.evec, prob.factor_rank
    t = svec(_block_trace(v, r))
    g = -(np.outer(t, evec) + np.outer(evec, t)) - jac @ v @ jac.T
    diff = by_role["gram-lower"] - by_role["gram-upper"]
    if prob.span is not None:
        diff = prob.span @ diff @ prob.span.T
    if "norm-cap-lower" in by_role:
        diff = diff + by_role["norm-cap-lower"] - by_role["norm-cap-upper"]
    g -= diff
    rows = _stationarity_rows(jac, evec)
    w, *_ = np.linalg.lstsq(rows.T, svec(sym(g)), rcond=None)
    return -w / (2.0 * r)
