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
``(1 -/+ delta) I`` (Cauchy interlacing), and so does the extension
rule ``B (M - I) B^T + I`` (``M`` on the span of the orthonormal columns
of ``B``, the identity off it).  So the programs are posed on ``H'`` of
side ``d(d+1)/2``: ``solve_lmi`` extends ``H'`` with ``B = Q``, and
``verify_certificates`` and ``recover_minimizer`` extend ``H`` with
``B = P kron P``.  The stationarity
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
    """Solved program: sharpest delta, gram matrix, and dual certificate.

    ``h`` is in vec coordinates of the factors the program was built on (the
    span basis, for ``delta_exact``) and is the identity off the symmetric
    matrices; ``iterations`` counts the iterations run, as in ``sdp.solve``.
    """

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
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or not p.shape[0] == x.shape[0] == z.shape[0]:
        raise ValueError("span basis and factors must have the same number of rows")
    pair = ReducedPair(p=p, xhat=p.T @ x, zhat=p.T @ z)
    return _null_space_program(x, z, pair.p)


def solve_lmi(prob: LmiProblem) -> SdpSolution:
    """Solve an assembled program and recover the full set of multipliers.

    The gram matrix is lifted to vec coordinates as ``Q (H' - I) Q^T + I``,
    the gram duals as ``Q U Q^T`` and the curvature dual as ``K V K^T``.
    """
    # Start from the identity gram matrix projected onto the null space.
    y0 = np.concatenate([[INITIAL_DELTA], prob.basis.T @ svec(np.eye(prob.dim_h))])
    res = _solve_cone(prob.cone, y0=y0)
    delta_raw = float(res.y[0])
    h = smat(prob.basis @ res.y[1:], prob.dim_h)
    h = _extend(h, sym_basis(svec_side(prob.dim_h)))
    face = prob.face
    by_role = dict(zip(prob.roles, res.duals))
    v = face @ by_role.get("curvature", np.zeros((face.shape[1],) * 2)) @ face.T
    # The gram blocks are of side dim_h, or d(d+1)/2 when restricted to a span.
    q = sym_basis(svec_side(by_role["gram-lower"].shape[0]))
    dual = DualVariables(
        y=_recover_multiplier(prob, v, by_role),
        u1=q @ by_role["gram-lower"] @ q.T,
        u2=q @ by_role["gram-upper"] @ q.T,
        v=v,
    )
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
    """Measurement operator whose gram matrix is the solved one extended.

    With ``B = P kron P``, the rows are a factor of the solved gram matrix
    pushed through ``B``, stacked on an orthonormal basis of the
    complement of ``B``'s columns, so ``A^T A = B (H - I) B^T + I``: ``H``
    on the span and the identity off it.  The row count is
    ``rank(H) + n^2 - d^2``.
    """
    if sol.status != STATUS_OPTIMAL:
        raise ValueError(f"minimizer requires an optimal solution, got {sol.status!r}")
    pp = np.kron(pair.p, pair.p)
    rows = np.vstack([factor_gram(sol.h) @ pp.T, orth_complement(pp).T])
    return MeasurementOperator.from_stacked(rows, pair.n)


def verify_certificates(primal: SdpSolution, pair: ReducedPair) -> CertificateReport:
    """Residuals of every feasibility row the solution claims to satisfy.

    Checks the primal rows, and the dual rows when a dual is attached, in
    two frames: the reduced one (basis ``I_d``) and the ambient one (basis
    ``P``, keys prefixed ``lift-``).  In each, the factors are ``B xhat``
    and ``B zhat``, the gram matrix is extended through ``B kron B`` and
    the multipliers are pushed through ``B kron B`` and ``I_r kron B``.
    Pure report: nothing is thresholded away, nothing raises.
    """
    r = pair.r
    h = sym(np.asarray(primal.h, dtype=float))
    delta = float(primal.delta)
    dual = primal.dual
    checks: dict[str, float] = {}
    for prefix, b in (("", np.eye(pair.d)), ("lift-", pair.p)):
        bb, ib = np.kron(b, b), np.kron(np.eye(r), b)
        x, z = b @ pair.xhat, b @ pair.zhat
        jac, evec = jacobian_mat(x), vec(x @ x.T - z @ z.T)
        if prefix:
            checks["lift-residual"] = float(np.abs(evec - bb @ evec_d).max())
            checks["lift-jacobian"] = float(np.abs(jac @ ib - bb @ jac_d).max())
        else:
            jac_d, evec_d = jac, evec
        hb = _extend(h, bb)
        gram_eigs = np.linalg.eigvalsh(sym(hb))
        curv_eigs = np.linalg.eigvalsh(sym(curvature_form(jac, evec, hb, r)))
        checks[prefix + "stationarity"] = float(np.abs(jac.T @ (hb @ evec)).max())
        checks[prefix + "curvature-psd"] = max(0.0, -float(curv_eigs[0]))
        checks[prefix + "gram-lower"] = max(0.0, (1.0 - delta) - float(gram_eigs[0]))
        checks[prefix + "gram-upper"] = max(0.0, float(gram_eigs[-1]) - (1.0 + delta))
        if dual is None:
            continue
        y, v = ib @ dual.y, sym(ib @ dual.v @ ib.T)
        u1, u2 = sym(bb @ dual.u1 @ bb.T), sym(bb @ dual.u2 @ bb.T)
        s = r * (jac @ y) - vec(_block_trace(v, r))
        lhs = np.outer(s, evec) + np.outer(evec, s) - jac @ v @ jac.T
        checks[prefix + "dual-trace"] = abs(float(np.trace(u1) + np.trace(u2)) - 1.0)
        checks[prefix + "dual-equation"] = float(np.abs(lhs - (u1 - u2)).max())
        for name, m in (("curvature", v), ("gram-lower", u1), ("gram-upper", u2)):
            floor = float(np.linalg.eigvalsh(m)[0])
            checks[f"{prefix}dual-{name}-psd"] = max(0.0, -floor)
    gap = None if dual is None else delta - float(np.trace(dual.u1) - np.trace(dual.u2))
    return CertificateReport(checks=checks, gap=gap)


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


def _extend(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``B (M - I) B^T + I``: ``M`` on the span of B's orthonormal columns, I off it."""
    return b @ (m - np.eye(m.shape[0])) @ b.T + np.eye(b.shape[0])


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
