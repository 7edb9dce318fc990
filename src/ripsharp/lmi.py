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
cone variables ``y = (delta, w)``.  Every rank decision (the joint span,
``N``, ``K`` below, the factor of a gram matrix) cuts at
``linalg.RANK_RTOL``.

For ``r >= 2`` every curvature coefficient annihilates ``vec(x Omega)``
for skew ``Omega``, as the objective is invariant under ``x -> x R``.
The curvature block is restricted to the orthogonal complement ``K`` of
those vectors (facial reduction, Borwein and Wolkowicz 1981), which
gives it an interior.

Every program is built by ``build_upper_lmi``, for factors with any
number of rows: the reduced pair, or (``build_lower_lmi``) the same
pair lifted back to the ambient dimension, with bounds on all of ``H``.
The reduction is exact, so the two optima coincide; the ambient program
is the independent cross-check of that claim.  The builder first scales
the pair by the power of two that brings its largest entry into
``[1/2, 1)``, exactly, and then to a residual ``x x^T - z z^T`` of unit
norm.  Neither step changes delta, pairs that differ by a factor ``2^k``
build bit-identical programs, and ``solve_lmi`` maps the multipliers
back to the given scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSpuriousError
from .linalg import RANK_RTOL, as_factor, coincident, factor_gram, orth_complement, smat, svec
from .linalg import pow2_rescale, svec_dim, svec_side, sym, sym_basis, vec
from .objective import MeasurementOperator, curvature_form, jacobian_mat
from .sdp import MAX_ITERATIONS as STATUS_MAX_ITERATIONS
from .sdp import OPTIMAL as STATUS_OPTIMAL
from .sdp import STEP_FAILURE as STATUS_STEP_FAILURE
from .sdp import ConeProgram
from .sdp import solve as _solve_cone

STATUS_NOT_BELOW_ONE = "infeasible-at-delta-below-one"

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
        if self.p.ndim != 2:
            raise ValueError("span basis must be a matrix")
        self.xhat = as_factor(self.xhat, "xhat", (self.d, None))
        self.zhat = as_factor(self.zhat, "zhat", self.xhat.shape)
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

    The program is posed for the factors scaled by ``scale``, which gives
    ``x x^T - z z^T`` unit norm.  ``H'`` is the gram matrix on the
    symmetric subspace, of side ``dim_h = m(m+1)/2`` for factors with
    ``m`` rows; ``jac = Q^T J`` and ``evec = svec(x x^T - z z^T)`` are in
    the same svec coordinates, at the scaled factors.  The orthonormal
    columns of ``basis`` span the ``svec(H')`` that satisfy the
    stationarity rows ``jac^T H' evec = 0``, and ``cone`` is posed in
    ``y = (delta, w)`` with ``svec(H') = basis @ w``; its objective is
    delta.  ``roles[k]`` names block ``k`` of ``cone`` (``curvature``,
    ``gram-lower``, ``gram-upper``); the curvature block is dropped when
    it is zero.  It is compressed to the orthonormal columns of ``face``
    (``K``, ``m r - r(r-1)/2`` of them).  ``jac``, ``evec``, ``face``
    and ``scale`` are kept so the multipliers can be recovered.
    """

    dim_h: int
    cone: ConeProgram
    basis: np.ndarray
    roles: list[str]
    jac: np.ndarray
    evec: np.ndarray
    factor_rank: int
    face: np.ndarray
    scale: float


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
    dimension through the pair's span basis.  Both frames share ``scale``
    = max(1, largest multiplier norm, ||x x^T - z z^T||_F), which the checks
    grow with.
    """

    checks: dict[str, float]
    gap: float | None
    scale: float = 1.0

    def max_violation(self) -> float:
        return max(self.checks.values(), default=0.0)

    def max_relative_violation(self) -> float:
        return self.max_violation() / self.scale


def reduce(x: np.ndarray, z: np.ndarray) -> ReducedPair:
    """Project a factor pair onto an orthonormal basis of their joint span."""
    x = as_factor(x, "x")
    z = as_factor(z, "z", x.shape)
    if not (np.any(x) or np.any(z)):
        raise NotSpuriousError("x and z are both zero; no span to reduce to")
    u, s, _ = np.linalg.svd(np.hstack([x, z]), full_matrices=False)
    p = u[:, : int(np.sum(s > RANK_RTOL * s[0]))]
    return ReducedPair(p=p, xhat=p.T @ x, zhat=p.T @ z)


def build_upper_lmi(pair: ReducedPair) -> LmiProblem:
    """Program over (delta, H) whose optimum equals the sharpest constant.

    A cone program in ``y = (delta, w)`` with ``svec(H') = N w``, posed for
    the factors ``xhat`` and ``zhat``.  The stationarity rows force the
    gradient of the recovery objective to vanish under gram matrix ``H``,
    the curvature block keeps its Hessian PSD, and the two gram blocks pin
    ``H`` between ``(1 -/+ delta) I``.

    The factors are first scaled by :func:`linalg.pow2_rescale`, the power
    of two that brings their largest entry into ``[1/2, 1)``, exactly, so
    pairs that differ by a factor ``2^j`` build one program bit for bit; then by
    ``||x x^T - z z^T||^(-1/2)``, for a unit residual.  Neither changes
    delta, ``LmiProblem.scale`` is the product, and no program exists
    when :func:`linalg.coincident` finds ``x x^T = z z^T``.  ``N``
    is an orthonormal basis of the null space of the stationarity rows:
    the complement of their span, from :func:`orth_complement`.  The
    program is written packed: the gram blocks' svec rows for ``w`` are
    ``N^T`` itself, as the columns of ``N`` are svec(H') coordinates, and
    the curvature block's are the svecs of the Hessian form of the stack
    ``smat(N^T)``, restricted to the face ``K``.  The curvature block is
    zero, and dropped, when ``x`` and ``z`` are collinear and the null
    space is empty.
    """
    x, z = pair.xhat, pair.zhat
    m, r = x.shape
    x, z, k = pow2_rescale(x, z)  # before any product, which could overflow
    e_norm = float(np.linalg.norm(x @ x.T - z @ z.T))
    if coincident(e_norm, max(float(np.sum(x * x)), float(np.sum(z * z)))):
        raise NotSpuriousError(
            "x x^T equals z z^T; every operator makes x a global optimum"
        )
    scale = e_norm**-0.5
    x, z = scale * x, scale * z
    q = sym_basis(m)
    jac = q.T @ jacobian_mat(x)
    evec = svec(x @ x.T - z @ z.T)
    dim_h = svec_dim(m)
    basis = orth_complement(_stationarity_rows(jac, evec).T)
    stack = smat(basis.T, dim_h)
    # The Hessian form 2 I_r kron smat(H' e') + J'^T H' J', on the face.
    curvature = jac.T @ stack @ jac
    half = smat(stack @ evec, m)
    for j in range(r):
        curvature[:, j * m : (j + 1) * m, j * m : (j + 1) * m] += 2.0 * half
    face = _face(x)
    curvature = face.T @ curvature @ face
    # Symmetrized before packing: the products above are symmetric only to rounding.
    curv_rows = svec(0.5 * (curvature + curvature.transpose(0, 2, 1)))
    eye = svec(np.eye(dim_h))
    # (role, svec(F0), rows svec(F_i) of the delta coefficient and the w coefficients)
    blocks = [
        ("curvature", np.zeros(curv_rows.shape[1]), np.pad(curv_rows, ((1, 0), (0, 0)))),
        ("gram-lower", -eye, np.vstack([eye, basis.T])),
        ("gram-upper", eye, np.vstack([eye, -basis.T])),
    ]
    if np.abs(curvature).max(initial=0.0) <= 1e-12:
        del blocks[0]
    c = np.zeros(1 + basis.shape[1])
    c[0] = 1.0
    return LmiProblem(
        dim_h=dim_h,
        cone=ConeProgram(c=c, blocks=[(f0, a) for _, f0, a in blocks]),
        basis=basis,
        roles=[name for name, *_ in blocks],
        jac=jac,
        evec=evec,
        factor_rank=r,
        face=face,
        scale=math.ldexp(scale, -k),
    )


def build_lower_lmi(x: np.ndarray, z: np.ndarray, p: np.ndarray) -> LmiProblem:
    """The exact program in the ambient dimension, with bounds on all of H.

    ``p`` must have orthonormal columns, as ``reduce(x, z).p`` has.  The
    program is that of :func:`build_upper_lmi` for the projected pair
    lifted back to ``n`` rows, ``(P xhat, P zhat)``; when ``p`` spans both
    factors, that is ``(x, z)``.  Its optimum then equals the reduced one,
    which makes it a cross-check of the reduction.  Its solution is in vec
    coordinates of ``R^n``.
    """
    x = as_factor(x, "x")
    z = as_factor(z, "z")
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or not p.shape[0] == x.shape[0] == z.shape[0]:
        raise ValueError("span basis and factors must have the same number of rows")
    pair = ReducedPair(p=p, xhat=p.T @ x, zhat=p.T @ z)
    return build_upper_lmi(ReducedPair(np.eye(pair.n), p @ pair.xhat, p @ pair.zhat))


def solve_lmi(prob: LmiProblem) -> SdpSolution:
    """Solve an assembled program and recover the full set of multipliers.

    The gram matrix is lifted to vec coordinates as ``Q (H' - I) Q^T + I``,
    the gram duals as ``Q U Q^T`` and the curvature dual as ``K V K^T``.
    The multipliers of the scaled program are mapped back to the given
    factors: ``y`` by ``scale^3`` and ``V`` by ``scale^2``.
    """
    # Start from the identity gram matrix projected onto the null space.
    y0 = np.concatenate([[INITIAL_DELTA], prob.basis.T @ svec(np.eye(prob.dim_h))])
    res = _solve_cone(prob.cone, y0=y0)
    delta_raw = float(res.y[0])
    q = sym_basis(svec_side(prob.dim_h))
    h = _extend(smat(prob.basis @ res.y[1:], prob.dim_h), q)
    face = prob.face
    by_role = dict(zip(prob.roles, res.duals))
    v = face @ by_role.get("curvature", np.zeros((face.shape[1],) * 2)) @ face.T
    c = prob.scale
    dual = DualVariables(
        y=c**3 * _recover_multiplier(prob, v, by_role),
        u1=q @ by_role["gram-lower"] @ q.T,
        u2=q @ by_role["gram-upper"] @ q.T,
        v=c**2 * sym(v),
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

    Solves the reduced program on the joint span.  The gram matrix and
    the multipliers refer to the span basis of ``reduce(x, z)``.
    """
    return solve_lmi(build_upper_lmi(reduce(x, z)))


def recover_minimizer(sol: SdpSolution, pair: ReducedPair) -> MeasurementOperator:
    """Measurement operator whose gram matrix is the solved one extended.

    The rows are a factor of ``B (H - I) B^T + I`` for ``B = P kron P``,
    so ``A^T A`` is ``H`` on the span and the identity off it.  The row
    count is its numerical rank, ``rank(H) + n^2 - d^2``.
    """
    if sol.status != STATUS_OPTIMAL:
        raise ValueError(f"minimizer requires an optimal solution, got {sol.status!r}")
    rows = factor_gram(_extend(sol.h, np.kron(pair.p, pair.p)))
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
    sizes = [] if dual is None else [np.linalg.norm(m) for m in (dual.y, dual.u1, dual.u2, dual.v)]
    return CertificateReport(checks, gap, float(max(1.0, *sizes, np.linalg.norm(evec_d))))


def _block_trace(v: np.ndarray, r: int) -> np.ndarray:
    """Sum of the ``r`` diagonal blocks of ``V``: the partial trace over I_r."""
    side = v.shape[0] // r
    return sum(v[j * side : (j + 1) * side, j * side : (j + 1) * side] for j in range(r))


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


def _recover_multiplier(
    prob: LmiProblem, v: np.ndarray, by_role: dict[str, np.ndarray]
) -> np.ndarray:
    """Stationarity-row multiplier consistent with the cone duals.

    The null-space coordinates leave the dual equation determined only up
    to the row space; the least-squares solve puts it back, scaled to match
    the multiplier convention of the dual program.  It is solved in the
    svec coordinates of ``H'``, for the scaled factors of the program.
    """
    jac, evec, r = prob.jac, prob.evec, prob.factor_rank
    t = svec(_block_trace(v, r))
    g = -(np.outer(t, evec) + np.outer(evec, t)) - jac @ v @ jac.T
    g -= by_role["gram-lower"] - by_role["gram-upper"]
    rows = _stationarity_rows(jac, evec)
    w, *_ = np.linalg.lstsq(rows.T, svec(sym(g)), rcond=None)
    return -w / (2.0 * r)
