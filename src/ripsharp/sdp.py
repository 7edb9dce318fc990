"""Dense primal-dual interior-point solver for block-diagonal LMIs.

Solves   minimize  c^T y   subject to   F0^k + sum_i y_i Fi^k >= 0
for every block k, together with the conic dual
maximize -sum_k <F0^k, Z_k>  subject to  sum_k <Fi^k, Z_k> = c_i, Z_k >= 0.

The method is infeasible-start path following with Nesterov-Todd scaling
and a Mehrotra predictor-corrector step.  Directions, step lengths and
the corrector are taken in the NT-scaled frame, where S and Z are one
diagonal matrix; only the accepted step is unscaled.  All blocks are dense;
the Schur complement is assembled explicitly and factored by Cholesky,
which is the right trade for the small matrices this package produces.  A
large block's trailing rows with one nonzero entry (a delta program's rows run
delta, the head of N, then these unit rows) take their Schur entries by
formula, not by congruence (Fujisawa, Kojima and Nakata, Math. Prog. 1997).
Programs, iterates and directions are packed svecs, all blocks side by side
(:class:`_Layout`), so every symmetric quantity is symmetric by construction.
:class:`_Scaling` allocates the solve's large buffers once and takes the
congruence products in chunks, so a solve holds about 4x the packed program.
LAPACK is scipy's f2py extension ``scipy.linalg._flapack``, whose routines
``scipy.linalg.lapack`` re-exports; it is loaded from its file, because the
``scipy.linalg`` package would nearly double every process's start-up time.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np

from .linalg import smat, svec_dim, svec_indices

# Reuse the module if scipy.linalg is loaded already; find_spec imports nothing.
_FLAPACK = "scipy.linalg._flapack"
if _FLAPACK not in sys.modules:
    _root = Path(importlib.util.find_spec("scipy").origin).parent
    _spec = importlib.util.spec_from_file_location(
        _FLAPACK, _root / "linalg" / f"_flapack{EXTENSION_SUFFIXES[0]}")
    sys.modules[_FLAPACK] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_FLAPACK])
lapack = sys.modules[_FLAPACK]

OPTIMAL = "optimal"
MAX_ITERATIONS = "max-iterations"
STEP_FAILURE = "step-failure"

# Stopping rule: relative duality gap and scaled infeasibilities.  The
# primal residual rp = F(y) - S is held ten times tighter, because the
# certificates check F(y) itself while only the slack S is kept in the cone.
GAP_TOL = 1e-9
FEAS_TOL = 1e-9
PRIMAL_FEAS_TOL = 1e-10
ITERATION_LIMIT = 200

# Fraction-to-boundary factor for accepted steps.
STEP_SHRINK = 0.98
# Doubles per congruence-product chunk buffer (256 KB).
_CHUNK = 1 << 15
# Smallest block side whose unit rows take their Schur entries by formula.  Solve
# times, by congruence and by formula, at one BLAS thread on a 2-CPU x86-64 box:
# side 3: 1.9 and 3.8 ms; side 10: 4.1 and 6.6 ms; side 21: 33 and 28 ms.
_UNIT_SIDE = 16


class ConeProgram:
    """Block LMI F0^k + sum_i y_i F_i^k >= 0 with linear objective c^T y, stored packed.

    Blocks of sides ``block_sizes``, each k >= 1, lie side by side: ``f0``
    holds their svec(F0) in turn and row i of ``a`` (p x sum k(k+1)/2) their
    svec(F_i), all finite, p >= 1.  The arrays are stored as given, but ``a``
    column-major (copied if it is not): the solve's rounding depends on it.
    """

    __slots__ = ("c", "a", "f0", "block_sizes")

    def __init__(self, c: np.ndarray, f0: np.ndarray, a: np.ndarray, block_sizes):
        self.c = np.asarray(c, dtype=float).reshape(-1)
        self.f0, self.a = np.asarray(f0, dtype=float), np.asfortranarray(a, dtype=float)
        self.block_sizes = tuple(int(k) for k in block_sizes)
        if not np.isfinite(self.c).all():
            raise ValueError("c must be finite")
        if not self.block_sizes:
            raise ValueError("program has no blocks")
        if min(self.block_sizes) < 1:
            raise ValueError("every block must have side at least 1")
        if not self.c.size:
            raise ValueError("program has no variables")
        width = sum(svec_dim(k) for k in self.block_sizes)
        if self.f0.shape != (width,) or self.a.shape != (self.c.size, width):
            raise ValueError(f"blocks {self.block_sizes} take F0 of shape {(width,)}, coefficients "
                             f"{(self.c.size, width)}; got {self.f0.shape} and {self.a.shape}")
        if not (np.isfinite(self.f0).all() and np.isfinite(self.a).all()):
            raise ValueError("F0 and coefficients must be finite")

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]


@dataclass
class SolveResult:
    """What :func:`solve` returns: the last iterate with its gap, residuals and
    objectives, and the ``iterations`` run, the one that stopped the solve included."""

    y: np.ndarray
    duals: list[np.ndarray]
    gap: float
    status: str
    pobj: float
    dobj: float
    iterations: int
    pinf: float
    dinf: float


class _Layout:
    """Tables that lay blocks of these sizes side by side; n = sum of sizes.

    A packed svec holds the blocks' svecs in turn, block k from
    ``starts[k]``: entry e, of weight w[e], sits at row i[e] >= column j[e]
    of the n x n block-diagonal matrix, whose block k starts at
    ``offsets[k]`` (flat position ``lower``, mirror ``upper``), and pairs
    eigenvalues i[e] and j[e]; ``eye`` = svec(I).  Per block, ``gathers``
    holds its svec rows and the flat positions of the lower triangle of a
    column-major k x k matrix.  The tables depend only on the block sizes:
    :func:`_layout` builds them once per shape, and every array is read-only.
    """

    def __init__(self, sizes: tuple[int, ...]):
        self.sizes = sizes
        self.n = n = sum(sizes)
        self.offsets = np.cumsum((0,) + sizes[:-1])
        parts, gathers, end = [], [], 0
        for off, k in zip(self.offsets, sizes):
            sv_rows, sv_cols, weights = svec_indices(k)
            parts.append((off + sv_rows, off + sv_cols, weights))
            gathers.append((slice(end, end + weights.size), sv_cols * k + sv_rows))
            end += weights.size
        self.starts = np.array([rows.start for rows, _ in gathers])
        self.i, self.j, self.w = map(np.concatenate, zip(*parts))
        self.eye = (self.i == self.j).astype(float)
        self.lower, self.upper = self.i * n + self.j, self.j * n + self.i
        self.gathers = tuple(gathers)
        for table in (self.offsets, self.starts, self.i, self.j, self.w, self.eye, self.lower,
                      self.upper, *(lower for _, lower in gathers)):
            table.flags.writeable = False

    def blocks(self, packed: np.ndarray) -> list[np.ndarray]:
        """Per block, the (..., k, k) matrices of the last axis of a packed svec array."""
        return [smat(packed[..., rows], k) for (rows, _), k in zip(self.gathers, self.sizes)]

    def smat(self, v: np.ndarray) -> np.ndarray:
        """The n x n block-diagonal matrix of a packed svec."""
        out = np.zeros(self.n * self.n)
        out[self.lower] = out[self.upper] = v / self.w
        return out.reshape(self.n, self.n)

    def svec(self, m: np.ndarray) -> np.ndarray:
        """Packed svec of the symmetric part of an n x n block-diagonal matrix."""
        return (np.take(m, self.lower) + np.take(m, self.upper)) * (0.5 * self.w)


_layout = lru_cache(maxsize=64)(_Layout)


class _Scaling:
    """NT scaling G^-1 S G^-T = G^T Z G = diag(lam) and the Schur complement it poses.

    One per solve: it unpacks the program once and allocates the solve's
    large buffers once, and :meth:`factor` overwrites them at each iterate.
    After ``factor(s, z, rp)`` on packed svecs, ``ginv`` is the
    block-diagonal G^-1, ``rp_hat`` the packed svec of the lower triangle of
    G^-1 rp G^-T, ``d`` = svec(D), D = diag(lam), ``schur`` the Schur
    complement of :meth:`apply`, dy -> packed svec of G^-1 F(dy) G^-T, and
    ``chol`` its lower Cholesky factor, in Fortran order.  Per svec entry
    (i, j), X = lyap * R with ``lyap`` = 2 / (lam_i + lam_j) solves
    (X D + D X)/2 = R, and ``unit`` = (lam_i lam_j)^-1/2 maps a step to
    D^-1/2 step D^-1/2.  In a block of side k >= ``_UNIT_SIDE``, the unit rows
    ``split:`` are the trailing run of rows with one nonzero alpha, at svec
    position e (``lmi`` writes delta, the head of N, then them): with V = G^-T
    G^-1 their Schur entries are alpha alpha' K(V)[e, e'], K(V)[(a,b),(c,d)] =
    s_ab s_cd (V_ac V_bd + V_ad V_bc), s = 1/sqrt(2) on the diagonal and 1 off
    it, and alpha svec(V F_j V)[e] with a dense row j.  Only the dense rows are
    unpacked and multiplied, in chunks of ``_CHUNK // k**2`` gathered
    contiguously: by V into ``units[b][-1]``, or by G^-1 into ``svecs``, whose
    Schur part is svecs^T svecs, on the blocks without unit rows (``full``).
    """

    __slots__ = ("lay", "chunks", "units", "work", "full", "svecs", "schur", "chol", "lam",
                 "ginv", "rp_hat", "lyap", "unit", "d")

    def __init__(self, lay: _Layout, a: np.ndarray):
        p = a.shape[0]
        self.lay, self.units, wides, full = lay, {}, [], []
        self.lam, self.ginv = np.empty(lay.n), np.zeros((lay.n, lay.n))
        for b, ((rows, lower), k, off) in enumerate(zip(lay.gathers, lay.sizes, lay.offsets)):
            single = np.count_nonzero(a[::-1, rows], axis=1) == 1 if k >= _UNIT_SIDE else [False]
            split = p - int(np.logical_and.accumulate(single).sum())
            # Unpacked first, while the buffers below do not yet add to its peak.
            wides.append(smat(a[:split, rows], k).transpose(1, 0, 2).reshape(k, -1))
            if split == p:
                full.append(np.arange(rows.start, rows.stop))
                continue
            e = (a[split:, rows] != 0).argmax(axis=1)
            ia, ib = (index[e] for index in svec_indices(k)[:2])
            alpha = a[np.arange(split, p), rows.start + e]
            c = alpha * np.where(ia == ib, 0.5**0.5, 1.0)
            self.units[b] = (split, e, alpha, ia, ib, c, np.empty((2, k, p - split)),
                             np.ascontiguousarray(a[:split, rows]), rows, lower,
                             self.ginv[off:off + k, off:off + k], np.empty((svec_dim(k), split)))
        self.full = np.concatenate(full) if full else np.arange(0)
        self.svecs = np.empty((self.full.size, p))
        self.schur, self.chol = np.empty((p, p)), np.empty((p, p), order="F")
        # Buffers for the chunks' products and gathers, and for the unit rows' Schur rows.
        need = [k * min(w.shape[1], k * max(1, _CHUNK // k**2)) for w, k in zip(wides, lay.sizes)]
        self.work = u, t, _ = np.empty((3, max(need + [max(_CHUNK, p)] * bool(self.units))))
        # Per block and chunk of its dense rows: [F_i0 ...], the two product
        # buffers, the contiguous buffer the gather fills and the columns it lands in.
        self.chunks, start = [], 0
        for b, (wide, k, (rows, _)) in enumerate(zip(wides, lay.sizes, lay.gathers)):
            size, m = rows.stop - rows.start, max(1, _CHUNK // (k * k))
            dest = self.units[b][-1] if b in self.units else self.svecs[start:start + size]
            start += size * (b not in self.units)
            self.chunks.append([])
            for i0 in range(0, dest.shape[1], m):
                out, n = dest[:, i0:i0 + m], k * k * min(m, dest.shape[1] - i0)
                gather = out if out.flags.c_contiguous else u[:out.size].reshape(out.shape)
                self.chunks[-1].append((wide[:, i0 * k:i0 * k + n // k], u[:n].reshape(k, -1),
                                        t[:n].reshape(k, -1), gather, out))

    def factor(self, s: np.ndarray, z: np.ndarray, rp: np.ndarray) -> None:
        """Scale at (s, z, rp); LinAlgError unless S, Z and the Schur complement are PD."""
        lay = self.lay
        s_full, z_full = lay.smat(s), lay.smat(z)
        for b, (chunks, k, off, (_, lower)) in enumerate(
                zip(self.chunks, lay.sizes, lay.offsets, lay.gathers)):
            sub = slice(off, off + k)
            ls, info = lapack.dpotrf(s_full[sub, sub], lower=1)
            if info != 0:
                raise np.linalg.LinAlgError("S is not positive definite")
            # NT scaling point W = G G^T with G = L_S Q diag(evals)^-1/4, so that
            # G^-T = L_S^-T Q diag(evals)^1/4 takes one triangular solve.
            # LAPACK reads only the lower triangle of L_S^T Z L_S.
            evals, q, info = lapack.dsyevd(ls.T @ z_full[sub, sub] @ ls, lower=1)
            if info != 0 or evals[0] <= 0.0:
                raise np.linalg.LinAlgError("Z is not positive definite")
            g = ginv = lapack.dtrtrs(ls, q * evals[None, :] ** 0.25, lower=1, trans=1)[0].T
            self.lam[sub] = np.sqrt(evals)
            self.ginv[sub, sub] = ginv
            if b in self.units:
                _, _, _, ia, ib, _, (ta, tb), *_ = self.units[b]
                g = ginv.T @ ginv  # V, exactly symmetric: numpy runs it as SYRK
                ta[...], tb[...] = g[:, ia], g[:, ib]
            # A chunk's congruences in two products: g [F_i0 ...] as rows (a, i),
            # then g times its transpose gives t[c, a, i] = (g F_i g^T)[a, c], so
            # each svec entry is one row of t.  Gathered while t is still in cache.
            for wide, u, t, gather, out in chunks:
                np.matmul(g, wide, out=u)
                np.matmul(g, u.reshape(-1, k).T, out=t)
                np.take(t.reshape(k * k, -1), lower, axis=0, out=gather, mode="clip")
                if gather is not out:
                    out[...] = gather
        self.svecs *= lay.w[self.full, None]
        self.rp_hat = np.take(self.ginv @ lay.smat(rp) @ self.ginv.T, lay.lower) * lay.w
        lam_i, lam_j = self.lam[lay.i], self.lam[lay.j]
        self.lyap, self.unit = 2.0 / (lam_i + lam_j), 1.0 / np.sqrt(lam_i * lam_j)
        self.d = lay.eye * lam_i
        schur = np.matmul(self.svecs.T, self.svecs, out=self.schur)
        # Unit rows add whole rows of schur, in chunks: alpha svec(V F_j V)[e] at dense
        # columns, and K(V) at unit ones from the tables ta = V[:, a'], tb = V[:, b'].
        # Symmetric to rounding, exactly when every alpha is +-1.
        for split, e, alpha, ia, ib, c, (ta, tb), a_dense, rows, *_, cross in (
                self.units.values()):
            cross *= lay.w[rows, None]
            dd = a_dense @ cross
            schur[:split, :split] += 0.5 * (dd + dd.T)
            step = max(1, self.work.shape[1] // c.size)
            for r in (slice(r0, r0 + step) for r0 in range(0, c.size, step)):
                ku, x, y = (w[:alpha[r].size * c.size].reshape(-1, c.size) for w in self.work)
                np.take(ta, ia[r], axis=0, out=ku, mode="clip")
                ku *= np.take(tb, ib[r], axis=0, out=x, mode="clip")
                np.take(ta, ib[r], axis=0, out=x, mode="clip")
                ku += np.multiply(x, np.take(tb, ia[r], axis=0, out=y, mode="clip"), out=x)
                ku *= c
                ku *= c[r, None]
                at = slice(split + r.start, split + r.stop)
                schur[at, split:] += ku
                kd = alpha[r, None] * cross[e[r]]
                schur[at, :split] += kd
                schur[:split, at] += kd.T
        _robust_cholesky(schur, self.chol)

    def apply(self, dy: np.ndarray) -> np.ndarray:
        """The packed svec of G^-1 F(dy) G^-T, F(dy) = sum_i dy_i F_i."""
        out = self.svecs @ dy
        if self.units:
            out, full = np.empty(self.lay.w.size), out
            out[self.full] = full
        for split, e, alpha, *_, a_dense, rows, lower, g, _ in self.units.values():
            # Unit rows that share an entry add up in bincount.
            f = smat(dy[:split] @ a_dense + np.bincount(e, alpha * dy[split:], a_dense.shape[1]))
            out[rows] = np.take(g @ f @ g.T, lower) * self.lay.w[rows]
        return out

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """<G^-1 F_i G^-T, smat(v)> for every variable i: the adjoint of :meth:`apply`."""
        out = self.svecs.T @ v[self.full]
        for split, e, alpha, *_, a_dense, rows, lower, g, _ in self.units.values():
            m = np.take(g.T @ smat(v[rows]) @ g, lower) * self.lay.w[rows]
            out[:split] += a_dense @ m
            out[split:] += alpha * m[e]
        return out


def _residuals(lay, prog, y, s, z, f_scale, c_scale):
    """Residuals rp and rd, gap, scaled infeasibilities and objectives."""
    rp = prog.f0 + y @ prog.a - s
    rd = prog.c - prog.a @ z
    # Residuals are scaled by the iterate norms, largest over the blocks:
    # near-degenerate optima have unbounded multipliers, and the absolute
    # residual then floors at the rounding level of the matching products.
    # svec is an isometry: its 2-norms are Frobenius norms, s @ z is <S, Z>.
    s_scale = math.sqrt(np.add.reduceat(s * s, lay.starts).max())
    z_scale = math.sqrt(np.add.reduceat(z * z, lay.starts).max())
    pinf = math.sqrt(np.add.reduceat(rp * rp, lay.starts).max()) / (f_scale + s_scale)
    dinf = float(np.abs(rd).max()) / (c_scale + z_scale)
    return rp, rd, float(s @ z), pinf, dinf, float(prog.c @ y), -float(prog.f0 @ z)


def solve(prog: ConeProgram, y0: np.ndarray | None = None) -> SolveResult:
    """Run the interior-point method on ``prog``.

    Each iteration is one Mehrotra predictor and one corrector step.  The
    solve stops as ``optimal`` once the duality gap is within ``GAP_TOL``
    of ``max(1, |pobj|, |dobj|)``, the scaled primal infeasibility within
    ``PRIMAL_FEAS_TOL`` and the scaled dual one within ``FEAS_TOL``.  It
    stops short as ``step-failure`` when the NT scaling fails (S or Z is
    not positive definite) or the Schur complement cannot be factored, or
    as ``max-iterations`` after ``ITERATION_LIMIT`` iterations, and
    returns the last iterate either way.  The duals are the per-block PSD
    multipliers.
    """
    p = prog.num_vars
    y = np.zeros(p) if y0 is None else np.asarray(y0, dtype=float).copy()
    if y.shape != (p,) or not np.isfinite(y).all():
        raise ValueError(f"y0 must be a finite vector of length {p}")

    lay = _layout(prog.block_sizes)
    sc = _Scaling(lay, prog.a)
    s = prog.f0 + y @ prog.a
    for (rows, _), s_k in zip(lay.gathers, lay.blocks(s)):
        evals = np.linalg.eigvalsh(s_k)
        scale = max(1.0, float(np.abs(evals).max()))
        if evals[0] <= 1e-3 * scale:
            s[rows] += (1e-1 * scale - evals[0]) * lay.eye[rows]
    zeta = max(1.0, float(np.linalg.norm(prog.c))) / np.sqrt(lay.n)
    z = zeta * lay.eye

    c_scale = 1.0 + float(np.abs(prog.c).max(initial=0.0))
    f_scale = 1.0 + max(float(np.linalg.norm(prog.f0[rows])) for rows, _ in lay.gathers)
    status = MAX_ITERATIONS
    it = 0

    for it in range(1, ITERATION_LIMIT + 1):
        rp, rd, gap, pinf, dinf, pobj, dobj = _residuals(lay, prog, y, s, z, f_scale, c_scale)
        mu = gap / lay.n
        gap_scale = max(1.0, abs(pobj), abs(dobj))
        if gap <= GAP_TOL * gap_scale and pinf <= PRIMAL_FEAS_TOL and dinf <= FEAS_TOL:
            status = OPTIMAL
            break

        try:
            sc.factor(s, z, rp)
        except np.linalg.LinAlgError:
            status = STEP_FAILURE
            break

        # Predictor: aim at mu = 0.
        _, ds_aff, dz_aff = _direction(sc, rd, -(sc.d**2))
        ap_aff, ad_aff = (min(1.0, t) for t in _max_steps(lay, sc.unit, ds_aff, dz_aff))
        gap_aff = float((sc.d + ap_aff * ds_aff) @ (sc.d + ad_aff * dz_aff))
        sigma = float(np.clip((max(gap_aff, 0.0) / gap) ** 2, 1e-10, 1.0))

        # Corrector: recenter and cancel the second-order term.
        cross = lay.svec(lay.smat(ds_aff) @ lay.smat(dz_aff))
        dy, ds, dz = _direction(sc, rd, sigma * mu * lay.eye - sc.d**2 - cross)
        ap, ad = (min(1.0, STEP_SHRINK * t) for t in _max_steps(lay, sc.unit, ds, dz))
        # Only the accepted step is unscaled; S moves along dy.F + rp, so F(y) - S stays affine.
        y += ap * dy
        s += ap * (dy @ prog.a + rp)
        z += ad * lay.svec(sc.ginv.T @ lay.smat(dz) @ sc.ginv)
    else:
        # The cap: the last step moved y, s and z past the residuals above.
        _, _, gap, pinf, dinf, pobj, dobj = _residuals(lay, prog, y, s, z, f_scale, c_scale)
    return SolveResult(
        y=y,
        duals=lay.blocks(z),
        gap=gap,
        status=status,
        pobj=pobj,
        dobj=dobj,
        iterations=it,
        pinf=pinf,
        dinf=dinf,
    )


def _direction(sc, rd, rc):
    """Newton solve for packed centering rc: dy, svec(G^-1 dS G^-T), svec(G^T dZ G)."""
    x = sc.lyap * rc
    rhs = sc.adjoint(x - sc.rp_hat) - rd
    dy = lapack.dpotrs(sc.chol, rhs, lower=1)[0]
    # One round of iterative refinement keeps late iterations accurate.
    dy += lapack.dpotrs(sc.chol, rhs - sc.schur @ dy, lower=1)[0]
    ds = sc.apply(dy) + sc.rp_hat
    return dy, ds, x - ds


def _max_steps(lay, unit, ds, dz) -> tuple[float, float]:
    """Largest t_s and t_z with diag(lam) + t*d >= 0 for packed svec steps d.

    In the scaled frame S and Z are both diag(lam), so each bound is
    -1/lambda_min(D^-1/2 d D^-1/2), with ``unit`` = (lam_i lam_j)^-1/2, or
    inf if no eigenvalue is negative; LAPACK takes the eigenvalues of the
    block-diagonal matrix directly, keeping its off-block zeros exact.
    """
    steps = []
    for d in (ds, dz):
        w, _, info = lapack.dsyevd(lay.smat(unit * d), compute_v=0)
        if info:
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        steps.append(np.inf if w[0] >= -1e-14 else -1.0 / float(w[0]))
    return steps[0], steps[1]


def _robust_cholesky(m: np.ndarray, out: np.ndarray) -> None:
    """Lower Cholesky factor of m, factored in place in the Fortran-ordered out and
    retried with growing diagonal jitter if needed.  m must be exactly symmetric, as
    numpy's SYRK leaves it: it is copied into the transpose of out, contiguously."""
    out.T[...] = m
    if lapack.dpotrf(out, lower=1, overwrite_a=1)[1] == 0:
        return
    jitter = 1e-14 * max(float(np.trace(m)) / max(m.shape[0], 1), 1.0)
    for _ in range(3):
        out.T[...] = m
        np.fill_diagonal(out, np.diag(m) + jitter)
        if lapack.dpotrf(out, lower=1, overwrite_a=1)[1] == 0:
            return
        jitter *= 10.0
    raise np.linalg.LinAlgError("Schur complement not positive definite")
