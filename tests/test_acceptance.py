"""Acceptance gate: one checked criterion per test, one printed line each.

Every test prints ``criterion N: PASS/FAIL`` with the measured numbers on
the real stdout (bypassing capture) and then asserts, so a full run shows
eleven lines whatever the outcome.
"""
import time

import numpy as np
import pytest
from numpy.random import default_rng
from scipy.optimize import minimize_scalar

from ripsharp import cli, closedform, counterexample, lmi, objective, sdp

_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_reporting(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)
    return ok


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_sharp_threshold():
    t0 = time.time()
    sol = lmi.delta_exact(np.array([0.0, 1 / np.sqrt(2)]), np.array([1.0, 0.0]))
    elapsed = time.time() - t0
    err = abs(sol.delta - 0.5)
    ok = sol.status == lmi.STATUS_OPTIMAL and err <= 1e-3 and elapsed <= 1.0
    _report(1, ok, f"delta=0.5000 err {err:.2e} ({elapsed:.2f}s)")
    assert ok, (sol.status, err, elapsed)


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_half_rip_instances():
    worst = {"rip": 0.0, "f": 0.0, "grad": 0.0, "hess": 0.0, "fz": 0.0}
    all_ok = True
    for n in (2, 3, 8):
        z = np.zeros(n)
        z[0] = 1.0
        rep = counterexample.verify_example(counterexample.generate_example(z, seed=n))
        worst["rip"] = max(worst["rip"], abs(rep.rip - 0.5))
        worst["f"] = max(worst["f"], abs(rep.f_at_x - 0.75))
        worst["grad"] = max(worst["grad"], rep.grad_norm)
        worst["hess"] = max(worst["hess"], -rep.hess_gap_min_eig)
        worst["fz"] = max(worst["fz"], abs(rep.f_at_z))
        all_ok = all_ok and rep.ok
    ok = (
        all_ok
        and worst["rip"] <= 1e-9
        and worst["f"] <= 1e-9
        and worst["grad"] <= 1e-9
        and worst["hess"] <= 1e-8
        and worst["fz"] <= 1e-12
    )
    _report(2, ok, "n=2,3,8 worst: rip {rip:.1e} f {f:.1e} grad {grad:.1e} "
                   "hess {hess:.1e} f(z) {fz:.1e}".format(**worst))
    assert ok, worst


# ---------------------------------------------------------------- criterion 3

@pytest.fixture(scope="module")
def exactness_batch():
    pairs = []
    t0 = time.time()
    for base, shape in ((100, (4, 1)), (200, (5, 2))):
        for i in range(10):
            rng = default_rng(base + i)
            x = rng.standard_normal(shape)
            z = rng.standard_normal(shape)
            up = lmi.delta_exact(x, z)
            pair = lmi.reduce(x, z)
            lo = lmi.solve_lmi(lmi.build_lower_lmi(x, z, pair.p))
            cert = lmi.verify_certificates(up, pair)
            pairs.append((up, lo, cert))
    return pairs, time.time() - t0


def test_criterion_03_reduction_exactness(exactness_batch):
    pairs, elapsed = exactness_batch
    converged = all(
        up.status == lmi.STATUS_OPTIMAL and lo.status == lmi.STATUS_OPTIMAL
        for up, lo, _ in pairs
    )
    diff = max(abs(up.delta - lo.delta) for up, lo, _ in pairs)
    gap = max(max(abs(up.gap), abs(lo.gap)) for up, lo, _ in pairs)
    ok = converged and diff <= 1e-6 and gap <= 1e-7 and elapsed <= 120.0
    _report(3, ok, f"20 pairs max |up-lo| {diff:.2e} max gap {gap:.2e} ({elapsed:.1f}s)")
    assert ok, (converged, diff, gap, elapsed)


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_closed_form_sandwich():
    cfg = cli.SweepConfig(rho_min=0.0, rho_max=2.0, rho_steps=21,
                          phi_min=0.0, phi_max=90.0, phi_steps=19, mode="both")
    rows = np.array([r for r in cli.sweep_grid(cfg) if np.isfinite(r[2])])
    rho, phi, de, dl, gap = rows.T

    lower_ok = float((de - dl).min()) >= -1e-6
    near = (rho >= 1.0) | (phi <= 30.0)
    near_viol = rows[near & (gap > 0.01 + 1e-6)]
    near_ok = near_viol.size == 0
    spread_ok = 0.05 <= float(gap.max()) <= 0.15
    k = int(np.argmin(de))
    # the grid point nearest (1/sqrt 2, 90 deg)
    at_floor = abs(rho[k] - 0.7) <= 1e-9 and abs(phi[k] - 90.0) <= 1e-9
    floor_ok = abs(de[k] - 0.5) <= 1e-3 and at_floor
    outside = ~(((rho >= 0.5) & (rho <= 1.0)) | (phi >= 45.0))
    region_ok = float(de[outside].min()) >= 0.9

    ok = lower_ok and near_ok and spread_ok and floor_ok and region_ok
    clauses = (f"lb<=exact {'y' if lower_ok else 'N'}, "
               f"near-gap<=0.01 {'y' if near_ok else f'N ({len(near_viol)} pts, max {near_viol[:, 4].max():.4f})'}, "
               f"max-gap {gap.max():.4f} in [0.05,0.15] {'y' if spread_ok else 'N'}, "
               f"floor {de[k]:.4f}@({rho[k]:g},{phi[k]:g}) {'y' if floor_ok else 'N'}, "
               f"outside>=0.9 {'y' if region_ok else 'N'}")
    _report(4, ok, clauses)
    assert ok, (
        f"clauses: {clauses}; near-region rows over 0.01: "
        + "; ".join(f"(rho={r:g}, phi={p:g}, gap={g:.6f})" for r, p, _, _, g in near_viol)
    )


# ---------------------------------------------------------------- criterion 5

def _min_big_psi(params):
    alpha = min(params.alpha, 1.0)
    grid = np.linspace(0.0, alpha, 10_000)
    vals = closedform.big_psi(grid, params)
    k = int(np.argmin(vals))
    best = float(vals[k])
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    if hi > lo:
        res = minimize_scalar(lambda g: closedform.big_psi(g, params),
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-14})
        best = min(best, float(res.fun))
    return best


def test_criterion_05_closed_form_identities():
    rng = default_rng(42)
    worst_min = 0.0
    for _ in range(100):
        params = closedform.from_polar(
            float(rng.uniform(0.05, 2.0)),
            float(rng.uniform(np.deg2rad(2.0), np.pi / 2)),
        )
        rep = closedform.delta_lower(params)
        worst_min = max(
            worst_min, abs(closedform.eta_to_delta(_min_big_psi(params)) - rep.delta_lb)
        )

    worst_edge = 0.0
    for rho in (0.3, 0.5, 0.7):
        lo, hi = np.deg2rad(1.0), np.pi / 2
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            side = closedform.delta_lower(closedform.from_polar(rho, mid)).region
            if side == closedform.delta_lower(closedform.from_polar(rho, np.deg2rad(1.0))).region:
                lo = mid
            else:
                hi = mid
        params = closedform.from_polar(rho, 0.5 * (lo + hi))
        a, b = min(params.alpha, 1.0), params.beta
        worst_edge = max(
            worst_edge,
            abs(np.sqrt(1.0 - a * a) - (1.0 - 2.0 * a * b + b * b) / (1.0 - b * b)),
        )

    worst_rat = 0.0
    count = 0
    rng = default_rng(43)
    while count < 50:
        rho = float(rng.uniform(0.05, 1.5))
        phi = float(rng.uniform(np.deg2rad(2.0), np.pi / 2))
        rep = closedform.delta_lower(closedform.from_polar(rho, phi))
        if rep.region != "b":
            continue
        count += 1
        ident = ((rho**2 - 1.0) ** 2 + rho**4) / (1.0 - 2.0 * rho**2 * np.cos(phi) ** 2)
        worst_rat = max(worst_rat, abs(rep.delta_lb - ident))

    ok = worst_min <= 1e-9 and worst_edge <= 1e-10 and worst_rat <= 1e-10
    _report(5, ok, f"min-curve {worst_min:.1e} boundary {worst_edge:.1e} "
                   f"rational {worst_rat:.1e}")
    assert ok, (worst_min, worst_edge, worst_rat)


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_derivative_checks():
    from ripsharp.linalg import vec

    worst_g = worst_h = 0.0
    eps = 1e-5
    for seed in range(10):
        rng = default_rng(seed)
        n = int(rng.integers(2, 5))
        m = n * n + 2
        op = objective.MeasurementOperator(rng.standard_normal((m, n, n)) / np.sqrt(m))
        inst = objective.RecoveryInstance(operator=op, z=rng.standard_normal((n, 1)), scale=0.5)
        x = rng.standard_normal((n, 1))
        _, grad, hess = objective.evaluate(inst, x)

        g_fd = np.zeros_like(x)
        for i in range(n):
            xp = x.copy(); xp[i, 0] += eps
            xm = x.copy(); xm[i, 0] -= eps
            g_fd[i, 0] = (objective.evaluate(inst, xp)[0] - objective.evaluate(inst, xm)[0]) / (2 * eps)
        worst_g = max(worst_g, np.linalg.norm(grad - g_fd) / max(1.0, np.linalg.norm(grad)))

        h_fd = np.zeros((n, n))
        for i in range(n):
            xp = x.copy(); xp[i, 0] += eps
            xm = x.copy(); xm[i, 0] -= eps
            h_fd[:, i] = vec((objective.evaluate(inst, xp)[1] - objective.evaluate(inst, xm)[1]) / (2 * eps))
        h_fd = 0.5 * (h_fd + h_fd.T)
        worst_h = max(worst_h, np.linalg.norm(hess - h_fd) / max(1.0, np.linalg.norm(hess)))

    ok = worst_g <= 1e-5 and worst_h <= 1e-4
    _report(6, ok, f"10 instances rel err: grad {worst_g:.1e} hess {worst_h:.1e}")
    assert ok, (worst_g, worst_h)


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_invariances():
    worst = 0.0
    for seed in (5, 6, 7):
        rng = default_rng(seed)
        x = rng.standard_normal(3)
        z = rng.standard_normal(3)
        base = lmi.delta_exact(x, z).delta
        scaled = lmi.delta_exact(2.5 * x, 2.5 * z).delta
        q, _ = np.linalg.qr(default_rng(seed + 100).standard_normal((5, 3)))
        embedded = lmi.delta_exact(q @ x, q @ z).delta
        params = closedform.polar_params(x, z)
        canon = lmi.delta_exact(*closedform.canonical_pair(params.rho, params.phi)).delta
        mirror = lmi.delta_exact(
            *closedform.canonical_pair(params.rho, np.pi - params.phi)
        ).delta
        worst = max(
            worst,
            abs(scaled - base),
            abs(embedded - base),
            abs(canon - base),
            abs(mirror - base),
        )
    ok = worst <= 1e-6
    _report(7, ok, f"scale/embed/canonical/mirror worst dev {worst:.1e}")
    assert ok, worst


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_operator_recovery():
    worst_gram = worst_rip = 0.0
    for seed, shape in ((3, (4, 1)), (11, (5, 2))):
        rng = default_rng(seed)
        x = rng.standard_normal(shape)
        z = rng.standard_normal(shape)
        sol = lmi.delta_exact(x, z)
        pair = lmi.reduce(x, z)
        op = lmi.recover_minimizer(sol, pair)
        n = pair.n
        pp = np.kron(pair.p, pair.p)
        h_full = pp @ sol.h @ pp.T + np.eye(n * n) - pp @ pp.T
        worst_gram = max(worst_gram, float(np.linalg.norm(op.gram - h_full)))
        worst_rip = max(worst_rip, abs(objective.rip_constant_fullspace(op) - sol.delta))
    ok = worst_gram <= 1e-8 and worst_rip <= 1e-6
    _report(8, ok, f"||A'A - H|| {worst_gram:.1e}  |rip-delta| {worst_rip:.1e}")
    assert ok, (worst_gram, worst_rip)


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_sample_floor():
    t0 = time.time()
    rank1 = cli.sample_ecdf(cli.EcdfConfig(n=4, r=1, num_samples=200, seed=0))
    rank2 = cli.sample_ecdf(cli.EcdfConfig(n=5, r=2, num_samples=100, seed=0))
    elapsed = time.time() - t0
    d1 = np.array([d for _, d in rank1])
    d2 = np.array([d for _, d in rank2])
    floor_ok = bool((d1 >= 0.5 - 1e-6).all() and (d2 >= 0.5 - 1e-6).all())
    ok = floor_ok and float(d1.min()) <= 0.6 and elapsed <= 300.0
    _report(9, ok, f"300 samples >= 0.5 ({'y' if floor_ok else 'N'}), "
                   f"rank-1 min {d1.min():.4f}, rank-2 min {d2.min():.4f} ({elapsed:.0f}s)")
    assert ok, (floor_ok, d1.min(), d2.min(), elapsed)


# --------------------------------------------------------------- criterion 10

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


def test_criterion_10_solver_correctness(exactness_batch):
    from test_sdp import analytic_program, random_cone_program

    worst_ref = 0.0
    solver_ok = True
    for seed, ref in enumerate(REFERENCE_OPTIMA):
        res = sdp.solve(random_cone_program(seed))
        solver_ok = solver_ok and res.status == sdp.OPTIMAL
        worst_ref = max(worst_ref, abs(res.pobj - ref))

    res = sdp.solve(analytic_program())
    analytic_err = abs(res.y[0] - 0.4)

    pairs, _ = exactness_batch
    worst_cert = max(cert.max_violation() for _, _, cert in pairs)

    ok = solver_ok and worst_ref <= 1e-6 and analytic_err <= 1e-8 and worst_cert <= 1e-8
    _report(10, ok, f"reference {worst_ref:.1e} analytic {analytic_err:.1e} "
                    f"certificates {worst_cert:.1e}")
    assert ok, (solver_ok, worst_ref, analytic_err, worst_cert)


# --------------------------------------------------------------- criterion 11

def test_criterion_11_thresholds():
    golden_err = abs(closedform.local_threshold(closedform.GOLDEN) - np.sqrt(0.5))
    zero_ok = closedform.local_threshold(0.0) == 1.0
    grid = np.linspace(0.0, 1.0, 100)
    vals = [closedform.sublevel_epsilon(d) for d in grid]
    monotone = all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    ok = golden_err <= 1e-12 and zero_ok and monotone
    _report(11, ok, f"golden err {golden_err:.1e}, zero-limit {'y' if zero_ok else 'N'}, "
                    f"monotone {'y' if monotone else 'N'}")
    assert ok, (golden_err, zero_ok, monotone)
