"""The benchmark's own checks pass on real outputs and reject wrong ones.

Run from the repository root:  PYTHONPATH=src python3 -m pytest bench
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
import workloads
from ripsharp import cli, lmi, objective
from workloads import CertifyRank3, EcdfRank2, SweepRank1

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------- sweep

@pytest.fixture(scope="module")
def sweep_rows():
    return cli.sweep_grid(cli.SweepConfig(**SweepRank1.CONFIG))


def _index(rows, rho, phi):
    return next(i for i, r in enumerate(rows) if abs(r[0] - rho) < 1e-9 and abs(r[1] - phi) < 1e-9)


def test_sweep_passes_real_output(sweep_rows):
    assert len(sweep_rows) == 399
    assert checks.sweep_failures(sweep_rows) == {}


def test_sweep_rejects_delta_below_closed_form(sweep_rows):
    rows = list(sweep_rows)
    i = _index(rows, 0.4, 30.0)
    rho, phi, exact, lower, _ = rows[i]
    rows[i] = (rho, phi, lower - 1e-4, lower, -1e-4)
    assert set(checks.sweep_failures(rows)) == {i}


def test_sweep_rejects_wrong_closed_form_column(sweep_rows):
    rows = list(sweep_rows)
    i = _index(rows, 1.5, 45.0)
    rho, phi, exact, lower, gap = rows[i]
    rows[i] = (rho, phi, exact, lower + 1e-9, gap - 1e-9)
    assert set(checks.sweep_failures(rows)) == {i}


def test_sweep_rejects_misplaced_nan(sweep_rows):
    rows = list(sweep_rows)
    coincident = _index(rows, 1.0, 0.0)
    assert all(math.isnan(v) for v in rows[coincident][2:])
    moved = _index(rows, 1.0, 5.0)
    nan = float("nan")
    rows[coincident] = (1.0, 0.0) + rows[moved][2:]
    rows[moved] = (1.0, 5.0, nan, nan, nan)
    assert set(checks.sweep_failures(rows)) == {coincident, moved}


def test_sweep_rejects_moved_floor(sweep_rows):
    rows = list(sweep_rows)
    i = _index(rows, 0.7, 90.0)
    rho, phi, exact, lower, gap = rows[i]
    rows[i] = (rho, phi, exact + 0.05, lower, gap + 0.05)
    bad = checks.sweep_failures(rows)
    assert len(bad) == 1 and "minimum" in next(iter(bad.values()))


# ------------------------------------------------------------------ ecdf

@pytest.fixture(scope="module")
def ecdf_case():
    cfg = cli.EcdfConfig(n=5, r=2, num_samples=3, seed=0)
    rows = cli.sample_ecdf(cfg)
    ambient = {}
    for i in (0, 2):
        x, z = cli.draw_pair(5, 2, 0, i)
        ambient[i] = lmi.solve_lmi(lmi.build_lower_lmi(x, z, lmi.reduce(x, z).p)).delta
    return rows, ambient


def test_ecdf_passes_real_output(ecdf_case):
    rows, ambient = ecdf_case
    assert checks.ecdf_failures(rows, 3, ambient) == {}


@pytest.mark.parametrize("delta", [0.5 - 1e-5, 1.0 + 1e-9, float("nan")])
def test_ecdf_rejects_delta_outside_range(ecdf_case, delta):
    rows, ambient = ecdf_case
    rows = [rows[0], (1, delta), rows[2]]
    assert set(checks.ecdf_failures(rows, 3, ambient)) == {1}


def test_ecdf_rejects_ambient_mismatch(ecdf_case):
    rows, ambient = ecdf_case
    rows = [(0, rows[0][1] + 1e-5)] + rows[1:]
    assert set(checks.ecdf_failures(rows, 3, ambient)) == {0}


def test_ecdf_rejects_missing_sample(ecdf_case):
    rows, ambient = ecdf_case
    assert len(checks.ecdf_failures(rows[:2], 3, ambient)) == 3


# --------------------------------------------------------------- certify

@pytest.fixture(scope="module")
def certified():
    x, z = CertifyRank3.draw(0, 4)
    return x, z, *CertifyRank3.unit(x, z)


def test_certify_passes_real_output(certified):
    x, z, sol, report, crit, rip = certified
    assert sol.status == lmi.STATUS_OPTIMAL
    assert checks.certify_failure(x, z, sol, report, crit, rip) is None


def test_certify_rejects_perturbed_delta(certified):
    x, z, sol, report, crit, rip = certified
    wrong = dataclasses.replace(sol, delta=sol.delta + 1e-6)
    assert "RIP" in checks.certify_failure(x, z, wrong, report, crit, rip)


def test_certify_rejects_perturbed_operator(certified):
    x, z, sol, report, _, _ = certified
    op = lmi.recover_minimizer(sol, lmi.reduce(x, z))
    noise = np.random.default_rng(0).standard_normal(op.matrices.shape)
    bent = objective.MeasurementOperator(op.matrices + 1e-4 * noise)
    crit = objective.criticality_certificate(objective.RecoveryInstance(bent, z), x)
    rip = objective.rip_constant_fullspace(bent)
    assert checks.certify_failure(x, z, sol, report, crit, rip) is not None


def test_certify_rejects_large_certificate_violation(certified):
    x, z, sol, report, crit, rip = certified
    bad = dataclasses.replace(report, checks={**report.checks, "dual-trace": 1e-3})
    assert "dual-trace" in checks.certify_failure(x, z, sol, bad, crit, rip)


def test_certify_rejects_coincident_pair(certified):
    x, z, sol, report, crit, rip = certified
    assert checks.certify_failure(x, x, sol, report, crit, rip) == "x x^T = z z^T"


@pytest.mark.parametrize("status, delta", [
    (lmi.STATUS_MAX_ITERATIONS, 0.9),
    (lmi.STATUS_NOT_BELOW_ONE, 0.99),
    (lmi.STATUS_OPTIMAL, 0.49),
])
def test_certify_rejects_bad_status_or_delta(certified, status, delta):
    x, z, sol, report, crit, rip = certified
    wrong = dataclasses.replace(sol, status=status, delta=delta)
    assert checks.certify_failure(x, z, wrong, report, crit, rip) is not None


def test_certify_accepts_not_below_one_at_one(certified):
    x, z, sol, report, _, _ = certified
    capped = dataclasses.replace(sol, status=lmi.STATUS_NOT_BELOW_ONE, delta=1.0)
    assert checks.certify_failure(x, z, capped, report, None, None) is None


# ------------------------------------------------- rounds, tracing, spec

def test_batch_rounds_must_repeat(monkeypatch):
    monkeypatch.setattr(lmi, "delta_exact", lmi.delta_exact)
    wl = EcdfRank2(0)
    monkeypatch.setattr(wl, "first_round_failures", lambda rows: {})
    rows = [(i, 0.9) for i in range(3)]
    same = workloads.Round(1.0, 3, [], rows)
    other = workloads.Round(1.0, 3, [], [(0, 0.9), (1, 0.9 + 1e-15), (2, 0.9)])
    assert wl.failures([same, same]) == 0
    assert wl.failures([same, other]) == 1


def test_tracer_spans_and_restore():
    original = lmi.delta_exact
    x, z = checks.polar_point(0.5, 60.0)
    with tracing.Tracer() as tracer:
        assert lmi.delta_exact is not original
        lmi.delta_exact(x, z)
    assert lmi.delta_exact is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "lmi.delta_exact" and "sdp.solve" in names
    metrics = tracing.layer_metrics(tracer, 1, tracer.root_seconds())
    assert metrics["sdp.solve.iterations"] > 0 and metrics["lmi.delta_exact.calls"] == 1
    assert all(metrics[f"{n}.self_ms"] >= 0 for n in tracing.SELF_TIME_LAYERS)
    total = sum(metrics[f"{n}.self_ms"] for n in tracing.SELF_TIME_LAYERS)
    assert total == pytest.approx(1e3 * tracer.root_seconds())


def test_tracer_fails_on_missing_attribute(monkeypatch):
    monkeypatch.delattr(lmi, "_solve_cone")
    original = lmi.delta_exact
    with pytest.raises(AttributeError, match="_solve_cone"):
        with tracing.Tracer():
            pass
    assert lmi.delta_exact is original


def test_metric_names_match_spec():
    traced = set(tracing.layer_metrics(tracing.Tracer(), 1, 0.0)) | {"trace.overhead_pct"}
    assert traced == {m["name"] for m in SPEC["per_layer"]}
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "units_per_s", "unit_p50_ms", "cert_digits_p50", "setup_s", "peak_rss_mb"
    }
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
