"""Tests for the command-line harness."""
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ripsharp
from ripsharp import cli, lmi, sdp
from ripsharp.counterexample import generate_example
from ripsharp.errors import SolverError
from ripsharp.objective import MeasurementOperator, RecoveryInstance


def write_sweep_config(path, **overrides):
    cfg = {
        "rho_min": 0.5,
        "rho_max": 1.5,
        "rho_steps": 3,
        "phi_min": 0.0,
        "phi_max": 90.0,
        "phi_steps": 3,
        "mode": "both",
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def test_sweep_csv_layout(tmp_path):
    cfg = tmp_path / "plan.json"
    out = tmp_path / "grid.csv"
    write_sweep_config(cfg)
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "rho,phi_deg,delta_exact,delta_lb,gap"
    assert len(lines) == 10
    # rho-major ordering
    rhos = [float(l.split(",")[0]) for l in lines[1:]]
    assert rhos == sorted(rhos)


def test_sweep_deterministic(tmp_path):
    cfg = tmp_path / "plan.json"
    write_sweep_config(cfg)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sweep_marks_degenerate_rows(tmp_path):
    cfg = tmp_path / "plan.json"
    out = tmp_path / "grid.csv"
    write_sweep_config(cfg)
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = {tuple(l.split(",")[:2]): l.split(",")[2:] for l in out.read_text().splitlines()[1:]}
    assert rows[("1", "0")] == ["nan", "nan", "nan"]
    # a regular row carries finite values
    vals = [float(v) for v in rows[("0.5", "90")]]
    assert all(np.isfinite(vals))
    assert abs(vals[0] - 0.625) <= 1e-6  # exact equals the closed form here
    assert abs(vals[2] - (vals[0] - vals[1])) <= 1e-9


def test_sweep_config_validation(tmp_path, capsys):
    cfg = tmp_path / "plan.json"
    write_sweep_config(cfg, rho_steps=1)
    assert cli.main(["sweep", "--config", str(cfg), "--out", "x.csv"]) == 1
    write_sweep_config(cfg, mode="sideways")
    assert cli.main(["sweep", "--config", str(cfg), "--out", "x.csv"]) == 1
    write_sweep_config(cfg, extra_field=3)
    assert cli.main(["sweep", "--config", str(cfg), "--out", "x.csv"]) == 1
    cfg.write_text("{not json")
    assert cli.main(["sweep", "--config", str(cfg), "--out", "x.csv"]) == 1
    # wrongly typed values and stray fields are input errors that name the file;
    # the output path is --out alone
    out = ["--out", str(tmp_path / "grid.csv")]
    for overrides, message in [
        ({"rho_min": "a"}, "rho_min must be a finite number"),
        ({"rho_steps": None}, "rho_steps must be a finite number"),
        ({"rho_steps": "3"}, "rho_steps must be a finite number"),
        ({"rho_max": float("inf")}, "rho_max must be a finite number"),
        ({"out": str(tmp_path / "grid.csv")}, "unknown config fields: out"),
        ({"rho_min": 1.5}, "need 0 <= rho_min < rho_max"),
        ({"rho_min": 2.0}, "need 0 <= rho_min < rho_max"),
        ({"phi_max": 90.5}, "need 0 <= phi_min < phi_max <= 90 degrees"),
    ]:
        write_sweep_config(cfg, **overrides)
        capsys.readouterr()
        assert cli.main(["sweep", "--config", str(cfg)] + out) == 1, overrides
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n", overrides
    # a plan without one of its fields, and one that is not a JSON object
    plan = write_sweep_config(cfg)
    for text, message in [
        (json.dumps({k: v for k, v in plan.items() if k != "phi_steps"}),
         "missing config fields: phi_steps"),
        (json.dumps(list(plan.values())), "expected a JSON object"),
    ]:
        cfg.write_text(text)
        capsys.readouterr()
        assert cli.main(["sweep", "--config", str(cfg)] + out) == 1, text
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n", text
    assert not (tmp_path / "grid.csv").exists()


def test_ecdf_deterministic_and_prefix_stable(tmp_path):
    deltas = {}
    for flags in ([], ["--general-z"]):
        short = tmp_path / "short.csv"
        full = tmp_path / "full.csv"
        args = ["ecdf", "--n", "4", "--r", "1", "--seed", "7"] + flags
        assert cli.main(args + ["--samples", "3", "--out", str(short)]) == 0
        assert cli.main(args + ["--samples", "5", "--out", str(full)]) == 0
        short_lines = short.read_text().splitlines()
        full_lines = full.read_text().splitlines()
        assert short_lines[0] == "sample_index,delta"
        assert len(short_lines) == 4 and len(full_lines) == 6
        # per-sample streams: the first three rows do not depend on the total
        assert short_lines[1:] == full_lines[1:4]
        deltas[tuple(flags)] = [float(l.split(",")[1]) for l in full_lines[1:]]
        assert all(0.5 - 1e-6 <= d <= 1.0 for d in deltas[tuple(flags)])
    # a dense Z is drawn in place of the diagonal one
    assert deltas[()] != deltas[("--general-z",)]


def test_delta_subcommand_polar(capsys):
    assert cli.main(["delta", "--rho", "0.5", "--phi", "90"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert abs(float(first.split()[-1]) - 0.625) <= 1e-6


def test_delta_subcommand_files(tmp_path, capsys):
    x = tmp_path / "x.txt"
    z = tmp_path / "z.txt"
    np.savetxt(x, np.array([0.0, 1 / np.sqrt(2)]))
    np.savetxt(z, np.array([1.0, 0.0]))
    assert cli.main(["delta", "--x", str(x), "--z", str(z)]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert abs(float(first.split()[-1]) - 0.5) <= 1e-3


def test_delta_subcommand_rejects_mixed_inputs(tmp_path, capsys):
    x = tmp_path / "x.txt"
    np.savetxt(x, np.array([1.0, 0.0]))
    for argv, message in [
        (["--rho", "0.5", "--phi", "90", "--z", str(x)], "--rho takes --phi and no --z"),
        (["--rho", "0.5"], "--rho takes --phi and no --z"),
        (["--x", str(x), "--z", str(x), "--phi", "90"], "--x takes --z and no --phi"),
        (["--x", str(x)], "--x takes --z and no --phi"),
    ]:
        capsys.readouterr()
        assert cli.main(["delta"] + argv) == 1, argv
        assert capsys.readouterr().err == f"error: {message}\n", argv


def test_lowerbound_subcommand(capsys):
    assert cli.main(["lowerbound", "--rho", "0.7071067811865476", "--phi", "90"]) == 0
    outp = capsys.readouterr().out
    assert "0.5" in outp
    assert "region" in outp


def test_counterexample_bundle_roundtrip(tmp_path, capsys):
    bundle = tmp_path / "bundle.json"
    assert cli.main(["counterexample", "--n", "3", "--out", str(bundle)]) == 0
    payload = json.loads(bundle.read_text())
    assert set(payload) == {"instance", "x", "verification"}
    assert payload["verification"]["ok"] is True
    back = RecoveryInstance.from_dict(payload["instance"])
    inst = generate_example(np.eye(3, 1)).instance
    assert np.array_equal(back.z, inst.z)
    assert np.array_equal(back.operator.matrices, inst.operator.matrices)
    assert back.scale == inst.scale
    capsys.readouterr()
    assert cli.main(["verify", "--instance", str(bundle)]) == 0
    outp = capsys.readouterr().out
    first = outp.splitlines()[0]
    assert first.startswith("RIP 0.500000, spurious second-order critical")
    assert "delta(x,z)=0.500" in first
    # the printed gap is the certificate's own, delta - (tr U1 - tr U2)
    x = np.asarray(payload["x"], dtype=float)
    report = lmi.verify_certificates(lmi.delta_exact(x, inst.z), lmi.reduce(x, inst.z))
    assert f"delta certificate: duality gap {report.gap:.3g}, " in outp


def test_verify_global_minimum_branch(tmp_path, capsys):
    bundle = tmp_path / "bundle.json"
    assert cli.main(["counterexample", "--n", "3", "--out", str(bundle)]) == 0
    payload = json.loads(bundle.read_text())
    z = payload["instance"]["Z"]
    xfile = tmp_path / "x.txt"
    np.savetxt(xfile, np.asarray(z, dtype=float).reshape(-1))
    capsys.readouterr()
    assert cli.main(["verify", "--instance", str(bundle), "--x", str(xfile)]) == 0
    outp = capsys.readouterr().out
    assert "global minimum" in outp.splitlines()[0]


def test_verify_escape_direction_branch(tmp_path, capsys):
    # x = 0 is critical for every instance, and the Hessian there is
    # negative along z: its smallest eigenvalue is -4 on this instance
    bundle = tmp_path / "bundle.json"
    assert cli.main(["counterexample", "--n", "3", "--out", str(bundle)]) == 0
    xfile = tmp_path / "x.txt"
    np.savetxt(xfile, np.zeros(3))
    capsys.readouterr()
    assert cli.main(["verify", "--instance", str(bundle), "--x", str(xfile)]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert "first-order critical with escape direction" in first
    assert abs(float(first.split("lambda_min = ")[1]) + 4.0) <= 1e-6


def test_verify_not_critical_branch(tmp_path, capsys):
    bundle = tmp_path / "bundle.json"
    assert cli.main(["counterexample", "--n", "3", "--out", str(bundle)]) == 0
    xfile = tmp_path / "x.txt"
    np.savetxt(xfile, np.array([0.3, -1.2, 0.8]))
    capsys.readouterr()
    assert cli.main(["verify", "--instance", str(bundle), "--x", str(xfile)]) == 0
    outp = capsys.readouterr().out
    assert "not critical" in outp.splitlines()[0]


def test_verify_rejects_mistyped_bundle(tmp_path, capsys):
    inst = RecoveryInstance(MeasurementOperator(np.eye(4).reshape(4, 2, 2)), np.array([1.0, 0.0]))
    bundle = tmp_path / "bundle.json"
    for payload in (
        {"instance": [1, 2], "x": [0.0, 1.0]},
        {"instance": inst.to_dict(), "x": {"a": 1}},
        # a JSON true is not the scale 1, though True == 1.0 in Python
        {"instance": dict(inst.to_dict(), scale=True), "x": [0.0, 1.0]},
        {"instance": dict(inst.to_dict(), r=True), "x": [0.0, 1.0]},
    ):
        bundle.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli.main(["verify", "--instance", str(bundle)]) == 1, payload
        assert capsys.readouterr().err.startswith(f"error: {bundle}: "), payload
    # an instance without its operator, and a bundle with no point and no --x
    for payload, message in [
        ({"instance": {k: v for k, v in inst.to_dict().items() if k != "A"}, "x": [0.0, 1.0]},
         f"{bundle}: missing field 'A'"),
        ({"instance": inst.to_dict()}, 'no candidate point: pass --x or bundle an "x" entry'),
    ]:
        bundle.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli.main(["verify", "--instance", str(bundle)]) == 1, payload
        assert capsys.readouterr().err == f"error: {message}\n", payload


@pytest.mark.filterwarnings("error")
def test_nonfinite_inputs_exit_one(tmp_path, capsys):
    # rejected before any arithmetic: a warning raised on the way fails the test
    x, z = tmp_path / "x.txt", tmp_path / "z.txt"
    z.write_text("1 0\n")
    assert cli.main(["lowerbound", "--rho", "nan", "--phi", "90"]) == 1
    capsys.readouterr()
    assert cli.main(["delta", "--rho", "inf", "--phi", "0"]) == 1
    assert capsys.readouterr().err == "error: rho and phi must be finite\n"
    for entry in ("nan", "inf"):
        x.write_text(f"{entry} 1\n")
        capsys.readouterr()
        assert cli.main(["delta", "--x", str(x), "--z", str(z)]) == 1
        assert "x must be finite" in capsys.readouterr().err
        x.write_text(f"1 {entry} 0\n")
        out = str(tmp_path / "bundle.json")
        assert cli.main(["counterexample", "--z", str(x), "--out", out]) == 1
        assert "must be finite" in capsys.readouterr().err
        inst = {"n": 2, "r": 1, "scale": 0.5, "Z": [[1.0], [0.0]],
                "A": [[[float(entry), 0.0], [0.0, 1.0]]]}
        with open(out, "w") as fh:
            json.dump({"instance": inst, "x": [0.0, 1.0]}, fh)
        assert cli.main(["verify", "--instance", out]) == 1
        assert f"error: {out}: operator matrices must be finite" in capsys.readouterr().err


def test_tiny_pair_exits_one(tmp_path, capsys):
    # a pair near 1e-110 builds its program at unit scale, but the multiplier
    # maps back by scale^3, past the float range: one error line, no traceback
    x, z = tmp_path / "x.txt", tmp_path / "z.txt"
    np.savetxt(x, np.array([0.6e-110, 0.8e-110]))
    np.savetxt(z, np.array([1e-110, 0.0]))
    assert cli.main(["delta", "--x", str(x), "--z", str(z)]) == 1
    assert capsys.readouterr().err == "error: the pair's scale leaves the solve's float range\n"


def test_matrix_ground_truth_exits_one(tmp_path, capsys):
    # a 2 x 2 file is not a ground-truth vector, and is not flattened into one
    z = tmp_path / "z.txt"
    z.write_text("1 0\n0 1\n")
    out = str(tmp_path / "bundle.json")
    assert cli.main(["counterexample", "--z", str(z), "--out", out]) == 1
    assert capsys.readouterr().err == "error: ground truth z has shape (2, 2), need (any, 1)\n"


def test_csv_independent_of_blas_threads(tmp_path):
    # The CSVs are byte-identical at one and two OpenBLAS threads; the
    # thread count is fixed when the library loads, so each run is a fresh
    # interpreter.
    cfg = tmp_path / "plan.json"
    write_sweep_config(cfg)
    src = str(Path(ripsharp.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        for name, args in (
            ("ecdf", ["ecdf", "--n", "5", "--r", "2", "--samples", "10"]),
            ("sweep", ["sweep", "--config", str(cfg)]),
        ):
            out = tmp_path / f"{name}-{threads}.csv"
            subprocess.run(
                [sys.executable, "-m", "ripsharp", *args, "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=300,
            )
            outputs[name, threads] = out.read_bytes()
    for name in ("ecdf", "sweep"):
        assert outputs[name, "1"] == outputs[name, "2"], name


def test_missing_files_exit_one(tmp_path, capsys):
    assert cli.main(["verify", "--instance", str(tmp_path / "absent.json")]) == 1
    argv = ["sweep", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 1
    # a file that numpy cannot read as numbers is an input error that names it
    x = tmp_path / "x.txt"
    x.write_text("1 zero\n")
    capsys.readouterr()
    assert cli.main(["delta", "--x", str(x), "--z", str(x)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {x}: ") and "could not convert string 'zero'" in err, err


def test_bad_flags_exit_one(capsys):
    for argv in (["delta", "--rho", "not-a-number", "--phi", "0"],
                 ["no-such-command"],
                 [],
                 ["delta"],
                 ["delta", "--rho", "0.5", "--phi", "90", "--x", "x.txt"],
                 ["counterexample", "--n", "3", "--z", "z.txt", "--out", "b.json"],
                 ["counterexample", "--out", "b.json"],
                 ["sweep", "--config", "plan.json"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1, argv
        assert "error: " in capsys.readouterr().err, argv


def test_solver_failure_exit_two(monkeypatch):
    def stalled(x, z):
        raise SolverError("interior-point solve did not converge")

    monkeypatch.setattr(cli.lmi, "delta_exact", stalled)
    assert cli.main(["delta", "--rho", "0.5", "--phi", "90"]) == 2


@pytest.mark.parametrize("status", [sdp.STEP_FAILURE, sdp.MAX_ITERATIONS])
def test_unconverged_status_reported_and_exits_two(monkeypatch, capsys, status):
    # the solve stops unconverged; lmi passes its status through and the
    # command line treats it as a solver failure naming the status
    real = cli.lmi._solve_cone

    def stopped(prog, y0=None):
        return dataclasses.replace(real(prog, y0=y0), status=status)

    monkeypatch.setattr(cli.lmi, "_solve_cone", stopped)
    x, z = np.array([0.0, 1 / np.sqrt(2)]), np.array([1.0, 0.0])
    prob = cli.lmi.build_upper_lmi(cli.lmi.reduce(x, z))
    assert cli.lmi.solve_lmi(prob).status == status
    assert cli.main(["delta", "--rho", "0.5", "--phi", "90"]) == 2
    assert status in capsys.readouterr().err


def test_ecdf_validation(capsys):
    assert cli.main(["ecdf", "--n", "1", "--r", "2", "--samples", "1", "--out", "x.csv"]) == 1
    assert cli.main(["ecdf", "--n", "4", "--r", "1", "--samples", "0", "--out", "x.csv"]) == 1
    capsys.readouterr()
    argv = ["ecdf", "--n", "4", "--r", "1", "--samples", "1", "--seed", "-1", "--out", "x.csv"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: need seed >= 0\n"
