"""Command-line harness for isometry-threshold experiments.

Subcommands cover single-point thresholds (exact and closed form),
generation of sharp counterexample instances, polar grid sweeps of the
rank-1 threshold landscape, distribution sampling over random factor
pairs, and verification of serialized instances.  CSV artifacts are
deterministic: header row, nine significant digits, ``nan`` sentinel for
undefined points, LF line endings.

Exit codes: 0 on success, 1 on input errors, 2 when the interior-point
solve does not converge.
"""

from __future__ import annotations

import argparse
import json
import logging
import numbers
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import closedform, counterexample, lmi
from .errors import NotSpuriousError, SolverError
from .linalg import coincident
from .objective import RecoveryInstance, criticality_certificate, rip_constant_fullspace

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_SOLVER_FAILURE = 2

SWEEP_HEADER = "rho,phi_deg,delta_exact,delta_lb,gap"
ECDF_HEADER = "sample_index,delta"

SWEEP_MODES = ("exact", "lowerbound", "both")

log = logging.getLogger(__name__)


@dataclass
class SweepConfig:
    """Polar grid over the two degrees of freedom of a rank-1 pair.

    Angles are in degrees; each axis is sampled on ``steps`` evenly
    spaced points including both endpoints.
    """

    rho_min: float
    rho_max: float
    rho_steps: int
    phi_min: float
    phi_max: float
    phi_steps: int
    mode: str = "both"

    def __post_init__(self) -> None:
        for name in ("rho_min", "rho_max", "phi_min", "phi_max"):
            setattr(self, name, _as_float(getattr(self, name), name))
        self.rho_steps = _as_int(self.rho_steps, "rho_steps")
        self.phi_steps = _as_int(self.phi_steps, "phi_steps")
        if self.mode not in SWEEP_MODES:
            raise ValueError(f"mode must be one of {', '.join(SWEEP_MODES)}")
        if min(self.rho_steps, self.phi_steps) < 2:
            raise ValueError("need at least 2 steps per axis")
        if not 0.0 <= self.rho_min < self.rho_max:
            raise ValueError("need 0 <= rho_min < rho_max")
        if not 0.0 <= self.phi_min < self.phi_max <= 90.0:
            raise ValueError("need 0 <= phi_min < phi_max <= 90 degrees")


@dataclass
class EcdfConfig:
    """Random factor-pair sampling plan for the threshold distribution."""

    n: int
    r: int
    num_samples: int
    seed: int = 0
    general_z: bool = False

    def __post_init__(self) -> None:
        for name in ("n", "r", "num_samples", "seed"):
            setattr(self, name, _as_int(getattr(self, name), name))
        if not self.n >= self.r >= 1:
            raise ValueError("need n >= r >= 1")
        if self.num_samples < 1:
            raise ValueError("need num_samples >= 1")
        if self.seed < 0:
            raise ValueError("need seed >= 0")


def sweep_grid(cfg: SweepConfig) -> list[tuple[float, ...]]:
    """Rows (rho, phi_deg, delta_exact, delta_lb, gap), sorted by (rho, phi).

    Columns not requested by ``cfg.mode`` hold nan, as do all value
    columns at grid points with x x^T = z z^T, where no operator
    distinguishes the candidate from the ground truth.
    """
    rhos = np.linspace(cfg.rho_min, cfg.rho_max, cfg.rho_steps)
    phis = np.linspace(cfg.phi_min, cfg.phi_max, cfg.phi_steps)
    rows = []
    for rho in rhos:
        for phi_deg in phis:
            rows.append(_sweep_point(float(rho), float(phi_deg), cfg.mode))
    return rows


def _sweep_point(rho: float, phi_deg: float, mode: str) -> tuple[float, ...]:
    exact = lower = gap = float("nan")
    try:
        params = closedform.from_polar(rho, np.deg2rad(phi_deg))
    except NotSpuriousError:
        return (rho, phi_deg, exact, lower, gap)
    if mode in ("lowerbound", "both"):
        lower = closedform.delta_lower(params).delta_lb
    if mode in ("exact", "both"):
        x, z = closedform.canonical_pair(rho, np.deg2rad(phi_deg))
        sol = lmi.delta_exact(x, z)
        _require_converged(sol.status, f"grid point rho={rho:g} phi={phi_deg:g}")
        exact = sol.delta
    if mode == "both":
        gap = exact - lower
    return (rho, phi_deg, exact, lower, gap)


def draw_pair(
    n: int, r: int, seed: int, index: int, general_z: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded factor pair for sample ``index`` of stream ``seed``.

    Every sample owns an independent counter-based stream keyed by
    (seed, index), so draws are reproducible regardless of evaluation
    order.  X is dense standard normal; Z is diagonal standard normal
    unless ``general_z`` asks for a dense Z as well.  The measure-zero
    event X X^T = Z Z^T is resampled in-stream and logged.
    """
    rng = np.random.Generator(
        np.random.Philox(key=np.random.SeedSequence((seed, index)).generate_state(2, np.uint64))
    )
    while True:
        x = rng.standard_normal((n, r))
        if general_z:
            z = rng.standard_normal((n, r))
        else:
            z = np.zeros((n, r))
            z[np.arange(r), np.arange(r)] = rng.standard_normal(r)
        if not coincident(np.linalg.norm(x @ x.T - z @ z.T), max(np.sum(x * x), np.sum(z * z))):
            return x, z
        log.warning("degenerate draw at sample %d of seed %d; resampling", index, seed)


def sample_ecdf(cfg: EcdfConfig) -> list[tuple[int, float]]:
    """Rows (sample_index, delta) for the seeded sampling plan."""
    rows = []
    for index in range(cfg.num_samples):
        x, z = draw_pair(cfg.n, cfg.r, cfg.seed, index, cfg.general_z)
        sol = lmi.delta_exact(x, z)
        _require_converged(sol.status, f"sample {index}")
        rows.append((index, sol.delta))
    return rows


def format_value(value: float) -> str:
    v = float(value)
    return "nan" if np.isnan(v) else "%.9g" % v


def write_csv(path: str, header: str, rows: list[tuple]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")


def cmd_verify(instance_path: str, x_path: str | None = None) -> str:
    """Textual report on an instance file at a candidate point.

    The file may be a bare serialized instance or a bundle
    ``{"instance": ..., "x": ...}``; an explicit ``x_path`` overrides the
    bundled point.
    """
    payload = _load_json(instance_path)
    body = payload.get("instance", payload)
    try:
        inst = RecoveryInstance.from_json(json.dumps(body))
    except KeyError as exc:
        raise ValueError(f"{instance_path}: missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{instance_path}: {exc}") from exc
    if x_path is not None:
        x = load_array(x_path)
    elif "x" in payload:
        try:
            x = np.asarray(payload["x"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f'{instance_path}: "x" must be a numeric array') from exc
    else:
        raise ValueError('no candidate point: pass --x or bundle an "x" entry')
    return verify_report(inst, x)


def verify_report(inst: RecoveryInstance, x: np.ndarray) -> str:
    rip = rip_constant_fullspace(inst.operator)
    cert = criticality_certificate(inst, x)
    summary = [f"RIP {rip:.6f}"]
    detail = [
        f"f(x) = {cert.f_value:.9g}",
        f"||grad f(x)|| = {cert.grad_norm:.9g} (tol {cert.tol_g:.3g})",
        f"lambda_min(hess f(x)) = {cert.hess_min_eig:.9g} (tol {cert.tol_h:.3g})",
    ]
    sol = None
    if not cert.is_first_order:
        summary.append(f"not critical, ||grad f|| = {cert.grad_norm:.6g}")
    elif not cert.is_second_order:
        summary.append(
            f"first-order critical with escape direction, "
            f"lambda_min = {cert.hess_min_eig:.6g}"
        )
    else:
        try:
            sol = lmi.delta_exact(x, inst.z)
        except NotSpuriousError:
            summary.append(f"global minimum, f={cert.f_value:.6g}")
    if sol is not None:
        _require_converged(sol.status, "candidate threshold")
        summary.append("spurious second-order critical")
        summary.append(f"delta(x,z)={sol.delta:.3f}")
        report = lmi.verify_certificates(sol, lmi.reduce(x, inst.z))
        detail.append(
            f"delta certificate: duality gap {sol.gap:.3g}, "
            f"max residual {report.max_violation():.3g}"
        )
    return "\n".join([", ".join(summary)] + detail)


def load_array(path: str) -> np.ndarray:
    """Whitespace-separated numeric file as a vector or factor matrix."""
    try:
        return np.loadtxt(path, dtype=float, ndmin=1)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_sweep_config(path: str) -> SweepConfig:
    payload = _load_json(path)
    fields = {f for f in SweepConfig.__dataclass_fields__}
    unknown = sorted(set(payload) - fields)
    if unknown:
        raise ValueError(f"{path}: unknown config fields: {', '.join(unknown)}")
    missing = sorted(fields - {"mode"} - set(payload))
    if missing:
        raise ValueError(f"{path}: missing config fields: {', '.join(missing)}")
    try:
        return SweepConfig(**payload)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_json(path: str) -> dict:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}"
            ) from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return payload


def _as_float(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not np.isfinite(value):
        raise ValueError(f"{name} must be a finite number")
    return float(value)


def _as_int(value, name: str) -> int:
    if not _as_float(value, name).is_integer():
        raise ValueError(f"{name} must be an integer")
    return int(value)


def _require_converged(status: str, what: str) -> None:
    if status in (lmi.STATUS_MAX_ITERATIONS, lmi.STATUS_STEP_FAILURE):
        raise SolverError(f"interior-point solve did not converge on {what} ({status})")


def _cmd_delta(args) -> int:
    if args.rho is not None:
        if args.phi is None or args.z is not None:
            raise ValueError("--rho takes --phi and no --z")
        x, z = closedform.canonical_pair(args.rho, np.deg2rad(args.phi))
    else:
        if args.z is None or args.phi is not None:
            raise ValueError("--x takes --z and no --phi")
        x, z = load_array(args.x), load_array(args.z)
    sol = lmi.delta_exact(x, z)
    _require_converged(sol.status, "the pair")
    print(f"delta(x,z) = {sol.delta:.9g}")
    print(f"status {sol.status}, gap {sol.gap:.3g}, iterations {sol.iterations}")
    return EXIT_OK


def _cmd_lowerbound(args) -> int:
    report = closedform.delta_lower(
        closedform.from_polar(args.rho, np.deg2rad(args.phi))
    )
    print(f"delta_lb = {report.delta_lb:.9g}")
    print(
        f"region {report.region}, eta_ub {report.eta_ub:.9g}, "
        f"gamma_star {report.gamma_star:.9g}"
    )
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    z = np.eye(args.n, 1) if args.n is not None else load_array(args.z)
    ex = counterexample.generate_example(z, seed=args.seed)
    report = counterexample.verify_example(ex)
    bundle = {
        "instance": json.loads(ex.instance.to_json()),
        "x": ex.spurious_x.tolist(),
        "verification": asdict(report),
    }
    with open(args.out, "w", newline="\n") as fh:
        json.dump(bundle, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    print(
        f"RIP {report.rip:.6f}, f(x) {report.f_at_x:.9g}, "
        f"grad norm {report.grad_norm:.3g}, ok {report.ok}"
    )
    return EXIT_OK if report.ok else EXIT_SOLVER_FAILURE


def _cmd_sweep(args) -> int:
    rows = sweep_grid(load_sweep_config(args.config))
    write_csv(args.out, SWEEP_HEADER, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_ecdf(args) -> int:
    cfg = EcdfConfig(
        n=args.n,
        r=args.r,
        num_samples=args.samples,
        seed=args.seed,
        general_z=args.general_z,
    )
    rows = sample_ecdf(cfg)
    write_csv(args.out, ECDF_HEADER, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    print(cmd_verify(args.instance, args.x))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; keep 2 reserved for
    # solver failures and report usage problems as input errors instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ripsharp",
        description="isometry thresholds for spurious points in matrix recovery",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("delta", help="exact threshold for one factor pair")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--rho", type=float, help="length ratio of the canonical pair")
    p.add_argument("--phi", type=float, help="angle in degrees, with --rho")
    given.add_argument("--x", help="text file with the candidate factor")
    p.add_argument("--z", help="text file with the ground-truth factor, with --x")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("lowerbound", help="closed-form rank-1 threshold bound")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--phi", type=float, required=True, help="angle in degrees")
    p.set_defaults(func=_cmd_lowerbound)

    p = sub.add_parser(
        "counterexample", help="sharp instance with a spurious point at RIP 1/2"
    )
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--n", type=int, help="dimension; ground truth defaults to e_1")
    given.add_argument("--z", help="text file with the ground-truth vector")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output JSON bundle")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("sweep", help="polar grid sweep to CSV")
    p.add_argument("--config", required=True, help="JSON file with the grid plan")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("ecdf", help="sample thresholds of random pairs to CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument(
        "--general-z",
        action="store_true",
        help="draw a dense Z instead of the default diagonal Z",
    )
    p.set_defaults(func=_cmd_ecdf)

    p = sub.add_parser("verify", help="report on a serialized instance")
    p.add_argument("--instance", required=True, help="instance or bundle JSON")
    p.add_argument("--x", help="text file with the candidate point")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
