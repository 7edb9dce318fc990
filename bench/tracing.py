"""Spans around calls into ripsharp, recorded from outside the package.

The tracer replaces module attributes with timing wrappers: the public
``lmi`` functions, ``closedform.delta_lower``, the two ``objective``
checks, the ``cli`` batch entry points, and ``sdp.solve`` at the name
through which ``lmi`` calls it.  Spans stay in memory; a span's self time
is its duration minus the time its child spans cover.  A wrapped name
that no longer exists raises instead of reporting zero.
"""

from __future__ import annotations

import statistics
import time

from ripsharp import cli, closedform, lmi, objective

# (module, attribute, layer name).  lmi imports sdp.solve as _solve_cone.
TRACED = (
    (cli, "sweep_grid", "cli.sweep_grid"),
    (cli, "sample_ecdf", "cli.sample_ecdf"),
    (lmi, "delta_exact", "lmi.delta_exact"),
    (lmi, "reduce", "lmi.reduce"),
    (lmi, "build_upper_lmi", "lmi.build_upper_lmi"),
    (lmi, "solve_lmi", "lmi.solve_lmi"),
    (lmi, "_solve_cone", "sdp.solve"),
    (lmi, "verify_certificates", "lmi.verify_certificates"),
    (lmi, "recover_minimizer", "lmi.recover_minimizer"),
    (closedform, "delta_lower", "closedform.delta_lower"),
    (objective, "criticality_certificate", "objective.checks"),
    (objective, "rip_constant_fullspace", "objective.checks"),
)

SELF_TIME_LAYERS = tuple(dict.fromkeys(name for _, _, name in TRACED))


class Span:
    """One call into a traced function."""

    __slots__ = ("name", "start", "end", "parent", "child_s", "solve")

    def __init__(self, name: str, parent: Span | None):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.solve = None  # (iterations, num_vars, block_sizes) for sdp.solve

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit.

    Spans accumulate over every entry until the tracer is discarded.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for module, attr, name in TRACED:
            if not hasattr(module, attr):
                self.__exit__()
                raise AttributeError(f"{module.__name__}.{attr} is gone; cannot trace {name}")
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
            if name == "sdp.solve":
                prog = args[0]
                span.solve = (result.iterations, prog.num_vars, prog.block_sizes)
            return result

        return traced

    def root_seconds(self) -> float:
        return sum(s.duration for s in self.spans if s.parent is None)


def schur_flops(num_vars: int, block_sizes: tuple[int, ...]) -> float:
    """Computed floating-point operations of one Schur assembly and factorization.

    Per block of side k: the congruence G^-1 F_i G^-T of every variable
    (two k x k products, 4 k^3 each) and the svec Gram product
    (num_vars^2 * k(k+1)/2 multiply-adds); then one Cholesky factorization.
    """
    p = num_vars
    per_block = sum(4 * p * k**3 + p * p * k * (k + 1) for k in block_sizes)
    return per_block + p**3 / 3


def layer_metrics(tracer: Tracer, units: int, round_seconds: float) -> dict[str, float]:
    """Per-layer figures of a traced phase, per completed unit where summed."""
    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    out: dict[str, float] = {}
    for name in SELF_TIME_LAYERS:
        out[f"{name}.self_ms"] = 1e3 * sum(s.self_time for s in by_name.get(name, ())) / units
    solves = by_name.get("sdp.solve", [])
    iterations = sum(s.solve[0] for s in solves)
    out["sdp.solve.iterations"] = iterations / len(solves) if solves else 0.0
    out["sdp.solve.ms_per_iter"] = (
        1e3 * sum(s.duration for s in solves) / iterations if iterations else 0.0
    )
    out["sdp.schur_gflop"] = (
        sum(s.solve[0] * schur_flops(s.solve[1], s.solve[2]) for s in solves) / 1e9 / units
    )
    out["sdp.num_vars_p50"] = (
        float(statistics.median(s.solve[1] for s in solves)) if solves else 0.0
    )
    exact = by_name.get("lmi.delta_exact", [])
    out["lmi.delta_exact.calls"] = len(exact) / units
    out["lmi.delta_exact.p50_ms"] = (
        1e3 * statistics.median(s.duration for s in exact) if exact else 0.0
    )
    out["trace.uncovered_ms"] = 1e3 * (round_seconds - tracer.root_seconds()) / units
    return out
