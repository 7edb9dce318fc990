"""One benchmark workload in a fresh process; ``run.py`` starts it.

The process imports ripsharp, makes one warm-up solve of the workload's
shape and prints ``ready <environment JSON>``; ``run.py`` times the
interval from its start to that line as set-up.  Unless ``--setup-only``
is given it then runs whole rounds for about ``--seconds`` seconds,
checks the outputs outside the timed part and prints one result JSON
line.  With
``--trace 1`` it alternates untraced and traced rounds, so that both
see the same machine load, and reports per-layer figures from the
traced ones instead of end-to-end figures; the difference in throughput
between the two kinds of round is the tracing overhead.

The thread limits come from the environment ``run.py`` sets; this
process refuses to run when a loaded OpenBLAS reports another count.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import tracing
from workloads import WORKLOADS, Round

SPANS_DIR = Path(".bench_runs")


def blas_runtime() -> dict[str, dict]:
    """Config string and live thread count of each bundled OpenBLAS."""
    out = {}
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    out[pkg.__name__] = {
                        "openblas": config().decode(),
                        "threads": threads(),
                    }
                    break
    return out


def environment() -> dict:
    blas = blas_runtime()
    wrong = {name: info["threads"] for name, info in blas.items() if info["threads"] != 1}
    if wrong:
        raise SystemExit(f"OpenBLAS runs more than one thread: {wrong}")
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def more_rounds(rounds: list[Round], start: float, seconds: float) -> bool:
    """Whether to start another round: runs end within half a round of ``seconds``."""
    if not rounds:
        return True
    return time.perf_counter() - start + rounds[-1].seconds / 2 < seconds


def measure(workload, seconds: float) -> list[Round]:
    """Whole rounds for about ``seconds``."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while more_rounds(rounds, start, seconds):
        rounds.append(workload.run_round())
    return rounds


def measure_traced(workload, seconds: float, tracer: tracing.Tracer):
    """Pairs of an untraced and a traced round for about ``seconds``."""
    untraced: list[Round] = []
    traced: list[Round] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + traced[-1].seconds < seconds:
        untraced.append(workload.run_round())
        with tracer:
            traced.append(workload.run_round())
    return untraced, traced


def units_per_s(rounds: list[Round]) -> float:
    return sum(r.units for r in rounds) / sum(r.seconds for r in rounds)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end(workload, rounds: list[Round], rss_mb: float) -> dict[str, float]:
    unit_ms = [ms for r in rounds for ms in r.unit_ms]
    return {
        "units_per_s": units_per_s(rounds),
        # A batch has no per-unit latency: report its time per unit.
        "unit_p50_ms": statistics.median(unit_ms) if unit_ms else 1e3 / units_per_s(rounds),
        "cert_digits_p50": statistics.median(workload.cert_digits(rounds)),
        "peak_rss_mb": rss_mb,
    }


def write_spans(tracer: tracing.Tracer, name: str) -> None:
    SPANS_DIR.mkdir(exist_ok=True)
    index = {id(s): i for i, s in enumerate(tracer.spans)}
    with open(SPANS_DIR / f"{name}.spans.jsonl", "w") as fh:
        for s in tracer.spans:
            parent = index[id(s.parent)] if s.parent is not None else None
            fh.write(json.dumps([s.name, s.start, s.end, parent]) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    print("ready " + json.dumps(environment()), flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        tracer = tracing.Tracer()
        rounds, traced = measure_traced(workload, args.seconds, tracer)
        units = sum(r.units for r in traced)
        metrics = tracing.layer_metrics(tracer, units, sum(r.seconds for r in traced))
        metrics["trace.overhead_pct"] = 100.0 * (1.0 - units_per_s(traced) / units_per_s(rounds))
        write_spans(tracer, f"{args.workload}-seed{args.seed}")
        rounds += traced
    else:
        rounds = measure(workload, args.seconds)
        metrics = end_to_end(workload, rounds, peak_rss_mb())
    result = {
        "attempted": sum(r.units for r in rounds),
        "failed": workload.failures(rounds),
        "round_seconds": [r.seconds for r in rounds],
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
