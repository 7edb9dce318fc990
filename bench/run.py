"""Benchmark of ripsharp's exact delta solve; run from the repository root.

    python3 bench/run.py --workload sweep-rank1 --seed 0 --seconds 20 --trace 0

Each workload runs in its own fresh Python process with BLAS and OpenMP
pinned to one thread.  Set-up is timed over several fresh starts and
reported as their median.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Fresh starts per untraced run whose set-up times give the reported
# median; the measuring process is the last of them.
SETUP_STARTS = 5
# Every run must end within this many seconds.
RUN_DEADLINE_S = 170.0

WORKER = Path(__file__).resolve().parent / "worker.py"
SRC = Path("src")


def load_spec() -> dict:
    """BENCHMARK.json: the workloads, and each metric's name and unit."""
    with open("BENCHMARK.json") as fh:
        return json.load(fh)


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    path = [str(SRC.resolve())] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    if not Path(".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


class Worker:
    """One worker process; ``setup_s`` is the time from spawn to ``ready``."""

    def __init__(self, args, setup_only: bool, deadline: float):
        cmd = [
            sys.executable, str(WORKER),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if setup_only:
            cmd.append("--setup-only")
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env())
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], self.remaining())
            line = self.proc.stdout.readline() if ready else ""
            self.setup_s = time.perf_counter() - t0
            if not line.startswith("ready "):
                raise RuntimeError(f"worker failed during set-up: {line.strip()!r}")
            self.env = json.loads(line[len("ready "):])
        except BaseException:
            self.stop()
            raise

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def finish(self) -> str:
        """Remaining standard output of the worker after it exits with 0."""
        try:
            out, _ = self.proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            self.stop()
            raise RuntimeError("worker passed the run deadline")
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return out

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = load_spec()
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")
    if not (SRC / "ripsharp" / "__init__.py").is_file():
        print(f"error: no ripsharp sources under {SRC.resolve()}; "
              "run from the repository root", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    deadline = time.monotonic() + RUN_DEADLINE_S
    setup = []
    for _ in range(0 if args.trace else SETUP_STARTS - 1):
        w = Worker(args, setup_only=True, deadline=deadline)
        w.finish()
        setup.append(w.setup_s)
    w = Worker(args, setup_only=False, deadline=deadline)
    try:
        setup.append(w.setup_s)
        return report(args, w, setup, units)
    finally:
        w.stop()


def report(args, w: Worker, setup: list[float], units: dict[str, str]) -> int:
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: "1" for var in THREAD_VARS},
        **w.env,
        "commit": commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
    }
    print("# env " + json.dumps(env), flush=True)
    out = w.finish()
    result = json.loads(out.strip().splitlines()[-1])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} != declared {sorted(units)}")
    print("# round seconds " + ", ".join(f"{s:.3f}" for s in result["round_seconds"])
          + "; set-up starts " + ", ".join(f"{s:.3f}" for s in setup), flush=True)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
