"""Parity probe: record the solve of every parity program, or compare two records.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/parity.py record OUT.json
    PYTHONPATH=src python tools/parity.py compare BEFORE.json AFTER.json

The parity sets are the 398 pairs of the criterion-4 sweep grid, the 200
(4,1) samples of ecdf stream 0, the 1600 (5,2) samples of streams 0-15 and
the 120 (6,3) pairs of seeds 0-9 that the certify-rank3 benchmark draws:
2318 programs.  ``record`` builds and solves each one with the ``ripsharp``
found on ``PYTHONPATH`` (point it at another checkout's ``src`` to record
that one) and writes, per pair, the sha256 of the cone program's ``c``,
``a`` and ``f0``, the status, delta as ``float.hex``, the final gap (the
last iterate's complementarity ``<S, Z>``, ``SdpSolution.gap``, not the
certificate's ``CertificateReport.gap``), the iterations, the sha256 of the
multiplier ``dual.y`` and of the gram matrix ``h`` (H', which
``lmi.recover_minimizer`` reads), and the largest certificate violation.
It takes about 13 s at one BLAS thread on a 2-CPU x86-64 machine.

``compare`` prints every pair whose records differ and a summary, closed by
one line per record field that differs: in how many pairs, of them how many
hold the field in one record only (a record written by another version of
this tool), and for
``max_violation`` how many of them rose and how many fell, and the largest
after/before ratio, with its pair.  Then, per parity set (sweep, the (4,1)
and (5,2) ecdf samples, rank 3), the total iterations, the median
certificate digits (-log10 of a pair's largest violation), the set's
largest violation, and the count of each status, before and after, so a
solve that stopped short shows.  It exits
1 when a pair is missing from either record, a status changed, or a delta
moved by more than max(1e-9, BEFORE's final gap); other differences are
reported only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import sys
from collections import Counter

import numpy as np

import ripsharp
from ripsharp import cli, closedform, lmi
from ripsharp.errors import NotSpuriousError

DELTA_TOL = 1e-9
# How compare prints a field that one record of a pair lacks.
_ABSENT = "absent"


def parity_pairs():
    """(name, x, z) for every parity program, in a fixed order."""
    # The criterion-4 grid, as cli.sweep_grid walks it; one point has x x^T = z z^T.
    for rho in np.linspace(0.0, 2.0, 21):
        for phi in np.linspace(0.0, 90.0, 19):
            rho, phi = float(rho), float(phi)
            try:
                closedform.from_polar(rho, np.deg2rad(phi))
            except NotSpuriousError:
                continue
            x, z = closedform.canonical_pair(rho, np.deg2rad(phi))
            yield f"sweep rho={rho:g} phi={phi:g}", x, z
    for n, r, streams, samples in ((4, 1, 1, 200), (5, 2, 16, 100)):
        for stream in range(streams):
            for index in range(samples):
                x, z = cli.draw_pair(n, r, stream, index)
                yield f"ecdf ({n},{r}) {stream}/{index}", x, z
    # The draws of bench/workloads.py's CertifyRank3, twelve pairs per seed.
    for seed in range(10):
        for index in range(12):
            rng = np.random.default_rng((seed, index))
            x, z = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
            yield f"rank3 {seed}/{index}", x, z


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


def record_pair(x: np.ndarray, z: np.ndarray) -> dict:
    pair = lmi.reduce(x, z)
    prob = lmi.build_upper_lmi(pair)
    sol = lmi.solve_lmi(prob)
    return {
        "c": _sha(prob.cone.c),
        "a": _sha(prob.cone.a),
        "f0": _sha(prob.cone.f0),
        "status": sol.status,
        "delta": float.hex(sol.delta),
        "gap": sol.gap,
        "iterations": sol.iterations,
        "dual_y": _sha(sol.dual.y),
        "h": _sha(sol.h),
        "max_violation": lmi.verify_certificates(sol, pair).max_violation(),
    }


def record(path: str) -> int:
    settings = {
        "ripsharp": os.path.dirname(ripsharp.__file__),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "numpy": np.__version__,
    }
    pairs = {name: record_pair(x, z) for name, x, z in parity_pairs()}
    with open(path, "w", newline="\n") as fh:
        json.dump({"settings": settings, "pairs": pairs}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(pairs)} programs to {path}")
    return 0


def compare(before_path: str, after_path: str) -> int:
    with open(before_path) as fh:
        before = json.load(fh)
    with open(after_path) as fh:
        after = json.load(fh)
    if before["settings"] != after["settings"]:
        print(f"settings: {before['settings']} -> {after['settings']}")
    old, new = before["pairs"], after["pairs"]
    names = sorted(old.keys() | new.keys())
    missing = differ = failed = 0
    fields, one_sided, rose, ratio = Counter(), Counter(), 0, (0.0, "")
    for name in names:
        if name not in old or name not in new:
            print(f"{name}: only in {before_path if name in old else after_path}")
            missing += 1
            continue
        a, b = old[name], new[name]
        if a == b:
            continue
        differ += 1
        union = list(a) + [k for k in b if k not in a]
        changed = [k for k in union if a.get(k, _ABSENT) != b.get(k, _ABSENT)]
        fields.update(changed)
        one_sided.update(k for k in changed if (k in a) != (k in b))
        v_a, v_b = a["max_violation"], b["max_violation"]
        rose += v_b > v_a
        if v_a != v_b:
            ratio = max(ratio, (v_b / v_a if v_a else math.inf, name))
        d_a, d_b = float.fromhex(a["delta"]), float.fromhex(b["delta"])
        bound = max(DELTA_TOL, a["gap"])
        bad = a["status"] != b["status"] or abs(d_b - d_a) > bound
        failed += bad
        others = ", ".join(f"{k} {a.get(k, _ABSENT)} -> {b.get(k, _ABSENT)}" for k in changed
                           if k not in ("status", "delta"))
        print(f"{name}: {'FAIL' if bad else 'differs'}: status {a['status']} -> {b['status']}, "
              f"delta {d_a!r} -> {d_b!r} (bound {bound:.3g}); {others}")
    print(f"{len(names)} programs: {len(names) - missing - differ} identical, {differ} differ "
          f"({failed} of them in status or delta), {missing} missing from one record")
    for field, count in fields.items():
        moved = (f" ({rose} rose, {count - rose} fell; largest after/before ratio "
                 f"{ratio[0]:.3g}, {ratio[1]})" if field == "max_violation" else "")
        if one_sided[field]:
            moved += f" ({one_sided[field]} of them in one record only)"
        print(f"{field}: differs in {count} pairs{moved}")
    sets = {}
    for name in names:
        sets.setdefault(" ".join(name.split()[:1 + name.startswith("ecdf")]), []).append(name)
    for group, members in sets.items():
        iters, digits, worst, statuses = [], [], [], []
        for record in (old, new):
            pairs = [record[name] for name in members if name in record]
            iters.append(sum(pair["iterations"] for pair in pairs))
            digits.append(statistics.median(-math.log10(max(pair["max_violation"], 1e-16))
                                            for pair in pairs) if pairs else math.nan)
            worst.append(max((pair["max_violation"] for pair in pairs), default=math.nan))
            statuses.append(Counter(pair["status"] for pair in pairs))
        counts = ", ".join(f"{status} {statuses[0][status]} -> {statuses[1][status]}"
                           for status in sorted(statuses[0].keys() | statuses[1].keys()))
        print(f"{group}: {len(members)} programs, iterations {iters[0]} -> {iters[1]}, "
              f"median certificate digits {digits[0]:.2f} -> {digits[1]:.2f}, "
              f"largest violation {worst[0]:.3g} -> {worst[1]:.3g}; {counts}")
    return 1 if missing or failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="parity", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("record", help="solve every parity program and write OUT.json")
    p.add_argument("out")
    p = sub.add_parser("compare", help="report the differences between two records")
    p.add_argument("before")
    p.add_argument("after")
    args = parser.parse_args(argv)
    if args.command == "record":
        return record(args.out)
    return compare(args.before, args.after)


if __name__ == "__main__":
    sys.exit(main())
