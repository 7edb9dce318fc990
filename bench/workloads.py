"""The three benchmark workloads: inputs, one timed round, and its checks.

A round is a whole batch of the same operations, so every run attempts
whole rounds and the share of failed units does not depend on run length.
Every call into ripsharp goes through a module attribute, so the tracer
in ``tracing.py`` sees it.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from ripsharp import cli, lmi, objective

import checks


@dataclass
class Round:
    """One timed round: its wall time, units, per-unit times if timed one by one, and outputs."""

    seconds: float
    units: int
    unit_ms: list[float]
    outputs: list


class DeltaRecorder:
    """Keeps the inputs and result of each ``lmi.delta_exact`` call while active.

    The batch entry points return only deltas; the certificates of the
    same solves are scored after the timed part.  Costs one call and one
    list append per solve.
    """

    def __init__(self) -> None:
        self.calls: list[tuple[np.ndarray, np.ndarray, lmi.SdpSolution]] = []
        self.active = False
        self._solve = lmi.delta_exact

    def __call__(self, x, z, *args, **kwargs):
        sol = self._solve(x, z, *args, **kwargs)
        if self.active:
            self.calls.append((x, z, sol))
        return sol


class BatchWorkload:
    """One call to a ``cli`` batch entry point per round, timed as a whole.

    A batch has no per-unit latency, so ``unit_ms`` stays empty.  Rounds
    repeat the same call, so every round must return the first round's
    rows exactly.
    """

    def __init__(self) -> None:
        self.recorder = DeltaRecorder()
        lmi.delta_exact = self.recorder

    def call(self) -> list[tuple]:
        raise NotImplementedError

    def count_units(self, rows: list[tuple]) -> int:
        raise NotImplementedError

    def first_round_failures(self, rows: list[tuple]) -> dict[int, str]:
        raise NotImplementedError

    def run_round(self) -> Round:
        # Keep the solves of the first round only; later rounds repeat them.
        self.recorder.active = not self.recorder.calls
        t0 = time.perf_counter()
        rows = self.call()
        seconds = time.perf_counter() - t0
        self.recorder.active = False
        units = self.count_units(rows)
        return Round(seconds, units, [], rows)

    def failures(self, rounds: list[Round]) -> int:
        first = rounds[0].outputs
        bad = self.first_round_failures(first)
        for i, reason in bad.items():
            print(f"{type(self).__name__} row {i}: {reason}", file=sys.stderr)
        failed = 0
        for rnd in rounds:
            rows = rnd.outputs
            differ = {
                i for i, (a, b) in enumerate(zip(rows, first))
                if np.asarray(a).tobytes() != np.asarray(b).tobytes()
            }
            if len(rows) != len(first):
                differ = set(range(len(first)))
            for i in sorted(differ - set(bad)):
                print(f"round differs from the first at row {i}", file=sys.stderr)
            failed += len(set(bad) | differ)
        return failed

    def cert_digits(self, rounds: list[Round]) -> list[float]:
        return [
            checks.cert_digits(lmi.verify_certificates(sol, lmi.reduce(x, z)).max_violation())
            for x, z, sol in self.recorder.calls
        ]


class SweepRank1(BatchWorkload):
    """``cli.sweep_grid`` on the criterion-4 polar grid (398 rank-1 programs).

    The grid is fixed: the seed does not change it.
    """

    CONFIG = dict(rho_min=0.0, rho_max=2.0, rho_steps=21,
                  phi_min=0.0, phi_max=90.0, phi_steps=19, mode="both")

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.cfg = cli.SweepConfig(**self.CONFIG)

    def warm_up(self) -> None:
        lmi.delta_exact(*checks.polar_point(0.5, 60.0))

    def call(self) -> list[tuple]:
        return cli.sweep_grid(self.cfg)

    def count_units(self, rows) -> int:
        return sum(1 for row in rows if not np.isnan(row[2]))

    def first_round_failures(self, rows) -> dict:
        return checks.sweep_failures(rows)


class EcdfRank2(BatchWorkload):
    """``cli.sample_ecdf`` with n=5, r=2: the 100 samples of stream 0.

    These are the rank-2 half of criterion 9.  The stream is fixed, not
    taken from the benchmark seed: 5 of the streams 0-15 hold a sample
    whose solve ends in a step failure, which ``sample_ecdf`` raises as a
    solver error for the whole batch.  The samples in ``AMBIENT_SAMPLES``
    are also solved in the ambient dimension.
    """

    STREAM = 0
    NUM_SAMPLES = 100
    AMBIENT_SAMPLES = (0, 25, 50, 75)

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.cfg = cli.EcdfConfig(n=5, r=2, num_samples=self.NUM_SAMPLES, seed=self.STREAM)

    def warm_up(self) -> None:
        rng = np.random.default_rng(0)
        lmi.delta_exact(rng.standard_normal((5, 2)), rng.standard_normal((5, 2)))

    def call(self) -> list[tuple]:
        return cli.sample_ecdf(self.cfg)

    def count_units(self, rows) -> int:
        return len(rows)

    def ambient_deltas(self) -> dict[int, float]:
        out = {}
        for i in self.AMBIENT_SAMPLES:
            x, z = cli.draw_pair(self.cfg.n, self.cfg.r, self.cfg.seed, i)
            prob = lmi.build_lower_lmi(x, z, lmi.reduce(x, z).p)
            out[i] = lmi.solve_lmi(prob).delta
        return out

    def first_round_failures(self, rows) -> dict:
        return checks.ecdf_failures(rows, self.NUM_SAMPLES, self.ambient_deltas())


class CertifyRank3:
    """Seeded (6, 3) pairs, each solved, certified and recovered on its own.

    A round is the same ``PAIRS_PER_ROUND`` pairs of stream ``seed``; a
    unit is one pair through ``delta_exact``, ``verify_certificates``,
    ``recover_minimizer`` and the objective checks on the recovered
    operator.
    """

    SHAPE = (6, 3)
    PAIRS_PER_ROUND = 12

    def __init__(self, seed: int) -> None:
        self.pairs = [self.draw(seed, k) for k in range(self.PAIRS_PER_ROUND)]

    @classmethod
    def draw(cls, seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng((seed, index))
        return rng.standard_normal(cls.SHAPE), rng.standard_normal(cls.SHAPE)

    def warm_up(self) -> None:
        self.unit(*self.draw(2**32 - 1, 0))

    @staticmethod
    def unit(x, z):
        sol = lmi.delta_exact(x, z)
        pair = lmi.reduce(x, z)
        report = lmi.verify_certificates(sol, pair)
        crit = rip = None
        if sol.status == lmi.STATUS_OPTIMAL:
            op = lmi.recover_minimizer(sol, pair)
            crit = objective.criticality_certificate(objective.RecoveryInstance(op, z), x)
            rip = objective.rip_constant_fullspace(op)
        return sol, report, crit, rip

    def run_round(self) -> Round:
        unit_ms, outputs = [], []
        t_round = time.perf_counter()
        for x, z in self.pairs:
            t0 = time.perf_counter()
            out = self.unit(x, z)
            unit_ms.append(1e3 * (time.perf_counter() - t0))
            outputs.append(out)
        seconds = time.perf_counter() - t_round
        return Round(seconds, len(self.pairs), unit_ms, outputs)

    def failures(self, rounds: list[Round]) -> int:
        failed = 0
        for rnd in rounds:
            for (x, z), out in zip(self.pairs, rnd.outputs):
                reason = checks.certify_failure(x, z, *out)
                if reason is not None:
                    print(f"certify-rank3: {reason}", file=sys.stderr)
                    failed += 1
        return failed

    def cert_digits(self, rounds: list[Round]) -> list[float]:
        return [
            checks.cert_digits(report.max_violation())
            for rnd in rounds
            for _, report, _, _ in rnd.outputs
        ]


WORKLOADS = {
    "sweep-rank1": SweepRank1,
    "ecdf-rank2": EcdfRank2,
    "certify-rank3": CertifyRank3,
}

