"""The benchmark's workloads, their expected verdicts, and output checks.

Every workload is a closed loop: one client in one process runs a pass (a
fixed list of operations) to completion before starting the next, with no
threads beyond numpy's own. An operation is one ``harness.run_check`` report
or one ``su2.reduced_dynamics_match`` trajectory. All inputs come from the
workload seed; the same seed gives the same inputs and, by redint's
determinism contract, the same outputs apart from ``wall_time_ms``.

Why each workload was chosen, and which ROADMAP items it should show:

* ``sweep-default`` -- exactly what ``redint all`` and tier-1 run: every
  check at n = 2, 3 with the default config (50 samples, max_word_len 4,
  t_max 10). A mixed load led by ``reduction`` and ``words`` at n = 3; the
  workload most optimisations must not slow. Shows items 2 (coordinate
  matrix, gradient kernel, span_plateau reuse), 3 (longer word caps) and 5.
* ``certify-n5`` -- the 12 non-SU(2) checks at n = 5 with 20 samples. Larger
  matrices, so ``groups`` coordinates, SVD ranks and word gradients do most
  of the work and per-call Python overhead shrinks relative to numpy. Item 2
  should gain most here and item 5 (batching across samples) least.
* ``su2-trajectories`` -- the three ``su2-*`` checks plus 12 seeded
  ``reduced_dynamics_match`` runs (T = 2, 10 000 steps). ``group_exp``,
  regauging and RK4 on 2x2 matrices, with no word gradients and no
  coordinate map: the bypass workload on which items 2 and 5 should change
  nothing.

Deliberately left out:

* The tier-1 wall time: it re-runs ``sweep-default``-shaped work under
  pytest, so it adds run time without adding a distinct load.
* n = 8: three checks fail there for harness reasons (ROADMAP item 3). A
  workload at n = 8 would build a known defect into the failure count, and
  its work changes when item 3 lands.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass

import numpy as np

# Entry points are called through their module, so that a tracer which
# rebinds ``harness.run_check`` sees these calls too.
from redint import groups, harness, su2
from redint.harness import CHECKS, ExperimentConfig

SU2_CHECKS = tuple(name for name in CHECKS if name.startswith("su2-"))
CERTIFY_CHECKS = tuple(name for name in CHECKS if name not in SU2_CHECKS)

# Expected verdict per (check, n) for every report a workload produces: the
# set of ``expected`` keys whose bound fails. Empty means the check passes.
# The criterion-8 diagonal case is a known, deliberate FAIL of the stated
# orbit-codimension count (README); it is compared exactly, never skipped.
VERDICTS = {(name, n): frozenset() for n in (2, 3) for name in CHECKS}
VERDICTS.update({(name, 5): frozenset() for name in CERTIFY_CHECKS})
VERDICTS[("invariant-span-double", 2)] = frozenset({"diagonal_span"})

# A trajectory is correct under the bounds the su2-dynamics check uses.
TRAJECTORY_MAX_DEVIATION = 1e-6
TRAJECTORY_MAX_ENERGY_DRIFT = 1e-8
TRAJECTORY_T = 2.0
TRAJECTORY_STEPS = 10_000
TRAJECTORIES = 12


@dataclass(frozen=True)
class Op:
    """One operation of a pass: its label, time, and what its output showed."""

    label: str
    seconds: float
    output: str  # canonical output, identical across reruns of the same input
    error: str | None  # None when the output matches its expectation


def _holds(observed, spec) -> bool:
    # re-derives each bound's verdict from the report instead of trusting ``passed``
    value, cmp = spec["value"], spec["cmp"]
    if cmp == "le":
        return observed <= value
    if cmp == "ge":
        return observed >= value
    if cmp == "eq":
        return observed == value
    raise ValueError(f"unknown comparison {cmp!r}")


def report_op(report, seconds: float) -> Op:
    """Check one report against :data:`VERDICTS`."""
    label = f"{report.check_name} n={report.n}"
    output = dataclasses.replace(report, wall_time_ms=0).to_json()
    expected = VERDICTS.get((report.check_name, report.n))
    if expected is None:
        return Op(label, seconds, output, "no expected verdict for this (check, n)")
    failing = frozenset(k for k, spec in report.expected.items() if not _holds(report.observed[k], spec))
    if failing != expected or report.passed != (not expected):
        return Op(
            label,
            seconds,
            output,
            f"verdict passed={report.passed} failing={sorted(failing)}; expected failing={sorted(expected)}",
        )
    return Op(label, seconds, output, None)


def trajectory_op(label: str, comp, seconds: float) -> Op:
    digest = hashlib.sha256()
    for arr in (comp.t, comp.q, comp.p, comp.q_oracle, comp.p_oracle, comp.energy, comp.deviation):
        digest.update(np.ascontiguousarray(arr).tobytes())
    output = f"{digest.hexdigest()} {comp.max_deviation!r} {comp.energy_drift!r} {comp.domain_exit}"
    problems = []
    if not comp.max_deviation <= TRAJECTORY_MAX_DEVIATION:
        problems.append(f"max_deviation {comp.max_deviation:.3e}")
    if not comp.energy_drift <= TRAJECTORY_MAX_ENERGY_DRIFT:
        problems.append(f"energy_drift {comp.energy_drift:.3e}")
    if comp.domain_exit:
        problems.append("domain exit")
    return Op(label, seconds, output, "; ".join(problems) or None)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def _warm(sizes):
    """Fill redint's lazy caches and numpy's lazy LAPACK set-up for ``sizes``."""
    for n in sizes:
        ctx = groups.GroupContext(n)
        groups.orthonormal_basis(ctx)
        groups.numerical_rank(np.eye(n), 1e-10)
        groups.group_exp(groups.random_algebra(ctx, 0))


class SweepDefault:
    name = "sweep-default"
    sizes = (2, 3)
    ops_per_pass = len(sizes) * len(CHECKS)

    def setup(self, seed: int):
        _warm(self.sizes)
        return ExperimentConfig(seed=seed)

    def run_pass(self, cfg):
        """One ``run_all``; per-report time is the report's ``wall_time_ms``.

        Like every ``run_pass``, this does the timed work and returns
        ``finish``, which checks the outputs afterwards, outside the timing.
        """
        reports = harness.run_all(cfg, sizes=self.sizes)

        def finish():
            ops = [report_op(r, r.wall_time_ms / 1000.0) for r in reports]
            got = [(r.check_name, r.n) for r in reports]
            want = [(name, n) for n in self.sizes for name in CHECKS]
            if got != want:
                ops.append(Op("run_all", 0.0, repr(got), f"report order {got} != {want}"))
            return ops

        return finish


class CertifyN5:
    name = "certify-n5"
    sizes = (5,)
    ops_per_pass = len(CERTIFY_CHECKS)

    def setup(self, seed: int):
        _warm(self.sizes)
        return ExperimentConfig(n=5, seed=seed, samples=20)

    def run_pass(self, cfg):
        timed = [_timed(harness.run_check, name, cfg) for name in CERTIFY_CHECKS]
        return lambda: [report_op(report, seconds) for report, seconds in timed]


class Su2Trajectories:
    name = "su2-trajectories"
    sizes = (2,)
    ops_per_pass = len(SU2_CHECKS) + TRAJECTORIES

    def setup(self, seed: int):
        _warm(self.sizes)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0x5C,)))
        starts = [
            su2.SliceCoords(
                float(rng.uniform(np.pi / 4, 3 * np.pi / 4)),
                float(rng.uniform(-0.5, 0.5)),
                float(rng.uniform(0.5, 2.0)),
            )
            for _ in range(TRAJECTORIES)
        ]
        return ExperimentConfig(n=2, seed=seed), starts

    def run_pass(self, state):
        cfg, starts = state
        checks = [_timed(harness.run_check, name, cfg) for name in SU2_CHECKS]
        trajectories = [
            _timed(su2.reduced_dynamics_match, c, T=TRAJECTORY_T, steps=TRAJECTORY_STEPS)
            for c in starts
        ]

        def finish():
            ops = [report_op(report, seconds) for report, seconds in checks]
            for i, (comp, seconds) in enumerate(trajectories):
                ops.append(trajectory_op(f"trajectory {i}", comp, seconds))
            return ops

        return finish


WORKLOADS = {w.name: w for w in (SweepDefault(), CertifyN5(), Su2Trajectories())}
