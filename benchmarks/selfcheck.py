"""Self-checks of the benchmark's traced run and verdict table.

    python -m pytest benchmarks/selfcheck.py

The file is not named ``test_*.py`` so that the repository's own test run
does not collect it: each traced workload takes tens of seconds.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import run

run._import_redint()

from redint import harness  # noqa: E402
from tracer import LAYERS, MODULES, metric_names  # noqa: E402
from workloads import VERDICTS, WORKLOADS, report_op  # noqa: E402

SWEEP, CERTIFY, SU2 = "sweep-default", "certify-n5", "su2-trajectories"


def _both(module, funcs, *workloads):
    return {f"{module}.{fn}.{kind}": workloads for fn in funcs for kind in ("calls", "self_s")}


# Which workload exercises each per-layer metric: there it must be non-zero.
EXERCISED_BY = {
    **_both("groups", ("inner", "basis_coordinates"), CERTIFY, SWEEP),
    **_both("groups", ("group_exp",), SU2, SWEEP, CERTIFY),
    **_both("groups", ("numerical_rank",), CERTIFY, SWEEP),
    "groups.numerical_rank.elements": (CERTIFY, SWEEP),
    **_both(
        "groups",
        ("from_coordinates", "joint_centralizer_dim", "is_regular", "centralizer_basis"),
        SWEEP,
        CERTIFY,
    ),
    **_both("words", LAYERS["words"], SWEEP, CERTIFY),
    "words.gradient.letters": (SWEEP, CERTIFY),
    **_both("phase", LAYERS["phase"], SWEEP, CERTIFY),
    **_both("free_motion", LAYERS["free_motion"], SWEEP, CERTIFY),
    **_both("reduction", LAYERS["reduction"], SWEEP, CERTIFY),
    **_both("apposition", LAYERS["apposition"], SWEEP, CERTIFY),
    **_both("su2", LAYERS["su2"], SU2, SWEEP),
    **{f"harness.{check}.s": (SWEEP,) for check in harness.CHECKS},
    "trace.overhead_s": (SWEEP, CERTIFY),
}


@pytest.fixture(scope="module", params=list(WORKLOADS))
def traced(request):
    tally = run.Tally()
    metrics, samples = run.run_traced(WORKLOADS[request.param], 12345, tally)
    return request.param, tally, {k: v for k, (v, _) in metrics.items()}, samples


def test_tracing_leaves_reports_identical(traced):
    # run_traced compares every traced output with the untraced pass: report
    # JSON without wall_time_ms, and trajectory arrays bit for bit
    _, tally, _, _ = traced
    assert tally.failed == 0, tally.messages
    assert tally.attempted > 0


def test_self_times_sum_to_traced_wall(traced):
    _, _, metrics, samples = traced
    uncovered = samples["traced_wall_s"] - samples["self_s_total"]
    assert 0.0 <= uncovered <= abs(metrics["trace.overhead_s"])


def test_every_layer_metric_reported_and_exercised(traced):
    workload, _, metrics, _ = traced
    assert list(metrics) == metric_names(harness.CHECKS)
    for name, workloads in EXERCISED_BY.items():
        if workload in workloads:
            assert metrics[name] != 0, name
    for module in MODULES:
        assert metrics[f"{module}.errors"] == 0


def test_exercised_mapping_covers_every_metric():
    named = set(EXERCISED_BY) | {f"{module}.errors" for module in MODULES}
    assert named == set(metric_names(harness.CHECKS))


def test_verdict_table_rejects_a_flipped_verdict():
    cfg = harness.ExperimentConfig(n=2, samples=2)
    report = harness.run_check("invariant-span-double", cfg)
    assert VERDICTS[("invariant-span-double", 2)] == {"diagonal_span"}
    assert report_op(report, 0.0).error is None
    flipped = dataclasses.replace(report, passed=True)
    assert report_op(flipped, 0.0).error is not None
    loosened = dataclasses.replace(
        report, expected={k: v for k, v in report.expected.items() if k != "diagonal_span"}
    )
    assert report_op(loosened, 0.0).error is not None


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == metric_names(harness.CHECKS)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
