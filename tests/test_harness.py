"""Tests for the check registry, reports, CLI, and file formats."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from redint import apposition as ap
from redint import free_motion as fm
from redint import harness
from redint import reduction as rd
from redint import su2
from redint import words as w
from redint.cli import main as cli_main
from redint.groups import (
    H_FD,
    GroupContext,
    basis_coordinates,
    inner,
    is_regular,
    joint_centralizer_dim,
    norm,
    lie_bracket,
    random_algebra,
    random_group,
)
from redint.harness import (
    CHECKS,
    SAMPLE_BLOCK,
    ConfigError,
    ExperimentConfig,
    UsageError,
    _blocks,
    _word_cap,
    emit_plot_data,
    run_all,
    run_check,
    sample_rng,
    summarize,
)
from redint.phase import (
    PhasePoint,
    bracket_from_gradients,
    chart_basis,
    evaluate,
    gradients,
    poisson_bracket,
    shift,
)

from finite_differences import fd_directional

FAST = ExperimentConfig(n=2, seed=7, samples=5, max_word_len=3)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(n=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(samples=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(max_word_len=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(seed=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig(seed=2**64)
    with pytest.raises(ConfigError):
        ExperimentConfig(t_max=0.0)
    # non-integral counts and seeds (a bool is not an integer here), and non-finite times
    for bad in (
        {"n": 2.5},
        {"n": 3.0},
        {"n": True},
        {"seed": 1.5},
        {"samples": 2.5},
        {"max_word_len": "4"},
        {"t_max": float("inf")},
        {"t_max": float("nan")},
        {"t_max": True},
        {"t_max": "10"},
        # an int or bool path would be taken as a file descriptor and closed
        {"out": 2},
        {"out": True},
    ):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)


def test_unknown_check_raises_usage_error():
    with pytest.raises(UsageError):
        run_check("no-such-check", FAST)


def test_registry_contents():
    assert set(CHECKS) == {
        "bracket-axioms",
        "psi-poisson",
        "flow-conservation",
        "dpsi-rank",
        "strata-census",
        "reduced-ham-span",
        "reduced-const-span",
        "centrality",
        "leaf-codim",
        "invariant-span-double",
        "apposition",
        "moment-equation",
        "su2-energy",
        "su2-exceptional",
        "su2-dynamics",
    }


def test_report_determinism():
    a = run_check("dpsi-rank", FAST)
    b = run_check("dpsi-rank", FAST)
    da, db = json.loads(a.to_json()), json.loads(b.to_json())
    da.pop("wall_time_ms"), db.pop("wall_time_ms")
    assert da == db


def test_reports_carry_provenance():
    rep = run_check("flow-conservation", FAST)
    assert rep.expected
    for spec in rep.expected.values():
        assert spec["provenance"].strip()
        assert spec["cmp"] in ("le", "ge", "eq")


def test_pass_flag_matches_expected_bounds():
    rep = run_check("dpsi-rank", FAST)
    ok = True
    for key, spec in rep.expected.items():
        if spec["cmp"] == "le":
            ok &= rep.observed[key] <= spec["value"]
        elif spec["cmp"] == "ge":
            ok &= rep.observed[key] >= spec["value"]
        else:
            ok &= rep.observed[key] == spec["value"]
    assert rep.passed == ok


def test_selected_checks_pass_fast():
    for name in ("bracket-axioms", "psi-poisson", "flow-conservation", "strata-census",
                 "reduced-ham-span", "centrality", "leaf-codim", "apposition",
                 "moment-equation", "su2-energy"):
        assert run_check(name, FAST).passed, name


def test_invariant_span_double_records_known_defect_at_n2():
    rep = run_check("invariant-span-double", FAST)
    assert rep.observed["generic_mismatches"] == 0
    assert rep.observed["diagonal_span"] == 2
    assert rep.observed["diagonal_orbit_codim"] == 4
    assert not rep.passed  # the diagonal expectation is kept as stated


def test_run_all_composition():
    reports = run_all(ExperimentConfig(n=2, seed=7, samples=3, max_word_len=3), sizes=(2,))
    assert len(reports) == len(CHECKS)
    text = summarize(reports)
    assert "checks passed" in text


def test_plot_headers():
    header, rows = emit_plot_data("reduced-const-span", FAST)
    assert header == "max_len,rank"
    assert rows
    with pytest.raises(UsageError):
        emit_plot_data("bracket-axioms", FAST)


# --- CLI ---------------------------------------------------------------


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("REDINT_SEED", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "redint.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


def test_cli_single_check_pass():
    proc = run_cli(["dpsi-rank", "--n", "2", "--seed", "7", "--samples", "5"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["check"] == "dpsi-rank"
    assert payload["passed"] is True
    assert payload["observed"]["min_rank"] == 5


def test_cli_failed_check_exit_code():
    proc = run_cli(["invariant-span-double", "--n", "2", "--seed", "7", "--samples", "3"])
    assert proc.returncode == 1


def test_cli_usage_errors():
    assert run_cli(["no-such-check"]).returncode == 3
    assert run_cli(["plot"]).returncode == 3
    assert run_cli(["plot", "bracket-axioms"]).returncode == 3
    assert run_cli(["dpsi-rank", "--bogus-flag", "1"]).returncode == 3


def test_cli_config_errors(tmp_path, monkeypatch, capsys):
    assert run_cli(["dpsi-rank", "--n", "1"]).returncode == 2
    proc = run_cli(
        ["dpsi-rank", "--seed", "5", "--samples", "3"], env_extra={"REDINT_SEED": "9"}
    )
    assert proc.returncode == 2
    assert "seed" in proc.stderr
    proc = run_cli(["dpsi-rank", "--t-max", "inf"])
    assert proc.returncode == 2
    assert "t_max" in proc.stderr
    monkeypatch.delenv("REDINT_SEED", raising=False)
    cfg = tmp_path / "bad.json"
    for bad in (
        {"n": 2.5},
        {"seed": 1.5},
        {"samples": 2.5},
        {"max_word_len": True},
        {"t_max": float("nan")},
        {"t_max": True},
        {"t_max": "10"},
        {"out": 2},
        {"out": True},
    ):
        cfg.write_text(json.dumps(bad))
        assert cli_main(["dpsi-rank", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")


def test_cli_env_seed_alone_is_used():
    proc = run_cli(["dpsi-rank", "--samples", "3"], env_extra={"REDINT_SEED": "31"})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["seed"] == 31


def test_cli_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "seed": 11, "samples": 4}))
    proc = run_cli(["dpsi-rank", "--config", str(cfg)])
    assert json.loads(proc.stdout)["seed"] == 11
    proc = run_cli(["dpsi-rank", "--config", str(cfg), "--seed", "12"])
    assert json.loads(proc.stdout)["seed"] == 12
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_key": 1}))
    assert run_cli(["dpsi-rank", "--config", str(bad)]).returncode == 2


def test_cli_out_file_and_rerun_identity(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        proc = run_cli(
            ["flow-conservation", "--n", "2", "--seed", "3", "--samples", "3", "--out", str(out)]
        )
        assert proc.returncode == 0
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    d1.pop("wall_time_ms"), d2.pop("wall_time_ms")
    assert d1 == d2


def test_cli_run_all_emits_ndjson(tmp_path):
    out = tmp_path / "all.ndjson"
    proc = run_cli(
        ["all", "--seed", "7", "--samples", "2", "--max-word-len", "3", "--t-max", "2.0",
         "--out", str(out)]
    )
    # the diagonal-pair expectation in invariant-span-double is kept as
    # stated and fails at n=2, so the aggregate exit code reports a failure
    assert proc.returncode == 1
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2 * len(CHECKS)
    payloads = [json.loads(line) for line in lines]
    assert {p["check"] for p in payloads} == set(CHECKS)
    failing = [p for p in payloads if not p["passed"]]
    assert [(p["check"], p["n"]) for p in failing] == [("invariant-span-double", 2)]
    assert "checks passed" in proc.stderr


def test_cli_plot_trajectory_csv(tmp_path):
    out = tmp_path / "traj.csv"
    proc = run_cli(["plot", "su2-dynamics", "--out", str(out)])
    assert proc.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,q,p,q_oracle,p_oracle,energy,deviation"
    assert len(lines) > 100


def test_cli_in_process_entry_point():
    assert cli_main(["dpsi-rank", "--n", "2", "--seed", "7", "--samples", "3"]) == 0
    assert cli_main(["nope"]) == 3


# --- samples stacked in blocks -------------------------------------------
# The per-sample loops that the sampled checks ran before their samples were
# drawn and stacked in blocks, kept as references: each report must stay
# byte-identical.


def _reference_sample_points(cfg, ctx, count):
    """The sample points as drawn before they were drawn in blocks: one
    group_exp and two from_coordinates calls per sample."""
    for i in range(count):
        rng = sample_rng(cfg.seed, i)
        yield rng, PhasePoint(random_group(ctx, rng), random_algebra(ctx, rng))


def _reference_psi_poisson(cfg):
    ctx = GroupContext(cfg.n)
    worst = 0.0
    for rng, x in _reference_sample_points(cfg, ctx, cfg.samples):
        f = w.random_observable(rng, w.DOUBLE_LETTERS, max_len=cfg.max_word_len)
        h = w.random_observable(rng, w.DOUBLE_LETTERS, max_len=cfg.max_word_len)
        worst = max(worst, fm.poisson_map_defect(f, h, x))
    return {"max_defect": worst}


def _reference_dpsi_rank(cfg):
    ctx = GroupContext(cfg.n)
    ranks = []
    tail = 0.0
    for _, x in _reference_sample_points(cfg, ctx, cfg.samples):
        if not is_regular(x.J):
            continue
        r, s = fm.constants_map_rank(x)
        ranks.append(r)
        if r < s.size:
            tail = max(tail, float(s[r] / s[0]))
    g = random_group(ctx, sample_rng(cfg.seed, cfg.samples))
    rank_zero, _ = fm.constants_map_rank(PhasePoint(g, np.zeros((ctx.n, ctx.n), dtype=complex)))
    return {
        "min_rank": min(ranks, default=-1),
        "max_rank": max(ranks, default=-1),
        "rank_at_zero_momentum": rank_zero,
        "max_tail_ratio": tail,
    }


def _reference_flow_conservation(cfg):
    ctx = GroupContext(cfg.n)
    t_grid = np.arange(0.0, cfg.t_max + 1e-12, 0.5)
    worst = 0.0
    for _, x in _reference_sample_points(cfg, ctx, cfg.samples):
        for k in range(2, ctx.n + 1):
            worst = max(worst, fm.flow_conservation_defect(x, k, t_grid))
    return {"max_drift": worst}


def _reference_strata_census(cfg):
    ctx = GroupContext(cfg.n)
    hits = {"regular_momentum": 0, "principal": 0, "image_principal": 0, "regular_moment": 0}
    for _, x in _reference_sample_points(cfg, ctx, cfg.samples):
        flags = rd.classify(x)
        for key in hits:
            hits[key] += int(getattr(flags, key))
    return {key: hits[key] / cfg.samples for key in hits}


def _reference_reduced_ham_span(cfg):
    ctx = GroupContext(cfg.n)
    spans = []
    violations = 0
    for _, x in _reference_sample_points(cfg, ctx, cfg.samples):
        flags = rd.classify(x)
        if not (flags.principal and flags.regular_momentum):
            continue
        span = rd.reduced_hamiltonian_span(x)
        if flags.image_principal:
            spans.append(span)
        z = fm.constants_map(x)
        stab = joint_centralizer_dim([z.X, z.Y], [])
        if ctx.rank - span > stab:
            violations += 1
    return {
        "min_span": min(spans, default=-1),
        "max_span": max(spans, default=-1),
        "deficit_bound_violations": violations,
    }


def _reference_reduced_const_span(cfg):
    ctx = GroupContext(cfg.n)
    finals = []
    plateau_at = 0
    monotone = True
    for _, x in _reference_sample_points(cfg, ctx, cfg.samples):
        if not rd.classify(x).image_principal:
            continue
        sweep = rd.span_plateau(x, _word_cap(cfg))
        finals.append(sweep[-1])
        if any(b < a for a, b in zip(sweep, sweep[1:])):
            monotone = False
        plateau_at = max(plateau_at, 1 + sweep.index(sweep[-1]))
    return {
        "min_final_span": min(finals, default=-1),
        "max_final_span": max(finals, default=-1),
        "plateau_word_length": plateau_at,
        "monotone_in_word_length": int(monotone),
    }


def _reference_centrality(cfg):
    ctx = GroupContext(cfg.n)
    gens = rd.word_generators(min(cfg.max_word_len, 4))
    worst = 0.0
    for _, x in _reference_sample_points(cfg, ctx, cfg.samples):
        worst = max(worst, rd.max_centrality_defect(x, gens))
    return {"max_defect": worst}


def _reference_leaf_codim(cfg):
    ctx = GroupContext(cfg.n)
    values = []
    for _, x in _reference_sample_points(cfg, ctx, cfg.samples):
        flags = rd.classify(x)
        if not (flags.principal and flags.regular_moment):
            continue
        values.append(rd.leaf_codim(x))
    return {"min_codim": min(values, default=-1), "max_codim": max(values, default=-1)}


def _reference_invariant_span_double(cfg):
    ctx = GroupContext(cfg.n)
    gens = rd.word_generators(_word_cap(cfg))
    mismatches = 0
    for i in range(cfg.samples):
        rng = sample_rng(cfg.seed, i)
        z = fm.DoublePoint(random_algebra(ctx, rng), random_algebra(ctx, rng))
        span = rd.invariant_span_double(z, gens)
        if span != 2 * ctx.dim_g - rd.double_orbit_dim(z):
            mismatches += 1
    observed = {"generic_mismatches": mismatches}
    if cfg.n == 2:
        X = random_algebra(ctx, sample_rng(cfg.seed, cfg.samples))
        zd = fm.DoublePoint(X, X)
        observed["diagonal_span"] = rd.invariant_span_double(zd, gens)
        observed["diagonal_orbit_codim"] = 2 * ctx.dim_g - rd.double_orbit_dim(zd)
    return observed


# The per-sample loops of the two checks that now make one stacked
# joint_centralizer_dim call per block (moment-equation) or per check
# (su2-exceptional's off-point samples).


def _reference_moment_equation_pairs(cfg):
    frame = ap.build_frame(cfg.n)
    for i in range(cfg.samples):
        rng = sample_rng(cfg.seed, i)
        g = ap.random_torus_group(frame, rng)
        zeta = ap.random_partner_algebra(frame, rng)
        yield frame, g, zeta, ap.solve_moment_equation(g, zeta)


def _reference_moment_equation(cfg):
    worst_res = worst_kernel = worst_shift = 0.0
    isotropy_viol = 0
    for frame, g, zeta, J in _reference_moment_equation_pairs(cfg):
        res = norm(J - g.conj().T @ J @ g - zeta)
        worst_res = max(worst_res, res)
        if joint_centralizer_dim([J], [g]) != 0:
            isotropy_viol += 1
        diag_part = np.linalg.norm(np.diag(np.diag(J)))
        worst_kernel = max(worst_kernel, float(diag_part))
        u = frame.torus_basis[0]
        res_shift = norm((J + u) - g.conj().T @ (J + u) @ g - zeta)
        worst_shift = max(worst_shift, abs(res_shift - res))
    return {
        "max_residual": worst_res,
        "isotropy_violations": isotropy_viol,
        "max_kernel_component": worst_kernel,
        "max_residual_change_under_kernel_shift": worst_shift,
    }


def _reference_off_point_images(cfg):
    for i in range(cfg.samples):
        rng = sample_rng(cfg.seed, i)
        q = float(rng.uniform(0.05, np.pi - 0.05))
        p = float(rng.uniform(-2.0, 2.0))
        if abs(q - su2.EXCEPTIONAL_Q) < 1e-3 and abs(p) < 1e-3:
            continue
        yield fm.constants_map(su2.slice_point(su2.SliceCoords(q, p, 1.0)))


def _reference_su2_exceptional(cfg):
    stab_ok = span_ok = min_ok = True
    for x_val in su2.X_GRID:
        audit = su2.exceptional_point_audit(x_val)
        stab_ok &= audit.image_stabilizer_dim == 1
        span_ok &= audit.projected_span == 0
        min_ok &= audit.min_attained_at_exceptional
    off_viol = 0
    for z in _reference_off_point_images(cfg):
        if joint_centralizer_dim([z.X, z.Y], []) != 0:
            off_viol += 1
    return {
        "stabilizer_dim_is_one": int(stab_ok),
        "projected_span_is_zero": int(span_ok),
        "grid_minimum_at_exceptional": int(min_ok),
        "off_point_stabilizer_violations": off_viol,
    }


REFERENCE_CHECKS = {
    "psi-poisson": _reference_psi_poisson,
    "dpsi-rank": _reference_dpsi_rank,
    "flow-conservation": _reference_flow_conservation,
    "moment-equation": _reference_moment_equation,
    "su2-exceptional": _reference_su2_exceptional,
    "strata-census": _reference_strata_census,
    "reduced-ham-span": _reference_reduced_ham_span,
    "reduced-const-span": _reference_reduced_const_span,
    "centrality": _reference_centrality,
    "leaf-codim": _reference_leaf_codim,
    "invariant-span-double": _reference_invariant_span_double,
}

BLOCK_CONFIGS = [
    ExperimentConfig(n=n, seed=seed, samples=samples)
    for seed in (1, 97)
    for n, samples in ((2, 50), (3, 50), (5, 20))
] + [
    ExperimentConfig(n=3, seed=7, samples=2 * SAMPLE_BLOCK + 3),
    # ends in a block of one
    ExperimentConfig(n=4, seed=11, samples=SAMPLE_BLOCK + 1),
]


@pytest.mark.parametrize("name", sorted(REFERENCE_CHECKS))
@pytest.mark.parametrize("cfg", BLOCK_CONFIGS, ids=lambda c: f"n{c.n}-seed{c.seed}-samples{c.samples}")
def test_block_stacked_checks_equal_the_per_sample_loops_byte_for_byte(name, cfg, monkeypatch):
    report = dataclasses.replace(run_check(name, cfg), wall_time_ms=0)
    # the reference loop's observations with the check's own bounds
    monkeypatch.setitem(CHECKS, name, lambda c: (REFERENCE_CHECKS[name](c), report.expected))
    reference = dataclasses.replace(run_check(name, cfg), wall_time_ms=0)
    assert report.to_json() == reference.to_json()


def test_centralizer_calls_of_moment_equation_and_su2_exceptional_are_stacked(monkeypatch):
    calls = []
    jcd = harness.joint_centralizer_dim
    monkeypatch.setattr(harness, "joint_centralizer_dim", lambda a, g: calls.append((a, g)) or jcd(a, g))
    cfg = ExperimentConfig(n=3, seed=5, samples=2 * SAMPLE_BLOCK + 3)
    run_check("moment-equation", cfg)
    # one call per block, on the stacks of the per-sample solutions and group elements
    assert [(len(a), len(g), a[0].shape) for a, g in calls] == [(1, 1, (k, 3, 3)) for k in (8, 8, 3)]
    pairs = [(J, g) for _, g, _, J in _reference_moment_equation_pairs(cfg)]
    for part, stack in enumerate(np.concatenate([[a[0], g[0]] for a, g in calls], axis=1)):
        assert stack.tobytes() == np.array([pair[part] for pair in pairs]).tobytes()
    calls.clear()
    run_check("su2-exceptional", cfg)
    # one call over the off-point samples, each image pair bit for bit
    ((algebra, group),) = calls
    images = list(_reference_off_point_images(cfg))
    assert group == [] and len(images) == cfg.samples
    for got, part in zip(algebra, ("X", "Y")):
        assert got.tobytes() == np.array([getattr(z, part) for z in images]).tobytes()


def test_phase_blocks_stack_the_sample_points_in_order():
    ctx = GroupContext(3)
    cfg = ExperimentConfig(n=3, seed=5, samples=2 * SAMPLE_BLOCK + 3)
    points = [x for _, x in _reference_sample_points(cfg, ctx, cfg.samples)]
    blocks = list(_blocks(cfg, ctx, cfg.samples))
    assert [len(rngs) for rngs, _ in blocks] == [SAMPLE_BLOCK, SAMPLE_BLOCK, 3]
    assert [len(xs.g) for _, xs in blocks] == [SAMPLE_BLOCK, SAMPLE_BLOCK, 3]
    for part in ("g", "J"):
        stacked = np.concatenate([getattr(xs, part) for _, xs in blocks])
        assert stacked.tobytes() == np.array([getattr(x, part) for x in points]).tobytes()


@pytest.mark.parametrize("count", [1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_block_drawer_equals_the_per_generator_draws_bit_for_bit(n, count):
    ctx = GroupContext(n)
    cfg = ExperimentConfig(n=n, seed=40 + n)
    blocks = list(_blocks(cfg, ctx, count))
    got = [(rng, x) for rngs, xs in blocks for rng, x in zip(rngs, xs)]
    want = list(_reference_sample_points(cfg, ctx, count))
    assert len(got) == len(want) == count
    for (rng, x), (ref_rng, ref) in zip(got, want):
        assert x.g.tobytes() == ref.g.tobytes() and x.J.tobytes() == ref.J.tobytes()
        # each generator goes on from where its own one-point draw left it
        assert rng.standard_normal(4).tobytes() == ref_rng.standard_normal(4).tobytes()
    assert [len(xs.g) for _, xs in blocks] == [min(SAMPLE_BLOCK, count - s) for s in range(0, count, SAMPLE_BLOCK)]
    for part in ("g", "J"):
        stacked = np.concatenate([getattr(xs, part) for _, xs in blocks])
        assert stacked.tobytes() == np.array([getattr(x, part) for _, x in want]).tobytes()


def test_samples_are_drawn_one_block_at_a_time_through_random_phase_point(monkeypatch):
    sizes = []
    draw = harness.random_phase_point
    monkeypatch.setattr(harness, "random_phase_point", lambda ctx, seed: sizes.append(len(seed)) or draw(ctx, seed))
    cfg = ExperimentConfig(n=3, seed=1, samples=50)
    next(_blocks(cfg, GroupContext(3), cfg.samples))
    assert sizes == [SAMPLE_BLOCK]
    sizes.clear()
    emit_plot_data("reduced-const-span", cfg)
    assert sizes == [SAMPLE_BLOCK]
    for name in ("strata-census", "psi-poisson", "bracket-axioms"):
        sizes.clear()
        run_check(name, dataclasses.replace(cfg, n=2, samples=SAMPLE_BLOCK + 1))
        assert sizes == [SAMPLE_BLOCK, 1], name


def _keep_nothing(monkeypatch):
    """Make every sample fall off every stratum: all flags of ``classify``, and
    the regular-momentum filter of ``dpsi-rank``, read False; returns the
    stack shapes that filter was called on."""
    classify, calls = rd.classify, []

    def off_every_stratum(x):
        flags = classify(x)
        none = np.zeros_like(flags.principal)
        return dataclasses.replace(
            flags, regular_momentum=none, principal=none, image_principal=none, regular_moment=none
        )

    monkeypatch.setattr(rd, "classify", off_every_stratum)
    monkeypatch.setattr(
        harness, "is_regular", lambda J: calls.append(J.shape[:-2]) or np.zeros(J.shape[:-2], dtype=bool)
    )
    return calls


@pytest.mark.parametrize(
    "name, key",
    [("dpsi-rank", "rank"), ("reduced-ham-span", "span"), ("reduced-const-span", "final_span"), ("leaf-codim", "codim")],
)
def test_a_check_that_keeps_no_sample_reports_minus_one_and_fails(name, key, monkeypatch):
    calls = _keep_nothing(monkeypatch)
    report = run_check(name, ExperimentConfig(n=3, seed=1, samples=SAMPLE_BLOCK + 1))
    assert report.observed[f"min_{key}"] == report.observed[f"max_{key}"] == -1
    assert report.expected[f"min_{key}"]["value"] == report.expected[f"max_{key}"]["value"] > 0
    assert report.passed is False
    # dpsi-rank filters each block with one stacked call
    assert calls == ([(SAMPLE_BLOCK,), (1,)] if name == "dpsi-rank" else [])


def test_plot_data_of_reduced_const_span_needs_a_sample_on_the_stratum(monkeypatch):
    _keep_nothing(monkeypatch)
    with pytest.raises(UsageError, match="stratum"):
        emit_plot_data("reduced-const-span", ExperimentConfig(n=3, seed=1, samples=SAMPLE_BLOCK + 1))


def test_centrality_certifies_every_sample_it_reports(monkeypatch):
    # the sample count in the report is the number of points certified
    sizes = []
    draw = harness.random_phase_point
    monkeypatch.setattr(harness, "random_phase_point", lambda ctx, seed: sizes.append(len(seed)) or draw(ctx, seed))
    report = run_check("centrality", ExperimentConfig(n=2, seed=1, samples=60))
    assert sum(sizes) == report.samples == 60


def test_reduced_const_span_memory_does_not_grow_with_samples():
    # one block is the unit of work, so eight times the samples may not take
    # eight times the memory; a first run fills the caches
    def peak(samples):
        cfg = ExperimentConfig(n=3, seed=1, samples=samples)
        tracemalloc.start()
        try:
            run_check("reduced-const-span", cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_check("reduced-const-span", ExperimentConfig(n=3, seed=1, samples=SAMPLE_BLOCK))
    assert peak(8 * SAMPLE_BLOCK) <= 1.25 * peak(SAMPLE_BLOCK)


# --- bracket-axioms from two kernel calls per sample ------------------------
# The check as it ran before it took its gradients once per sample: a kernel
# call per bracket, product and velocity, and one stencil per Jacobi term.


def _reference_one_fd_bracket_with(F_value, H, x, h):
    gH, a = gradients(H, x)
    b = -gH - lie_bracket(x.J, a)
    speed = float(np.sqrt(inner(a, a) + inner(b, b)))
    if speed == 0.0:
        return 0.0
    s = max(h, 6e-4) / max(speed, 1.0)
    f = F_value(shift(x, a, b, [s, -s, 2.0 * s, -2.0 * s]))
    return float((8.0 * (f[0] - f[1]) - (f[2] - f[3])) / (12.0 * s))


def _reference_bracket_axioms(cfg, nested):
    ctx = GroupContext(cfg.n)
    worst_anti = worst_leibniz = worst_jacobi = worst_product_fd = 0.0
    for rng, x in _reference_sample_points(cfg, ctx, cfg.samples):
        F, G, H = (w.random_observable(rng, w.PHASE_LETTERS, max_len=3) for _ in range(3))

        worst_anti = max(
            worst_anti, abs(poisson_bracket(F, H, x) + poisson_bracket(H, F, x))
        )

        fv, gv = evaluate(F, x), evaluate(G, x)
        (gF, dF), (gG, dG) = gradients(F, x), gradients(G, x)
        left, fiber = fv * gG + gv * gF, fv * dG + gv * dF
        lhs = bracket_from_gradients(x.J, (left, fiber), gradients(H, x))
        rhs = evaluate(F, x) * poisson_bracket(G, H, x) + evaluate(G, x) * poisson_bracket(F, H, x)
        worst_leibniz = max(worst_leibniz, abs(lhs - rhs))
        prod = lambda y: evaluate(F, y) * evaluate(G, y)
        fd = fd_directional(prod, x, *chart_basis(ctx), H_FD)
        coords = basis_coordinates(ctx, np.stack([left, fiber])).ravel()
        worst_product_fd = max((worst_product_fd, *abs(fd - coords)))

        total = 0.0
        nested.append([])
        for A, B, C in ((F, G, H), (G, H, F), (H, F, G)):
            # {A, {B, C}} = -d({B, C}) along the Hamiltonian direction of A
            pair = lambda y: poisson_bracket(B, C, y)
            nested[-1].append(_reference_one_fd_bracket_with(pair, A, x, H_FD))
            total += -nested[-1][-1]
        worst_jacobi = max(worst_jacobi, abs(total))
    return {
        "max_antisymmetry_defect": worst_anti,
        "max_leibniz_defect": worst_leibniz,
        "max_jacobi_defect": worst_jacobi,
        "max_product_gradient_fd_defect": worst_product_fd,
    }


BRACKET_CONFIGS = [
    ExperimentConfig(n=n, seed=seed, samples=samples)
    for seed in (1, 97)
    for n, samples in ((2, 50), (3, 50), (5, 20), (8, 3))
]


@pytest.mark.parametrize("cfg", BRACKET_CONFIGS, ids=lambda c: f"n{c.n}-seed{c.seed}-samples{c.samples}")
def test_bracket_axioms_equals_the_per_bracket_check_byte_for_byte(cfg, monkeypatch):
    # every nested Jacobi bracket, stencil by stencil, as well as the report;
    # one stencil call per block returns the (3, S) brackets of its samples
    stacked, reference, calls = [], [], []
    fd_bracket_with = harness.fd_bracket_with

    def recording(*args):
        values = fd_bracket_with(*args)
        calls.append(values.shape)
        stacked.extend(values.T.tolist())
        return values

    monkeypatch.setattr(harness, "fd_bracket_with", recording)
    report = dataclasses.replace(run_check("bracket-axioms", cfg), wall_time_ms=0)
    check = lambda c: (_reference_bracket_axioms(c, reference), report.expected)
    monkeypatch.setitem(CHECKS, "bracket-axioms", check)
    expected = dataclasses.replace(run_check("bracket-axioms", cfg), wall_time_ms=0)
    assert report.to_json() == expected.to_json()
    assert calls == [(3, min(SAMPLE_BLOCK, cfg.samples - s)) for s in range(0, cfg.samples, SAMPLE_BLOCK)]
    assert len(stacked) == cfg.samples
    assert stacked == reference

