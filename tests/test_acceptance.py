"""Acceptance suite: every headline claim at its stated tolerance.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see them
inline). Criterion 8's diagonal case certifies the derived invariant span 2
at the pair (X, X) for n=2 against an oracle built from the closed-form
differentials of the three pairings <X,X>, <X,Y>, <Y,Y>. The stated value 4
(the orbit codimension, which only applies on the principal stratum) stays
recorded as a failing bound in the ``invariant-span-double`` report.
"""

import time

import numpy as np
import pytest

from redint.groups import (
    TAU_RANK,
    GroupContext,
    basis_coordinates,
    numerical_rank,
    random_algebra,
)
from redint.harness import ExperimentConfig, run_check, sample_rng
from redint.su2 import (
    SliceCoords,
    exceptional_point_audit,
    reduced_dynamics_match,
)

SEED = 20240811


def announce(num, label, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num:>2} {status}  {label}  [{detail}]")
    return passed


def cfg(n, samples, max_word_len=4, t_max=10.0, seed=SEED):
    return ExperimentConfig(n=n, seed=seed, samples=samples, max_word_len=max_word_len, t_max=t_max)


def test_criterion_01_bracket_axioms():
    start = time.perf_counter()
    reports = [run_check("bracket-axioms", cfg(n, samples=100)) for n in (2, 3)]
    elapsed = time.perf_counter() - start
    worst = {
        key: max(rep.observed[key] for rep in reports)
        for key in ("max_antisymmetry_defect", "max_leibniz_defect", "max_jacobi_defect")
    }
    ok = (
        all(rep.passed for rep in reports)
        and worst["max_antisymmetry_defect"] <= 1e-14
        and worst["max_leibniz_defect"] <= 1e-9
        and worst["max_jacobi_defect"] <= 1e-6
        and elapsed < 30.0
    )
    assert announce(
        1,
        "bracket axioms (antisymmetry/Leibniz/Jacobi), 100 triples, n=2,3",
        ok,
        f"anti {worst['max_antisymmetry_defect']:.1e}, leibniz {worst['max_leibniz_defect']:.1e}, "
        f"jacobi {worst['max_jacobi_defect']:.1e}, {elapsed:.1f}s",
    )


def test_criterion_02_flow_conservation():
    reports = [run_check("flow-conservation", cfg(n, samples=50, t_max=10.0)) for n in (2, 3)]
    drift = max(rep.observed["max_drift"] for rep in reports)
    ok = all(rep.passed for rep in reports) and drift <= 1e-10
    assert announce(
        2,
        "constants map constant along free flows, 50 points, t in [0,10], n=2,3",
        ok,
        f"max drift {drift:.1e}",
    )


def test_criterion_03_poisson_map():
    reports = [run_check("psi-poisson", cfg(n, samples=100)) for n in (2, 3)]
    defect = max(rep.observed["max_defect"] for rep in reports)
    ok = all(rep.passed for rep in reports) and defect <= 1e-8
    assert announce(
        3,
        "constants map is Poisson onto the double, 100 word pairs, n=2,3",
        ok,
        f"max defect {defect:.1e}",
    )


def test_criterion_04_differential_rank():
    ok = True
    details = []
    for n, full in ((2, 5), (3, 14)):
        rep = run_check("dpsi-rank", cfg(n, samples=50))
        ctx = GroupContext(n)
        ok &= rep.passed
        ok &= rep.observed["min_rank"] == full and rep.observed["max_rank"] == full
        ok &= rep.observed["rank_at_zero_momentum"] == ctx.dim_g
        details.append(f"n={n}: rank {rep.observed['min_rank']}, zero-momentum {rep.observed['rank_at_zero_momentum']}")
    assert announce(4, "constants-map differential rank, 50 points, n=2,3", ok, "; ".join(details))


def test_criterion_05_reduced_hamiltonian_span():
    ok = True
    details = []
    for n, r in ((2, 1), (3, 2)):
        rep = run_check("reduced-ham-span", cfg(n, samples=50))
        ok &= rep.passed
        ok &= rep.observed["min_span"] == r and rep.observed["max_span"] == r
        ok &= rep.observed["deficit_bound_violations"] == 0
        details.append(f"n={n}: span {rep.observed['min_span']}, deficit violations {rep.observed['deficit_bound_violations']}")
    assert announce(
        5, "projected Hamiltonian span and stabilizer deficit bound, 50 points", ok, "; ".join(details)
    )


def test_criterion_06_constants_span_centrality_and_rank_count():
    ok = True
    details = []
    for n, max_len, target in ((2, 4, 2), (3, 6, 6)):
        rep = run_check("reduced-const-span", cfg(n, samples=50, max_word_len=max_len))
        ok &= rep.passed
        ok &= rep.observed["min_final_span"] == target and rep.observed["max_final_span"] == target
        details.append(f"n={n}: span plateau {rep.observed['min_final_span']} by length {rep.observed['plateau_word_length']}")
    for n in (2, 3):
        rep = run_check("centrality", cfg(n, samples=50))
        ok &= rep.passed
        details.append(f"n={n}: centrality {rep.observed['max_defect']:.1e}")
    # rank-count arithmetic: strictly degenerate only beyond the smallest case
    for n in (2, 3):
        ctx = GroupContext(n)
        r, codim = ctx.rank, ctx.dim_g - ctx.rank
        if n == 2:
            ok &= 2 * r == codim
        else:
            ok &= 2 * r < codim
    assert announce(
        6, "constants-span plateau, Casimir centrality, degeneracy count", ok, "; ".join(details)
    )


def test_criterion_07_leaf_codimension():
    ok = True
    details = []
    for n, r in ((2, 1), (3, 2)):
        rep = run_check("leaf-codim", cfg(n, samples=50))
        ok &= rep.passed
        ok &= rep.observed["min_codim"] == r and rep.observed["max_codim"] == r
        details.append(f"n={n}: codim {rep.observed['min_codim']}")
    assert announce(7, "moment Casimirs cut leaves of codimension rank, 50 points", ok, "; ".join(details))


def test_criterion_08_invariant_span_generic():
    ok = True
    details = []
    for n, max_len in ((2, 4), (3, 6)):
        rep = run_check("invariant-span-double", cfg(n, samples=50, max_word_len=max_len))
        ok &= rep.observed["generic_mismatches"] == 0
        details.append(f"n={n}: generic mismatches {rep.observed['generic_mismatches']}")
    assert announce(
        8, "invariant differentials span the orbit codimension at generic pairs", ok, "; ".join(details)
    )


def test_criterion_08_invariant_span_diagonal_case():
    # The diagonal pair (X, X) for n=2 lies off the principal stratum, so the
    # orbit codimension 4 is not the invariant span there. SU(2) acts on su(2)
    # as SO(3) on R^3; by the first fundamental theorem of invariant theory
    # (Weyl, The Classical Groups) every invariant of a pair factors through
    # <X,X>, <X,Y>, <Y,Y>. Their differentials (2X, 0), (X, X), (0, 2X) are
    # written down here without trace words or the reduction module and span
    # 2 directions at (X, X); the report's span must equal that rank. The
    # stated value 4 stays recorded as a failing bound in the report.
    config = cfg(2, samples=50, max_word_len=4)
    rep = run_check("invariant-span-double", config)
    span = rep.observed["diagonal_span"]
    codim = rep.observed["diagonal_orbit_codim"]

    ctx = GroupContext(2)
    # the harness's diagonal point: one draw past the generic samples
    X = random_algebra(ctx, sample_rng(config.seed, config.samples))
    zero = np.zeros_like(X)
    pairing_rows = np.array(
        [
            np.concatenate([basis_coordinates(ctx, a), basis_coordinates(ctx, b)])
            for a, b in ((2 * X, zero), (X, X), (zero, 2 * X))
        ]
    )
    oracle, _ = numerical_rank(pairing_rows, TAU_RANK)
    # dim (su(2) + su(2)) / SU(2) = 2 dim_g - dim_g: a generic pair has a
    # finite stabilizer, so its orbit has full dimension dim_g
    quotient_dim = ctx.dim_g

    ok = codim == 4 and oracle == 2 and span == oracle and span < codim and span <= quotient_dim
    assert announce(
        8,
        "invariant span at the diagonal pair equals the pairing-differential rank (derived: 2)",
        ok,
        f"computed span {span}, pairing rank {oracle}, orbit codimension {codim}, "
        f"quotient dimension {quotient_dim}",
    )


def test_criterion_09_apposition_and_moment_equation():
    ok = True
    details = []
    for n in (2, 3, 4, 5):
        frame_rep = run_check("apposition", cfg(n, samples=1))
        solve_rep = run_check("moment-equation", cfg(n, samples=50))
        ok &= frame_rep.passed and solve_rep.passed
        details.append(
            f"n={n}: orth {frame_rep.observed['orthogonality_residual']:.1e}, "
            f"residual {solve_rep.observed['max_residual']:.1e}, "
            f"isotropy violations {solve_rep.observed['isotropy_violations']}"
        )
    assert announce(9, "torus pair invariants and moment equation, n=2..5", ok, "; ".join(details))


def test_criterion_10_su2_model():
    start = time.perf_counter()
    energy = run_check("su2-energy", cfg(2, samples=1))
    exceptional = run_check("su2-exceptional", cfg(2, samples=50))
    dynamics = run_check("su2-dynamics", cfg(2, samples=1))
    ok = energy.passed and exceptional.passed and dynamics.passed
    audits = [exceptional_point_audit(x_val) for x_val in (1.0, 2.0)]
    ok &= all(a.image_stabilizer_dim == 1 and a.projected_span == 0 for a in audits)
    ok &= audits[0].grid_min_energy == pytest.approx(0.125)
    ok &= audits[1].grid_min_energy == pytest.approx(0.5)
    comp = reduced_dynamics_match(SliceCoords(np.pi / 3, 0.0, 1.0), T=2.0, steps=10_000)
    ok &= comp.max_deviation <= 1e-6
    elapsed = time.perf_counter() - start
    assert announce(
        10,
        "SU(2): energy identity, closed forms, equilibrium audit, reduced dynamics",
        ok,
        f"energy {energy.observed['max_energy_identity_residual']:.1e}, "
        f"dynamics {dynamics.observed['max_deviation']:.1e}, {elapsed:.1f}s",
    )
