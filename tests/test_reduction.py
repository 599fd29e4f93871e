"""Tests for the stratification and the quotient rank certificates."""

import numpy as np
import pytest

from redint.apposition import build_frame, random_partner_algebra, random_torus_group, solve_moment_equation
from redint.free_motion import (
    DoublePoint,
    casimir,
    casimir_gradient,
    casimir_value,
    constants_map,
    pullback,
    slot_gradients,
)
from redint.groups import (
    H_FD,
    TAU_RANK,
    GroupContext,
    StructureError,
    adjoint,
    basis_coordinates,
    basis_stack,
    centralizer_basis,
    from_coordinates,
    lie_bracket,
    joint_centralizer_dim,
    kernel_basis,
    numerical_rank,
    orthonormal_basis,
    random_algebra,
    random_group,
)
from redint.phase import (
    PhasePoint,
    act,
    bracket_from_gradients,
    chart_basis,
    gradients,
    moment_map,
    random_phase_point,
)
from redint.reduction import (
    centrality_defect,
    chart_rows,
    classify,
    double_differential_matrix,
    double_orbit_dim,
    gauge_matrix,
    hamiltonian_matrix,
    hamiltonian_span_inside_constants,
    invariant_span_double,
    leaf_codim,
    max_centrality_defect,
    moment_casimir_matrix,
    pullback_differential_row,
    quotient_rank,
    reduced_hamiltonian_span,
    span_plateau,
    word_generators,
)
from redint.su2 import EXCEPTIONAL_Q, SliceCoords, slice_point
from redint.words import evaluate, observable, word

from finite_differences import fd_directional

CTX2 = GroupContext(2)
CTX3 = GroupContext(3)


def test_classify_apposition_pair_is_principal():
    frame = build_frame(2)
    g = random_torus_group(frame, 101)
    zeta = random_partner_algebra(frame, 102)
    J = solve_moment_equation(g, zeta)
    flags = classify(PhasePoint(g, J))
    assert flags.principal


def test_classify_exceptional_slice_point():
    x = slice_point(SliceCoords(EXCEPTIONAL_Q, 0.0, 1.0))
    flags = classify(x)
    assert flags.principal
    assert not flags.image_principal


@pytest.mark.parametrize("ctx", [CTX2, CTX3])
def test_classify_full_measure_stratum(ctx):
    rng = np.random.default_rng(37)
    flags = [classify(random_phase_point(ctx, rng)) for _ in range(500)]
    assert all(f.image_principal for f in flags)
    assert all(f.principal for f in flags)
    assert all(f.regular_momentum for f in flags)


def test_classify_is_gauge_invariant():
    rng = np.random.default_rng(39)
    for ctx in (CTX2, CTX3):
        x = random_phase_point(ctx, rng)
        f0 = classify(x)
        for _ in range(3):
            f1 = classify(act(random_group(ctx, rng), x))
            assert f0 == f1


@pytest.mark.parametrize("n", [2, 3, 5])
def test_classify_carries_the_image_stabilizer_dimension(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(60 + n)
    x = random_phase_point(ctx, rng)
    # the identity image point of a central g and J = 0 is fixed by everything
    still = PhasePoint(np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex))
    for point in (x, still):
        flags = classify(point)
        z = constants_map(point)
        assert flags.image_stabilizer_dim == joint_centralizer_dim([z.X, z.Y], [])
        assert not flags.image_principal or flags.image_stabilizer_dim == 0
        assert "image_stabilizer_dim" not in repr(flags)
    assert classify(x).image_stabilizer_dim == 0
    assert classify(still).image_stabilizer_dim == ctx.dim_g


def test_gauge_directions_edge_cases():
    x = PhasePoint(np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex))
    assert gauge_matrix(x).shape == (CTX2.dim_g, 2 * CTX2.dim_g)
    assert np.abs(gauge_matrix(x)).max() < 1e-14
    rng = np.random.default_rng(41)
    central = np.exp(2j * np.pi / 3) * np.eye(3)
    y = PhasePoint(central, random_algebra(CTX3, rng))
    W = gauge_matrix(y)
    assert np.abs(W[:, : CTX3.dim_g]).max() < 1e-12
    assert np.linalg.matrix_rank(W[:, CTX3.dim_g :], tol=1e-8) == CTX3.dim_g - CTX3.rank


def test_gauge_directions_have_full_rank_on_principal_points():
    rng = np.random.default_rng(43)
    for ctx in (CTX2, CTX3):
        x = random_phase_point(ctx, rng)
        assert np.linalg.matrix_rank(gauge_matrix(x), tol=1e-8) == ctx.dim_g


@pytest.mark.parametrize("n", [2, 3, 5])
def test_gauge_matrix_equals_gauge_direction_coordinates_bit_for_bit(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(45)
    for _ in range(3):
        x = random_phase_point(ctx, rng)
        W = np.array([_tangent_coordinates(ctx, *v) for v in _reference_gauge_directions(x)])
        assert gauge_matrix(x).tobytes() == W.tobytes()


def test_hamiltonian_directions():
    diag = PhasePoint(np.eye(2, dtype=complex), np.diag([1j, -1j]))
    V = hamiltonian_matrix(diag)
    assert V.shape == (1, 2 * CTX2.dim_g)
    # the off-diagonal basis elements lead the basis: the direction is Cartan
    assert np.abs(V[0, : CTX2.dim_g - CTX2.rank]).max() < 1e-12
    assert np.abs(V[0, CTX2.dim_g - CTX2.rank : CTX2.dim_g]).max() > 0.5
    assert not np.any(V[0, CTX2.dim_g :])
    with pytest.raises(StructureError):
        hamiltonian_matrix(PhasePoint(np.eye(2, dtype=complex), np.zeros((2, 2))))


def test_hamiltonian_directions_are_ad_covariant_as_subspaces():
    rng = np.random.default_rng(47)
    x = random_phase_point(CTX3, rng)
    eta = random_group(CTX3, rng)
    moved = hamiltonian_matrix(act(eta, x))
    kernel = adjoint(eta, np.array(centralizer_basis(x.J, CTX3.rank)))
    conj = chart_rows(CTX3, kernel, np.zeros_like(kernel))
    Q1, _ = np.linalg.qr(moved.T)
    Q2, _ = np.linalg.qr(conj.T)
    overlap = np.linalg.svd(Q1.T @ Q2, compute_uv=False)
    assert overlap.min() > 1.0 - 1e-8


@pytest.mark.parametrize("ctx", [CTX2, CTX3])
def test_reduced_hamiltonian_span_generic(ctx):
    rng = np.random.default_rng(49)
    for _ in range(20):
        x = random_phase_point(ctx, rng)
        assert reduced_hamiltonian_span(x) == ctx.rank


def test_reduced_hamiltonian_span_drops_at_exceptional_point():
    x = slice_point(SliceCoords(EXCEPTIONAL_Q, 0.0, 1.0))
    assert reduced_hamiltonian_span(x) == 0
    # span deficit is accounted for by the stabilizer of the image pair
    z = constants_map(x)
    deficit = CTX2.rank - 0
    assert deficit <= joint_centralizer_dim([z.X, z.Y], [])


def test_word_generators_contract():
    gens1 = word_generators(1)
    assert len(gens1) == 4  # Re/Im tr X, Re/Im tr Y before any pruning
    gens2 = word_generators(2)
    letters = {g.words[0].letters for g in gens2}
    assert ("X", "Y") in letters or ("Y", "X") in letters
    assert word_generators(3) == word_generators.__wrapped__(3)
    assert word_generators(3) is word_generators(3)
    assert isinstance(gens2, tuple)
    assert word_generators(4)[: len(gens2)] == gens2
    with pytest.raises(ValueError):
        word_generators(0)


def test_word_generators_values_are_conjugation_invariant():
    rng = np.random.default_rng(53)
    z = DoublePoint(random_algebra(CTX3, rng), random_algebra(CTX3, rng))
    eta = random_group(CTX3, rng)
    moved = DoublePoint(adjoint(eta, z.X), adjoint(eta, z.Y))
    for gen in word_generators(4):
        env0 = {"X": z.X, "Y": z.Y}
        env1 = {"X": moved.X, "Y": moved.Y}
        assert evaluate(gen, env1) == pytest.approx(evaluate(gen, env0), abs=1e-10)


@pytest.mark.parametrize("ctx,max_len", [(CTX2, 4), (CTX3, 6)])
def test_reduced_constants_span_plateau(ctx, max_len):
    rng = np.random.default_rng(59)
    target = ctx.dim_g - ctx.rank
    for _ in range(5):
        x = random_phase_point(ctx, rng)
        sweep = span_plateau(x, max_len)
        assert sweep[-1] == target
        assert all(b >= a for a, b in zip(sweep, sweep[1:]))


@pytest.mark.parametrize("ctx,max_len", [(CTX2, 4), (CTX3, 6)])
def test_span_plateau_equals_the_per_length_spans(ctx, max_len):
    rng = np.random.default_rng(60)
    for _ in range(3):
        x = random_phase_point(ctx, rng)
        per_length = [
            numerical_rank(pullback_differential_row(x, word_generators(k)), TAU_RANK)[0]
            for k in range(1, max_len + 1)
        ]
        assert span_plateau(x, max_len) == per_length


def test_pullback_differential_row_matches_finite_differences():
    rng = np.random.default_rng(61)
    from redint.free_motion import evaluate_double

    x = random_phase_point(CTX2, rng)
    gens = word_generators(3)[:6]
    for gen, row in zip(gens, pullback_differential_row(x, gens)):
        for col, (a, b) in enumerate(zip(*chart_basis(CTX2))):
            fd = fd_directional(
                lambda y: evaluate_double(gen, constants_map(y)), x, a, b, H_FD
            )
            assert abs(fd - row[col]) < 1e-6


@pytest.mark.parametrize("ctx", [CTX2, CTX3])
def test_centrality_of_casimirs(ctx):
    rng = np.random.default_rng(67)
    gens = word_generators(4)
    worst = 0.0
    for _ in range(10):
        x = random_phase_point(ctx, rng)
        for k in range(2, ctx.n + 1):
            for gen in gens:
                worst = max(worst, centrality_defect(x, k, gen))
    assert worst < 1e-8


def test_centrality_with_second_slot_words_is_machine_precision():
    rng = np.random.default_rng(71)
    x = random_phase_point(CTX2, rng)
    gen = observable(word(("Y", "Y")))
    assert centrality_defect(x, 2, gen) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5])
def test_max_centrality_defect_equals_the_per_pair_defects_bit_for_bit(n):
    rng = np.random.default_rng(70 + n)
    # Re tr(YY) has second-slot letters only
    gens = word_generators(4) + (observable(word(("Y", "Y"))),)
    for _ in range(3 if n < 5 else 2):
        x = random_phase_point(GroupContext(n), rng)
        want = max(centrality_defect(x, k, gen) for k in range(2, n + 1) for gen in gens)
        assert max_centrality_defect(x, gens) == want
        assert max_centrality_defect(x, gens[-1:]) == max(
            centrality_defect(x, k, gens[-1]) for k in range(2, n + 1)
        )


# References: the per-vector, per-k and per-generator formulas, one
# coordinate call per matrix and one gradient call per word and slot.


def _tangent_coordinates(ctx, a, b):
    return np.concatenate([basis_coordinates(ctx, a), basis_coordinates(ctx, b)])


def _reference_gauge_directions(x):
    """``(Y - Ad_g Y, [Y, J])``, the velocity of ``act(e^{tY}, x)``, per basis element."""
    return [(Y - adjoint(x.g, Y), lie_bracket(Y, x.J)) for Y in orthonormal_basis(x.context)]


def _reference_hamiltonian_rows(x):
    zero = np.zeros((x.n, x.n), dtype=complex)
    return np.array([_tangent_coordinates(x.context, X, zero) for X in centralizer_basis(x.J, x.context.rank)])


def _reference_moment_casimir_row(x, k):
    grad = casimir_gradient(k, moment_map(x))
    pushed = adjoint(x.g, grad)
    coords = basis_coordinates(x.context, np.array([lie_bracket(pushed, x.J), grad - pushed]))
    return np.concatenate([-coords[0], coords[1]])


def _reference_pullback_row(x, gen):
    gX, gY = slot_gradients(gen, constants_map(x))
    pushed = adjoint(x.g, gX)
    return basis_coordinates(x.context, np.array([lie_bracket(pushed, x.J), pushed + gY])).ravel()


def _reference_double_differential_matrix(z, gens):
    ctx = GroupContext(z.n)
    return np.array(
        [basis_coordinates(ctx, np.array(slot_gradients(gen, z))).ravel() for gen in gens]
    )


def _reference_max_centrality_defect(x, gens):
    grads = [gradients(pullback(gen), x) for gen in gens]
    worst = 0.0
    for k in range(2, x.n + 1):
        ck = gradients(pullback(casimir(k, "Y")), x)
        for gh in grads:
            worst = max(worst, abs(bracket_from_gradients(x.J, ck, gh)))
    return worst


def _mixed_generators(ctx, rng):
    # invariant words, and pairings with a constant that differ only in it
    e, f = random_algebra(ctx, rng), random_algebra(ctx, rng)
    return word_generators(5) + (
        observable(word((e, "X", "Y"), "im", 0.5)),
        observable(word((f, "X", "Y"), "im", 0.5), word(("Y", "X", "X"), "re", -2.0)),
    )


@pytest.mark.parametrize("n", [2, 3, 5])
def test_differential_matrices_equal_the_per_generator_formulas_bit_for_bit(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(110 + n)
    for _ in range(3):
        gens = _mixed_generators(ctx, rng)
        x = random_phase_point(ctx, rng)
        want = np.array([_reference_pullback_row(x, gen) for gen in gens])
        assert pullback_differential_row(x, gens).tobytes() == want.tobytes()
        assert pullback_differential_row(x, gens[7:8]).tobytes() == want[7:8].tobytes()
        z = DoublePoint(random_algebra(ctx, rng), random_algebra(ctx, rng))
        want = _reference_double_differential_matrix(z, gens)
        assert double_differential_matrix(z, gens).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_chart_rows_equal_the_per_vector_coordinates_bit_for_bit(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(130 + n)
    a = np.array([random_algebra(ctx, rng) for _ in range(7)])
    b = np.array([random_algebra(ctx, rng) for _ in range(7)])
    want = np.array([_tangent_coordinates(ctx, ai, bi) for ai, bi in zip(a, b)])
    assert chart_rows(ctx, a, b).shape == (7, 2 * ctx.dim_g)
    assert chart_rows(ctx, a, b).tobytes() == want.tobytes()
    assert chart_rows(ctx, a[:1], b[:1]).tobytes() == want[:1].tobytes()
    # a stack of points: one row block per point, the gather taken per point
    stacked = chart_rows(ctx, np.array([a, b]), np.array([b, a]))
    assert stacked.shape == (2, 7, 2 * ctx.dim_g)
    assert stacked[0].tobytes() == want.tobytes()
    assert stacked[1].tobytes() == chart_rows(ctx, b, a).tobytes()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_hamiltonian_matrix_equals_the_per_vector_rows_bit_for_bit(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(140 + n)
    for _ in range(3):
        x = random_phase_point(ctx, rng)
        want = _reference_hamiltonian_rows(x)
        assert want.shape == (ctx.rank, 2 * ctx.dim_g)
        assert hamiltonian_matrix(x).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_moment_casimir_matrix_equals_the_per_k_rows_bit_for_bit(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(150 + n)
    for _ in range(3):
        x = random_phase_point(ctx, rng)
        want = np.array([_reference_moment_casimir_row(x, k) for k in range(2, n + 1)])
        assert moment_casimir_matrix(x).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_max_centrality_defect_equals_the_per_generator_formula(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(120 + n)
    for _ in range(3):
        gens = _mixed_generators(ctx, rng)
        x = random_phase_point(ctx, rng)
        assert max_centrality_defect(x, gens) == _reference_max_centrality_defect(x, gens)


@pytest.mark.parametrize("ctx", [CTX2, CTX3])
def test_leaf_codim(ctx):
    rng = np.random.default_rng(73)
    for _ in range(10):
        x = random_phase_point(ctx, rng)
        flags = classify(x)
        if flags.principal and flags.regular_moment:
            assert leaf_codim(x) == ctx.rank


def test_leaf_codim_vanishes_at_zero_moment():
    rng = np.random.default_rng(79)
    J = random_algebra(CTX2, rng)
    x = PhasePoint(np.eye(2, dtype=complex), J)  # moment value is zero here
    assert np.linalg.norm(moment_map(x)) < 1e-14
    assert leaf_codim(x) == 0


def test_moment_casimir_row_matches_finite_differences():
    rng = np.random.default_rng(83)
    x = random_phase_point(CTX3, rng)
    for k, row in zip((2, 3), moment_casimir_matrix(x)):
        for col, (a, b) in enumerate(zip(*chart_basis(CTX3))):
            fd = fd_directional(
                lambda y: casimir_value(k, moment_map(y)), x, a, b, H_FD
            )
            assert abs(fd - row[col]) < 1e-5


@pytest.mark.parametrize("ctx,max_len", [(CTX2, 4), (CTX3, 6)])
def test_invariant_span_double_generic(ctx, max_len):
    rng = np.random.default_rng(89)
    gens = word_generators(max_len)
    for _ in range(5):
        z = DoublePoint(random_algebra(ctx, rng), random_algebra(ctx, rng))
        assert invariant_span_double(z, gens) == 2 * ctx.dim_g - double_orbit_dim(z)


def test_invariant_span_double_at_diagonal_pair():
    # Off the principal stratum the orbit-codimension count no longer applies:
    # every invariant factors through the three pairings <X,X>, <X,Y>, <Y,Y>,
    # whose differentials at (X, X) span only a two-dimensional space. The
    # computed rank certifies this with a wide singular-value gap.
    rng = np.random.default_rng(97)
    X = random_algebra(CTX2, rng)
    z = DoublePoint(X, X)
    gens = word_generators(4)
    assert double_orbit_dim(z) == 2
    assert invariant_span_double(z, gens) == 2
    s = np.linalg.svd(double_differential_matrix(z, gens), compute_uv=False)
    assert s[1] / s[0] > 1e-3 and s[2] / s[0] < 1e-12


def test_invariant_span_double_at_origin():
    z = DoublePoint(np.zeros((2, 2), dtype=complex), np.zeros((2, 2), dtype=complex))
    gens = [g for g in word_generators(4) if len(g.words[0].letters) >= 2]
    assert invariant_span_double(z, gens) == 0


@pytest.mark.parametrize("ctx,max_len", [(CTX2, 4), (CTX3, 6)])
def test_hamiltonian_differentials_lie_in_constants_span(ctx, max_len):
    rng = np.random.default_rng(101)
    gens = word_generators(max_len)
    for _ in range(5):
        x = random_phase_point(ctx, rng)
        assert hamiltonian_span_inside_constants(x, gens)


@pytest.mark.parametrize("ctx", [CTX2, CTX3])
def test_momentum_casimir_span_and_linear_pullback_span(ctx):
    # the commuting Hamiltonians span rank(G) directions; pullbacks of the
    # full coordinate functionals on the double span dim(phase) - rank(G)
    rng = np.random.default_rng(103)
    x = random_phase_point(ctx, rng)

    grads = np.array([casimir_gradient(k, x.J) for k in range(2, ctx.n + 1)])
    rows = chart_rows(ctx, np.zeros_like(grads), grads)
    assert np.linalg.matrix_rank(rows, tol=1e-10) == ctx.rank

    functionals = []
    for e in orthonormal_basis(ctx):
        functionals.append(observable(word((e, "X"), coeff=-1.0)))
        functionals.append(observable(word((e, "Y"), coeff=-1.0)))
    D = pullback_differential_row(x, functionals)
    assert np.linalg.matrix_rank(D, tol=1e-10) == ctx.dim_phase - ctx.rank


def test_quotient_rank_on_rows_with_a_known_answer():
    rng = np.random.default_rng(17)
    frame = np.linalg.qr(rng.standard_normal((12, 12)))[0].T  # orthonormal rows
    W = rng.standard_normal((6, 4)) @ frame[:4]  # gauge rows of rank 4
    inside = rng.standard_normal((2, 4)) @ frame[:4]
    outside = rng.standard_normal((3, 3)) @ frame[4:7]
    V = np.vstack([inside, outside, inside[0] + 2.0 * outside[1]])
    plain = lambda M: int(np.linalg.matrix_rank(M))
    assert quotient_rank(V, W) == 3 == plain(np.vstack([V, W])) - plain(W)
    assert quotient_rank(inside, W) == 0
    assert quotient_rank(W, W) == 0
    assert quotient_rank(outside, W) == 3
    assert quotient_rank(V, np.zeros((1, 12))) == 5 == plain(V)


def test_quotient_rank_against_plain_rank_for_invariant_rows():
    # invariant differentials land in the gauge-orthogonal complement, so the
    # subtraction never changes the answer on probe points
    rng = np.random.default_rng(107)
    x = random_phase_point(CTX2, rng)
    gens = word_generators(3)
    D = pullback_differential_row(x, gens)
    plain = np.linalg.matrix_rank(D, tol=1e-8)
    assert numerical_rank(pullback_differential_row(x, gens), TAU_RANK)[0] == plain


def _stack_points(points):
    return PhasePoint(np.array([x.g for x in points]), np.array([x.J for x in points]))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_stacked_certificates_equal_the_one_point_calls_bit_for_bit(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(170 + n)
    points = [random_phase_point(ctx, rng) for _ in range(3)]
    # off the principal stratum: the identity commutes with everything
    points.insert(1, PhasePoint(np.eye(n, dtype=complex), points[0].J))
    # one repeated eigenvalue: principal from n = 3 on, while its image is not
    # principal only because the momentum is not regular (from n = 4 on)
    eigenvalues = np.r_[0.0, 0.0, 1.0 : n - 1]
    points.append(PhasePoint(points[0].g, 1j * np.diag(eigenvalues - eigenvalues.mean())))
    xs = _stack_points(points)
    flags = classify(xs)
    for key, value in vars(flags).items():
        assert value.tolist() == [getattr(classify(x), key) for x in points]
    assert flags.principal.tolist() == [True, False, True, True, n > 2]
    assert flags.image_principal.tolist() == [True, False, True, True, False]
    gens = word_generators(3)
    rows = pullback_differential_row(xs, gens)
    assert rows.tobytes() == np.array([pullback_differential_row(x, gens) for x in points]).tobytes()
    assert span_plateau(xs, 4) == [span_plateau(x, 4) for x in points]
    worst = max(max_centrality_defect(x, gens) for x in points)
    assert max_centrality_defect(xs, gens).hex() == worst.hex()
    pairs = [(random_algebra(ctx, rng), random_algebra(ctx, rng)) for _ in range(3)]
    pairs.append((pairs[0][0], pairs[0][0]))  # the diagonal, off the principal stratum
    z = DoublePoint(*(np.array(part) for part in zip(*pairs)))
    one = [DoublePoint(X, Y) for X, Y in pairs]
    want = np.array([double_differential_matrix(zi, gens) for zi in one])
    assert double_differential_matrix(z, gens).tobytes() == want.tobytes()
    assert invariant_span_double(z, gens).tolist() == [invariant_span_double(zi, gens) for zi in one]
    assert double_orbit_dim(z).tolist() == [double_orbit_dim(zi) for zi in one]


def test_span_plateau_of_an_empty_stack_is_no_sweep():
    empty = np.zeros((0, 3, 3), dtype=complex)
    assert span_plateau(PhasePoint(empty, empty), 4) == []


# --- certificate matrices and rank stages over stacks of points -------------
# The one-point bodies these functions had before they took stacks, kept as
# references: each entry of a stacked call equals its one-point body bit for bit.


def _reference_kernel_basis(ctx, M):
    _, s, vh = np.linalg.svd(M)
    return list(from_coordinates(ctx, vh[s <= TAU_RANK * s[0]]))


def _reference_centralizer_basis(J):
    ctx = GroupContext(J.shape[0])
    B = basis_stack(ctx)
    return _reference_kernel_basis(ctx, basis_coordinates(ctx, J @ B - B @ J).T)


def _reference_gauge_matrix(x):
    B = basis_stack(x.context)
    return chart_rows(x.context, B - x.g @ B @ x.g.conj().T, B @ x.J - x.J @ B)


def _reference_hamiltonian_matrix(x):
    kernel = _reference_centralizer_basis(x.J)
    assert len(kernel) == x.context.rank
    return chart_rows(x.context, kernel, np.zeros_like(kernel))


def _reference_moment_casimir_matrix(x):
    ctx = x.context
    mu = moment_map(x)
    grads = np.array([casimir_gradient(k, mu) for k in range(2, ctx.n + 1)])
    pushed = adjoint(x.g, grads)
    rows = chart_rows(ctx, lie_bracket(pushed, x.J), grads - pushed)
    rows[:, : ctx.dim_g] *= -1.0
    return rows


def _reference_quotient_rank(V, W):
    return numerical_rank(np.vstack([V, W]), TAU_RANK)[0] - numerical_rank(W, TAU_RANK)[0]


STACKED_MATRICES = (
    (gauge_matrix, _reference_gauge_matrix),
    (hamiltonian_matrix, _reference_hamiltonian_matrix),
    (moment_casimir_matrix, _reference_moment_casimir_matrix),
    (lambda x: centralizer_basis(x.J, x.context.rank), lambda x: np.array(_reference_centralizer_basis(x.J))),
)


def _stack(n, count, seed):
    return random_phase_point(GroupContext(n), [np.random.default_rng((seed, i)) for i in range(count)])


@pytest.mark.parametrize("count", [1, 5])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_stacked_certificate_matrices_equal_the_one_point_bodies_bit_for_bit(n, count):
    xs = _stack(n, count, 170 + n)
    points = list(map(PhasePoint, xs.g, xs.J))
    for stacked, reference in STACKED_MATRICES:
        want = [reference(x) for x in points]
        got = stacked(xs)
        assert got.shape == (count,) + want[0].shape and got.tobytes() == np.array(want).tobytes()
        # a one-point call goes through the same stacked code
        for x, one in zip(points, want):
            assert stacked(x).shape == one.shape and stacked(x).tobytes() == one.tobytes()


@pytest.mark.parametrize("count", [1, 5])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_stacked_rank_stages_equal_the_one_point_ranks(n, count):
    xs = _stack(n, count, 180 + n)
    points = list(map(PhasePoint, xs.g, xs.J))
    stages = (
        (reduced_hamiltonian_span, _reference_hamiltonian_matrix),
        (leaf_codim, _reference_moment_casimir_matrix),
    )
    for stage, rows in stages:
        want = [_reference_quotient_rank(rows(x), _reference_gauge_matrix(x)) for x in points]
        got = stage(xs)
        assert got.shape == (count,) and got.dtype.kind == "i" and got.tolist() == want
        assert [stage(x) for x in points] == want
        assert all(type(stage(x)) is int for x in points)
    V, W = hamiltonian_matrix(xs), gauge_matrix(xs)
    want = [_reference_quotient_rank(v, w) for v, w in zip(V, W)]
    assert quotient_rank(V, W).tolist() == want


def test_stacked_rank_stages_on_an_empty_stack_give_empty_ranks():
    for ctx in (CTX2, CTX3):
        empty = PhasePoint(np.zeros((0, ctx.n, ctx.n), complex), np.zeros((0, ctx.n, ctx.n), complex))
        assert gauge_matrix(empty).shape == (0, ctx.dim_g, 2 * ctx.dim_g)
        assert hamiltonian_matrix(empty).shape == (0, ctx.rank, 2 * ctx.dim_g)
        assert moment_casimir_matrix(empty).shape == (0, ctx.n - 1, 2 * ctx.dim_g)
        for stage in (reduced_hamiltonian_span, leaf_codim):
            ranks = stage(empty)
            assert ranks.shape == (0,) and ranks.dtype.kind == "i"


def test_hamiltonian_matrix_raises_when_one_momentum_of_a_stack_is_not_regular():
    xs = _stack(3, 4, 190)
    for i in (0, 2):
        J = xs.J.copy()
        J[i] = np.diag([1j, 1j, -2j])  # a repeated eigenvalue: centralizer of dimension 4
        with pytest.raises(StructureError, match="not regular"):
            hamiltonian_matrix(PhasePoint(xs.g, J))
        with pytest.raises(StructureError, match="not regular"):
            reduced_hamiltonian_span(PhasePoint(xs.g, J))
    # every momentum irregular in the same way is no more regular
    with pytest.raises(StructureError, match="not regular"):
        hamiltonian_matrix(PhasePoint(xs.g, np.zeros_like(xs.J)))


def test_kernel_basis_of_a_stack_needs_one_kernel_dimension():
    ctx = CTX3
    B = basis_stack(ctx)
    J = np.array([np.diag([1j, 2j, -3j]), np.diag([1j, 1j, -2j])])[:, None]
    M = basis_coordinates(ctx, J @ B - B @ J).swapaxes(-1, -2)
    assert kernel_basis(ctx, M[:1], ctx.rank).shape == (1, ctx.rank, 3, 3)
    assert kernel_basis(ctx, M[1:], 4).shape == (1, 4, 3, 3)
    for dim in (ctx.rank, 4):
        with pytest.raises(StructureError):
            kernel_basis(ctx, M, dim)
    with pytest.raises(StructureError):
        kernel_basis(ctx, M[:1], 4)
    assert kernel_basis(ctx, M[:0], ctx.rank).shape == (0, ctx.rank, 3, 3)

