"""Tests for the commuting flows and the constants-of-motion map."""

import numpy as np
import pytest

from redint.free_motion import (
    DoublePoint,
    casimir,
    casimir_gradient,
    casimir_value,
    constants_map,
    constants_map_differential,
    constants_map_jacobian,
    constants_map_rank,
    double_norm,
    evaluate_double,
    flow_conservation_defect,
    free_flow,
    lie_poisson_double_bracket,
    poisson_map_defect,
    pullback,
)
from redint.groups import (
    H_FD,
    TAU_CONS,
    TAU_FD,
    GroupContext,
    adjoint,
    group_exp,
    inner,
    lie_bracket,
    orthonormal_basis,
    random_algebra,
    random_group,
)
from redint.phase import PhasePoint, chart_basis, random_phase_point
from redint.words import observable, random_observable, word

from claims import casimir_difference, equivariance_defect

CTX2 = GroupContext(2)
CTX3 = GroupContext(3)
EPS = np.finfo(float).eps


def test_casimir_values_and_reality():
    J = np.diag([1j, -1j])
    assert casimir_value(2, J) == pytest.approx(inner(J, J))
    rng = np.random.default_rng(1)
    for k in (2, 3, 4):
        J3 = random_algebra(CTX3, rng)
        v = casimir_value(k, J3)
        assert np.isfinite(v)
        assert evaluate_double(casimir(k, "Y"), DoublePoint(J3, J3)) == pytest.approx(v)


def test_casimir_is_conjugation_invariant():
    rng = np.random.default_rng(2)
    J = random_algebra(CTX3, rng)
    eta = random_group(CTX3, rng)
    for k in (2, 3):
        assert casimir_value(k, adjoint(eta, J)) == pytest.approx(casimir_value(k, J), abs=1e-10)


def test_casimir_gradient_examples():
    rng = np.random.default_rng(3)
    J = random_algebra(CTX2, rng)
    assert np.allclose(casimir_gradient(2, J), 2.0 * J)
    assert np.allclose(casimir_gradient(3, np.zeros((3, 3))), 0.0)
    J3 = random_algebra(CTX3, rng)
    eta = random_group(CTX3, rng)
    lhs = casimir_gradient(3, adjoint(eta, J3))
    rhs = adjoint(eta, casimir_gradient(3, J3))
    assert np.linalg.norm(lhs - rhs) < 1e-10


def test_casimir_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    from redint.groups import orthonormal_basis

    for ctx in (CTX2, CTX3):
        J = random_algebra(ctx, rng)
        h = 1e-5
        for k in range(2, ctx.n + 1):
            grad = casimir_gradient(k, J)
            for e in orthonormal_basis(ctx):
                fd = (casimir_value(k, J + h * e) - casimir_value(k, J - h * e)) / (2 * h)
                assert abs(fd - inner(e, grad)) < TAU_FD


def test_casimir_degree_is_at_least_two():
    x = random_phase_point(CTX2, 4)
    for call in (lambda: casimir(1), lambda: casimir_gradient(1, x.J), lambda: free_flow(x, 1, 0.5)):
        with pytest.raises(ValueError, match="degree"):
            call()


def test_flow_examples():
    rng = np.random.default_rng(5)
    x = random_phase_point(CTX2, rng)
    still = free_flow(x, 2, 0.0)
    assert np.allclose(still.g, x.g)
    assert still.J is x.J  # momentum is bit-identical along the flow

    a = free_flow(free_flow(x, 2, 0.4), 2, 0.6)
    b = free_flow(x, 2, 1.0)
    assert np.linalg.norm(a.g - b.g) < 1e-10

    x0 = PhasePoint(np.eye(2, dtype=complex), np.diag([1j, -1j]))
    t = 0.8
    moved = free_flow(x0, 2, t)
    assert np.allclose(moved.g, np.diag([np.exp(2j * t), np.exp(-2j * t)]))


def test_constants_map_examples():
    rng = np.random.default_rng(6)
    J = random_algebra(CTX2, rng)
    z = constants_map(PhasePoint(np.eye(2, dtype=complex), J))
    assert np.allclose(z.X, J) and np.allclose(z.Y, J)
    g = random_group(CTX2, rng)
    z0 = constants_map(PhasePoint(g, np.zeros((2, 2), dtype=complex)))
    assert np.allclose(z0.X, 0.0) and np.allclose(z0.Y, 0.0)


@pytest.mark.parametrize("ctx,k", [(CTX2, 2), (CTX3, 2), (CTX3, 3)])
def test_flow_conservation(ctx, k):
    rng = np.random.default_rng(7)
    t_grid = np.arange(0.0, 10.0 + 1e-9, 0.5)
    for _ in range(5):
        x = random_phase_point(ctx, rng)
        assert flow_conservation_defect(x, k, t_grid) <= TAU_CONS


def _reference_flow_conservation_defect(x, k, t_grid):
    """The per-time loop that ``flow_conservation_defect`` ran before it
    flowed the whole grid in one call."""
    z0 = constants_map(x)
    worst = 0.0
    for t in t_grid:
        worst = max(worst, double_norm(constants_map(free_flow(x, k, float(t))), z0))
    return worst


def _reference_stacked_flow_conservation_defect(x, k, t_grid):
    """The loop over the flowed stack, one ``double_norm`` per time, that ran
    before the drift became one stacked norm."""
    z0 = constants_map(x)
    worst = 0.0
    for X in constants_map(free_flow(x, k, t_grid)).X:
        worst = max(worst, double_norm(DoublePoint(X, x.J), z0))
    return worst


def _reference_flow_g(x, k, t):
    """The group component of the flow as computed before each exponential
    took one eigendecomposition: ``exp`` of the scaled generator ``t grad C_k``,
    then a polar projection by SVD."""
    w, V = np.linalg.eigh(1j * (t * casimir_gradient(k, x.J)))
    u, _, vh = np.linalg.svd((V * np.exp(-1j * w)) @ V.conj().T)
    return u @ vh @ x.g


@pytest.mark.parametrize("ctx", [CTX2, CTX3, GroupContext(5)])
def test_flow_over_a_time_grid_equals_each_time_alone_bit_for_bit(ctx):
    rng = np.random.default_rng(31)
    t_grid = np.arange(0.0, 10.0 + 1e-12, 0.5)
    for k in range(2, ctx.n + 1):
        x = random_phase_point(ctx, rng)
        flowed = free_flow(x, k, t_grid)
        assert flowed.g.shape == (len(t_grid), ctx.n, ctx.n)
        assert np.array_equal(flowed.J, np.broadcast_to(x.J, flowed.g.shape))
        for t, g in zip(t_grid, flowed.g):
            assert np.array_equal(g, free_flow(x, k, float(t)).g)
            assert np.array_equal(g, group_exp(casimir_gradient(k, x.J), float(t)) @ x.g)
            # each route is exp(t grad C_k) to within n eps (the unitarity of V) plus
            # |t| ||grad C_k|| eps (the rounding of the eigenvalues); c = 16, and the
            # largest ratio seen over n = 2..8 and |t| <= 10 was 2.2
            bound = 16 * ctx.n * (1.0 + abs(t) * np.linalg.norm(casimir_gradient(k, x.J))) * EPS
            assert np.linalg.norm(g - _reference_flow_g(x, k, t)) <= bound
        drift = flow_conservation_defect(x, k, t_grid)
        assert drift == _reference_flow_conservation_defect(x, k, t_grid)
        assert drift == _reference_stacked_flow_conservation_defect(x, k, t_grid)
    assert flow_conservation_defect(x, k, []) == 0.0


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_stacked_flow_conservation_defect_is_the_largest_one_point_drift(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(90 + n)
    points = [random_phase_point(ctx, rng) for _ in range(3)]
    xs = PhasePoint(np.array([x.g for x in points]), np.array([x.J for x in points]))
    t_grid = np.arange(0.0, 10.0 + 1e-12, 0.5)
    for k in range(2, n + 1):
        drift = flow_conservation_defect(xs, k, t_grid[:, None])
        worst = max(flow_conservation_defect(x, k, t_grid) for x in points)
        assert drift.hex() == worst.hex()


def test_equivariance_defect():
    rng = np.random.default_rng(8)
    for ctx in (CTX2, CTX3):
        x = random_phase_point(ctx, rng)
        assert equivariance_defect(x, np.eye(ctx.n)) == 0.0
        center = np.exp(2j * np.pi / ctx.n) * np.eye(ctx.n)
        assert equivariance_defect(x, center) < 1e-14
        for _ in range(100):
            eta = random_group(ctx, rng)
            assert equivariance_defect(random_phase_point(ctx, rng), eta) < 1e-12


def test_lie_poisson_bracket_examples():
    rng = np.random.default_rng(9)
    z = DoublePoint(random_algebra(CTX2, rng), random_algebra(CTX2, rng))

    fx = observable(word(("X",), part="im"))
    hy = observable(word(("Y", "Y")))
    assert lie_poisson_double_bracket(fx, hy, z) == 0.0

    A, B = random_algebra(CTX2, rng), random_algebra(CTX2, rng)
    fa = observable(word((A, "X"), coeff=-1.0))
    fb = observable(word((B, "X"), coeff=-1.0))
    got = lie_poisson_double_bracket(fa, fb, z)
    assert got == pytest.approx(-inner(z.X, lie_bracket(A, B)), abs=1e-12)

    cas = observable(word(("X", "X")))
    for _ in range(5):
        h = random_observable(rng, ("X", "Y"), max_len=4)
        assert abs(lie_poisson_double_bracket(cas, h, z)) < 1e-10


def test_poisson_map_defect_examples():
    rng = np.random.default_rng(10)
    x = random_phase_point(CTX2, rng)
    f = observable(word(("X", "Y")))
    assert poisson_map_defect(f, f, x) < 1e-14
    h = observable(word(("Y", "Y")))
    assert poisson_map_defect(f, h, x) < 1e-8


@pytest.mark.parametrize("ctx", [CTX2, CTX3])
def test_poisson_map_defect_on_samples(ctx):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        x = random_phase_point(ctx, rng)
        f = random_observable(rng, ("X", "Y"), max_len=4)
        h = random_observable(rng, ("X", "Y"), max_len=4)
        worst = max(worst, poisson_map_defect(f, h, x))
    assert worst < 1e-8


def test_constants_map_rank():
    rng = np.random.default_rng(12)
    for ctx in (CTX2, CTX3):
        x = random_phase_point(ctx, rng)
        rank, _ = constants_map_rank(x)
        assert rank == ctx.dim_phase - ctx.rank
    zero = PhasePoint(random_group(CTX2, rng), np.zeros((2, 2), dtype=complex))
    assert constants_map_rank(zero)[0] == CTX2.dim_g


def test_constants_map_jacobian_matches_analytic_differential():
    rng = np.random.default_rng(13)
    x = random_phase_point(CTX3, rng)
    M = constants_map_jacobian(x)
    for col, (a, b) in enumerate(zip(*chart_basis(CTX3))):
        dX, dY = constants_map_differential(x, a, b)
        exact = np.concatenate(
            [dX.real.ravel(), dX.imag.ravel(), dY.real.ravel(), dY.imag.ravel()]
        )
        assert np.linalg.norm(M[:, col] - exact) < 1e-8


def _reference_constants_map_jacobian(x, h):
    """The column-by-column Jacobian from before the stencil took stacks."""
    ctx = x.context

    def flat(y):
        z = constants_map(y)
        return np.concatenate(
            [z.X.real.ravel(), z.X.imag.ravel(), z.Y.real.ravel(), z.Y.imag.ravel()]
        )

    def column(a, b):
        shift = lambda t: PhasePoint(group_exp(t * a) @ x.g, x.J + t * b)
        return (flat(shift(h)) - flat(shift(-h))) / (2.0 * h)

    zero = np.zeros((ctx.n, ctx.n), dtype=complex)
    basis = orthonormal_basis(ctx)
    return np.column_stack([column(e, zero) for e in basis] + [column(zero, e) for e in basis])


@pytest.mark.parametrize("ctx", [CTX2, CTX3, GroupContext(5)])
def test_stacked_jacobian_equals_the_column_loop_bit_for_bit(ctx):
    rng = np.random.default_rng(17)
    for _ in range(4):
        x = random_phase_point(ctx, rng)
        M = constants_map_jacobian(x)
        assert M.shape == (4 * ctx.n * ctx.n, 2 * ctx.dim_g)
        assert M.flags.c_contiguous
        assert np.array_equal(M, _reference_constants_map_jacobian(x, H_FD))
        directions = list(zip(*chart_basis(ctx)))
        assert len(directions) == 2 * ctx.dim_g
        for (a, b), e in zip(directions, orthonormal_basis(ctx) + orthonormal_basis(ctx)):
            assert np.array_equal(a + b, e) and not np.any(a * b)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_stacked_casimir_value_equals_the_one_matrix_calls_bit_for_bit(n):
    rng = np.random.default_rng(19 + n)
    ctx = GroupContext(n)
    M = np.array([random_algebra(ctx, rng) for _ in range(6)]).reshape(2, 3, n, n)
    for k in range(2, n + 1):
        values = casimir_value(k, M)
        assert values.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            one = casimir_value(k, M[idx])
            assert type(one) is float
            assert values[idx] == one
            assert one == float(((1j**k) * np.trace(np.linalg.matrix_power(M[idx], k))).real)


def test_casimir_difference_checks():
    rng = np.random.default_rng(14)
    for ctx in (CTX2, CTX3):
        for _ in range(10):
            x = random_phase_point(ctx, rng)
            z = constants_map(x)
            for k in range(2, ctx.n + 1):
                assert casimir_difference(z, k) < 1e-10
    X = random_algebra(CTX2, rng)
    assert casimir_difference(DoublePoint(X, X), 2) == 0.0
    Y = random_algebra(CTX2, rng)
    assert casimir_difference(DoublePoint(X, Y), 2) > 1e-3


def test_hamiltonians_sit_inside_the_constants_ring_as_words():
    # C_k(J) arises from the second-slot word through the substitution
    for k in (2, 3, 4, 5):
        assert pullback(casimir(k, "Y")) == casimir(k)


def test_free_flow_group_property_statistics():
    rng = np.random.default_rng(15)
    for _ in range(10):
        x = random_phase_point(CTX3, rng)
        s, t = rng.uniform(-2, 2, size=2)
        a = free_flow(free_flow(x, 3, s), 3, t)
        b = free_flow(x, 3, s + t)
        assert np.linalg.norm(a.g - b.g) < 1e-10
        assert np.linalg.norm(a.J - b.J) == 0.0
