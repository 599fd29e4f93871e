"""Tests for the phase space: bracket, gradients, action, moment map."""

import numpy as np
import pytest

from redint.groups import (
    H_FD,
    TAU_FD,
    GroupContext,
    ShapeError,
    from_coordinates,
    group_exp,
    inner,
    lie_bracket,
    orthonormal_basis,
    random_algebra,
    random_group,
)
from redint.phase import (
    PhasePoint,
    _chart_steps,
    act,
    bracket_from_gradients,
    chart_basis,
    environment,
    evaluate,
    fd_bracket_with,
    fd_chart,
    fd_gradients,
    gradient_table,
    gradients,
    hamiltonian_velocity,
    moment_map,
    poisson_bracket,
    product_bracket,
    random_algebra_pairs,
    random_phase_point,
    shift,
)
from redint.free_motion import constants_map, slot_gradients
from redint.words import (
    Observable,
    left_group_gradient,
    letter_gradient,
    observable,
    random_observable,
    word,
)

from claims import moment_generates_defect, moment_observable
from finite_differences import fd_directional

CTX2 = GroupContext(2)
CTX3 = GroupContext(3)


def pairing_observable(A):
    """<A, J> as a trace word with a constant letter."""
    return observable(word((np.asarray(A), "J"), part="re", coeff=-1.0))


def test_phase_point_shape_guard():
    with pytest.raises(ShapeError):
        PhasePoint(np.eye(2), np.zeros((3, 3)))


def test_phase_point_stacks_index_and_iterate_like_their_arrays():
    rng = np.random.default_rng(29)
    g, J = rng.standard_normal((2, 4, 3, 5, 3, 3)) + 1j * rng.standard_normal((2, 4, 3, 5, 3, 3))
    y = PhasePoint(g, J)
    same = lambda x, g_, J_: x.g.tobytes() == g_.tobytes() and x.J.tobytes() == J_.tobytes()
    mask = np.array([True, False, True, True])
    for index in (mask, (slice(None), slice(None), 2), 1, (3, 0, 4)):
        assert same(y[index], g[index], J[index])
    # stencil slices y[:, :, s] are the slices of the stacks' third axis
    for s, (gs, Js) in enumerate(zip(np.moveaxis(g, 2, 0), np.moveaxis(J, 2, 0))):
        assert same(y[:, :, s], gs, Js)
    points = list(y[mask])
    assert len(points) == 3
    for x, gi, Ji in zip(points, g[mask], J[mask]):
        assert same(x, gi, Ji)
    # a single point has no stack axis: its rows are not points
    with pytest.raises(ShapeError):
        y[0, 0, 0][0]
    with pytest.raises(ShapeError):
        list(y[0, 0, 0])


def test_eval_examples():
    x = PhasePoint(np.eye(2, dtype=complex), np.diag([1j, -1j]))
    assert evaluate(observable(word(("G",))), x) == pytest.approx(2.0)
    assert evaluate(observable(word(("J", "J"))), x) == pytest.approx(-2.0)
    y = random_phase_point(CTX3, 8)
    assert evaluate(observable(word(("Ginv", "J", "G"))), y) == pytest.approx(0.0, abs=1e-12)


def test_eval_is_conjugation_invariant():
    rng = np.random.default_rng(21)
    for ctx in (CTX2, CTX3):
        x = random_phase_point(ctx, rng)
        eta = random_group(ctx, rng)
        for _ in range(10):
            F = random_observable(rng, ("G", "Ginv", "J"), max_len=4)
            assert evaluate(F, act(eta, x)) == pytest.approx(evaluate(F, x), abs=1e-10)


def test_left_gradient_examples():
    x = PhasePoint(np.eye(2, dtype=complex), np.diag([1j, -1j]))
    only_j = observable(word(("J", "J")))
    assert np.allclose(gradients(only_j, x)[0], 0.0)
    trace_g = observable(word(("G",)))
    assert np.linalg.norm(gradients(trace_g, x)[0]) < 1e-14
    assert np.linalg.norm(fd_gradients(trace_g, x)[0]) < 1e-9


def test_fiber_gradient_examples():
    rng = np.random.default_rng(2)
    x = random_phase_point(CTX2, rng)
    A = random_algebra(CTX2, rng)
    assert np.allclose(gradients(pairing_observable(A), x)[1], A)
    only_g = observable(word(("G", "Ginv"), coeff=3.0))
    assert np.allclose(gradients(only_g, x)[1], 0.0)
    kinetic = observable(word(("J", "J"), coeff=-1.0))
    assert np.allclose(gradients(kinetic, x)[1], 2.0 * x.J)


@pytest.mark.parametrize("ctx", [CTX2, CTX3])
def test_gradients_match_finite_differences(ctx):
    rng = np.random.default_rng(33)
    for _ in range(8):
        x = random_phase_point(ctx, rng)
        F = random_observable(rng, ("G", "Ginv", "J"), max_len=4)
        fd_left, fd_fiber = fd_gradients(F, x)
        left, fiber = gradients(F, x)
        assert np.linalg.norm(left - fd_left) < TAU_FD
        assert np.linalg.norm(fiber - fd_fiber) < TAU_FD


def test_bracket_of_momentum_pairings():
    rng = np.random.default_rng(6)
    x = random_phase_point(CTX3, rng)
    A, B = random_algebra(CTX3, rng), random_algebra(CTX3, rng)
    got = poisson_bracket(pairing_observable(A), pairing_observable(B), x)
    assert got == pytest.approx(inner(x.J, lie_bracket(A, B)), abs=1e-12)


def test_bracket_antisymmetry_is_exact():
    rng = np.random.default_rng(9)
    for ctx in (CTX2, CTX3):
        for _ in range(20):
            x = random_phase_point(ctx, rng)
            F = random_observable(rng, ("G", "Ginv", "J"), max_len=4)
            H = random_observable(rng, ("G", "Ginv", "J"), max_len=4)
            assert abs(poisson_bracket(F, F, x)) == 0.0
            assert abs(poisson_bracket(F, H, x) + poisson_bracket(H, F, x)) <= 1e-14


@pytest.mark.parametrize("ctx", [CTX2, CTX3])
def test_bracket_from_gradients_is_the_bracket_bit_for_bit(ctx):
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = random_phase_point(ctx, rng)
        F = random_observable(rng, ("G", "Ginv", "J"), max_len=4)
        H = random_observable(rng, ("G", "Ginv", "J"), max_len=4)
        gF, dF = gradients(F, x)
        gH, dH = gradients(H, x)
        env = environment(x)
        assert np.array_equal(gF, left_group_gradient(F, env))
        assert np.array_equal(dF, letter_gradient(F, env, "J"))
        got = bracket_from_gradients(x.J, (gF, dF), (gH, dH))
        assert got == poisson_bracket(F, H, x)
        assert got == inner(gF, dH) - inner(gH, dF) + inner(x.J, lie_bracket(dF, dH))


def test_bracket_against_flow_derivative_oracle():
    # {F, H} with H = -Re tr(J J): flow direction is 2J, so the bracket is
    # the time derivative of F along t -> (e^{2tJ} g, J)
    rng = np.random.default_rng(10)
    x = random_phase_point(CTX2, rng)
    F = observable(word(("G",)))
    H = observable(word(("J", "J"), coeff=-1.0))
    got = poisson_bracket(F, H, x)
    h = H_FD
    fd = (
        evaluate(F, PhasePoint(group_exp(2 * h * x.J) @ x.g, x.J))
        - evaluate(F, PhasePoint(group_exp(-2 * h * x.J) @ x.g, x.J))
    ) / (2 * h)
    assert got == pytest.approx(fd, abs=1e-8)
    assert got == pytest.approx(inner(gradients(F, x)[0], 2 * x.J), abs=1e-12)


def test_hamiltonian_velocity_reproduces_bracket():
    rng = np.random.default_rng(12)
    x = random_phase_point(CTX3, rng)
    F = random_observable(rng, ("G", "Ginv", "J"), max_len=3)
    H = random_observable(rng, ("G", "Ginv", "J"), max_len=3)
    a, b = hamiltonian_velocity(x.J, gradients(H, x))
    left, fiber = gradients(F, x)
    chain = inner(a, left) + inner(b, fiber)
    assert chain == pytest.approx(poisson_bracket(F, H, x), abs=1e-12)


def test_leibniz_property():
    rng = np.random.default_rng(14)
    for ctx in (CTX2, CTX3):
        for _ in range(20):
            x = random_phase_point(ctx, rng)
            F, G, H = (random_observable(rng, ("G", "Ginv", "J"), max_len=3) for _ in range(3))
            fv, gv = evaluate(F, x), evaluate(G, x)
            lhs = product_bracket(x.J, fv, gv, gradients(F, x), gradients(G, x), gradients(H, x))
            rhs = fv * poisson_bracket(G, H, x) + gv * poisson_bracket(F, H, x)
            assert abs(lhs - rhs) <= 1e-9
            # the product rule fed through the bracket formula, written out
            (gF, dF), (gG, dG) = gradients(F, x), gradients(G, x)
            left, fiber = fv * gG + gv * gF, fv * dG + gv * dF
            gH, dH = gradients(H, x)
            assert lhs == inner(left, dH) - inner(gH, fiber) + inner(x.J, lie_bracket(fiber, dH))


def test_jacobi_identity_sampled():
    rng = np.random.default_rng(16)
    for ctx in (CTX2, CTX3):
        worst = 0.0
        for _ in range(25):
            x = random_phase_point(ctx, rng)
            F, G, H = (random_observable(rng, ("G", "Ginv", "J"), max_len=3) for _ in range(3))
            total = 0.0
            for A, B, C in ((F, G, H), (G, H, F), (H, F, G)):
                velocity = hamiltonian_velocity(x.J, gradients(A, x))
                total += -fd_bracket_with(lambda y: poisson_bracket(B, C, y), velocity, x)
            worst = max(worst, abs(total))
        assert worst <= 1e-6


def test_act_examples():
    rng = np.random.default_rng(18)
    x = random_phase_point(CTX3, rng)
    same = act(np.eye(3), x)
    assert np.allclose(same.g, x.g) and np.allclose(same.J, x.J)
    center = np.exp(2j * np.pi / 3) * np.eye(3)
    centered = act(center, x)
    assert np.allclose(centered.g, x.g) and np.allclose(centered.J, x.J)
    e1, e2 = random_group(CTX3, rng), random_group(CTX3, rng)
    lhs = act(e1, act(e2, x))
    rhs = act(e1 @ e2, x)
    assert np.linalg.norm(lhs.g - rhs.g) < 1e-12
    assert np.linalg.norm(lhs.J - rhs.J) < 1e-12


def test_moment_map_examples():
    rng = np.random.default_rng(20)
    J = random_algebra(CTX2, rng)
    assert np.allclose(moment_map(PhasePoint(np.eye(2, dtype=complex), J)), 0.0)
    x = random_phase_point(CTX3, rng)
    eta = random_group(CTX3, rng)
    lhs = moment_map(act(eta, x))
    rhs = eta @ moment_map(x) @ eta.conj().T
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_moment_observable_agrees_with_pairing():
    rng = np.random.default_rng(22)
    x = random_phase_point(CTX3, rng)
    X = random_algebra(CTX3, rng)
    assert evaluate(moment_observable(X), x) == pytest.approx(inner(moment_map(x), X), abs=1e-12)


def test_moment_generates_the_action():
    rng = np.random.default_rng(24)
    x = random_phase_point(CTX2, rng)
    A = random_algebra(CTX2, rng)
    X = random_algebra(CTX2, rng)
    # analytic value of the generated derivative for a momentum pairing
    got = poisson_bracket(pairing_observable(A), moment_observable(X), x)
    assert got == pytest.approx(inner(A, lie_bracket(X, x.J)), abs=1e-8)
    assert moment_generates_defect(pairing_observable(A), np.zeros((2, 2)), x) == 0.0


@pytest.mark.parametrize("ctx", [CTX2, CTX3])
def test_moment_generates_defect_on_samples(ctx):
    rng = np.random.default_rng(26)
    worst = 0.0
    for _ in range(100):
        x = random_phase_point(ctx, rng)
        F = random_observable(rng, ("G", "Ginv", "J"), max_len=3)
        X = random_algebra(ctx, rng)
        worst = max(worst, moment_generates_defect(F, X, x))
    assert worst < TAU_FD


@pytest.mark.parametrize("ctx", [CTX2, CTX3])
def test_observable_without_terms_has_zero_gradients(ctx):
    # evaluate maps Observable(()) to 0.0, so every gradient and bracket of it vanishes
    rng = np.random.default_rng(28)
    x = random_phase_point(ctx, rng)
    empty = Observable(())
    zero = np.zeros((ctx.n, ctx.n))
    assert evaluate(empty, x) == 0.0
    for grad in gradients(empty, x) + slot_gradients(empty, constants_map(x)):
        assert np.array_equal(grad, zero)
    H = random_observable(rng, ("G", "Ginv", "J"), max_len=3)
    assert poisson_bracket(empty, H, x) == 0.0
    assert poisson_bracket(H, empty, x) == 0.0


# The one-direction stencil that shift, fd_directional, fd_gradients and
# fd_bracket_with ran before they took stacks: one group_exp per step.


def _reference_shift(x, a, b, t):
    return PhasePoint(group_exp(t * a) @ x.g, x.J + t * b)


def _reference_fd_directional(F_value, x, a, b, h):
    plus, minus = F_value(_reference_shift(x, a, b, h)), F_value(_reference_shift(x, a, b, -h))
    return (plus - minus) / (2.0 * h)


def _reference_fd_gradients(F, x, h):
    ctx = x.context
    zero = np.zeros_like(x.J)
    basis = orthonormal_basis(ctx)
    left = [_reference_fd_directional(lambda y: evaluate(F, y), x, e, zero, h) for e in basis]
    fiber = [_reference_fd_directional(lambda y: evaluate(F, y), x, zero, e, h) for e in basis]
    return from_coordinates(ctx, left), from_coordinates(ctx, fiber)


def _reference_fd_bracket_with(F_value, H, x, h):
    a, b = hamiltonian_velocity(x.J, gradients(H, x))
    speed = float(np.sqrt(inner(a, a) + inner(b, b)))
    if speed == 0.0:
        return 0.0
    s = max(h, 6e-4) / max(speed, 1.0)
    f1 = F_value(_reference_shift(x, a, b, s)) - F_value(_reference_shift(x, a, b, -s))
    f2 = F_value(_reference_shift(x, a, b, 2.0 * s)) - F_value(_reference_shift(x, a, b, -2.0 * s))
    return (8.0 * f1 - f2) / (12.0 * s)


def _stacked_points(ctx, rng, count):
    points = [random_phase_point(ctx, rng) for _ in range(count)]
    return PhasePoint(np.array([p.g for p in points]), np.array([p.J for p in points]))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_stacked_stencil_equals_the_per_direction_stencil_bit_for_bit(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(90 + n)
    for _ in range(3):
        x = random_phase_point(ctx, rng)
        E, Z = chart_basis(ctx)
        extra = [random_algebra(ctx, rng) for _ in range(4)]
        A = np.concatenate([E, [extra[0], extra[1]]])
        B = np.concatenate([Z, [extra[2], np.zeros((n, n), dtype=complex)]])
        steps = [H_FD, -H_FD, 0.3, 0.0]
        shifted = shift(x, A, B, steps)
        assert shifted.g.shape == (len(steps), len(A), n, n)
        for i, t in enumerate(steps):
            for d in range(len(A)):
                ref = _reference_shift(x, A[d], B[d], t)
                assert np.array_equal(shifted.g[i, d], ref.g)
                assert np.array_equal(shifted.J[i, d], ref.J)
        one = shift(x, A[-1], B[-1], 0.3)
        assert one.g.shape == (n, n)
        assert np.array_equal(one.g, _reference_shift(x, A[-1], B[-1], 0.3).g)

        F, G = (random_observable(rng, ("G", "Ginv", "J"), max_len=4) for _ in range(2))
        for F_value in (
            lambda y: evaluate(F, y),
            lambda y: evaluate(F, y) * evaluate(G, y),
            moment_map,
        ):
            got = fd_directional(F_value, x, A, B, H_FD)
            want = [_reference_fd_directional(F_value, x, a, b, H_FD) for a, b in zip(A, B)]
            assert np.array_equal(got, np.array(want))
        for got, want in zip(fd_gradients(F, x), _reference_fd_gradients(F, x, H_FD)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("ctx", [CTX2, CTX3])
def test_fd_bracket_with_equals_the_four_shift_stencil_bit_for_bit(ctx):
    rng = np.random.default_rng(95)
    for _ in range(10):
        x = random_phase_point(ctx, rng)
        F, G, H = (random_observable(rng, ("G", "Ginv", "J"), max_len=3) for _ in range(3))
        for F_value in (
            lambda y: poisson_bracket(G, H, y),
            lambda y: evaluate(F, y) * evaluate(G, y),
        ):
            calls = []
            velocity = hamiltonian_velocity(x.J, gradients(H, x))
            counted = lambda y: calls.append(y.g.shape) or F_value(y)
            got = fd_bracket_with(counted, velocity, x)
            assert calls == [(4, ctx.n, ctx.n)]
            assert type(got) is float
            assert got == _reference_fd_bracket_with(F_value, H, x, H_FD)
    still = PhasePoint(random_group(ctx, rng), np.zeros((ctx.n, ctx.n), dtype=complex))
    velocity = hamiltonian_velocity(still.J, gradients(Observable(()), still))
    assert fd_bracket_with(lambda y: evaluate(F, y), velocity, still) == 0.0


@pytest.mark.parametrize("n", [2, 3, 5])
def test_fd_bracket_with_on_a_velocity_stack_equals_one_call_per_direction_bit_for_bit(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(120 + n)
    for _ in range(6):
        x = random_phase_point(ctx, rng)
        F, G, H = (random_observable(rng, ("G", "Ginv", "J"), max_len=3) for _ in range(3))
        # the last direction is the zero velocity of the empty observable
        directions = (F, H, Observable(()))
        velocity = hamiltonian_velocity(x.J, gradient_table(directions, x))
        for F_value in (
            lambda y: poisson_bracket(G, H, y),
            lambda y: evaluate(F, y) * evaluate(G, y),
        ):
            calls = []
            counted = lambda y: calls.append(y.g.shape) or F_value(y)
            got = fd_bracket_with(counted, velocity, x)
            assert calls == [(4, 3, n, n)]
            want = [_reference_fd_bracket_with(F_value, A, x, H_FD) for A in directions]
            assert got.tolist() == want
            assert want[2] == 0.0


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_gradient_table_equals_the_one_observable_one_point_gradients_bit_for_bit(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(130 + n)
    observables = [random_observable(rng, ("G", "Ginv", "J"), max_len=4) for _ in range(3)]
    x = random_phase_point(ctx, rng)
    table = gradient_table(observables, x)
    assert table.shape == (2, 3, n, n)
    for k, F in enumerate(observables):
        left, fiber = gradients(F, x)
        assert table[0, k].tobytes() == left.tobytes()
        assert table[1, k].tobytes() == fiber.tobytes()
    stack = _stacked_points(ctx, rng, 12)
    stack = PhasePoint(stack.g.reshape(4, 3, n, n), stack.J.reshape(4, 3, n, n))
    table = gradient_table(observables, stack)
    assert table.shape == (2, 3, 4, 3, n, n)
    for i, p in np.ndindex(4, 3):
        y = PhasePoint(stack.g[i, p], stack.J[i, p])
        for k, F in enumerate(observables):
            left, fiber = gradients(F, y)
            assert table[0, k, i, p].tobytes() == left.tobytes()
            assert table[1, k, i, p].tobytes() == fiber.tobytes()


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_stacked_moment_map_equals_the_one_point_calls_bit_for_bit(n):
    rng = np.random.default_rng(97 + n)
    stack = _stacked_points(GroupContext(n), rng, 6)
    stacked = moment_map(stack)
    assert stacked.shape == (6, n, n)
    for g, J, mu in zip(stack.g, stack.J, stacked):
        assert np.array_equal(mu, moment_map(PhasePoint(g, J)))
        assert np.array_equal(mu, J - g.conj().T @ J @ g)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_stacked_gradients_and_bracket_equal_the_one_point_calls_bit_for_bit(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(120 + n)
    stack = _stacked_points(ctx, rng, 6)
    A = random_algebra(ctx, rng)
    observables = [
        random_observable(rng, ("G", "Ginv", "J"), max_len=4) for _ in range(4)
    ] + [pairing_observable(A), observable(word(("Ginv", "J", "G", A), "im", 0.5))]
    grads = [gradients(F, stack) for F in observables]
    for F, (left, fiber) in zip(observables, grads):
        assert left.shape == fiber.shape == (6, n, n)
        for i, (g, J) in enumerate(zip(stack.g, stack.J)):
            one = gradients(F, PhasePoint(g, J))
            assert left[i].tobytes() == one[0].tobytes()
            assert fiber[i].tobytes() == one[1].tobytes()
    for F, H in zip(observables, observables[::-1]):
        got = poisson_bracket(F, H, stack)
        assert got.shape == (6,)
        for i, (g, J) in enumerate(zip(stack.g, stack.J)):
            assert got[i] == poisson_bracket(F, H, PhasePoint(g, J))
    # a (2, 3) grid of points, and a broadcast bracket over (observable, point)
    grid = PhasePoint(stack.g.reshape(2, 3, n, n), stack.J.reshape(2, 3, n, n))
    assert poisson_bracket(observables[0], observables[1], grid).tobytes() == (
        poisson_bracket(observables[0], observables[1], stack).reshape(2, 3).tobytes()
    )
    left, fiber = (np.array(part) for part in zip(*grads))
    table = bracket_from_gradients(stack.J, (left[:, None], fiber[:, None]), (left, fiber))
    assert table.shape == (6, 6, 6)
    for a, b in np.ndindex(6, 6):
        assert table[a, b].tobytes() == bracket_from_gradients(stack.J, grads[a], grads[b]).tobytes()


def test_the_gradient_kernel_rejects_letters_of_different_sizes():
    rng = np.random.default_rng(98)
    stack = _stacked_points(CTX3, rng, 2)
    F = observable(word(("Ginv", "J", "G", "J")))
    # one point whose letters differ in n, and a stack of them
    mixed = {"G": stack.g[0], "Ginv": stack.g[0], "J": np.zeros((2, 2), dtype=complex)}
    for env in (mixed, {k: np.stack([v, v]) for k, v in mixed.items()}):
        with pytest.raises(ShapeError):
            letter_gradient(F, env, "J")


# --- chart stencils from cached steps, and stacked sample draws -----------
# fd_gradients and random_phase_point as they ran before the chart steps were
# cached and the draws stacked: a shift of the point per call, and one
# group_exp and two from_coordinates calls per point.


def _reference_chart_fd_gradients(F, x, h):
    ctx = x.context
    d = fd_directional(lambda y: evaluate(F, y), x, *chart_basis(ctx), h)
    return tuple(from_coordinates(ctx, d.reshape(2, ctx.dim_g)))


def _reference_random_phase_point(ctx, seed):
    rng = np.random.default_rng(seed)
    return PhasePoint(random_group(ctx, rng), random_algebra(ctx, rng))


def _flat_constants_map(y):
    z = constants_map(y)
    return np.concatenate([z.X.real, z.X.imag, z.Y.real, z.Y.imag], axis=-1)


def _generators(seed, count):
    return [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))) for i in range(count)]


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_fd_chart_equals_the_chart_basis_stencil_bit_for_bit(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(140 + n)
    for _ in range(2):
        x = random_phase_point(ctx, rng)
        F, G = (random_observable(rng, ("G", "Ginv", "J"), max_len=4) for _ in range(2))
        for F_value in (lambda y: evaluate(F, y) * evaluate(G, y), moment_map, _flat_constants_map):
            got = fd_chart(F_value, x)
            want = fd_directional(F_value, x, *chart_basis(ctx), H_FD)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for got, want in zip(fd_gradients(F, x), _reference_chart_fd_gradients(F, x, H_FD)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_chart_steps_are_built_once_per_size_and_read_only(n):
    G, B = _chart_steps(n)
    assert _chart_steps(n)[0] is G
    dim = GroupContext(n).dim_g
    assert G.shape == B.shape == (2, 2 * dim, n, n)
    for steps in (G, B):
        assert not steps.flags.writeable
        with pytest.raises(ValueError):
            steps[0, 0, 0, 0] = 1.0


@pytest.mark.parametrize("count", [1, 8, 9])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_stacked_draws_equal_the_per_generator_draws_bit_for_bit(n, count):
    ctx = GroupContext(n)
    rngs, refs = _generators(n, count), _generators(n, count)
    x = random_phase_point(ctx, rngs)
    assert x.g.shape == x.J.shape == (count, n, n)
    assert x.g.flags.c_contiguous and x.J.flags.c_contiguous
    for i, ref in enumerate(refs):
        want = _reference_random_phase_point(ctx, ref)
        assert x.g[i].tobytes() == want.g.tobytes()
        assert x.J[i].tobytes() == want.J.tobytes()
    # every generator goes on from where its own one-point draw left it
    assert [r.standard_normal(3).tobytes() for r in rngs] == [r.standard_normal(3).tobytes() for r in refs]

    rngs, refs = _generators(n, count), _generators(n, count)
    X, Y = random_algebra_pairs(ctx, tuple(rngs))
    assert X.flags.c_contiguous and Y.flags.c_contiguous
    for i, ref in enumerate(refs):
        assert X[i].tobytes() == random_algebra(ctx, ref).tobytes()
        assert Y[i].tobytes() == random_algebra(ctx, ref).tobytes()
    assert [r.random() for r in rngs] == [r.random() for r in refs]


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_one_point_draw_is_unchanged_for_a_seed_or_a_generator(n):
    ctx = GroupContext(n)
    for seed in (lambda: 17, lambda: np.random.default_rng(17)):
        x, ref = random_phase_point(ctx, seed()), _reference_random_phase_point(ctx, seed())
        assert x.g.shape == (n, n)
        assert x.g.tobytes() == ref.g.tobytes() and x.J.tobytes() == ref.J.tobytes()
