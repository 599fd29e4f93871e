"""Tests for the trace-word machinery, independent of any phase-space chart."""

from functools import reduce

import numpy as np
import pytest

from redint.groups import (
    GroupContext,
    ShapeError,
    group_exp,
    inner,
    orthonormal_basis,
    project_algebra,
    random_algebra,
    random_group,
)
from redint.words import (
    _LEFT_GROUP_RULES,
    Observable,
    TraceWord,
    _gradient_stacks,
    evaluate,
    left_group_gradient,
    letter_gradient,
    observable,
    random_observable,
    substitute,
    word,
)


def test_word_validation():
    with pytest.raises(ValueError):
        TraceWord(())
    with pytest.raises(ValueError):
        TraceWord(("G",), part="abs")
    with pytest.raises(ValueError):
        TraceWord(("Q",))
    with pytest.raises(ValueError):
        TraceWord(("G",), coeff=float("nan"))


def test_evaluate_simple_words():
    env = {"X": np.diag([1j, -1j]), "Y": np.array([[0, 1], [-1, 0]], dtype=complex)}
    assert evaluate(observable(word(("X", "X"))), env) == pytest.approx(-2.0)
    assert evaluate(observable(word(("X",), part="im")), env) == pytest.approx(0.0)
    two_terms = observable(word(("X", "X"), coeff=0.5), word(("Y", "Y"), coeff=1.0))
    assert evaluate(two_terms, env) == pytest.approx(-1.0 - 2.0)


def test_constant_letters():
    A = np.diag([1j, -1j])
    env = {"X": np.array([[0, 1], [-1, 0]], dtype=complex)}
    obs = observable(word((A, "X"), part="re", coeff=-1.0))
    assert evaluate(obs, env) == pytest.approx(inner(A, env["X"]))


@pytest.mark.parametrize("letter", ["X", "Y"])
def test_letter_gradient_matches_direct_differences(letter):
    ctx = GroupContext(3)
    rng = np.random.default_rng(3)
    env = {"X": random_algebra(ctx, rng), "Y": random_algebra(ctx, rng)}
    h = 1e-5
    for _ in range(10):
        obs = random_observable(rng, ("X", "Y"), max_len=4)
        grad = letter_gradient(obs, env, letter)
        for e in orthonormal_basis(ctx):
            bumped = dict(env)
            bumped[letter] = env[letter] + h * e
            dipped = dict(env)
            dipped[letter] = env[letter] - h * e
            fd = (evaluate(obs, bumped) - evaluate(obs, dipped)) / (2 * h)
            assert abs(fd - inner(e, grad)) < 1e-7


def test_group_gradients_match_direct_differences():
    ctx = GroupContext(2)
    rng = np.random.default_rng(4)
    g = random_group(ctx, rng)
    J = random_algebra(ctx, rng)
    h = 1e-6
    for _ in range(10):
        obs = random_observable(rng, ("G", "Ginv", "J"), max_len=4)
        left = left_group_gradient(obs, {"G": g, "Ginv": g.conj().T, "J": J})
        for e in orthonormal_basis(ctx):
            gp = group_exp(h * e) @ g
            gm = group_exp(-h * e) @ g
            fd = (
                evaluate(obs, {"G": gp, "Ginv": gp.conj().T, "J": J})
                - evaluate(obs, {"G": gm, "Ginv": gm.conj().T, "J": J})
            ) / (2 * h)
            assert abs(fd - inner(e, left)) < 1e-8


# Reference: one loop per gradient, each chain started from the identity.


def _reference_chain(mats, start, count, n):
    out = np.eye(n, dtype=complex)
    m = len(mats)
    for k in range(count):
        out = out @ mats[(start + k) % m]
    return out


def _reference_accumulate(grad, w, S):
    if w.part == "re":
        return grad - w.coeff * project_algebra(S)
    return grad + w.coeff * project_algebra(1j * S)


def _reference_matrices(w, env):
    return [np.asarray(env[lt] if isinstance(lt, str) else lt) for lt in w.letters]


def _reference_letter_gradient(obs, env, letter):
    n = _reference_matrices(obs.words[0], env)[0].shape[0]
    grad = np.zeros((n, n), dtype=complex)
    for w in obs.words:
        mats = _reference_matrices(w, env)
        m = len(mats)
        S = np.zeros((n, n), dtype=complex)
        hit = False
        for i, lt in enumerate(w.letters):
            if isinstance(lt, str) and lt == letter:
                S = S + _reference_chain(mats, i + 1, m - 1, n)
                hit = True
        if hit:
            grad = _reference_accumulate(grad, w, S)
    return grad


def _reference_left_group_gradient(obs, env):
    n = _reference_matrices(obs.words[0], env)[0].shape[0]
    grad = np.zeros((n, n), dtype=complex)
    for w in obs.words:
        mats = _reference_matrices(w, env)
        m = len(mats)
        S = np.zeros((n, n), dtype=complex)
        hit = False
        for i, lt in enumerate(w.letters):
            if not isinstance(lt, str):
                continue
            if lt == "G":
                S = S + _reference_chain(mats, i, m, n)
                hit = True
            elif lt == "Ginv":
                S = S - _reference_chain(mats, i + 1, m, n)
                hit = True
        if hit:
            grad = _reference_accumulate(grad, w, S)
    return grad


@pytest.mark.parametrize("n", [2, 3, 5])
def test_gradients_equal_the_per_symbol_reference_bit_for_bit(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(50 + n)
    for _ in range(40):
        g = random_group(ctx, rng)
        env = {"G": g, "Ginv": g.conj().T}
        for symbol in ("J", "X", "Y"):
            env[symbol] = random_algebra(ctx, rng)
        constants = [random_algebra(ctx, rng), np.diag(rng.standard_normal(n))]
        alphabet = ("G", "Ginv", "J", "X", "Y", *constants)
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            picks = rng.integers(0, len(alphabet), size=int(rng.integers(1, 8)))
            part = ("re", "im")[int(rng.integers(0, 2))]
            terms.append(word([alphabet[k] for k in picks], part, float(rng.standard_normal())))
        obs = observable(*terms)
        assert np.array_equal(
            left_group_gradient(obs, env), _reference_left_group_gradient(obs, env)
        )
        for letter in ("G", "Ginv", "J", "X", "Y"):
            assert np.array_equal(
                letter_gradient(obs, env, letter), _reference_letter_gradient(obs, env, letter)
            )


def _reference_gradient(obs, env, table):
    if not obs.words:
        return np.zeros_like(env["J"])
    if table is _LEFT_GROUP_RULES:
        return _reference_left_group_gradient(obs, env)
    return _reference_letter_gradient(obs, env, table)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_kernel_equals_the_per_observable_reference_bit_for_bit(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(80 + n)
    tables = ("G", "Ginv", "J", "X", "Y", _LEFT_GROUP_RULES)
    for _ in range(8 if n < 8 else 3):
        g = random_group(ctx, rng)
        env = {"G": g, "Ginv": g.conj().T}
        for symbol in ("J", "X", "Y"):
            env[symbol] = random_algebra(ctx, rng)
        A, B = random_algebra(ctx, rng), np.diag(rng.standard_normal(n))
        alphabet = ("G", "Ginv", "J", "X", "Y", A, B)
        observables = [Observable(())]
        for _ in range(10):
            terms = []
            for _ in range(int(rng.integers(1, 4))):
                picks = rng.integers(0, len(alphabet), size=int(rng.integers(1, 9)))
                part = ("re", "im")[int(rng.integers(0, 2))]
                terms.append(word([alphabet[k] for k in picks], part, float(rng.standard_normal())))
            observables.append(observable(*terms))
        # repeated letters, and two words that differ only in the constant
        # at their first position
        observables += [
            observable(word(("X", "X", "Y", "X", "G", "X"), "im", 0.5), word(("J", "J"), "re", 2.0)),
            observable(word((A, "X", "Ginv", "G", "Y"))),
            observable(word((B, "X", "Ginv", "G", "Y"))),
            observable(word(("X",))),
        ]
        stacks = _gradient_stacks(observables, env, tables)
        assert stacks.shape == (len(tables), len(observables), n, n)
        for table, stack in zip(tables, stacks):
            for obs, grad in zip(observables, stack):
                assert np.array_equal(grad, _reference_gradient(obs, env, table))
        # the gradient of Re tr(X) vanishes exactly; folded from zero, it is +0
        assert not np.signbit(stacks[3, -1].view(float)).any()


def _reference_evaluate(obs, env):
    """The one-point ``evaluate`` from before it took stacks."""
    total = 0.0
    for w in obs.words:
        mats = [np.asarray(env[lt]) if isinstance(lt, str) else lt for lt in w.letters]
        t = np.trace(reduce(np.matmul, mats))
        total += w.coeff * (t.real if w.part == "re" else t.imag)
    return float(total)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_stacked_evaluate_equals_the_one_point_calls_bit_for_bit(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(70 + n)
    lead = (2, 3)
    g = np.array([random_group(ctx, rng) for _ in range(6)]).reshape(lead + (n, n))
    env = {"G": g, "Ginv": g.conj().swapaxes(-1, -2)}
    for symbol in ("J", "X", "Y"):
        env[symbol] = np.array([random_algebra(ctx, rng) for _ in range(6)]).reshape(lead + (n, n))
    A, B = random_algebra(ctx, rng), np.diag(rng.standard_normal(n))
    alphabet = ("G", "Ginv", "J", "X", "Y", A, B)
    observables = [
        Observable(()),
        observable(word((A, B), "im", 0.5), word((B,), "re", -2.0)),
        observable(word(("J", A, "J"), "re"), word(("G", B, "Ginv", "X"), "im", 3.0)),
    ]
    for _ in range(20):
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            picks = rng.integers(0, len(alphabet), size=int(rng.integers(1, 8)))
            part = ("re", "im")[int(rng.integers(0, 2))]
            terms.append(word([alphabet[k] for k in picks], part, float(rng.standard_normal())))
        observables.append(observable(*terms))
    for obs in observables:
        values = evaluate(obs, env)
        assert values.shape == lead
        for idx in np.ndindex(lead):
            one = {k: v[idx] for k, v in env.items()}
            assert type(evaluate(obs, one)) is float
            assert values[idx] == evaluate(obs, one) == _reference_evaluate(obs, one)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_stacked_kernel_equals_the_one_point_calls_bit_for_bit(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(60 + n)
    lead = (2, 3)
    tables = ("G", "Ginv", "J", "X", "Y", _LEFT_GROUP_RULES)
    g = np.array([random_group(ctx, rng) for _ in range(6)]).reshape(lead + (n, n))
    # X is one matrix and Y a stack of three, both broadcast against lead
    env = {
        "G": g,
        "Ginv": g.conj().swapaxes(-1, -2),
        "J": np.array([random_algebra(ctx, rng) for _ in range(6)]).reshape(lead + (n, n)),
        "X": random_algebra(ctx, rng),
        "Y": np.array([random_algebra(ctx, rng) for _ in range(3)]),
    }
    A, B = random_algebra(ctx, rng), np.diag(rng.standard_normal(n))
    alphabet = ("G", "Ginv", "J", "X", "Y", A, B)
    observables = [
        Observable(()),
        observable(word((A, "X", "Ginv", "G", "Y"))),
        observable(word((B, "X", "Ginv", "G", "Y")), word((A, "J"), "im", 0.5)),
        observable(word(("X",))),
    ]
    for _ in range(10):
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            picks = rng.integers(0, len(alphabet), size=int(rng.integers(1, 9)))
            part = ("re", "im")[int(rng.integers(0, 2))]
            terms.append(word([alphabet[k] for k in picks], part, float(rng.standard_normal())))
        observables.append(observable(*terms))
    stacks = _gradient_stacks(observables, env, tables)
    assert stacks.shape == (len(tables), len(observables)) + lead + (n, n)
    for idx in np.ndindex(lead):
        one = {k: np.broadcast_to(v, lead + (n, n))[idx] for k, v in env.items()}
        want = _gradient_stacks(observables, one, tables)
        assert stacks[(slice(None), slice(None)) + idx].tobytes() == want.tobytes()
    obs = observables[-1]
    assert letter_gradient(obs, env, "J").tobytes() == stacks[2, -1].tobytes()
    assert left_group_gradient(obs, env).tobytes() == stacks[5, -1].tobytes()


def test_an_environment_of_letters_of_different_sizes_is_rejected_in_either_order():
    X, Y = np.zeros((2, 2), dtype=complex), np.zeros((3, 3), dtype=complex)
    obs = observable(word(("Y", "Y")))
    for env in ({"X": X, "Y": Y}, {"Y": Y, "X": X}):
        with pytest.raises(ShapeError):
            evaluate(obs, env)
        with pytest.raises(ShapeError):
            letter_gradient(obs, env, "Y")
    for bad in (np.zeros((3, 2)), np.zeros(3), np.float64(1.0)):
        with pytest.raises(ShapeError):
            evaluate(observable(word(("X",))), {"X": bad})
        with pytest.raises(ShapeError):
            letter_gradient(observable(word(("X",))), {"X": bad}, "X")


def test_letters_of_different_sizes_are_rejected_in_a_stack():
    env = {"X": np.zeros((4, 3, 3), dtype=complex), "Y": np.zeros((4, 2, 2), dtype=complex)}
    with pytest.raises(ShapeError):
        evaluate(observable(word(("X", "Y"))), env)
    with pytest.raises(ShapeError):
        evaluate(observable(word(("X", np.eye(2)))), env)
    with pytest.raises(ShapeError):
        letter_gradient(observable(word(("X", "X"))), env, "X")


def test_substitute_expands_letters():
    obs = observable(word(("X", "Y"), part="im", coeff=2.0))
    out = substitute(obs, {"X": ("Ginv", "J", "G"), "Y": ("J",)})
    assert out.words[0].letters == ("Ginv", "J", "G", "J")
    assert out.words[0].part == "im"
    assert out.words[0].coeff == 2.0
