"""Tests for the su(n)/SU(n) substrate."""

import numpy as np
import pytest

from redint.groups import (
    TAU_RANK,
    GroupContext,
    ShapeError,
    StructureError,
    adjoint,
    basis_coordinates,
    basis_stack,
    centralizer_basis,
    check_algebra,
    check_group,
    from_coordinates,
    group_exp,
    inner,
    is_regular,
    joint_centralizer_dim,
    lie_bracket,
    norm,
    numerical_rank,
    orthonormal_basis,
    project_algebra,
    random_algebra,
    random_group,
)

DIAG2 = np.diag([1j, -1j])
OFF2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def test_context_arithmetic():
    for n in (2, 3, 4, 5):
        ctx = GroupContext(n)
        assert ctx.dim_g == n * n - 1
        assert ctx.rank == n - 1
        assert ctx.dim_phase == 2 * ctx.dim_g
    with pytest.raises(ValueError):
        GroupContext(1)


def test_inner_examples():
    assert inner(DIAG2, DIAG2) == pytest.approx(2.0)
    assert inner(DIAG2, OFF2) == pytest.approx(0.0)
    X = random_algebra(GroupContext(3), 0)
    assert inner(X, X) > 0.0
    with pytest.raises(ShapeError):
        inner(DIAG2, np.eye(3))


def test_inner_ad_invariance():
    ctx = GroupContext(3)
    rng = np.random.default_rng(5)
    for _ in range(10):
        X, Y = random_algebra(ctx, rng), random_algebra(ctx, rng)
        g = random_group(ctx, rng)
        assert inner(adjoint(g, X), adjoint(g, Y)) == pytest.approx(inner(X, Y), abs=1e-12)


def test_bracket_examples():
    X = random_algebra(GroupContext(2), 1)
    assert np.allclose(lie_bracket(X, X), 0.0)
    torus = np.diag([2j, -2j])
    assert np.allclose(lie_bracket(DIAG2, torus), 0.0)


def test_bracket_ad_identity():
    # <[X, Y], Z> + <Y, [X, Z]> = 0 on samples
    ctx = GroupContext(3)
    rng = np.random.default_rng(7)
    for _ in range(20):
        X, Y, Z = (random_algebra(ctx, rng) for _ in range(3))
        assert abs(inner(lie_bracket(X, Y), Z) + inner(Y, lie_bracket(X, Z))) < 1e-10


def test_su2_structure_constants_against_direct_commutators():
    ctx = GroupContext(2)
    basis = orthonormal_basis(ctx)
    for a, ea in enumerate(basis):
        for b, eb in enumerate(basis):
            direct = ea @ eb - eb @ ea
            coeffs = [inner(ec, lie_bracket(ea, eb)) for ec in basis]
            rebuilt = sum(c * ec for c, ec in zip(coeffs, basis))
            assert np.linalg.norm(direct - rebuilt) < 1e-12


def test_group_exp_examples():
    n2 = np.zeros((2, 2), dtype=complex)
    assert np.allclose(group_exp(n2), np.eye(2))
    assert np.allclose(group_exp(np.diag([1j * np.pi, -1j * np.pi])), -np.eye(2))
    theta = 0.37
    out = group_exp(np.diag([1j * theta, -1j * theta]))
    assert np.allclose(out, np.diag([np.exp(1j * theta), np.exp(-1j * theta)]))


def test_group_exp_structure_at_large_norm():
    ctx = GroupContext(3)
    rng = np.random.default_rng(11)
    for _ in range(5):
        X = random_algebra(ctx, rng)
        X = 50.0 * X / np.linalg.norm(X)
        check_group(group_exp(X))


def test_group_exp_rejects_non_algebra():
    with pytest.raises(StructureError):
        group_exp(np.eye(2))
    with pytest.raises(StructureError):
        group_exp(np.diag([1j, 1j]))  # anti-Hermitian but not traceless


EPS = np.finfo(float).eps
# c in the forward-error bounds c * n * eps; the largest ratio seen over
# n = 2..8, |t| <= 20 and generators of norm up to 20 was 6.4
C_ROUND = 16


def _reference_group_exp(X, t=1.0):
    """The one-matrix exponential ``exp(tX)``: one eigendecomposition of ``iX``."""
    w, V = np.linalg.eigh(1j * X)
    return (V * np.exp(-1j * (t * w))) @ V.conj().T


def _polar_group_exp(X):
    """The exponential as computed before the polar step was dropped: the
    same eigendecomposition, then snapped to the nearest unitary by an SVD."""
    u, _, vh = np.linalg.svd(_reference_group_exp(X))
    return u @ vh


@pytest.mark.parametrize("n", [2, 3, 5])
def test_stacked_group_exp_equals_per_slice_calls_bit_for_bit(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(40 + n)
    X = np.array([random_algebra(ctx, rng) for _ in range(24)])
    X = X * rng.uniform(0.0, 20.0, size=(24, 1, 1))
    X[0] = 0.0
    stacked = group_exp(X)
    assert stacked.shape == X.shape
    for Xi, Ui in zip(X, stacked):
        assert np.array_equal(Ui, group_exp(Xi))
        assert np.array_equal(Ui, _reference_group_exp(Xi))
        # the polar step moved the same product only at roundoff
        assert np.linalg.norm(Ui - _polar_group_exp(Xi)) <= C_ROUND * n * EPS
    assert np.array_equal(group_exp(X.reshape(4, 6, n, n)), stacked.reshape(4, 6, n, n))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_group_exp_over_a_time_array_equals_each_time_alone_bit_for_bit(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(60 + n)
    X = np.array([random_algebra(ctx, rng) for _ in range(8)])
    t = np.linspace(-20.0, 20.0, 17)
    assert np.array_equal(group_exp(X[0]), group_exp(X[0], 1.0))
    one = group_exp(X[0], t)
    assert one.shape == (17, n, n)
    grid = group_exp(X, t[:, None])  # a (T, 1) grid against a block of 8 points
    assert grid.shape == (17, 8, n, n)
    for i, ti in enumerate(t):
        assert np.array_equal(one[i], group_exp(X[0], ti))
        assert np.array_equal(one[i], _reference_group_exp(X[0], ti))
        for j, Xj in enumerate(X):
            assert np.array_equal(grid[i, j], group_exp(Xj, ti))
            assert np.array_equal(grid[i, j], _reference_group_exp(Xj, ti))
    for Xj, Uj in zip(X, group_exp(X, 2.5)):  # one time against the stack
        assert np.array_equal(Uj, group_exp(Xj, 2.5))


@pytest.mark.parametrize("n", range(2, 9))
def test_group_exp_stays_unitary_at_every_time(n):
    """||U^H U - I|| stays within c n eps for |t| <= 20, with no growth in t,
    and U(t) is the old route's exp(tX) to within c n (1 + |t| ||X||) eps."""
    ctx = GroupContext(n)
    rng = np.random.default_rng(80 + n)
    t = np.linspace(-20.0, 20.0, 41)
    for _ in range(4):
        X = random_algebra(ctx, rng)
        U = group_exp(X, t)
        defect = np.linalg.norm(U.conj().swapaxes(-1, -2) @ U - np.eye(n), axis=(-2, -1))
        assert defect.max() <= C_ROUND * n * EPS
        for ti, Ui in zip(t, U):
            bound = C_ROUND * n * (1.0 + abs(ti) * np.linalg.norm(X)) * EPS
            assert np.linalg.norm(Ui - _polar_group_exp(ti * X)) <= bound


def test_stacked_group_exp_rejects_a_stack_with_one_bad_slice():
    X = np.array([random_algebra(GroupContext(2), i) for i in range(5)])
    check_algebra(X)
    for bad, reason in ((np.eye(2), "anti-Hermitian"), (np.diag([1j, 1j]), "traceless")):
        Y = X.copy()
        Y[3] = bad
        with pytest.raises(StructureError, match=reason):
            group_exp(Y)
    with pytest.raises(ShapeError):
        group_exp(np.zeros((5, 2, 3), dtype=complex))


def test_adjoint_examples():
    X = random_algebra(GroupContext(2), 3)
    assert np.allclose(adjoint(np.eye(2), X), X)
    center = np.exp(1j * np.pi) * np.eye(2)
    assert np.allclose(adjoint(center, X), X)


def test_centralizer_dims():
    assert joint_centralizer_dim([DIAG2], []) == 1
    assert joint_centralizer_dim([np.zeros((2, 2))], []) == 3
    J3 = np.diag([1j, 1j, -2j])
    assert joint_centralizer_dim([J3], []) == 4


def test_centralizer_dim_su3_block_against_entrywise_oracle():
    # independent route: solve [J, Y] = 0, Y anti-Hermitian, tr Y = 0 as a
    # real linear system on the matrix entries
    J = np.diag([1j, 1j, -2j])
    n = 3
    rows = []
    unknowns = 2 * n * n  # real and imaginary part per entry

    def entry_index(i, j):
        return 2 * (n * i + j)

    def add_row(coeffs):
        row = np.zeros(unknowns)
        for (i, j, re_c, im_c) in coeffs:
            row[entry_index(i, j)] += re_c
            row[entry_index(i, j) + 1] += im_c
        rows.append(row)

    # commutator [J, Y]_{ij} = i d Y_ij with d real, for diagonal J
    for i in range(n):
        for j in range(n):
            d = float(((J[i, i] - J[j, j]) / 1j).real)
            add_row([(i, j, 0.0, -d)])  # real part of i d (a + i b) is -d b
            add_row([(i, j, d, 0.0)])   # imaginary part is d a
    # anti-Hermiticity: Y_ji = -conj(Y_ij)
    for i in range(n):
        for j in range(n):
            add_row([(j, i, 1.0, 0.0), (i, j, 1.0, 0.0)])
            add_row([(j, i, 0.0, 1.0), (i, j, 0.0, -1.0)])
    # tracelessness, both parts
    add_row([(i, i, 1.0, 0.0) for i in range(n)])
    add_row([(i, i, 0.0, 1.0) for i in range(n)])
    M = np.vstack(rows)
    null_dim = unknowns - np.linalg.matrix_rank(M, tol=1e-10)
    assert null_dim == 4
    assert joint_centralizer_dim([J], []) == null_dim


def test_centralizer_dim_is_conjugation_invariant():
    ctx = GroupContext(3)
    rng = np.random.default_rng(13)
    for J in (np.diag([1j, 1j, -2j]), random_algebra(ctx, rng)):
        d0 = joint_centralizer_dim([J], [])
        for _ in range(3):
            eta = random_group(ctx, rng)
            assert joint_centralizer_dim([adjoint(eta, J)], []) == d0


def test_centralizer_basis_spans_kernel():
    kernel = centralizer_basis(DIAG2, 1)
    assert len(kernel) == 1
    assert np.linalg.norm(lie_bracket(kernel[0], DIAG2)) < 1e-10
    assert inner(kernel[0], kernel[0]) == pytest.approx(1.0)
    # all singular values vanish for J = 0: the whole algebra is the kernel
    assert len(centralizer_basis(np.zeros((2, 2)), 3)) == 3


def test_joint_centralizer_examples():
    with pytest.raises(ValueError):
        joint_centralizer_dim([], [])


def test_joint_centralizer_conjugation_invariance():
    ctx = GroupContext(3)
    rng = np.random.default_rng(19)
    J1, J2 = random_algebra(ctx, rng), random_algebra(ctx, rng)
    g = random_group(ctx, rng)
    d0 = joint_centralizer_dim([J1, J2], [g])
    eta = random_group(ctx, rng)
    d1 = joint_centralizer_dim(
        [adjoint(eta, J1), adjoint(eta, J2)], [eta @ g @ eta.conj().T]
    )
    assert d0 == d1


def test_is_regular_examples():
    assert is_regular(DIAG2)
    assert not is_regular(np.zeros((2, 2)))
    assert not is_regular(np.diag([1j, 1j, -2j]))


def test_regularity_matches_centralizer_dimension():
    for n in (2, 3):
        ctx = GroupContext(n)
        rng = np.random.default_rng(23)
        for _ in range(20):
            J = random_algebra(ctx, rng)
            if is_regular(J):
                assert joint_centralizer_dim([J], []) == ctx.rank


def test_sampling_determinism_and_structure():
    ctx = GroupContext(3)
    assert np.array_equal(random_algebra(ctx, 99), random_algebra(ctx, 99))
    assert np.array_equal(random_group(ctx, 99), random_group(ctx, 99))
    check_algebra(random_algebra(ctx, 99))
    check_group(random_group(ctx, 99))


def test_basis_gram_identity():
    for n in (2, 3, 4):
        ctx = GroupContext(n)
        basis = orthonormal_basis(ctx)
        assert len(basis) == ctx.dim_g
        gram = np.array([[inner(a, b) for b in basis] for a in basis])
        assert np.abs(gram - np.eye(ctx.dim_g)).max() < 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_basis_coordinates_equal_the_inner_loop_bit_for_bit(n):
    # inner stays the independent oracle: one pairing per basis element
    ctx = GroupContext(n)
    rng = np.random.default_rng(300 + n)
    basis = orthonormal_basis(ctx)
    g = random_group(ctx, rng)
    mats = [random_algebra(ctx, rng) for _ in range(20)] + [g, g.conj().T]
    mats.append(1e6 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))))
    oracle = np.array([[inner(e, X) for e in basis] for X in mats])
    for X, row in zip(mats, oracle):
        assert np.array_equal(basis_coordinates(ctx, X), row)
    stack = np.array(mats)
    assert np.array_equal(basis_coordinates(ctx, stack), oracle)
    transposed = np.array([[inner(e, X.T) for e in basis] for X in mats])
    assert np.array_equal(basis_coordinates(ctx, stack.transpose(0, 2, 1)), transposed)
    assert np.array_equal(basis_coordinates(ctx, stack[None, ::2]), oracle[None, ::2])
    assert not basis_stack(ctx).flags.writeable


def _reference_basis_coordinates(ctx, X):
    # the whole basis product, then its trace
    return -np.trace(basis_stack(ctx) @ X[..., None, :, :], axis1=-2, axis2=-1).real


def _reference_from_coordinates(ctx, coef):
    # one matrix, one basis element at a time
    out = np.zeros((ctx.n, ctx.n), dtype=complex)
    for c, e in zip(coef, orthonormal_basis(ctx)):
        out = out + c * e
    return out


@pytest.mark.parametrize("n", range(2, 9))
def test_stacked_basis_coordinates_equal_the_basis_product_bit_for_bit(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(320 + n)
    M = rng.standard_normal((2, 3, n, n)) + 1j * rng.standard_normal((2, 3, n, n))
    M *= 10.0 ** rng.integers(-8, 9, (2, 3, 1, 1))
    M[0, 0] = project_algebra(M[0, 0])
    M[1, 2] = -0.0
    for X in (M, M[:, ::2], M.swapaxes(0, 1), M.swapaxes(-1, -2)[::-1], M[1, 1]):
        got = basis_coordinates(ctx, X)
        assert got.shape == X.shape[:-2] + (ctx.dim_g,)
        assert got.tobytes() == _reference_basis_coordinates(ctx, X).tobytes()


@pytest.mark.parametrize("n", range(2, 9))
def test_from_coordinates_equals_the_basis_loop_bit_for_bit(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(330 + n)
    coef = rng.standard_normal((300, ctx.dim_g)) * 10.0 ** rng.integers(-8, 9, (300, ctx.dim_g))
    # zero and negative-zero coefficients, alone and mixed in, and whole zero rows
    coef[rng.random(coef.shape) < 0.2] = 0.0
    coef[rng.random(coef.shape) < 0.2] = -0.0
    coef[0], coef[1] = 0.0, -0.0
    coef[2, 0] = -0.0
    for c in coef:
        assert from_coordinates(ctx, c).tobytes() == _reference_from_coordinates(ctx, c).tobytes()
    stack = from_coordinates(ctx, coef[:6].reshape(2, 3, ctx.dim_g))
    assert stack.shape == (2, 3, n, n)
    for (i, j), c in zip(np.ndindex(2, 3), coef[:6]):
        assert stack[i, j].tobytes() == _reference_from_coordinates(ctx, c).tobytes()
    X = random_algebra(ctx, rng)
    assert np.abs(from_coordinates(ctx, basis_coordinates(ctx, X)) - X).max() < 1e-14


def test_from_coordinates_rejects_the_wrong_number_of_coefficients():
    ctx = GroupContext(2)
    for bad in ([1.0, 2, 3, 4, 5], [1.0], 1.0, np.zeros((3, 2))):
        with pytest.raises(ShapeError):
            from_coordinates(ctx, bad)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_project_algebra_equals_the_identity_subtraction_bit_for_bit(n):
    # the trace comes off the diagonal in place; the oracle subtracts it
    # through a full identity matrix
    rng = np.random.default_rng(400 + n)
    for _ in range(50):
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for X in (M, 1j * M, random_algebra(GroupContext(n), rng) @ M):
            A = 0.5 * (X - X.conj().T)
            oracle = A - (np.trace(A) / n) * np.eye(n)
            assert project_algebra(X).tobytes() == oracle.tobytes()


def _reference_project_algebra(M):
    # the one-matrix projection, diagonal taken off by fancy indexing
    n = M.shape[0]
    A = 0.5 * (M - M.conj().T)
    A[np.diag_indices(n)] -= np.trace(A) / n
    return A


@pytest.mark.parametrize("n", range(2, 9))
def test_stacked_projection_equals_the_one_matrix_projection_bit_for_bit(n):
    rng = np.random.default_rng(500 + n)
    M = rng.standard_normal((300, n, n)) + 1j * rng.standard_normal((300, n, n))
    # signed zeros, exact cancellations and integer entries
    M[0::6] = 0.0
    M[1::6] = -0.0
    M[2::6].real = -0.0
    M[3::6] = np.round(M[3::6])
    M[4::6] = M[4::6] + M[4::6].conj().swapaxes(-1, -2)
    stack = project_algebra(M.reshape(3, 100, n, n)).reshape(300, n, n)
    for X, P in zip(M, stack):
        assert P.tobytes() == project_algebra(X).tobytes()
        assert P.tobytes() == _reference_project_algebra(X).tobytes()
    assert project_algebra(M[:0]).shape == (0, n, n)
    with pytest.raises(ShapeError):
        project_algebra(np.zeros((4, n, n + 1)))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_stacked_adjoint_and_bracket_equal_the_one_matrix_calls_bit_for_bit(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(520 + n)
    g, J = random_group(ctx, rng), random_algebra(ctx, rng)
    X = np.array([random_algebra(ctx, rng) for _ in range(20)])
    pushed = adjoint(g, X)
    brackets = lie_bracket(pushed, J)
    for Xk, Pk, Bk in zip(X, pushed, brackets):
        P = g @ Xk @ g.conj().T
        assert Pk.tobytes() == P.tobytes()
        assert Bk.tobytes() == (P @ J - J @ P).tobytes()
    with pytest.raises(ShapeError):
        adjoint(g, np.zeros((3, n + 1, n + 1)))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_stacked_inner_equals_the_one_matrix_calls_bit_for_bit(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(530 + n)
    X = np.array([random_algebra(ctx, rng) for _ in range(6)])
    # general complex matrices, so that the imaginary parts of the trace do not cancel
    Y = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
    assert type(inner(X[0], Y[0])) is float
    pairs = inner(X[:5], Y)
    assert pairs.shape == (5,)
    assert pairs.tobytes() == np.array([inner(a, b) for a, b in zip(X, Y)]).tobytes()
    table = inner(X[:, None], Y)
    assert table.shape == (6, 5)
    want = np.array([[inner(a, b) for b in Y] for a in X])
    assert table.tobytes() == want.tobytes()
    assert inner(X[0], Y).tobytes() == want[0].tobytes()
    with pytest.raises(ShapeError):
        inner(X, np.zeros((6, n + 1, n + 1)))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_stacked_norm_equals_np_linalg_norm_of_each_slice_bit_for_bit(n):
    rng = np.random.default_rng(540 + n)
    M = rng.standard_normal((6, 40, n, n)) + 1j * rng.standard_normal((6, 40, n, n))
    # widely scaled slices, signed zeros and a real stack
    M *= 10.0 ** rng.integers(-6, 7, (6, 40, 1, 1))
    M[0] = -0.0
    M[1].imag = 0.0
    stack = norm(M)
    assert stack.shape == (6, 40)
    for i, j in np.ndindex(6, 40):
        want = np.linalg.norm(M[i, j])
        assert repr(stack[i, j]) == repr(want)
        one = norm(M[i, j])
        assert type(one) is float and repr(one) == repr(float(want))
    real = norm(M.real)
    for i, j in np.ndindex(6, 40):
        assert repr(real[i, j]) == repr(np.linalg.norm(M.real[i, j]))
    # A swap of stack axes keeps each slice C-contiguous, so every entry is
    # still np.linalg.norm of its slice. A swap of the matrix axes is not:
    # norm sums each transposed slice in C order, which is np.linalg.norm of
    # the slice's C-order copy; np.linalg.norm of the view itself sums in
    # memory order and agrees only up to roundoff.
    swapped = M.swapaxes(0, 1)
    assert not swapped.flags.c_contiguous
    got = norm(swapped)
    for j, i in np.ndindex(40, 6):
        assert repr(got[j, i]) == repr(np.linalg.norm(swapped[j, i]))
    transposed = M.swapaxes(-1, -2)
    got = norm(transposed)
    for i, j in np.ndindex(6, 40):
        assert repr(got[i, j]) == repr(np.linalg.norm(np.ascontiguousarray(transposed[i, j])))
        assert got[i, j] == pytest.approx(np.linalg.norm(transposed[i, j]), rel=1e-15)
    assert norm(M[:0]).shape == (0, 40)
    with pytest.raises(ShapeError):
        norm(np.zeros((4, n, n + 1)))


def test_basis_coordinates_rejects_wrong_shapes():
    ctx = GroupContext(3)
    for bad in (np.zeros((3, 2)), np.eye(2), np.zeros(9), np.zeros((4, 2, 3)), np.zeros((2, 4, 4))):
        with pytest.raises(ShapeError):
            basis_coordinates(ctx, bad)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_algebra_regular_frequency(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(31)
    assert all(is_regular(random_algebra(ctx, rng)) for _ in range(1000))


def test_numerical_rank_basics():
    rank, s = numerical_rank(np.diag([1.0, 1e-3, 1e-12]), 1e-8)
    assert rank == 2 and s.shape == (3,)
    assert numerical_rank(np.zeros((3, 3)), 1e-8)[0] == 0


def _stacked_samples(n, seed):
    """Four algebra and group elements with a zero (non-regular) momentum and
    an identity (non-principal) group element among them."""
    ctx = GroupContext(n)
    rng = np.random.default_rng(seed)
    J = np.array([random_algebra(ctx, rng) for _ in range(4)])
    g = np.array([random_group(ctx, rng) for _ in range(4)])
    J[1] = 0.0
    g[2] = np.eye(n)
    return J, g


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_stacked_regularity_stabilizers_and_ranks_equal_the_one_point_calls(n):
    J, g = _stacked_samples(n, 60 + n)
    regular = is_regular(J)
    assert regular.dtype == bool and regular.shape == (4,)
    assert regular.tolist() == [is_regular(m) for m in J] == [True, False, True, True]
    dims = joint_centralizer_dim([J, J[::-1]], [g])
    assert dims.tolist() == [joint_centralizer_dim([a, b], [h]) for a, b, h in zip(J, J[::-1], g)]
    assert joint_centralizer_dim([J], [g]).tolist() == [0, n - 1, n - 1, 0]
    # one rank per matrix of a two-level stack, with a rank-deficient matrix in it
    rows = np.random.default_rng(n).standard_normal((2, 3, n + 2, 2 * n))
    rows[1, 0, -1] = rows[1, 0, 0]
    ranks, s = numerical_rank(rows, TAU_RANK)
    for i in np.ndindex(2, 3):
        rank_i, s_i = numerical_rank(rows[i], TAU_RANK)
        assert type(rank_i) is int and ranks[i] == rank_i and s[i].tobytes() == s_i.tobytes()
    assert ranks[1, 0] == n + 1


def test_numerical_rank_rejects_input_with_fewer_than_two_axes():
    for bad in (np.zeros(3), np.zeros(0), 1.0, [1.0, 2.0]):
        with pytest.raises(ShapeError):
            numerical_rank(bad, TAU_RANK)


def test_empty_and_mismatched_stacks_fail_honestly():
    # an empty stack has no ranks; a stack of empty matrices has rank 0 each
    ranks, s = numerical_rank(np.zeros((0, 4, 3)), TAU_RANK)
    assert ranks.shape == (0,) and s.shape == (0, 3)
    ranks, s = numerical_rank(np.zeros((2, 3, 0, 4)), TAU_RANK)
    assert ranks.tolist() == [[0, 0, 0], [0, 0, 0]] and s.shape == (2, 3, 0)
    assert numerical_rank(np.zeros((0, 4)), TAU_RANK)[0] == 0
    assert is_regular(np.zeros((0, 3, 3))).shape == (0,)
    assert joint_centralizer_dim([np.zeros((0, 3, 3))], []).shape == (0,)
    J, g = _stacked_samples(3, 5)
    for algebra_items, group_items in (([J, J[0]], []), ([J], [g[:2]]), ([J[0]], [g])):
        with pytest.raises(ShapeError):
            joint_centralizer_dim(algebra_items, group_items)
