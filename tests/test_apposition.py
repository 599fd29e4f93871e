"""Tests for the orthogonal torus pair and the moment-equation solver."""

import numpy as np
import pytest

from redint import apposition
from redint.apposition import (
    AppositionFrame,
    MomentSolveError,
    build_frame,
    cyclic_shift,
    frame_orthogonality_residual,
    random_partner_algebra,
    random_torus_group,
    solve_moment_equation,
    stacked_torus_rank,
)
from redint.groups import (
    GroupContext,
    StructureError,
    check_group,
    inner,
    joint_centralizer_dim,
    norm,
    random_algebra,
)
from redint.su2 import SliceCoords, slice_moment_value, slice_point


def test_cyclic_shift_n2():
    lam = cyclic_shift(2)
    assert np.allclose(lam, np.array([[0.0, 1j], [1j, 0.0]]))
    assert abs(np.linalg.det(lam) - 1.0) < 1e-14


def test_cyclic_shift_n3():
    lam = cyclic_shift(3)
    C = np.exp(2j * np.pi / 3)
    expect = np.zeros((3, 3), dtype=complex)
    expect[0, 1] = C
    expect[1, 2] = C
    expect[2, 0] = C
    assert np.allclose(lam, expect)
    assert abs(np.linalg.det(lam) - 1.0) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cyclic_shift_is_special_unitary_and_regular(n):
    lam = cyclic_shift(n)
    check_group(lam)
    vals = np.linalg.eigvals(lam)
    gaps = np.abs(np.subtract.outer(vals, vals))
    assert np.min(gaps[~np.eye(n, dtype=bool)]) > 1e-8


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_frame_invariants(n):
    frame = build_frame(n)
    assert len(frame.torus_basis) == n - 1
    assert len(frame.partner_basis) == n - 1
    assert frame_orthogonality_residual(frame) <= 1e-12
    assert stacked_torus_rank(frame) == 2 * (n - 1)
    # the torus basis is diagonal
    assert all(np.array_equal(u, np.diag(np.diag(u))) for u in frame.torus_basis)
    # partner basis is orthonormal and commutes with the shift
    for i, u in enumerate(frame.partner_basis):
        assert np.linalg.norm(frame.shift @ u - u @ frame.shift) < 1e-10
        for j, v in enumerate(frame.partner_basis):
            assert inner(u, v) == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_frame_rejects_a_shift_whose_stabilizer_has_the_wrong_dimension(n, monkeypatch):
    # the identity commutes with all of su(n), not with an (n-1)-torus
    monkeypatch.setattr(apposition, "cyclic_shift", lambda n: np.eye(n, dtype=complex))
    with pytest.raises(StructureError, match=f"not all {n - 1}"):
        build_frame(n)


def _reference_frame_orthogonality_residual(frame):
    """The double loop over both bases that ran before ``inner`` took stacks."""
    worst = 0.0
    for u in frame.torus_basis:
        for v in frame.partner_basis:
            worst = max(worst, abs(inner(u, v)))
    return worst


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_frame_orthogonality_residual_equals_the_pairwise_loop_bit_for_bit(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(40 + n)
    frame = build_frame(n)
    # and frames whose bases differ in length and are far from orthogonal
    skew = [
        AppositionFrame(
            n,
            frame.shift,
            tuple(random_algebra(ctx, rng) for _ in range(3)),
            tuple(random_algebra(ctx, rng) for _ in range(4)),
        )
        for _ in range(4)
    ]
    for f in (frame, *skew):
        got = frame_orthogonality_residual(f)
        assert type(got) is float
        assert got.hex() == _reference_frame_orthogonality_residual(f).hex()
    assert min(frame_orthogonality_residual(f) for f in skew) > 0.01


def test_partner_torus_n2_is_the_offdiagonal_line():
    frame = build_frame(2)
    u = frame.partner_basis[0]
    target = np.array([[0.0, 1j], [1j, 0.0]]) / np.sqrt(2.0)
    assert min(np.linalg.norm(u - target), np.linalg.norm(u + target)) < 1e-12


def test_solver_zero_rhs():
    frame = build_frame(3)
    g = random_torus_group(frame, 1)
    J = solve_moment_equation(g, np.zeros((3, 3), dtype=complex))
    assert np.linalg.norm(J) < 1e-12


def test_solver_reproduces_su2_slice():
    q = 1.234
    g = np.diag([np.exp(1j * q), np.exp(-1j * q)])
    for x_val in (0.5, 1.0, 2.0):
        J = solve_moment_equation(g, slice_moment_value(x_val))
        ref = slice_point(SliceCoords(q, 0.0, x_val)).J
        assert np.linalg.norm(J - ref) < 1e-10
        assert joint_centralizer_dim([J], [g]) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_solver_random_batch(n):
    frame = build_frame(n)
    for i in range(50):
        g = random_torus_group(frame, 10_000 + i)
        zeta = random_partner_algebra(frame, 20_000 + i)
        J = solve_moment_equation(g, zeta)
        assert norm(J - g.conj().T @ J @ g - zeta) <= 1e-10
        assert joint_centralizer_dim([J], [g]) == 0
        # minimal-norm representative has no diagonal component
        assert np.linalg.norm(np.diag(np.diag(J))) <= 1e-12
        # shifting by the kernel leaves the residual unchanged
        u = frame.torus_basis[0]
        res = norm(J - g.conj().T @ J @ g - zeta)
        res_shift = norm((J + u) - g.conj().T @ (J + u) @ g - zeta)
        assert abs(res - res_shift) <= 1e-12


def test_solver_rejects_bad_inputs():
    frame = build_frame(2)
    with pytest.raises(StructureError):
        solve_moment_equation(cyclic_shift(2), np.zeros((2, 2)))  # not diagonal
    with pytest.raises(StructureError):
        solve_moment_equation(np.eye(2), np.zeros((2, 2)))  # coinciding phases
    g = random_torus_group(frame, 3)
    # a diagonal right-hand side lies in the cokernel, not the image
    bad = frame.torus_basis[0]
    with pytest.raises(MomentSolveError):
        solve_moment_equation(g, bad)
