"""A second maximal torus orthogonal to the diagonal one, and the moment
equation solved over it.

For SU(n) the diagonal torus T has a partner T' with ``T n T' = Z(SU(n))``
and ``t _|_ t'`` for the invariant inner product. T' is realized as the
stabilizer of the scaled cyclic-shift matrix

    Lambda_n = C (E_{n,1} + sum_k E_{k,k+1}),   C = exp(i pi (n-1)/n),

which is special unitary and regular. Pairs ``(g, J)`` built by solving

    J - g^{-1} J g = zeta,     g in T regular, zeta in t' regular,

have discrete joint stabilizer, which seeds the principal stratum of the
phase space with explicit points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (
    TAU_EIG,
    TAU_RANK,
    TAU_STRUCT,
    GroupContext,
    StructureError,
    basis_coordinates,
    basis_stack,
    from_coordinates,
    inner,
    is_regular,
    kernel_basis,
    norm,
    numerical_rank,
    orthonormal_basis,
)


class MomentSolveError(RuntimeError):
    """The moment equation has no solution within tolerance."""


def cyclic_shift(n: int):
    """The scaled cyclic-shift matrix; special unitary with n distinct eigenvalues."""
    if n < 2:
        raise ValueError("n must be at least 2")
    C = np.exp(1j * np.pi * (n - 1) / n)
    P = np.zeros((n, n), dtype=complex)
    for k in range(n - 1):
        P[k, k + 1] = 1.0
    P[n - 1, 0] = 1.0
    return C * P


@dataclass(frozen=True)
class AppositionFrame:
    """The pair of orthogonal torus algebras for one matrix size.

    ``torus_basis`` spans the diagonal torus algebra, ``partner_basis`` the
    stabilizer algebra of :func:`cyclic_shift`; both are orthonormal, they
    are mutually orthogonal, and together they have full rank ``2(n-1)``.
    """

    n: int
    shift: np.ndarray
    torus_basis: tuple
    partner_basis: tuple


def build_frame(n: int) -> AppositionFrame:
    """Construct and certify the frame for SU(n)."""
    ctx = GroupContext(n)
    lam = cyclic_shift(n)
    B = basis_stack(ctx)
    M = basis_coordinates(ctx, lam @ B @ lam.conj().T - B).T
    partner = tuple(kernel_basis(ctx, M, n - 1))
    # the last n - 1 basis elements are the diagonal ones
    frame = AppositionFrame(n, lam, orthonormal_basis(ctx)[n * (n - 1) :], partner)
    residual = frame_orthogonality_residual(frame)
    if residual > 1e-12:
        raise StructureError(f"torus orthogonality residual {residual:.3e} exceeds 1e-12")
    if stacked_torus_rank(frame) != 2 * (n - 1):
        raise StructureError("torus algebras overlap: stacked rank deficient")
    return frame


def frame_orthogonality_residual(frame: AppositionFrame) -> float:
    """Largest pairing between the two torus algebras; zero in exact arithmetic."""
    pairs = inner(np.array(frame.torus_basis)[:, None], np.array(frame.partner_basis))
    return float(max((0.0, *abs(pairs).ravel())))


def stacked_torus_rank(frame: AppositionFrame) -> int:
    """Rank of both torus bases stacked; ``2(n-1)`` means trivial intersection."""
    ctx = GroupContext(frame.n)
    rows = basis_coordinates(ctx, np.array(frame.torus_basis + frame.partner_basis))
    rank, _ = numerical_rank(rows, TAU_RANK)
    return rank


def random_torus_group(frame: AppositionFrame, seed):
    """Random regular element of the diagonal torus of SU(n)."""
    rng = np.random.default_rng(seed)
    n = frame.n
    while True:
        phases = rng.uniform(-np.pi, np.pi, size=n - 1)
        phases = np.append(phases, -np.sum(phases))
        vals = np.exp(1j * phases)
        gaps = np.abs(np.subtract.outer(vals, vals))
        if np.min(gaps[~np.eye(n, dtype=bool)]) > 10 * TAU_EIG:
            return np.diag(vals)


def random_partner_algebra(frame: AppositionFrame, seed):
    """Random regular element of the partner torus algebra."""
    rng = np.random.default_rng(seed)
    while True:
        coef = rng.standard_normal(len(frame.partner_basis))
        zeta = sum(c * v for c, v in zip(coef, frame.partner_basis))
        if is_regular(zeta):
            return zeta


def _check_torus_regular(g):
    g = np.asarray(g)
    n = g.shape[0]
    if np.linalg.norm(g - np.diag(np.diag(g))) > TAU_STRUCT:
        raise StructureError("group element is not diagonal")
    vals = np.diag(g)
    gaps = np.abs(np.subtract.outer(vals, vals))
    if np.min(gaps[~np.eye(n, dtype=bool)]) <= TAU_EIG:
        raise StructureError("diagonal element has coinciding eigenvalues")
    return g


def solve_moment_equation(g, zeta):
    """Minimal-norm ``J`` with ``J - g^{-1} J g = zeta``.

    The linear operator has the diagonal torus algebra as kernel for regular
    diagonal ``g``, so the pseudo-inverse picks the unique representative
    with no diagonal component. Raises :class:`MomentSolveError` when the
    residual exceeds ``1e-10``, which signals that ``zeta`` left the image.
    """
    g = _check_torus_regular(g)
    n = g.shape[0]
    ctx = GroupContext(n)
    B = basis_stack(ctx)
    ginv = g.conj().T
    M = basis_coordinates(ctx, B - ginv @ B @ g).T
    rhs = basis_coordinates(ctx, zeta)
    coef = np.linalg.pinv(M, rcond=TAU_RANK) @ rhs
    J = from_coordinates(ctx, coef)
    residual = norm(J - ginv @ J @ g - np.asarray(zeta))
    if residual > 1e-10:
        raise MomentSolveError(
            f"moment equation residual {residual:.3e}; right-hand side outside the image"
        )
    return J
