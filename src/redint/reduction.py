"""Rank certificates for the conjugation-reduced free system.

Everything here works upstairs on the phase space: quotient statements are
tested modulo the gauge distribution spanned by the conjugation action, so
no chart on the orbit space is ever constructed. Every certificate matrix
stacks rows ``[coords(a) | coords(b)]``, one per tangent vector ``(a g, b)``
or differential, built by :func:`chart_rows`. The certificates are

* ``classify``           stratum membership flags for a phase point,
* ``reduced_hamiltonian_span``   dimension of the projected span of the
  commuting Hamiltonian vector fields (expected ``rank``),
* ``span_plateau``       spans of the differentials of pulled-back invariant
  words by word length (expected plateau ``dim_g - rank``),
* ``centrality_defect``   bracket of a Casimir with a pulled-back invariant,
* ``max_centrality_defect``  its largest value over Casimirs and generators,
* ``leaf_codim``          independence count of the Casimirs of the moment
  value (expected ``rank``),
* ``invariant_span_double``      span of invariant-word differentials on the
  double, compared against the orbit codimension.

All spans are measured by rank-revealing SVD with the relative cutoff
:data:`redint.groups.TAU_RANK`; span operations return the computed integer
for any input stratum rather than failing.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import words as w
from .free_motion import (
    DoublePoint,
    casimir,
    casimir_gradient,
    constants_map,
    double_environment,
    pullback,
)
from .groups import (
    TAU_RANK,
    GroupContext,
    StructureError,
    adjoint,
    basis_coordinates,
    basis_stack,
    centralizer_basis,
    is_regular,
    joint_centralizer_dim,
    lie_bracket,
    numerical_rank,
)
from .phase import PhasePoint, bracket_from_gradients, gradient_table, moment_map, poisson_bracket


@dataclass(frozen=True)
class StratumFlags:
    """Membership flags for the isotropy stratification of a phase point:
    bools at one point, bool arrays over a stack of points.

    regular_momentum  the momentum J is a regular algebra element
    principal         the joint stabilizer of (g, J) is discrete, so the
                      point sits on a principal conjugation orbit
    image_principal   the constants-map image has regular components (both
                      have the spectrum of J) and a discrete joint stabilizer
    regular_moment    the moment-map value is regular
    image_stabilizer_dim  (not printed) the image's joint stabilizer dimension
    """

    regular_momentum: bool
    principal: bool
    image_principal: bool
    regular_moment: bool
    image_stabilizer_dim: int = field(repr=False)


def classify(x: PhasePoint) -> StratumFlags:
    """Compute all stratum flags of ``x`` (or a stack) at the Lie-algebra level.

    ``image_principal`` implies ``principal`` by construction, matching the
    containment of the underlying strata.
    """
    regular_momentum = is_regular(x.J)
    principal = joint_centralizer_dim([x.J], [x.g]) == 0
    z = constants_map(x)
    stab = joint_centralizer_dim([z.X, z.Y], [])
    image_principal = principal & regular_momentum & (stab == 0)
    regular_moment = is_regular(moment_map(x))
    return StratumFlags(regular_momentum, principal, image_principal, regular_moment, stab)


def chart_rows(ctx: GroupContext, a, b):
    """Chart coordinates ``[coords(a) | coords(b)]`` of the right-trivialized
    tangent vectors ``(a g, b)``, one row per slice of the stacks ``a`` and
    ``b`` of shape ``(..., K, n, n)``; the result has shape ``(..., K, 2 dim_g)``.

    One :func:`basis_coordinates` call over both stacks per point, which
    bounds the gather; equal bit for bit to the coordinates of each matrix.
    """
    pairs = np.stack([a, b], axis=-3)
    rows = [basis_coordinates(ctx, pairs[i]) for i in np.ndindex(pairs.shape[:-4])]
    return np.reshape(rows, pairs.shape[:-3] + (2 * ctx.dim_g,))


def gauge_matrix(x: PhasePoint):
    """Chart rows of the conjugation-generated directions, one per basis
    element ``Y``: the curve ``act(e^{tY}, x)`` has right-trivialized
    velocity ``(Y - Ad_g Y, [Y, J])``. At a stack of points, ``(..., dim_g, 2 dim_g)``."""
    B, g, J = basis_stack(x.context), x.g[..., None, :, :], x.J[..., None, :, :]
    return chart_rows(x.context, B - g @ B @ g.conj().swapaxes(-1, -2), B @ J - J @ B)


def hamiltonian_matrix(x: PhasePoint):
    """Chart rows of the commuting flows' velocities ``(X_i, 0)``, ``X_i``
    spanning ker ad_J; at a stack of points, ``(..., rank, 2 dim_g)``.

    Requires a regular momentum at every point, so that each kernel has dimension ``rank``.
    """
    try:
        kernel = centralizer_basis(x.J, x.context.rank)
    except StructureError as exc:
        raise StructureError(f"momentum is not regular: centralizer {exc}") from None
    return chart_rows(x.context, kernel, np.zeros_like(kernel))


def quotient_rank(V, W):
    """``rank([V; W]) - rank(W)``, the dimension of the span of the rows of
    ``V`` projected along the gauge rows ``W``; an int array over stacks."""
    return numerical_rank(np.concatenate([V, W], -2), TAU_RANK)[0] - numerical_rank(W, TAU_RANK)[0]


def reduced_hamiltonian_span(x: PhasePoint):
    """Projected span of the commuting Hamiltonian fields at ``x`` (or a stack).

    Equals ``rank`` on the stratum where the constants-map image has a
    discrete stabilizer; drops exactly where the image acquires continuous
    symmetry.
    """
    return quotient_rank(hamiltonian_matrix(x), gauge_matrix(x))


def _dedup_key(letters):
    """Canonical form of a word modulo rotation and reversal."""
    seqs = (letters, tuple(reversed(letters)))
    return min(seq[s:] + seq[:s] for seq in seqs for s in range(len(seq)))


@lru_cache(maxsize=None)
def word_generators(max_len: int):
    """All trace words over ``{X, Y}`` up to ``max_len`` letters, both parts,
    deduplicated modulo cyclic rotation and reversal.

    Deterministic and cached; returns a tuple of single-word observables with
    unit coefficient, ordered by word length. Zero-trace words are retained.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    # a dict keeps the first occurrence of each class, in order
    classes = dict.fromkeys(
        _dedup_key(tuple("X" if (code >> i) & 1 else "Y" for i in range(length)))
        for length in range(1, max_len + 1)
        for code in range(2**length)
    )
    return tuple(
        w.observable(w.word(letters, part=part)) for letters in classes for part in ("re", "im")
    )


def pullback_differential_row(x: PhasePoint, gens):
    """Chart rows of ``d(P o constants_map)``, one per invariant word ``P`` of
    the sequence ``gens``, from one gradient kernel call; at a stack of points
    ``(..., n, n)`` the rows have shape ``(..., len(gens), 2 dim_g)``.

    Chain rule through the analytic differential of the constants map: the
    group column block is ``[Ad_g grad_X P, J]`` and the fiber block is
    ``Ad_g grad_X P + grad_Y P`` in basis coordinates.
    """
    grads = w._gradient_stacks(gens, double_environment(constants_map(x)), ("X", "Y"))
    gX, gY = np.moveaxis(grads, 1, -3)
    pushed = adjoint(x.g[..., None, :, :], gX)
    return chart_rows(x.context, lie_bracket(pushed, x.J[..., None, :, :]), pushed + gY)


def span_plateau(x: PhasePoint, max_len: int):
    """Ranks of the stacked differentials of the pulled-back generators for
    word lengths ``1..max_len``, a list, or at a stack of points ``(S, n, n)``
    one list per point. The generators of each length lead ``word_generators(max_len)``,
    so each rank is taken on leading rows. Invariant functions annihilate the
    gauge distribution, so each upstairs rank is the span of the reduced
    differentials; it plateaus at ``dim_g - rank`` for rich enough generators."""
    gens = word_generators(max_len)
    lengths = [len(gen.words[0].letters) for gen in gens]
    D = pullback_differential_row(x, gens)
    cuts = [bisect_right(lengths, m) for m in range(1, max_len + 1)]
    ranks = [numerical_rank(D[..., :cut, :], TAU_RANK)[0] for cut in cuts]
    return np.stack(ranks, axis=-1).tolist()


def centrality_defect(x: PhasePoint, k: int, gen: w.Observable) -> float:
    """``|{C_k(J), P o constants_map}(x)|``; the Casimirs are central among
    the pulled-back constants of motion."""
    ck = pullback(casimir(k, "Y"))
    return abs(poisson_bracket(ck, pullback(gen), x))


def max_centrality_defect(x: PhasePoint, gens) -> float:
    """Largest :func:`centrality_defect` over ``k = 2..n`` and ``gens``, in the
    same arithmetic: one kernel call and one broadcast bracket over the pairs."""
    casimirs = [casimir(k, "Y") for k in range(2, x.n + 1)]
    left, fiber = gradient_table([pullback(f) for f in (*gens, *casimirs)], x)
    m = len(gens)
    d = bracket_from_gradients(x.J, (left[m:, None], fiber[m:, None]), (left[:m], fiber[:m]))
    return float(max((0.0, *abs(d).ravel())))


def moment_casimir_matrix(x: PhasePoint):
    """Chart rows of ``d(C_k o moment_map)``, one per ``k = 2..n``, at a point or a stack."""
    ctx = x.context
    mu = moment_map(x)
    grads = np.stack([casimir_gradient(k, mu) for k in range(2, ctx.n + 1)], axis=-3)
    pushed = adjoint(x.g[..., None, :, :], grads)
    rows = chart_rows(ctx, lie_bracket(pushed, x.J[..., None, :, :]), grads - pushed)
    rows[..., : ctx.dim_g] *= -1.0  # the group block is [J, Ad_g grad]
    return rows


def leaf_codim(x: PhasePoint):
    """Independence count of ``C_k o moment_map`` transverse to the gauge
    directions; expected ``rank`` where the moment value is regular.

    These functions are invariant, so their differentials are automatically
    gauge-orthogonal and the quotient subtraction is a consistency guard
    rather than a correction.
    """
    return quotient_rank(moment_casimir_matrix(x), gauge_matrix(x))


def double_differential_matrix(z: DoublePoint, gens):
    """Stacked differentials of invariant words at a point of the double, or a stack."""
    grads = w._gradient_stacks(gens, double_environment(z), ("X", "Y"))
    return chart_rows(GroupContext(z.n), *np.moveaxis(grads, 1, -3))


def invariant_span_double(z: DoublePoint, gens) -> int:
    """Rank of the invariant-word differentials at ``z``."""
    return numerical_rank(double_differential_matrix(z, gens), TAU_RANK)[0]


def double_orbit_dim(z: DoublePoint) -> int:
    """Dimension of the conjugation orbit through ``z``."""
    ctx = GroupContext(z.n)
    return ctx.dim_g - joint_centralizer_dim([z.X, z.Y], [])


def hamiltonian_span_inside_constants(x: PhasePoint, gens) -> bool:
    """Whether every ``d(C_k(J))`` lies in the span of the pulled-back
    constants' differentials, certifying the containment of the Hamiltonian
    ring in the ring of constants of motion."""
    grads = np.array([casimir_gradient(k, x.J) for k in range(2, x.n + 1)])
    rows = chart_rows(x.context, np.zeros_like(grads), grads)
    return quotient_rank(rows, pullback_differential_row(x, gens)) == 0
