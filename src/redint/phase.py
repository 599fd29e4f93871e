"""Phase space SU(n) x su(n): bracket, conjugation action, moment map.

A phase point is a pair ``(g, J)`` obtained from the cotangent bundle of
SU(n) by right translation and the identification of su(n)* with su(n)
through the invariant inner product. The canonical Poisson bracket in these
coordinates is

    {F, H} = <grad_left F, grad_fiber H> - <grad_left H, grad_fiber F>
             + <J, [grad_fiber F, grad_fiber H]>

where ``grad_left`` differentiates along ``g -> e^{tA} g`` and
``grad_fiber`` along ``J -> J + tA``. Observables are trace words from
:mod:`redint.words` evaluated with ``G -> g``, ``Ginv -> g^{-1}``,
``J -> J``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import words as w
from .groups import (
    H_FD,
    GroupContext,
    ShapeError,
    basis_coordinates,
    basis_stack,
    from_coordinates,
    group_exp,
    inner,
    lie_bracket,
)


@dataclass(frozen=True)
class PhasePoint:
    """A point ``(g, J)`` of the phase space, or a stack of points with
    components of shape ``(..., n, n)``; components share one shape."""

    g: np.ndarray
    J: np.ndarray

    def __post_init__(self):
        if np.asarray(self.g).shape != np.asarray(self.J).shape:
            raise ShapeError("group and algebra components differ in size")

    @property
    def n(self) -> int:
        return np.asarray(self.g).shape[-1]

    @property
    def context(self) -> GroupContext:
        return GroupContext(self.n)

    def __getitem__(self, index):
        """The point or stack that ``index`` picks along the stack axes, as
        numpy indexes ``g`` and ``J``: ``x[mask]``, ``x[:, :, s]``."""
        if np.ndim(self.g) < 3:
            raise ShapeError("a single phase point has no stack axis")
        return PhasePoint(self.g[index], self.J[index])

    def __iter__(self):
        """The points (or stacks) along the first stack axis, in order."""
        return map(self.__getitem__, range(len(self.g)))


def environment(x: PhasePoint):
    """Letter bindings for evaluating phase-space observables at ``x``."""
    return {"G": x.g, "Ginv": x.g.conj().swapaxes(-1, -2), "J": x.J}


def evaluate(F: w.Observable, x: PhasePoint):
    """Value of ``F`` at ``x``: a float, or an array over a stack of points."""
    return w.evaluate(F, environment(x))


def gradients(F: w.Observable, x: PhasePoint):
    """``(grad_left F, grad_fiber F)`` at ``x``, each of the shape of ``x.J``."""
    env = environment(x)
    return w.left_group_gradient(F, env), w.letter_gradient(F, env, "J")


def gradient_table(observables, x: PhasePoint):
    """:func:`gradients` of every observable at ``x`` from one kernel call, an
    array ``(2, K) + x.J.shape``; each slice equals its one-point call bit for bit."""
    return w._gradient_stacks(observables, environment(x), (w._LEFT_GROUP_RULES, "J"))


def bracket_from_gradients(J, gradF, gradH):
    """The bracket formula at fiber value ``J`` from two (stacked) gradient pairs."""
    (gF, dF), (gH, dH) = gradF, gradH
    return inner(gF, dH) - inner(gH, dF) + inner(J, lie_bracket(dF, dH))


def poisson_bracket(F: w.Observable, H: w.Observable, x: PhasePoint):
    """Canonical bracket of two trace-word observables at ``x`` or a stack of points."""
    return bracket_from_gradients(x.J, gradients(F, x), gradients(H, x))


def hamiltonian_velocity(J, gradH):
    """Right-trivialized velocity ``(a, b)`` of the flow of ``H`` from its gradients at ``J``.

    The flow moves ``x`` along the curve ``(e^{ta} g, J + tb)`` to first
    order, and ``dF/dt = <a, grad_left F> + <b, grad_fiber F>`` reproduces
    the bracket ``{F, H}`` for every observable ``F``.
    """
    gH, a = gradH
    return a, -gH - lie_bracket(J, a)


def shift(x: PhasePoint, a, b, t) -> PhasePoint:
    """Points ``(exp(t a) g, J + t b)`` of the right-trivialized chart, one per step of
    ``t`` and direction of the stacks ``(a, b)``, shape ``t.shape + a.shape`` (steps
    ``(m,) + a.shape[:-2]`` are per direction); one :func:`group_exp` for all."""
    t = np.asarray(t, dtype=float)
    t = t.reshape(t.shape + (1,) * (2 if t.shape[1:] == np.shape(a)[:-2] else np.ndim(a)))
    return PhasePoint(group_exp(t * a) @ x.g, x.J + t * b)


def chart_basis(ctx: GroupContext):
    """The ``2 dim_g`` chart directions ``[E; 0], [0; E]`` as two stacks, ``E``
    the :func:`basis_stack`."""
    E = basis_stack(ctx)
    Z = np.zeros_like(E)
    return np.concatenate([E, Z]), np.concatenate([Z, E])


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


@lru_cache(maxsize=None)
def _chart_steps(n: int):
    """``(exp(t a), t b)`` for the steps ``t = [H_FD, -H_FD]`` of :func:`shift` along
    the :func:`chart_basis` directions ``(a, b)``, read-only ``(2, 2 dim_g, n, n)``."""
    a, b = chart_basis(GroupContext(n))
    t = np.array([H_FD, -H_FD])[:, None, None, None]
    G, B = group_exp(t * a), t * b
    G.flags.writeable = B.flags.writeable = False
    return G, B


def fd_chart(F_value, x: PhasePoint):
    """Central difference of a (stacked) point function along every
    :func:`chart_basis` direction, from the ``[H_FD, -H_FD]`` steps cached per
    ``n``; ``F_value`` is called once, on the stack of shifted points. The
    oracle of functions with no exact gradient here: the product observables
    of ``bracket-axioms`` and :func:`fd_gradients`."""
    G, B = _chart_steps(x.n)
    v = F_value(PhasePoint(G @ x.g, x.J + B))
    return (v[0] - v[1]) / (2.0 * H_FD)


def fd_gradients(F: w.Observable, x: PhasePoint):
    """Finite-difference oracle for :func:`gradients`, in the same order."""
    d = fd_chart(lambda y: evaluate(F, y), x)
    return tuple(from_coordinates(x.context, d.reshape(2, -1)))


def fd_bracket_with(F_value, velocity, x: PhasePoint):
    """Brackets ``{P, H}`` of a black-box function ``P`` with the observables
    whose Hamiltonian velocities ``(a, b)`` are stacks ``(k, n, n)``; a float
    for one velocity ``(n, n)``, and 0.0 for a direction of zero speed.

    ``F_value`` evaluates ``P`` on a stack of points and is called once, on the
    ``(4, k)`` points of fourth-order central stencils from one :func:`shift`;
    the stencil keeps the truncation error below the roundoff floor. Used for
    nested brackets and product observables, which leave the trace-word family.
    """
    a, b = velocity
    speed = np.sqrt(inner(a, a) + inner(b, b))
    # bound the chart step by 6e-4 in arc length; balances the fourth-order
    # truncation against the roundoff floor for fast directions
    s = 6e-4 / np.maximum(speed, 1.0)
    f = F_value(shift(x, a, b, np.multiply.outer([1.0, -1.0, 2.0, -2.0], s)))
    d = np.where(speed == 0.0, 0.0, (8.0 * (f[0] - f[1]) - (f[2] - f[3])) / (12.0 * s))
    return float(d) if d.ndim == 0 else d


def product_gradients(fv, gv, gradF, gradG):
    """Gradients ``(grad_left, grad_fiber)`` of the pointwise product ``F * G``
    by the product rule, from the factor values and gradient pairs; at a
    stack of points the values ``(S, 1, 1)`` broadcast over the pairs ``(2, S, n, n)``.

    The product of two trace observables is no longer a trace word, but its
    gradients are exact combinations of the factor gradients.
    """
    return fv * np.asarray(gradG) + gv * np.asarray(gradF)


def product_bracket(J, fv, gv, gradF, gradG, gradH):
    """``{F * G, H}`` at fiber value ``J`` (or a stack), the product gradients
    fed through the bracket."""
    return bracket_from_gradients(J, product_gradients(fv, gv, gradF, gradG), gradH)


def act(eta, x: PhasePoint) -> PhasePoint:
    """Diagonal conjugation ``(g, J) -> (eta g eta^{-1}, eta J eta^{-1})``."""
    eta = np.asarray(eta)
    if eta.shape != np.asarray(x.g).shape:
        raise ShapeError("group element and phase point differ in size")
    eta_inv = eta.conj().T
    return PhasePoint(eta @ x.g @ eta_inv, eta @ x.J @ eta_inv)


def moment_map(x: PhasePoint):
    """Conserved su(n) value ``J - g^{-1} J g`` generating the conjugation
    action, at one point or a stack of points."""
    return x.J - x.g.conj().swapaxes(-1, -2) @ x.J @ x.g


def random_algebra_pairs(ctx: GroupContext, seeds):
    """Two :func:`~redint.groups.random_algebra` draws per seed or Generator, as two
    ``(S, n, n)`` stacks from one :func:`from_coordinates`, each draw bit for bit."""
    coef = np.array([np.random.default_rng(s).standard_normal((2, ctx.dim_g)) for s in seeds])
    return tuple(np.ascontiguousarray(from_coordinates(ctx, coef).swapaxes(0, 1)))


def random_phase_point(ctx: GroupContext, seed) -> PhasePoint:
    """Random phase point: the exponential of a random algebra element, then another;
    for a list or tuple of seeds or Generators, the stack of their one-point draws."""
    stack = isinstance(seed, (list, tuple))
    X, J = random_algebra_pairs(ctx, seed if stack else [seed])
    return PhasePoint(group_exp(X), J) if stack else PhasePoint(group_exp(X[0]), J[0])
