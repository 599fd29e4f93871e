"""Free motion on the phase space and its constants-of-motion map.

The commuting Hamiltonians are the Casimir trace powers
``C_k(J) = Re[i^k tr(J^k)]`` for ``k = 2..n``. Their flows are exact:

    (g(t), J(t)) = (exp(t * casimir_gradient(k, J0)) g0, J0).

The map ``constants_map(g, J) = (g^{-1} J g, J)`` into su(n) x su(n) packages
every constant of motion of these flows: it is conserved, equivariant for
diagonal conjugation, Poisson onto the product of the minus and plus
Lie-Poisson structures, and of constant rank ``dim_phase - rank`` over the
regular set. Each of those properties but equivariance, which the tests
certify, is exposed below as a residual or an integer certificate; the rank
is that of the exact differential in chart coordinates, a square matrix of
side ``dim_phase``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import words as w
from .groups import (
    TAU_RANK,
    ShapeError,
    adjoint,
    group_exp,
    inner,
    lie_bracket,
    norm,
    numerical_rank,
    project_algebra,
)
from .phase import PhasePoint, chart_basis, chart_rows, poisson_bracket

# part/sign of Re[i^k tr(W^k)] as a function of k mod 4
_CASIMIR_PART = {0: ("re", 1.0), 1: ("im", -1.0), 2: ("re", -1.0), 3: ("im", 1.0)}


@dataclass(frozen=True)
class DoublePoint:
    """A point ``(X, Y)`` of su(n) x su(n), the target of the constants map,
    or a stack of them with components of shape ``(..., n, n)``."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        if np.asarray(self.X).shape != np.asarray(self.Y).shape:
            raise ShapeError("double components differ in size")

    @property
    def n(self) -> int:
        return np.asarray(self.X).shape[-1]


def casimir(k: int, letter: str = "J") -> w.Observable:
    """The degree-``k`` Casimir ``Re[i^k tr(W^k)]`` as a word in ``letter``:
    the Hamiltonian ``(g, J) -> Re[i^k tr(J^k)]`` by default, or either slot
    ``X``, ``Y`` of the double."""
    if k < 2:
        raise ValueError("Casimir degree must be at least 2")
    part, coeff = _CASIMIR_PART[k % 4]
    return w.observable(w.word((letter,) * k, part=part, coeff=coeff))


def casimir_value(k: int, M):
    """``Re[i^k tr(M^k)]`` for any algebra element ``M``; an array over a
    stack ``(..., n, n)``."""
    M = np.asarray(M)
    v = ((1j**k) * np.trace(np.linalg.matrix_power(M, k), axis1=-2, axis2=-1)).real
    return float(v) if v.ndim == 0 else v


def casimir_gradient(k: int, J):
    """Gradient of the degree-``k`` Casimir, ``-k proj(i^k J^{k-1})``.

    The unique su(n) element with ``<A, grad> = d/dt C_k(J + tA)``; for
    ``k = 2`` it reduces to ``2 J``.
    """
    if k < 2:
        raise ValueError("Casimir degree must be at least 2")
    J = np.asarray(J)
    return -float(k) * project_algebra((1j**k) * np.linalg.matrix_power(J, k - 1))


def free_flow(x: PhasePoint, k: int, t) -> PhasePoint:
    """Exact integral curve ``g(t) = exp(t grad C_k(J)) g`` of the degree-``k``
    Casimir Hamiltonian through ``x``; ``t`` is one time or an array of times
    that broadcasts against the stack shape of ``x``. One :func:`group_exp`
    eigendecomposes each point's ``grad C_k(J)``, a polynomial in ``J``, once
    for all times, and each time equals the flow to that time alone, bit for
    bit. The momentum component is the input's, bit-identical (broadcast).
    """
    g = group_exp(casimir_gradient(k, x.J), t) @ x.g
    return PhasePoint(g, x.J if np.ndim(t) == 0 else np.broadcast_to(x.J, g.shape))


def constants_map(x: PhasePoint) -> DoublePoint:
    """``(g^{-1} J g, J)``, at one point or a stack of points; its pullbacks
    are the constants of motion."""
    return DoublePoint(x.g.conj().swapaxes(-1, -2) @ x.J @ x.g, x.J)


def double_norm(z1: DoublePoint, z2: DoublePoint) -> float:
    """Frobenius distance on both components of the double."""
    return float(
        np.sqrt(np.linalg.norm(z1.X - z2.X) ** 2 + np.linalg.norm(z1.Y - z2.Y) ** 2)
    )


def flow_conservation_defect(x: PhasePoint, k: int, t_grid) -> float:
    """Max drift of the constants map along the exact flow of the degree-``k``
    Casimir over ``t_grid`` (a column ``(T, 1)`` at a stack of points, the max
    over all), flowed in one stacked call; the flow keeps ``J``, so only the
    first component can drift."""
    z0 = constants_map(x)
    return max((0.0, *np.ravel(norm(constants_map(free_flow(x, k, t_grid)).X - z0.X))))


def double_environment(z: DoublePoint):
    return {"X": z.X, "Y": z.Y}


def evaluate_double(f: w.Observable, z: DoublePoint) -> float:
    return w.evaluate(f, double_environment(z))


def slot_gradients(f: w.Observable, z: DoublePoint):
    """``(grad_X f, grad_Y f)``, the letter gradients of both slots at ``z``."""
    env = double_environment(z)
    return w.letter_gradient(f, env, "X"), w.letter_gradient(f, env, "Y")


def lie_poisson_double_bracket(f: w.Observable, h: w.Observable, z: DoublePoint) -> float:
    """Product bracket, minus Lie-Poisson in the first slot, plus in the second:

    ``-<X, [grad_X f, grad_X h]> + <Y, [grad_Y f, grad_Y h]>``.
    """
    fX, fY = slot_gradients(f, z)
    hX, hY = slot_gradients(h, z)
    return -inner(z.X, lie_bracket(fX, hX)) + inner(z.Y, lie_bracket(fY, hY))


PULLBACK_MAP = {"X": ("Ginv", "J", "G"), "Y": ("J",)}


def pullback(f: w.Observable) -> w.Observable:
    """Pull a double observable back through the constants map, at word level."""
    return w.substitute(f, PULLBACK_MAP)


def poisson_map_defect(f: w.Observable, h: w.Observable, x: PhasePoint) -> float:
    """``|{f o Psi, h o Psi}(x) - {f, h}_double(Psi(x))|`` for the constants map.

    Both sides are evaluated analytically along independent routes: the left
    through the canonical bracket of substituted phase-space words, the right
    through the Lie-Poisson bracket on the double.
    """
    lhs = poisson_bracket(pullback(f), pullback(h), x)
    rhs = lie_poisson_double_bracket(f, h, constants_map(x))
    return abs(lhs - rhs)


def constants_map_jacobian(x: PhasePoint):
    """Exact differential of the constants map in chart coordinates, the
    square ``(2 dim_g, 2 dim_g)`` matrix at one point, ``(..., 2 dim_g, 2 dim_g)``
    at a stack; each entry of a stack equals its one-point call bit for bit.

    Column ``j`` is the image of the :func:`~redint.phase.chart_basis`
    direction ``(a, b)``: a group direction ``a`` maps to ``(g^{-1} [J, a] g, 0)``
    and a fiber direction ``b`` to ``(g^{-1} b g, b)``, in the coordinates
    ``[coords(dX) | coords(dY)]`` of :func:`~redint.phase.chart_rows`.
    """
    a, b = chart_basis(x.context)
    ginv = x.g.conj().swapaxes(-1, -2)[..., None, :, :]
    dX = adjoint(ginv, lie_bracket(x.J[..., None, :, :], a) + b)
    return chart_rows(x.context, dX, np.broadcast_to(b, dX.shape)).swapaxes(-1, -2)


def constants_map_rank(x: PhasePoint):
    """Numerical rank of :func:`constants_map_jacobian`, ``dim_phase - rank`` at
    regular momenta; at a stack of points an int array (empty for an empty stack).

    Returns ``(rank, singular_values)``.
    """
    return numerical_rank(constants_map_jacobian(x), TAU_RANK)
