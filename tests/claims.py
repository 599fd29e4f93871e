"""Claim checks that only the tests run (not collected: no ``test_`` prefix).

No registered check reports these claims; the tier-1 tests certify them:
the constants map is equivariant for diagonal conjugation, its image matches
Casimirs across the two slots, and the moment map generates the conjugation
action through the bracket.
"""

import numpy as np

from redint import words as w
from redint.free_motion import DoublePoint, casimir_value, constants_map, double_norm
from redint.groups import H_FD, group_exp
from redint.phase import act, evaluate, poisson_bracket


def equivariance_defect(x, eta) -> float:
    """Defect of equivariance under diagonal conjugation on both sides."""
    eta = np.asarray(eta)
    left = constants_map(act(eta, x))
    z = constants_map(x)
    right = DoublePoint(eta @ z.X @ eta.conj().T, eta @ z.Y @ eta.conj().T)
    return double_norm(left, right)


def casimir_difference(z, k: int) -> float:
    """``|C_k(X) - C_k(Y)|``; vanishes on the image of the constants map."""
    return abs(casimir_value(k, z.X) - casimir_value(k, z.Y))


def moment_observable(X) -> w.Observable:
    """The pairing ``<moment_map(.), X>`` realized as a trace-word observable."""
    X = np.asarray(X)
    return w.observable(
        w.word(("J", X), part="re", coeff=-1.0),
        w.word(("Ginv", "J", "G", X), part="re", coeff=1.0),
    )


def action_derivative(F, X, x) -> float:
    """Central difference of ``t -> F(act(e^{tX}, x))`` at ``t = 0``, step ``H_FD``."""
    plus = evaluate(F, act(group_exp(H_FD * np.asarray(X)), x))
    minus = evaluate(F, act(group_exp(-H_FD * np.asarray(X)), x))
    return (plus - minus) / (2.0 * H_FD)


def moment_generates_defect(F, X, x) -> float:
    """``|{F, <moment, X>}(x) - d/dt F(act(e^{tX}, x))|``.

    A small value certifies that the moment map generates the conjugation
    action through the bracket.
    """
    X = np.asarray(X)
    if not np.any(X):
        return abs(poisson_bracket(F, moment_observable(X), x))
    analytic = poisson_bracket(F, moment_observable(X), x)
    numeric = action_derivative(F, X, x)
    return abs(analytic - numeric)
