"""The SU(2) reduction made fully explicit.

Away from zero moment value, every conjugation orbit on the SU(2) phase
space carries a unique representative

    g = diag(e^{iq}, e^{-iq}),  0 < q < pi,
    J = i p (E11 - E22) + i x (E12 / (1 - e^{-2iq}) + E21 / (1 - e^{2iq})),

with momentum ``p`` real and coupling ``x > 0`` labelling the moment-map
orbit. The gauge is fixed so that the moment value is exactly
``i x (E12 + E21)``, a regular element of the partner torus. The single
reduced Hamiltonian is the two-particle trigonometric Sutherland energy

    -1/4 tr(J^2) = p^2 / 2 + x^2 / (8 sin^2 q),

whose global minimum at ``(q, p) = (pi/2, 0)`` is the one orbit where the
slice momentum and its conjugate are proportional, the stabilizer of the
constants-map image jumps to a torus, and the projected Hamiltonian span
drops to zero.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .free_motion import constants_map, free_flow
from .groups import TAU_EIG, joint_centralizer_dim
from .phase import PhasePoint
from .reduction import reduced_hamiltonian_span


class GaugeError(RuntimeError):
    """No gauge transformation brings the point onto the slice."""


@dataclass(frozen=True)
class SliceCoords:
    """Slice coordinates ``(q, p, x)`` with ``0 < q < pi`` and ``x > 0``, all
    finite; floats, or arrays of one shape for a stack of slice points."""

    q: float
    p: float
    x: float

    def __post_init__(self):
        if not np.shape(self.q) == np.shape(self.p) == np.shape(self.x):
            raise ValueError("slice coordinates q, p and x must share one shape")
        if not np.all((0.0 < self.q) & (self.q < np.pi)):
            raise ValueError("angle q must lie strictly between 0 and pi")
        if not np.all(self.x > 0.0):
            raise ValueError("coupling x must be positive")
        if not np.all(np.isfinite(self.p) & np.isfinite(self.x)):
            raise ValueError("slice coordinates must be finite")


# default scan grids for the slice
Q_GRID = tuple(np.pi * k / 40.0 for k in range(1, 40))
P_GRID = tuple(np.linspace(-3.0, 3.0, 21))
X_GRID = (0.5, 1.0, 2.0, 4.0, 8.0)

EXCEPTIONAL_Q = np.pi / 2.0


def slice_grid(x_val: float) -> SliceCoords:
    """The ``Q_GRID x P_GRID`` slice coordinates of coupling ``x_val`` as one
    stack of shape ``(len(Q_GRID), len(P_GRID))``, q-major."""
    q, p = np.meshgrid(Q_GRID, P_GRID, indexing="ij")
    return SliceCoords(q, p, np.full(q.shape, x_val))


def _slice_matrices(q, p, x):
    """The closed form ``(g, J)`` of the slice point at ``(q, p, x)``, shape
    ``q.shape + (2, 2)`` each, for any coordinates: no :class:`SliceCoords` checks."""
    q, p, x = np.asarray(q), np.asarray(p), np.asarray(x)
    g = np.zeros(q.shape + (2, 2), dtype=complex)
    g[..., 0, 0] = np.exp(1j * q)
    g[..., 1, 1] = np.exp(-1j * q)
    J = np.empty_like(g)
    J[..., 0, 0] = 1j * p
    J[..., 0, 1] = 1j * x / (1.0 - np.exp(-2j * q))
    J[..., 1, 0] = 1j * x / (1.0 - np.exp(2j * q))
    J[..., 1, 1] = -1j * p
    return g, J


def slice_point(c: SliceCoords) -> PhasePoint:
    """The slice representative with moment value ``i x (E12 + E21)``; for
    array coordinates a stack of shape ``q.shape + (2, 2)``."""
    return PhasePoint(*_slice_matrices(c.q, c.p, c.x))


def slice_moment_value(x):
    """Closed form of the moment value on the slice, shape ``x.shape + (2, 2)``."""
    x = np.asarray(x)
    xi = np.zeros(x.shape + (2, 2), dtype=complex)
    xi[..., 0, 1] = xi[..., 1, 0] = 1j * x
    return xi


def slice_image_first_component(c: SliceCoords):
    """Closed form of ``g^{-1} J g`` on the slice, shape ``q.shape + (2, 2)``."""
    q, p, x = np.asarray(c.q), np.asarray(c.p), np.asarray(c.x)
    X = np.empty(q.shape + (2, 2), dtype=complex)
    X[..., 0, 0] = 1j * p
    X[..., 0, 1] = 1j * x / (np.exp(2j * q) - 1.0)
    X[..., 1, 0] = 1j * x / (np.exp(-2j * q) - 1.0)
    X[..., 1, 1] = -1j * p
    return X


def sutherland_energy(c: SliceCoords):
    """Reduced kinetic energy ``p^2/2 + x^2 / (8 sin^2 q)``, shape ``q.shape``."""
    p, x, s = np.asarray(c.p), np.asarray(c.x), np.sin(c.q)
    return 0.5 * p * p + x * x / (8.0 * s * s)


def energy_identity_residual(c: SliceCoords):
    """``|-1/4 Re tr(J^2) - sutherland_energy|`` at the slice point, shape
    ``q.shape``."""
    J = slice_point(c).J
    traced = -0.25 * np.trace(J @ J, axis1=-2, axis2=-1).real
    return np.abs(traced - sutherland_energy(c))


@dataclass(frozen=True)
class ExceptionalPointAudit:
    """Certificate for the equilibrium orbit at ``(q, p) = (pi/2, 0)``."""

    image_stabilizer_dim: int
    projected_span: int
    grid_min_energy: float
    min_attained_at_exceptional: bool


def exceptional_point_audit(x_val: float) -> ExceptionalPointAudit:
    """Check the three signatures of the exceptional orbit for coupling ``x_val``.

    The constants-map image acquires a one-dimensional stabilizer, the
    projected span of the Hamiltonian field drops to zero, and the slice
    energy attains its grid minimum there.
    """
    if not x_val > 0.0:
        raise ValueError("coupling must be positive")
    c = SliceCoords(EXCEPTIONAL_Q, 0.0, x_val)
    x = slice_point(c)
    z = constants_map(x)
    stab = joint_centralizer_dim([z.X, z.Y], [])
    span = reduced_hamiltonian_span(x)
    e0 = sutherland_energy(c)
    grid_min = np.min(sutherland_energy(slice_grid(x_val)))
    return ExceptionalPointAudit(stab, span, grid_min, bool(e0 <= grid_min + 1e-12))


# Why a point has no slice coordinates, in the order the regauge tests them.
_GAUGE_FAILURES = (
    "group component is central; no slice angle exists",
    "diagonalized angle {q} outside (0, pi)",
    "moment value vanishes; point is outside the slice stratum",
    "gauge residual {residual:.3e} exceeds 1e-8",
)


def _conjugate(X, u0, u1):
    """The entries ``00, 01, 10, 11`` of ``eta X eta^H`` on the last axis, for
    ``eta = [[conj(u0), conj(u1)], [-u1, u0]]`` and ``X`` of shape ``(m, 2, 2)``."""
    v0, v1 = -u1.conj(), u0.conj()  # eta^H = [[u0, v0], [u1, v1]]
    a, b, c, e = X[:, 0, 0], X[:, 0, 1], X[:, 1, 0], X[:, 1, 1]
    Xu0, Xu1, Xv0, Xv1 = a * u0 + b * u1, c * u0 + e * u1, a * v0 + b * v1, c * v0 + e * v1
    return np.stack(
        [v1 * Xu0 - v0 * Xu1, v1 * Xv0 - v0 * Xv1, u0 * Xu1 - u1 * Xu0, u0 * Xv1 - u1 * Xv0], axis=-1
    )


def regauge_stack(y: PhasePoint):
    """Invert the gauge fixing at every point of a stack ``y`` of shape
    ``(m, 2, 2)``: conjugate each point onto the slice and read off
    ``(q, p, x)``, in closed form, entry by entry.

    With ``K = (g - g^H) / 2i = [[k0, w], [conj(w), k1]]``, ``d = (k0 - k1) / 2``
    and ``r = hypot(d, |w|)``, the eigenvector ``u`` of the larger eigenvalue of
    ``K`` is ``(d + r, conj(w))`` if ``d >= 0`` and ``(w, r - d)`` if not (the
    form without cancellation), normalised; ``eta = [[conj(u0), conj(u1)],
    [-u1, u0]]`` is in SU(2) and puts ``e^{iq}``, ``q`` in ``(0, pi)``, first.
    The residual torus rotates the upper off-diagonal entry of the momentum
    onto its slice phase and leaves the diagonals alone. Returns the arrays
    ``q, p, x`` and a dict from the index of each point outside the stratum
    (vanishing moment value, central group part, or a gauge residual above
    ``1e-8``) to the reason; the coordinates of those points are meaningless.
    """
    g, J = np.asarray(y.g), np.asarray(y.J)
    if g.ndim != 3 or g.shape[1:] != (2, 2):
        raise GaugeError("slice coordinates exist only for 2 x 2 points")
    k0, k1 = g[:, 0, 0].imag, g[:, 1, 1].imag
    w = (g[:, 0, 1] - g[:, 1, 0].conj()) / 2j
    abs_w = np.hypot(w.real, w.imag)
    d = 0.5 * (k0 - k1)
    r = np.hypot(d, abs_w)
    # points that fail an early test may divide by zero further on
    with np.errstate(divide="ignore", invalid="ignore"):
        u0 = np.where(d >= 0.0, d + r, w)
        u1 = np.where(d >= 0.0, w.conj(), r - d)
        scale = np.hypot(np.hypot(u0.real, u0.imag), np.hypot(u1.real, u1.imag))
        u0, u1 = u0 / scale, u1 / scale
        G, M = _conjugate(g, u0, u1), _conjugate(J, u0, u1)
        q = np.angle(G[:, 0])
        p = M[:, 0].imag.copy()  # a view would keep M alive
        x = 2.0 * np.sin(q) * np.hypot(M[:, 1].real, M[:, 1].imag)
        # the torus rotation multiplies the upper off-diagonal entries by e^{2i theta}
        target = 1j / (1.0 - np.exp(-2j * q))
        phase = np.exp(1j * (np.angle(target) - np.angle(M[:, 1])))[:, None]
        tau = np.hstack([np.ones_like(phase), phase, phase.conj(), np.ones_like(phase)])
        # distance to the slice point at (q, p, x)
        slice_g, slice_J = _slice_matrices(q, p, x)
        residual = np.maximum(
            np.linalg.norm(tau * G - slice_g.reshape(-1, 4), axis=-1),
            np.linalg.norm(tau * M - slice_J.reshape(-1, 4), axis=-1),
        )
        failure = np.select(
            [
                np.sqrt(k0 * k0 + k1 * k1 + 2.0 * abs_w * abs_w) <= TAU_EIG,
                ~((0.0 < q) & (q < np.pi)),
                x <= TAU_EIG,
                residual > 1e-8,
            ],
            [1, 2, 3, 4],
        )
    failures = {
        int(i): _GAUGE_FAILURES[failure[i] - 1].format(q=float(q[i]), residual=residual[i])
        for i in np.flatnonzero(failure)
    }
    return q, p, x, failures


def regauge_to_slice(y: PhasePoint) -> SliceCoords:
    """Slice coordinates ``(q, p, x)`` of one point: :func:`regauge_stack`
    on a stack of one. Raises :class:`GaugeError` for points outside the
    stratum (vanishing moment value, or central group part)."""
    q, p, x, failures = regauge_stack(PhasePoint(np.asarray(y.g)[None], np.asarray(y.J)[None]))
    if failures:
        raise GaugeError(failures[0])
    return SliceCoords(float(q[0]), float(p[0]), float(x[0]))


def integrate_sutherland(c0: SliceCoords, T: float, steps: int):
    """Classical fixed-step fourth-order integration of the canonical
    equations ``dq/dt = p, dp/dt = -dV/dq`` of the Sutherland energy.
    Returns arrays ``(t, q, p)``.

    Each step runs on Python floats, whose ``math.sin``, ``math.cos`` and
    ``**`` equal numpy's scalar results bit for bit; numpy's array ``s**3``
    does not, so the integration is not batched across starts.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    h = T / steps
    half = 0.5 * h  # (0.5 * h) * p1 is how 0.5 * h * p1 rounds
    q, p, x2 = float(c0.q), float(c0.p), float(c0.x) * float(c0.x)
    qs, ps = array("d", [q]), array("d", [p])
    for _ in range(steps):
        # each stage's dq/dt is its momentum, and dp/dt the force x^2 cos q / (4 sin^3 q)
        p1 = x2 * math.cos(q) / (4.0 * math.sin(q) ** 3.0)
        q2 = p + half * p1
        p2 = x2 * math.cos(y := q + half * p) / (4.0 * math.sin(y) ** 3.0)
        q3 = p + half * p2
        p3 = x2 * math.cos(y := q + half * q2) / (4.0 * math.sin(y) ** 3.0)
        q4 = p + h * p3
        p4 = x2 * math.cos(y := q + h * q3) / (4.0 * math.sin(y) ** 3.0)
        q = q + h * (p + 2.0 * q2 + 2.0 * q3 + q4) / 6.0
        p = p + h * (p1 + 2.0 * p2 + 2.0 * p3 + p4) / 6.0
        qs.append(q)
        ps.append(p)
    return np.linspace(0.0, T, steps + 1), np.frombuffer(qs), np.frombuffer(ps)


def calibrate_time_scale(x_val: float) -> float:
    """Ratio between the quadratic-Casimir flow time and Sutherland time.

    Measured once at a probe point with unit momentum by differencing the
    regauged angles of the flows to ``+-1e-6``, taken from one stacked
    :func:`free_flow`; with the inner product used here the ratio is 2.
    """
    h = 1e-6
    probe = SliceCoords(np.pi / 3.0, 1.0, x_val)
    y = free_flow(slice_point(probe), 2, [h, -h])
    qp, qm = (regauge_to_slice(point).q for point in y)
    return float((qp - qm) / (2.0 * h) / probe.p)


@dataclass(frozen=True)
class TrajectoryComparison:
    """Side-by-side record of the regauged exact flow and the canonical
    integration of the Sutherland energy."""

    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    q_oracle: np.ndarray
    p_oracle: np.ndarray
    energy: np.ndarray
    deviation: np.ndarray
    max_deviation: float
    time_scale: float
    energy_drift: float
    domain_exit: bool


def reduced_dynamics_match(
    c0: SliceCoords,
    T: float = 2.0,
    steps: int = 10_000,
) -> TrajectoryComparison:
    """Flow the slice point with the exact quadratic-Casimir flow, regauge
    back to the slice, and compare against the canonical integration.

    ``T`` is Sutherland time; the exact flow runs at ``T / time_scale``. The
    comparison samples every ``max(1, steps // 1000)``-th step and the last;
    all samples are flowed in one stacked :func:`free_flow` and regauged by
    one :func:`regauge_stack`. A gauge failure along the way (the trajectory
    reaching ``q -> 0`` or ``q -> pi``) is reported through ``domain_exit``
    rather than raised, and the comparison ends at the first failing sample.
    """
    scale = calibrate_time_scale(c0.x)
    t_arr, q_arr, p_arr = integrate_sutherland(c0, T, steps)
    energy0 = sutherland_energy(c0)
    energies = 0.5 * p_arr**2 + c0.x**2 / (8.0 * np.sin(q_arr) ** 2)
    drift = float(np.max(np.abs(energies - energy0)))

    idx = np.arange(0, steps + 1, max(1, steps // 1000))
    if idx[-1] != steps:
        idx = np.append(idx, steps)
    flowed = free_flow(slice_point(c0), 2, t_arr[idx] / scale)
    q, p, _, failures = regauge_stack(flowed)
    stop = min(failures, default=len(idx))
    idx, q, p = idx[:stop], q[:stop], p[:stop]
    dq = np.abs(q - q_arr[idx])
    dp = np.abs(p - p_arr[idx])
    deviation = np.where(dp > dq, dp, dq)  # Python's max(dq, dp)
    return TrajectoryComparison(
        t_arr[idx],
        q,
        p,
        q_arr[idx],
        p_arr[idx],
        energies[idx],
        deviation,
        max((0.0, *deviation)),
        scale,
        drift,
        bool(failures),
    )


def trajectory_csv_rows(comp: TrajectoryComparison):
    """Rows for the trajectory export, header ``t,q,p,q_oracle,p_oracle,energy,deviation``."""
    header = "t,q,p,q_oracle,p_oracle,energy,deviation"
    rows = [
        ",".join(repr(float(v)) for v in fields)
        for fields in zip(
            comp.t, comp.q, comp.p, comp.q_oracle, comp.p_oracle, comp.energy, comp.deviation
        )
    ]
    return header, rows
