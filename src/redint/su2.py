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

The exact flows are those of the quadratic Casimir ``C_2(J) = -tr(J^2)``,
which is ``<J, J>`` for the inner product ``-Re tr(XY)`` of
``groups.inner`` and four times the Sutherland energy ``-1/4 tr(J^2)``.
On the slice ``dg g^{-1} = i dq diag(1, -1)``, so the Liouville form
``<J, dg g^{-1}>`` restricts to ``2 p dq`` and the reduced equations of a
Hamiltonian ``H`` are ``2 dq/dtau = dH/dp``, ``2 dp/dtau = -dH/dq``. For
``H = C_2 = 4 (p^2/2 + x^2/(8 sin^2 q))`` they read ``dq/dtau = 2 p``,
``dp/dtau = -2 dV/dq``: the canonical Sutherland equations in the time
``t = 2 tau``. So the ``C_2`` flow for the time ``t / TIME_SCALE`` is the
Sutherland motion for the time ``t``, with ``TIME_SCALE = 2``.
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

# C_2 flow time per unit of Sutherland time, derived in the module docstring
TIME_SCALE = 2.0


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
    """Ratio between the quadratic-Casimir flow time and Sutherland time,
    measured: a cross-check of the derived :data:`TIME_SCALE`, which no flow
    reads.

    Measured once at a probe point with unit momentum by differencing the
    regauged angles of the flows to ``+-1e-6``, taken from one stacked
    :func:`free_flow`, so the regauge's roundoff enters divided by ``2e-6``.
    """
    h = 1e-6
    probe = SliceCoords(np.pi / 3.0, 1.0, x_val)
    y = free_flow(slice_point(probe), 2, [h, -h])
    qp, qm = (regauge_to_slice(point).q for point in y)
    return float((qp - qm) / (2.0 * h) / probe.p)


def sutherland_closed_form(c0: SliceCoords, t):
    """The exact Sutherland motion from ``c0`` at the times ``t``: arrays
    ``(q, p)`` of the broadcast shape of ``t`` and the fields of ``c0``.

    The energy ``E = p^2/2 + alpha / sin^2 q`` with ``alpha = x^2 / 8`` is the
    Poeschl-Teller potential. With ``u = cos q``, ``du/dt = -p sin q``, so
    ``(du/dt)^2 = 2 (E - alpha) - 2 E u^2`` and

        cos q(t) = A cos(w t + phi),   w = sqrt(2 E),
        p(t) = -(du/dt) / sin q = A w sin(w t + phi) / sin q(t),

    with ``A cos phi = cos q0`` and ``A sin phi = p0 sin q0 / w``, so that
    ``A^2 = (p0^2/2 + alpha cot^2 q0) / E = 1 - alpha / E``, a sum of squares
    with no cancellation. ``A < 1`` for ``x > 0``, so ``q`` stays in
    ``(0, pi)``. The code never forms ``A`` or ``phi``: it turns the pair
    ``(A cos phi, A sin phi)`` by the angle ``w t`` and takes
    ``sin^2 q = 1 - A^2 cos^2(w t + phi) = alpha / E + A^2 sin^2(w t + phi)``,
    again a sum of squares, and ``q`` from ``arctan2``, so ``q`` and ``p`` keep
    their relative accuracy near ``q = 0`` and ``pi`` and at ``t = 0`` return
    ``(q0, p0)`` to a few ulps. ``cos q0`` is taken as the sine of the offset
    ``EXCEPTIONAL_Q - q0`` (exact for ``q0 >= pi/4``), so the slice equilibrium
    ``EXCEPTIONAL_Q`` has ``A = 0`` exactly and stays put: ``q`` is
    ``EXCEPTIONAL_Q`` and ``p`` zero at every time.
    """
    q0, p0, x = np.asarray(c0.q), np.asarray(c0.p), np.asarray(c0.x)
    energy = sutherland_energy(c0)
    omega = np.sqrt(2.0 * energy)
    s0 = np.sin(q0)
    a, b = np.sin(EXCEPTIONAL_Q - q0), p0 * s0 / omega  # A cos phi, A sin phi
    wt = omega * np.asarray(t)
    cos_wt, sin_wt = np.cos(wt), np.sin(wt)
    cos_q = a * cos_wt - b * sin_wt
    a_sin = a * sin_wt + b * cos_wt  # A sin(w t + phi)
    sin_q = np.sqrt(x * x / 8.0 / energy + a_sin * a_sin)
    return np.arctan2(sin_q, cos_q), omega * a_sin / sin_q


def _sample_steps(steps: int):
    """The step indices a comparison samples: every ``max(1, steps // 1000)``-th
    and the last."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    idx = np.arange(0, steps + 1, max(1, steps // 1000))
    return idx if idx[-1] == steps else np.append(idx, steps)


def _energies(c0: SliceCoords, q, p):
    """The Sutherland energy of coupling ``c0.x`` along ``(q, p)``."""
    return 0.5 * p**2 + c0.x**2 / (8.0 * np.sin(q) ** 2)


def _deviation(q, p, q_ref, p_ref):
    dq, dp = np.abs(q - q_ref), np.abs(p - p_ref)
    return np.where(dp > dq, dp, dq)  # Python's max(dq, dp)


@dataclass(frozen=True)
class TrajectoryComparison:
    """Side-by-side record, at the sample times ``t``, of the regauged exact
    flow (``q``, ``p``) and the exact Sutherland motion of
    :func:`sutherland_closed_form` (``q_oracle``, ``p_oracle``, and its
    ``energy`` and ``energy_drift``). ``deviation`` is the larger of the two
    coordinate gaps per sample."""

    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    q_oracle: np.ndarray
    p_oracle: np.ndarray
    energy: np.ndarray
    deviation: np.ndarray
    max_deviation: float
    energy_drift: float
    domain_exit: bool


def reduced_dynamics_match(
    c0: SliceCoords,
    T: float = 2.0,
    steps: int = 10_000,
) -> TrajectoryComparison:
    """Flow the slice point with the exact quadratic-Casimir flow, regauge
    back to the slice, and compare against the exact Sutherland motion.

    ``T`` is Sutherland time; the exact flow runs at ``T / TIME_SCALE``. Of a
    grid of ``steps`` equal steps, the comparison samples every
    ``max(1, steps // 1000)``-th point and the last, the points at which
    :func:`rk4_deviation` compares an :func:`integrate_sutherland` run of
    ``steps`` steps; all samples are flowed in one stacked :func:`free_flow`
    and regauged by one :func:`regauge_stack`. A gauge failure along the way
    (the trajectory reaching ``q -> 0`` or ``q -> pi``) is reported through
    ``domain_exit`` rather than raised, and the comparison ends at the first
    failing sample.
    """
    idx = _sample_steps(steps)
    t = np.linspace(0.0, T, steps + 1)[idx]
    q_exact, p_exact = sutherland_closed_form(c0, t)
    energies = _energies(c0, q_exact, p_exact)
    drift = float(np.max(np.abs(energies - sutherland_energy(c0))))
    q, p, _, failures = regauge_stack(free_flow(slice_point(c0), 2, t / TIME_SCALE))
    k = min(failures, default=len(t))
    q, p, q_exact, p_exact = q[:k], p[:k], q_exact[:k], p_exact[:k]
    deviation = _deviation(q, p, q_exact, p_exact)
    return TrajectoryComparison(
        t[:k],
        q,
        p,
        q_exact,
        p_exact,
        energies[:k],
        deviation,
        max((0.0, *deviation)),
        drift,
        bool(failures),
    )


def rk4_deviation(comp: TrajectoryComparison, c0: SliceCoords, T: float, steps: int):
    """The third route: :func:`integrate_sutherland` from ``c0`` over ``T`` in
    ``steps`` steps against the regauged flow of ``comp``, the
    :func:`reduced_dynamics_match` of the same arguments. Returns the largest
    deviation at ``comp``'s samples and the RK4 energy drift over every step."""
    t, q, p = integrate_sutherland(c0, T, steps)
    idx = _sample_steps(steps)[: len(comp.t)]
    if not np.array_equal(t[idx], comp.t):
        raise ValueError("the comparison was sampled on another time grid")
    deviation = _deviation(comp.q, comp.p, q[idx], p[idx])
    drift = float(np.max(np.abs(_energies(c0, q, p) - sutherland_energy(c0))))
    return max((0.0, *deviation)), drift


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
