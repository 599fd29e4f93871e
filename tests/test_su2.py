"""Tests for the explicit SU(2) reduction."""

import re

import numpy as np
import pytest

from redint import harness, su2
from redint.free_motion import constants_map, free_flow
from redint.groups import (
    TAU_EIG,
    GroupContext,
    check_algebra,
    check_group,
    group_exp,
    joint_centralizer_dim,
    norm,
    random_algebra,
    random_group,
)
from redint.phase import PhasePoint, act, moment_map
from redint.su2 import (
    EXCEPTIONAL_Q,
    GaugeError,
    P_GRID,
    Q_GRID,
    SliceCoords,
    X_GRID,
    calibrate_time_scale,
    energy_identity_residual,
    exceptional_point_audit,
    integrate_sutherland,
    reduced_dynamics_match,
    regauge_stack,
    regauge_to_slice,
    rk4_deviation,
    slice_image_first_component,
    slice_moment_value,
    slice_point,
    sutherland_closed_form,
    sutherland_energy,
    trajectory_csv_rows,
)

CTX2 = GroupContext(2)


def test_slice_coords_validation():
    with pytest.raises(ValueError):
        SliceCoords(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        SliceCoords(np.pi, 0.0, 1.0)
    with pytest.raises(ValueError):
        SliceCoords(1.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "q, p, x",
    [
        (1.0, np.nan, 1.0),
        (1.0, np.inf, 1.0),
        (1.0, 0.0, np.inf),
        (1.0, -np.inf, 1.0),
    ],
)
def test_slice_coords_rejects_non_finite_input(q, p, x):
    with pytest.raises(ValueError, match="finite"):
        SliceCoords(q, p, x)


def test_slice_coords_rejects_non_finite_and_out_of_range_array_entries():
    q, p = np.meshgrid(Q_GRID, P_GRID, indexing="ij")
    x = np.full(q.shape, 1.0)
    SliceCoords(q, p, x)
    for field, value, message in (
        ("p", np.nan, "finite"),
        ("p", -np.inf, "finite"),
        ("x", np.inf, "finite"),
        ("x", 0.0, "positive"),
        ("q", np.nan, "between 0 and pi"),
        ("q", np.pi, "between 0 and pi"),
    ):
        fields = {"q": q.copy(), "p": p.copy(), "x": x.copy()}
        fields[field][17, 4] = value
        with pytest.raises(ValueError, match=message):
            SliceCoords(**fields)
    with pytest.raises(ValueError, match="one shape"):
        SliceCoords(q, p, 1.0)


def test_slice_point_structure():
    x = slice_point(SliceCoords(np.pi / 2, 0.0, 1.0))
    check_group(x.g)
    check_algebra(x.J)
    assert np.linalg.norm(x.J + x.J.conj().T) < 1e-14


def test_slice_moment_and_image_closed_forms():
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = SliceCoords(rng.uniform(0.1, np.pi - 0.1), rng.uniform(-2, 2), rng.uniform(0.2, 4))
        x = slice_point(c)
        assert np.linalg.norm(moment_map(x) - slice_moment_value(c.x)) < 1e-12
        assert np.linalg.norm(constants_map(x).X - slice_image_first_component(c)) < 1e-12


def test_energy_values():
    assert sutherland_energy(SliceCoords(np.pi / 2, 0.0, 1.0)) == pytest.approx(0.125)
    assert sutherland_energy(SliceCoords(np.pi / 4, 0.0, 2.0)) == pytest.approx(1.0)


def test_energy_identity_on_grid():
    worst = 0.0
    for x_val in X_GRID:
        for q in Q_GRID:
            for p in P_GRID:
                worst = max(worst, energy_identity_residual(SliceCoords(q, p, x_val)))
    assert worst <= 1e-12


def test_exceptional_point_audit():
    a1 = exceptional_point_audit(1.0)
    assert a1.image_stabilizer_dim == 1
    assert a1.projected_span == 0
    assert a1.grid_min_energy == pytest.approx(0.125)
    assert a1.min_attained_at_exceptional
    a2 = exceptional_point_audit(2.0)
    assert a2.grid_min_energy == pytest.approx(0.5)
    assert a2.min_attained_at_exceptional


def test_stabilizer_dichotomy_off_the_exceptional_point():
    rng = np.random.default_rng(7)
    for _ in range(25):
        q = float(rng.uniform(0.1, np.pi - 0.1))
        p = float(rng.uniform(-2.0, 2.0))
        if abs(q - EXCEPTIONAL_Q) < 1e-2 and abs(p) < 1e-2:
            continue
        z = constants_map(slice_point(SliceCoords(q, p, 1.0)))
        assert joint_centralizer_dim([z.X, z.Y], []) == 0


def test_regauge_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(20):
        c = SliceCoords(rng.uniform(0.1, np.pi - 0.1), rng.uniform(-2, 2), rng.uniform(0.2, 4))
        got = regauge_to_slice(slice_point(c))
        assert abs(got.q - c.q) < 1e-10
        assert abs(got.p - c.p) < 1e-10
        assert abs(got.x - c.x) < 1e-10


def test_regauge_is_gauge_invariant():
    rng = np.random.default_rng(11)
    for _ in range(10):
        c = SliceCoords(rng.uniform(0.2, np.pi - 0.2), rng.uniform(-1, 1), rng.uniform(0.5, 2))
        eta = random_group(CTX2, rng)
        got = regauge_to_slice(act(eta, slice_point(c)))
        assert abs(got.q - c.q) < 1e-9
        assert abs(got.p - c.p) < 1e-9
        assert abs(got.x - c.x) < 1e-9


def test_regauge_recovers_momentum_from_diagonal():
    c = SliceCoords(0.8, -1.3, 2.0)
    x = slice_point(c)
    got = regauge_to_slice(x)
    assert got.p == pytest.approx(float(np.imag(x.J[0, 0])), abs=1e-10)


def test_regauge_rejects_zero_moment():
    J = np.diag([1j, -1j])
    g = np.diag([np.exp(0.5j), np.exp(-0.5j)])
    with pytest.raises(GaugeError):
        regauge_to_slice(PhasePoint(g, J))  # diagonal pair commutes, moment is zero
    with pytest.raises(GaugeError):
        regauge_to_slice(PhasePoint(np.eye(2, dtype=complex), J))


def test_time_scale_calibration():
    assert calibrate_time_scale(1.0) == pytest.approx(2.0, abs=1e-6)
    assert calibrate_time_scale(2.0) == pytest.approx(2.0, abs=1e-6)


def test_oracle_energy_drift():
    c0 = SliceCoords(np.pi / 3, 0.0, 1.0)
    t, q, p = integrate_sutherland(c0, 2.0, 10_000)
    e = 0.5 * p**2 + 1.0 / (8.0 * np.sin(q) ** 2)
    assert np.max(np.abs(e - e[0])) < 1e-8


def test_reduced_dynamics_match():
    comp = reduced_dynamics_match(SliceCoords(np.pi / 3, 0.0, 1.0), T=2.0, steps=10_000)
    assert not comp.domain_exit
    assert comp.max_deviation <= 1e-6
    assert comp.energy_drift <= 1e-8


@pytest.mark.parametrize("steps", [0, -5])
def test_step_count_below_one_is_rejected(steps):
    with pytest.raises(ValueError, match="steps must be at least 1"):
        integrate_sutherland(SliceCoords(np.pi / 3, 0.0, 1.0), T=2.0, steps=steps)
    with pytest.raises(ValueError, match="steps must be at least 1"):
        reduced_dynamics_match(SliceCoords(np.pi / 3, 0.0, 1.0), T=2.0, steps=steps)


def test_equilibrium_is_stationary():
    comp = reduced_dynamics_match(SliceCoords(EXCEPTIONAL_Q, 0.0, 1.0), T=2.0, steps=2_000)
    assert comp.max_deviation < 1e-8


def test_trajectory_csv_format():
    comp = reduced_dynamics_match(SliceCoords(np.pi / 3, 0.0, 1.0), T=0.5, steps=500)
    header, rows = trajectory_csv_rows(comp)
    assert header == "t,q,p,q_oracle,p_oracle,energy,deviation"
    for row in rows:
        fields = row.split(",")
        assert len(fields) == 7
        for field in fields:
            float(field)  # every cell is a plain decimal literal


# References: the eigendecomposition regauge (eigh, det and 2 x 2 products) that
# the closed form replaced, the numpy-scalar RK4 and the per-sample comparison
# loop as written before the stacked versions replaced them (now against the
# closed-form motion at the time scale 2).


def _reference_regauge(y):
    g = np.asarray(y.g)
    K = (g - g.conj().T) / 2j
    if np.linalg.norm(K) <= TAU_EIG:
        raise GaugeError("group component is central; no slice angle exists")
    w, V = np.linalg.eigh(K)
    U = V[:, ::-1]
    eta = U.conj().T
    eta = eta / np.sqrt(np.linalg.det(eta))
    q = float(np.angle((eta @ g @ eta.conj().T)[0, 0]))
    if not 0.0 < q < np.pi:
        raise GaugeError(f"diagonalized angle {q} outside (0, pi)")
    Jp = eta @ y.J @ eta.conj().T
    off = Jp[0, 1]
    x = float(2.0 * np.sin(q) * abs(off))
    if x <= TAU_EIG:
        raise GaugeError("moment value vanishes; point is outside the slice stratum")
    target = 1j / (1.0 - np.exp(-2j * q))
    theta = 0.5 * (np.angle(target) - np.angle(off))
    tau = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    eta_total = tau @ eta
    p = float(np.imag((eta_total @ y.J @ eta_total.conj().T)[0, 0]))
    c = SliceCoords(q, p, x)
    moved = act(eta_total, y)
    ref = slice_point(c)
    residual = max(
        float(np.linalg.norm(moved.g - ref.g)), float(np.linalg.norm(moved.J - ref.J))
    )
    if residual > 1e-8:
        raise GaugeError(f"gauge residual {residual:.3e} exceeds 1e-8")
    return c


def _reference_rhs(q, p, x):
    s = np.sin(q)
    return p, x * x * np.cos(q) / (4.0 * s**3)


def _reference_integrate(c0, T, steps):
    h = T / steps
    q = np.empty(steps + 1)
    p = np.empty(steps + 1)
    q[0], p[0] = c0.q, c0.p
    x = c0.x
    for k in range(steps):
        q1, p1 = _reference_rhs(q[k], p[k], x)
        q2, p2 = _reference_rhs(q[k] + 0.5 * h * q1, p[k] + 0.5 * h * p1, x)
        q3, p3 = _reference_rhs(q[k] + 0.5 * h * q2, p[k] + 0.5 * h * p2, x)
        q4, p4 = _reference_rhs(q[k] + h * q3, p[k] + h * p3, x)
        q[k + 1] = q[k] + h * (q1 + 2 * q2 + 2 * q3 + q4) / 6.0
        p[k + 1] = p[k] + h * (p1 + 2 * p2 + 2 * p3 + p4) / 6.0
    return np.linspace(0.0, T, steps + 1), q, p


def _reference_rows(c0, T, steps, regauge):
    """Rows ``(t, q, p, q_oracle, p_oracle, deviation)`` of the per-sample
    comparison loop: each sample flowed for ``t / 2.0``, regauged by the
    one-point ``regauge`` and compared with the closed form at that one time."""
    t_arr = np.linspace(0.0, T, steps + 1)
    x0 = slice_point(c0)
    idx = list(range(0, steps + 1, max(1, steps // 1000)))
    if idx[-1] != steps:
        idx.append(steps)
    rows = []
    for k in idx:
        try:
            c_t = regauge(free_flow(x0, 2, t_arr[k] / 2.0))
        except GaugeError:
            break
        q, p = sutherland_closed_form(c0, t_arr[k])
        rows.append((t_arr[k], c_t.q, c_t.p, q, p, max(abs(c_t.q - q), abs(c_t.p - p))))
    return [np.array(col) for col in zip(*rows)]


STARTS = [
    SliceCoords(np.pi / 3, 0.0, 1.0),
    SliceCoords(EXCEPTIONAL_Q, 0.0, 1.0),
    SliceCoords(1.1, 0.45, 0.6),
    SliceCoords(2.3, -0.5, 1.9),
    SliceCoords(0.3, 0.0, 0.5),
]


@pytest.mark.parametrize("c0", STARTS)
def test_integrate_sutherland_equals_the_numpy_scalar_loop_bit_for_bit(c0):
    got = integrate_sutherland(c0, 2.0, 10_000)
    for a, b in zip(got, _reference_integrate(c0, 2.0, 10_000), strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("steps", [1, 7, 2000])
def test_short_sutherland_runs_equal_the_numpy_scalar_loop_bit_for_bit(steps):
    for c0 in STARTS:
        got = integrate_sutherland(c0, 2.0, steps)
        for a, b in zip(got, _reference_integrate(c0, 2.0, steps), strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def _probe_points(rng):
    """Slice points, their gauge rotations, and points along exact flows."""
    points = []
    for _ in range(40):
        c = SliceCoords(rng.uniform(0.05, np.pi - 0.05), rng.uniform(-3, 3), rng.uniform(0.1, 8))
        points.append(slice_point(c))
        points.append(act(random_group(CTX2, rng), slice_point(c)))
    flowed = free_flow(slice_point(SliceCoords(1.0, 0.4, 1.3)), 2, np.linspace(-2, 2, 41))
    points += [PhasePoint(g, J) for g, J in zip(flowed.g, flowed.J)]
    return points


def _stack(points):
    return PhasePoint(np.array([y.g for y in points]), np.array([y.J for y in points]))


# Forward-error bound between the closed-form regauge and the eigendecomposition
# route (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3; the 2 x 2
# Hermitian eigenvector as in Golub and Van Loan, section 8.5). Both routes take a
# unit eigenvector u of the larger eigenvalue of K = (g - g^H) / 2i and read off
# q = angle(u^H g u), p = Im(u^H J u) and x = 2 sin q |(eta J eta^H)_01|, with
# eta in SU(2) of first row conj(u); none of the three depends on the phase of u.
# - u. The closed form forms w, |w|, d, r and (d + r, conj(w)) or (w, r - d)
#   with no cancellation on either branch, each to within 4 eps relative, and
#   the normalisation adds 4 eps, so u is within 12 eps of an exact eigenvector
#   of the input's K. eigh is backward stable: its u is an eigenvector of K + E
#   with |E|_2 <= c eps |K|_2 = c eps sin q, half the gap 2 sin q of K, so by the
#   sin theta theorem of Davis and Kahan it is within c eps / 2, which is 12 eps
#   for a backward-error constant c <= 24.
# - q. u is an eigenvector of g, so u^H g u is stationary in u; its four
#   products and angle add at most 6 eps.
# - p. An error delta in u moves u^H J u by at most 2 |J| delta, and forming it
#   adds 4 eps |J|: at most 28 eps |J|.
# - x = 2 sin q |(eta J eta^H)_01|. The modulus moves by at most 28 eps |J| as p
#   does, times 2 sin q <= 2; sin q moves by at most 6 eps, times
#   2 |(eta J eta^H)_01| <= 2 |J|; the products add 3 eps x <= 6 eps |J|: at most
#   (56 + 12 + 6) eps |J| = 74 eps |J|.
# Each route is within 74 eps (1 + |J|_F) of the exact (q, p, x), so the two are
# within twice that. The probe points below differ by at most 2.9 eps (1 + |J|_F).
REGAUGE_BOUND = 148


def _regauge_bound(y):
    return REGAUGE_BOUND * np.finfo(float).eps * (1.0 + np.linalg.norm(y.J))


def _within_bound(got, want, y):
    bound = _regauge_bound(y)
    return all(abs(a - b) <= bound for a, b in zip((got.q, got.p, got.x), (want.q, want.p, want.x)))


def test_regauge_stack_equals_the_one_point_regauge_bit_for_bit():
    """The stack equals the one-point regauge bit for bit, and both are within the
    forward-error bound of the eigendecomposition route."""
    points = _probe_points(np.random.default_rng(21)) + [y for _, y in _branch_points()]
    q, p, x, failures = regauge_stack(_stack(points))
    assert failures == {}
    for i, y in enumerate(points):
        one = regauge_to_slice(y)
        assert (q[i], p[i], x[i]) == (one.q, one.p, one.x)
        assert _within_bound(one, _reference_regauge(y), y)


def _branch_points():
    """Points of known slice coordinates on either side of the branch rule
    ``d >= 0`` of the closed-form eigenvector, on ``d = 0`` and on ``w = 0``."""
    c = SliceCoords(1.0, 0.4, 1.3)
    y = slice_point(c)
    rng = np.random.default_rng(23)
    # conjugating by the swap permutes and negates entries exactly
    swap = np.array([[0.0, 1.0], [-1.0, 0.0]])
    # conjugating by half takes sigma_z to sigma_x, so g to cos q + i sin q sigma_x
    half = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    about_x = np.array([[np.cos(c.q), 1j * np.sin(c.q)], [1j * np.sin(c.q), np.cos(c.q)]])
    rotations = [act(random_group(CTX2, rng), y) for _ in range(6)]
    # near the diagonal with the smaller eigenvalue first: d < 0 and |w| ~ 1e-4
    tilt = act(group_exp(1e-4 * random_algebra(CTX2, rng)), act(swap, y))
    return [
        ("w = 0, d > 0", y),
        ("w = 0, d < 0", act(swap, y)),
        ("d = 0", PhasePoint(about_x, act(half, y).J)),
        ("d > 0", next(z for z in rotations if _d_and_w(z)[0] > 0.0)),
        ("d < 0", next(z for z in rotations if _d_and_w(z)[0] < 0.0)),
        ("d < 0, |w| ~ 1e-4", tilt),
    ]


def _d_and_w(y):
    """``(d, w)`` of the closed-form regauge: ``d = (Im g00 - Im g11) / 2`` and
    ``w = (g01 - conj(g10)) / 2i``."""
    return 0.5 * (y.g[0, 0].imag - y.g[1, 1].imag), (y.g[0, 1] - np.conj(y.g[1, 0])) / 2j


@pytest.mark.parametrize("case", range(6))
def test_regauge_recovers_the_slice_coordinates_on_both_branches_and_their_boundary(case):
    name, y = _branch_points()[case]
    d, w = _d_and_w(y)
    assert {
        "w = 0, d > 0": w == 0.0 and d > 0.0,
        "w = 0, d < 0": w == 0.0 and d < 0.0,
        "d = 0": d == 0.0 and w != 0.0,
        "d > 0": d > 0.0,
        "d < 0": d < 0.0,
        "d < 0, |w| ~ 1e-4": d < 0.0 and 1e-5 < abs(w) < 1e-3,
    }[name]
    got = regauge_to_slice(y)
    assert _within_bound(got, SliceCoords(1.0, 0.4, 1.3), y)
    assert _within_bound(got, _reference_regauge(y), y)


def test_each_gauge_failure_reason_is_flagged_alike_by_every_route():
    y = slice_point(SliceCoords(1.0, 0.2, 1.0))
    bad = [
        PhasePoint(np.eye(2, dtype=complex), y.J),  # central group part
        # off SU(2), both eigenvalues of K negative: the angle is -0.2
        PhasePoint(np.diag([np.exp(-0.2j), np.exp(-0.4j)]), y.J),
        # commuting pair: the moment value vanishes
        PhasePoint(np.diag([np.exp(0.5j), np.exp(-0.5j)]), np.diag([1j, -1j])),
        PhasePoint((1.0 + 1e-6) * y.g, y.J),  # g 1e-6 off SU(2)
        PhasePoint(y.g, y.J + 1e-6j * np.eye(2)),  # J of trace 2e-6 i
    ]
    good = _probe_points(np.random.default_rng(24))[:3]
    points = [good[0], *bad[:3], good[1], *bad[3:], good[2]]
    _, _, _, failures = regauge_stack(_stack(points))
    assert failures == {
        1: "group component is central; no slice angle exists",
        2: f"diagonalized angle {np.angle(np.exp(-0.2j))} outside (0, pi)",
        3: "moment value vanishes; point is outside the slice stratum",
        5: "gauge residual 1.414e-06 exceeds 1e-8",
        6: "gauge residual 2.000e-06 exceeds 1e-8",
    }
    for i in failures:
        with pytest.raises(GaugeError) as err:
            _reference_regauge(points[i])
        assert failures[i] == str(err.value)
        with pytest.raises(GaugeError, match=re.escape(failures[i])):
            regauge_to_slice(points[i])


def test_regauge_stack_of_no_points_and_of_other_shapes():
    empty = np.zeros((0, 2, 2), dtype=complex)
    q, p, x, failures = regauge_stack(PhasePoint(empty, empty))
    assert failures == {}
    assert all(a.shape == (0,) and a.dtype == np.float64 for a in (q, p, x))
    y = slice_point(SliceCoords(1.0, 0.2, 1.0))
    for g, J in ((y.g, y.J), (np.eye(3)[None], np.eye(3)[None] * 0j), (y.g[None, None], y.J[None, None])):
        with pytest.raises(GaugeError, match="only for 2 x 2 points"):
            regauge_stack(PhasePoint(g, J))


def test_regauge_stack_flags_exactly_the_points_the_one_point_regauge_rejects():
    good = _probe_points(np.random.default_rng(22))[:6]
    J = np.diag([1j, -1j])
    bad = [
        PhasePoint(np.eye(2, dtype=complex), J),  # central group part
        PhasePoint(-np.eye(2, dtype=complex), slice_point(SliceCoords(1.0, 0.2, 1.0)).J),
        PhasePoint(np.diag([np.exp(0.5j), np.exp(-0.5j)]), J),  # commuting pair
        PhasePoint(np.diag([np.exp(2.0j), np.exp(-2.0j)]), 0.3 * J),
    ]
    points = [good[0], bad[0], good[1], bad[1], bad[2], good[2], bad[3], good[3]]
    _, _, _, failures = regauge_stack(_stack(points))
    rejected = 0
    for i, y in enumerate(points):
        try:
            _reference_regauge(y)
        except GaugeError as err:
            rejected += 1
            assert failures.pop(i) == str(err)
            with pytest.raises(GaugeError, match=re.escape(str(err))):
                regauge_to_slice(y)
    assert rejected == len(bad)
    assert failures == {}


@pytest.mark.parametrize("c0", STARTS[:4])
def test_reduced_dynamics_match_equals_the_per_sample_loop_bit_for_bit(c0):
    comp = reduced_dynamics_match(c0, T=2.0, steps=2_000)
    t, q, p, q_exact, p_exact, deviation = _reference_rows(c0, 2.0, 2_000, regauge_to_slice)
    for got, want in (
        (comp.t, t),
        (comp.q, q),
        (comp.p, p),
        (comp.q_oracle, q_exact),
        (comp.p_oracle, p_exact),
        (comp.deviation, deviation),
    ):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert not comp.domain_exit
    assert repr(comp.max_deviation) == repr(max((0.0, *deviation)))
    # the flow of C_2 keeps J, so one bound holds at every sample
    t_ref, q_ref, p_ref, q_exact_ref, p_exact_ref, deviation_ref = _reference_rows(
        c0, 2.0, 2_000, _reference_regauge
    )
    assert np.array_equal(t_ref, t) and np.array_equal(q_exact_ref, q_exact)
    assert np.array_equal(p_exact_ref, p_exact)
    bound = _regauge_bound(slice_point(c0))
    for got, want in ((q, q_ref), (p, p_ref), (deviation, deviation_ref)):
        assert np.max(np.abs(got - want)) <= bound


@pytest.mark.parametrize("k", [1, 7, 300])
def test_reduced_dynamics_match_keeps_the_rows_before_the_first_gauge_failure(monkeypatch, k):
    c0 = SliceCoords(np.pi / 3, 0.2, 1.0)
    full = reduced_dynamics_match(c0, T=0.5, steps=500)
    real = su2.regauge_stack

    def failing_from_k(y):
        q, p, x, failures = real(y)
        return q, p, x, {**failures, **{i: "stubbed" for i in range(k, len(q))}}

    monkeypatch.setattr(su2, "regauge_stack", failing_from_k)
    cut = reduced_dynamics_match(c0, T=0.5, steps=500)
    assert cut.domain_exit and not full.domain_exit
    for field in ("t", "q", "p", "q_oracle", "p_oracle", "energy", "deviation"):
        assert np.array_equal(getattr(cut, field), getattr(full, field)[:k])
    assert cut.max_deviation == max((0.0, *full.deviation[:k]))


# Forward-error bounds of sutherland_closed_form, to first order in u = eps / 2
# (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3). Arithmetic and
# sqrt round to within u; sin, cos and arctan2 are taken to be within two ulps,
# 4u (numpy's loops match the C library's sin and cos bit for bit, and its atan2
# to one ulp). Write C = A cos(wt + phi) and S = A sin(wt + phi) as computed.
# - At t = 0, cos 0 = 1 and sin 0 = 0 are exact, so C = a and S = b with no
#   rounding. sin q = sqrt(alpha/E + b^2) is the computed sin q0 (4u) to within
#   5.5u: E, alpha/E and b^2 add 9u to its square and sqrt adds u. a =
#   sin(EXCEPTIONAL_Q - q0) is cos q0 to within 4u |cos q0| + 2.2u sin q0 (the
#   0.55u offset of EXCEPTIONAL_Q from pi/2, and the rounding of the subtraction
#   below pi/4). arctan2 turns these into 13.7u sin q0, and adds 4u q0: |q - q0|
#   <= 17.7u q0 < 10 eps q0. p = w b / sin q cancels w, and b and sin q share the
#   computed sin q0: four roundings and the 5.5u of sin q give |p - p0| <= 9.5u |p0|.
# - Energy. The output has sin^2 q = (alpha/E + S^2) / (1 + eta) with
#   eta = C^2 + S^2 + alpha/E - 1 (zero in exact arithmetic), so its energy is
#   E (1 + eta (alpha/E) / sin^2 q), within |eta| E of E. eta gathers a and b
#   (26u A^2 + 2.2u: 4u and 2.2u in a, 13u in b), their rotation by the rounded
#   cos wt and sin wt (24.6u A^2) and alpha/E (14u): |eta| <= 53u. The rest: E
#   itself (12u), sin q and p (4u and 6u), the evaluation of the energy at the
#   output and at the start (12u each), and the rounding of q by arctan2, at
#   most 4 pi u, which moves alpha / sin^2 q by 2 |cot q| times that. In all
#   |E(t) - E(0)| <= eps E (50 + 4 pi |cot q(t)|).
# On the 2,000 starts below the start is recovered within 1.0 eps q0 and
# 1.7 eps |p0|, and the energy within 0.14 of its bound.
CLOSED_FORM_START_BOUND = 10
CLOSED_FORM_ENERGY_BOUND = 50
CLOSED_FORM_ENERGY_COT = 4 * np.pi


def _random_starts(rng, m):
    """``m`` slice starts, arrays of shape ``(m, 1)``: q down to 0.05 from 0 and
    pi, |p| up to 3 and x from 0.1 to 8."""
    shape = (m, 1)
    return SliceCoords(
        rng.uniform(0.05, np.pi - 0.05, shape), rng.uniform(-3.0, 3.0, shape), rng.uniform(0.1, 8.0, shape)
    )


def test_closed_form_returns_the_start_at_time_zero():
    c = _random_starts(np.random.default_rng(41), 2_000)
    q, p = sutherland_closed_form(c, 0.0)
    eps = np.finfo(float).eps
    assert np.all(np.abs(q - c.q) <= CLOSED_FORM_START_BOUND * eps * c.q)
    assert np.all(np.abs(p - c.p) <= CLOSED_FORM_START_BOUND * eps * np.abs(c.p))
    q, p = sutherland_closed_form(SliceCoords(1.2, 0.0, 1.0), 0.0)
    assert p == 0.0 and abs(q - 1.2) <= CLOSED_FORM_START_BOUND * eps * 1.2


def test_closed_form_conserves_the_energy():
    c = _random_starts(np.random.default_rng(42), 2_000)
    q, p = sutherland_closed_form(c, np.linspace(0.0, 20.0, 401))
    energy = sutherland_energy(SliceCoords(q, p, np.broadcast_to(c.x, q.shape)))
    e0 = sutherland_energy(c)
    cot = np.abs(np.cos(q) / np.sin(q))
    bound = np.finfo(float).eps * e0 * (CLOSED_FORM_ENERGY_BOUND + CLOSED_FORM_ENERGY_COT * cot)
    assert np.all(np.abs(energy - e0) <= bound)


def test_closed_form_keeps_q_inside_the_slice():
    c = _random_starts(np.random.default_rng(43), 2_000)
    t = np.linspace(0.0, 20.0, 401)
    q, p = sutherland_closed_form(c, t)
    assert q.shape == p.shape == (2_000, 401)
    # SliceCoords rejects a q outside (0, pi) and any non-finite entry
    SliceCoords(q, p, np.broadcast_to(c.x, q.shape))
    # the stack of starts is each start alone, bit for bit
    for i in (0, 999, 1_999):
        one = sutherland_closed_form(SliceCoords(float(c.q[i, 0]), float(c.p[i, 0]), float(c.x[i, 0])), t)
        assert np.array_equal(one[0], q[i]) and np.array_equal(one[1], p[i])


@pytest.mark.parametrize("x_val", [0.1, 1.0, 8.0])
def test_closed_form_keeps_the_equilibrium_exactly(x_val):
    q, p = sutherland_closed_form(SliceCoords(EXCEPTIONAL_Q, 0.0, x_val), np.linspace(0.0, 100.0, 1_001))
    assert np.all(q == EXCEPTIONAL_Q)
    assert np.all(p == 0.0)


def test_rk4_converges_to_the_closed_form_at_order_four():
    """Halving the step divides the error of a fourth-order method by 2^4 up to
    a relative O(h) term; the observed order log2 of the ratio stays within
    1/4 of 4 from 50 to 400 steps."""
    for c0 in (STARTS[0], *STARTS[2:]):
        errors = []
        for steps in (50, 100, 200, 400):
            t, q, p = integrate_sutherland(c0, 2.0, steps)
            q_exact, p_exact = sutherland_closed_form(c0, t)
            errors.append(max(np.max(np.abs(q - q_exact)), np.max(np.abs(p - p_exact))))
        order = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(np.abs(order - 4.0) <= 0.25), order


def test_su2_dynamics_takes_the_larger_deviation_of_the_closed_form_and_rk4_routes():
    c0 = SliceCoords(np.pi / 3.0, 0.0, 1.0)
    comp = reduced_dynamics_match(c0, T=2.0, steps=10_000)
    t, q, p = integrate_sutherland(c0, 2.0, 10_000)
    assert np.array_equal(comp.t, t[::10])
    rk4 = max(max(abs(a - b), abs(c - d)) for a, b, c, d in zip(comp.q, q[::10], comp.p, p[::10]))
    energy = 0.5 * p**2 + c0.x**2 / (8.0 * np.sin(q) ** 2)
    drift = float(np.max(np.abs(energy - sutherland_energy(c0))))
    assert rk4_deviation(comp, c0, 2.0, 10_000) == (rk4, drift)
    report = harness.run_check("su2-dynamics", harness.ExperimentConfig(n=2))
    assert report.observed["max_deviation"] == max(comp.max_deviation, rk4)
    assert report.observed["oracle_energy_drift"] == drift
    assert report.observed["time_scale"] == calibrate_time_scale(1.0)
    assert report.passed
    with pytest.raises(ValueError, match="another time grid"):
        rk4_deviation(reduced_dynamics_match(c0, T=2.0, steps=2_000), c0, 2.0, 10_000)


# References: the per-point slice closed forms and the su2-energy grid loop
# as written before the stacked forms replaced them.


def _reference_slice_point(q, p, x):
    g = np.diag([np.exp(1j * q), np.exp(-1j * q)])
    J = np.array(
        [
            [1j * p, 1j * x / (1.0 - np.exp(-2j * q))],
            [1j * x / (1.0 - np.exp(2j * q)), -1j * p],
        ]
    )
    return PhasePoint(g, J)


def _reference_image(q, p, x):
    return np.array(
        [
            [1j * p, 1j * x / (np.exp(2j * q) - 1.0)],
            [1j * x / (np.exp(-2j * q) - 1.0), -1j * p],
        ]
    )


def _reference_energy(q, p, x):
    s = np.sin(q)
    return 0.5 * p * p + x * x / (8.0 * s * s)


def _reference_residual(q, p, x):
    J = _reference_slice_point(q, p, x).J
    traced = -0.25 * np.trace(J @ J).real
    return abs(float(traced) - _reference_energy(q, p, x))


def _grid():
    """The (x, q, p) slice grid, q-major within each coupling."""
    return [(x, q, p) for x in X_GRID for q in Q_GRID for p in P_GRID]


@pytest.fixture(scope="module")
def grid_loop():
    """Per-point arrays of the su2-energy loop, shape ``(5, 39, 21)``."""
    cols = {k: [] for k in ("g", "J", "image", "energy", "residual", "moment", "mismatch")}
    for x, q, p in _grid():
        pt = _reference_slice_point(q, p, x)
        image = _reference_image(q, p, x)
        moment = np.array([[0.0, 1j * x], [1j * x, 0.0]])
        cols["g"].append(pt.g)
        cols["J"].append(pt.J)
        cols["image"].append(image)
        cols["energy"].append(_reference_energy(q, p, x))
        cols["residual"].append(_reference_residual(q, p, x))
        cols["moment"].append(float(np.linalg.norm(moment_map(pt) - moment)))
        cols["mismatch"].append(float(np.linalg.norm(constants_map(pt).X - image)))
    shape = (len(X_GRID), len(Q_GRID), len(P_GRID))
    return {k: np.array(v).reshape(shape + np.shape(v[0])) for k, v in cols.items()}


def test_stacked_slice_closed_forms_equal_the_per_point_loop_bit_for_bit(grid_loop):
    for k, x_val in enumerate(X_GRID):
        c = su2.slice_grid(x_val)
        pt = slice_point(c)
        # tobytes compares every bit, the signs of zeros included
        assert pt.g.shape == pt.J.shape == (len(Q_GRID), len(P_GRID), 2, 2)
        assert pt.g.tobytes() == grid_loop["g"][k].tobytes()
        assert pt.J.tobytes() == grid_loop["J"][k].tobytes()
        assert slice_image_first_component(c).tobytes() == grid_loop["image"][k].tobytes()
        assert sutherland_energy(c).tobytes() == grid_loop["energy"][k].tobytes()
        assert energy_identity_residual(c).tobytes() == grid_loop["residual"][k].tobytes()
        moment = np.array([[0.0, 1j * x_val], [1j * x_val, 0.0]])
        assert np.array_equal(slice_moment_value(c.x), np.broadcast_to(moment, pt.g.shape))
    # one stack over all couplings gives the same bits
    x, q, p = (np.array(v).reshape(grid_loop["energy"].shape) for v in zip(*_grid()))
    whole = SliceCoords(q, p, x)
    assert slice_point(whole).J.tobytes() == grid_loop["J"].tobytes()
    assert energy_identity_residual(whole).tobytes() == grid_loop["residual"].tobytes()


def test_scalar_slice_coordinates_keep_the_per_point_types_and_bits():
    for x, q, p in _grid()[::97]:
        c = SliceCoords(q, p, x)
        pt, ref = slice_point(c), _reference_slice_point(q, p, x)
        assert pt.g.shape == (2, 2) and pt.g.tobytes() == ref.g.tobytes()
        assert pt.J.tobytes() == ref.J.tobytes()
        assert slice_image_first_component(c).tobytes() == _reference_image(q, p, x).tobytes()
        for got, want in (
            (sutherland_energy(c), _reference_energy(q, p, x)),
            (energy_identity_residual(c), _reference_residual(q, p, x)),
        ):
            assert type(got) is type(want) and repr(got) == repr(want)


def test_su2_energy_per_point_arrays_equal_the_grid_loop_bit_for_bit(grid_loop):
    """The three arrays ``_check_su2_energy`` takes its maxima over."""
    for k, x_val in enumerate(X_GRID):
        c = su2.slice_grid(x_val)
        pt = slice_point(c)
        residual = energy_identity_residual(c)
        moment = norm(moment_map(pt) - slice_moment_value(c.x))
        mismatch = norm(constants_map(pt).X - slice_image_first_component(c))
        assert residual.tobytes() == grid_loop["residual"][k].tobytes()
        assert moment.tobytes() == grid_loop["moment"][k].tobytes()
        assert mismatch.tobytes() == grid_loop["mismatch"][k].tobytes()
    report = harness.run_check("su2-energy", harness.ExperimentConfig(n=2))
    assert report.observed == {
        "max_energy_identity_residual": float(np.max(grid_loop["residual"])),
        "max_moment_mismatch": float(np.max(grid_loop["moment"])),
        "max_image_mismatch": float(np.max(grid_loop["mismatch"])),
    }


def test_audit_grid_minimum_equals_the_per_point_minimum(grid_loop):
    for k, x_val in enumerate(X_GRID):
        want = min(sutherland_energy(SliceCoords(q, p, x_val)) for q in Q_GRID for p in P_GRID)
        got = exceptional_point_audit(x_val).grid_min_energy
        assert repr(got) == repr(want) == repr(np.min(grid_loop["energy"][k]))


@pytest.mark.parametrize("x_val", [0.5, 0.77, 1.0, 1.3, 2.0])
def test_time_scale_from_one_stacked_flow_equals_two_flows_bit_for_bit(x_val):
    h = 1e-6
    x0 = slice_point(SliceCoords(np.pi / 3.0, 1.0, x_val))
    qp = regauge_to_slice(free_flow(x0, 2, h)).q
    qm = regauge_to_slice(free_flow(x0, 2, -h)).q
    assert repr(calibrate_time_scale(x_val)) == repr(float((qp - qm) / (2.0 * h)))
