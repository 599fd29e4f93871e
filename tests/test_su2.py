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
    joint_centralizer_dim,
    norm,
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
    slice_image_first_component,
    slice_moment_value,
    slice_point,
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
    assert comp.time_scale == pytest.approx(2.0, abs=1e-6)


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


# References: the one-point regauge, the numpy-scalar RK4 and the per-sample
# comparison loop as written before the stacked versions replaced them.


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


def _reference_rows(c0, T, steps):
    """Rows ``(t, q, p, deviation)`` of the per-sample comparison loop."""
    scale = calibrate_time_scale(c0.x)
    t_arr, q_arr, p_arr = _reference_integrate(c0, T, steps)
    x0 = slice_point(c0)
    idx = list(range(0, steps + 1, max(1, steps // 1000)))
    if idx[-1] != steps:
        idx.append(steps)
    rows = []
    for k in idx:
        try:
            c_t = _reference_regauge(free_flow(x0, 2, t_arr[k] / scale))
        except GaugeError:
            break
        rows.append((t_arr[k], c_t.q, c_t.p, max(abs(c_t.q - q_arr[k]), abs(c_t.p - p_arr[k]))))
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


def test_regauge_stack_equals_the_one_point_regauge_bit_for_bit():
    points = _probe_points(np.random.default_rng(21))
    q, p, x, failures = regauge_stack(_stack(points))
    assert failures == {}
    for i, y in enumerate(points):
        ref = _reference_regauge(y)
        assert (q[i], p[i], x[i]) == (ref.q, ref.p, ref.x)
        assert regauge_to_slice(y) == ref


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
    t, q, p, deviation = _reference_rows(c0, 2.0, 2_000)
    for got, want in ((comp.t, t), (comp.q, q), (comp.p, p), (comp.deviation, deviation)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert not comp.domain_exit
    assert repr(comp.max_deviation) == repr(max((0.0, *deviation)))


@pytest.mark.parametrize("k", [1, 7, 300])
def test_reduced_dynamics_match_keeps_the_rows_before_the_first_gauge_failure(monkeypatch, k):
    c0 = SliceCoords(np.pi / 3, 0.2, 1.0)
    full = reduced_dynamics_match(c0, T=0.5, steps=500)
    real = su2.regauge_stack

    def failing_from_k(y):
        # only the trajectory's regauge fails; short stacks (probes) pass through
        q, p, x, failures = real(y)
        if len(q) <= 2:
            return q, p, x, failures
        return q, p, x, {**failures, **{i: "stubbed" for i in range(k, len(q))}}

    monkeypatch.setattr(su2, "regauge_stack", failing_from_k)
    cut = reduced_dynamics_match(c0, T=0.5, steps=500)
    assert cut.domain_exit and not full.domain_exit
    for field in ("t", "q", "p", "q_oracle", "p_oracle", "energy", "deviation"):
        assert np.array_equal(getattr(cut, field), getattr(full, field)[:k])
    assert cut.max_deviation == max((0.0, *full.deviation[:k]))


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
