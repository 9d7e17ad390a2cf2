"""Trajectory interpolation, vehicle queries, synthetic/FTL generation, KDE.

The closest-vehicle and coverage queries are read from lwr._Embedding, the
one place the solvers form them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafnox.core import ConfigError, CutoffShape, SimulationError, SpatialGrid
from trafnox.lagrangian import (
    Fleet,
    FtlConfig,
    FtlState,
    KdeConfig,
    Trajectory,
    generate_synthetic,
    kde_density,
    kde_velocity,
    optimal_velocity,
    run_ftl,
    step_ftl,
    synthetic_position,
    synthetic_speed,
)
from trafnox.lwr import EmbeddingMode, _Embedding

SHAPE = CutoffShape(ell=0.2, big_l=0.6)


def _line_fleet(*positions_and_speeds):
    return Fleet(tuple(
        Trajectory.from_line(f"v{i}", x0, v)
        for i, (x0, v) in enumerate(positions_and_speeds)
    ))


def _parked(vehicle_id, x_km, tag, t1_h=1.0):
    """A vehicle parked at x_km on [0, t1_h] whose recorded speed is tag."""
    return Trajectory(vehicle_id, times_h=np.array([0.0, t1_h]),
                      positions_km=np.array([x_km, x_km]),
                      speeds_kmh=np.array([float(tag), float(tag)]))


def _tagged_fleet(*positions):
    """Parked vehicles whose recorded speed is their index."""
    return Fleet(tuple(_parked(f"v{i}", x, i) for i, x in enumerate(positions)))


def _closest(fleet, x, t=0.5):
    """Index (the tagged speed) of the closest active vehicle, or None."""
    emb = _Embedding(np.array([x]), t, fleet, SHAPE, EmbeddingMode.CLOSEST_VEHICLE)
    return int(emb.pdot_k[0]) if emb.n_active else None


def _coverage(fleet, x, t=0.5):
    """Active vehicles whose cutoff covers the point x."""
    emb = _Embedding(np.array([x]), t, fleet, SHAPE,
                     EmbeddingMode.AVERAGE_CLOSEST_VEHICLES)
    return int(emb.covering[0]) if emb.n_active else 0


# ---------------------------------------------------------------------------
# trajectories and interpolation
# ---------------------------------------------------------------------------

def test_trajectory_validation():
    with pytest.raises(ConfigError):
        Trajectory("bad", times_h=np.array([0.0, 0.0]), positions_km=np.array([0.0, 1.0]))
    with pytest.raises(ConfigError):
        Trajectory("bad", times_h=np.array([0.0, 1.0]), positions_km=np.array([1.0, 0.0]))
    with pytest.raises(ConfigError):
        Trajectory("bad", times_h=np.array([0.0]), positions_km=np.array([0.0]))


_FINITE_SAMPLES = {"times_h": [0.0, 0.5, 1.0], "positions_km": [0.0, 1.0, 2.0],
                   "speeds_kmh": [60.0, 60.0, 60.0]}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field_name", sorted(_FINITE_SAMPLES))
def test_trajectory_refuses_non_finite_samples(field_name, bad):
    samples = {k: np.array(v) for k, v in _FINITE_SAMPLES.items()}
    samples[field_name][1] = bad
    with pytest.raises(ConfigError, match="'v7'.*must be finite"):
        Trajectory("v7", **samples)
    rows = {k: v if k == "times_h" else v[None, :] for k, v in samples.items()}
    with pytest.raises(ConfigError, match="'v7'.*must be finite"):
        Fleet.from_samples(["v7"], **rows)


def _record_formula(traj, t):
    """The per-record evaluation Fleet.snapshot answers for every vehicle at once:
    the segment ending after t (right-continuous search), clamped to the
    record, and linear interpolation on it."""
    times, x, v = traj.times_h, traj.positions_km, traj.speeds_kmh
    if not times[0] <= t <= times[-1]:
        return None
    k = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0), times.size - 2)
    dt_seg = times[k + 1] - times[k]
    if v is not None:
        frac = (t - times[k]) / dt_seg
        return (x[k] + (x[k + 1] - x[k]) * frac, v[k] + frac * (v[k + 1] - v[k]),
                (v[k + 1] - v[k]) / dt_seg)
    slopes = np.diff(x) / np.diff(times)
    p_ddot = 0.0
    if k + 1 < slopes.size:
        mid_k, mid_next = 0.5 * (times[k] + times[k + 1]), 0.5 * (times[k + 1] + times[k + 2])
        p_ddot = (slopes[k + 1] - slopes[k]) / (mid_next - mid_k)
    return x[k] + slopes[k] * (t - times[k]), slopes[k], p_ddot


def _assert_snapshot_is_the_record_formula(fleet, t):
    idx, p, v, a = fleet.snapshot(t)
    want = [(i, point) for i, tr in enumerate(fleet.trajectories)
            if (point := _record_formula(tr, t)) is not None]
    assert idx.tolist() == [i for i, _ in want]
    got = np.stack([p, v, a], axis=1) if want else np.empty((0, 3))
    expected = np.array([point for _, point in want], dtype=float).reshape(-1, 3)
    assert got.tobytes() == expected.tobytes(), t     # bitwise, signed zeros too


@st.composite
def _records(draw):
    """Speed or speedless records on their own time grids: integer steps of
    1/8 (exact sample-node queries) or random steps."""
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        start = draw(st.integers(-8, 8))
        steps = draw(st.lists(st.integers(1, 5), min_size=n - 1, max_size=n - 1))
        times = (start + np.concatenate([[0], np.cumsum(steps)])) / 8.0
    else:
        times = draw(st.floats(-1.0, 1.0)) + np.cumsum(
            draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    moves = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0 / 3.0, 2.0]), min_size=n, max_size=n))
    speeds = draw(st.one_of(st.none(), st.lists(st.sampled_from([0.0, 12.5, 1.0 / 7.0, 90.0]),
                                                min_size=n, max_size=n)))
    return times, np.cumsum(moves), None if speeds is None else np.array(speeds)


@settings(max_examples=150, deadline=None)
@given(records=st.lists(_records(), min_size=0, max_size=5),
       extra=st.lists(st.floats(-2.0, 6.0), max_size=4))
def test_snapshot_is_the_per_record_formula_bitwise(records, extra):
    fleet = Fleet(tuple(Trajectory(f"v{i}", t, x, v) for i, (t, x, v) in enumerate(records)))
    nodes = [float(t) for times, _, _ in records for t in times]
    mids = [0.5 * (a + b) for times, _, _ in records for a, b in zip(times, times[1:])]
    beside = [float(np.nextafter(t, side)) for t in nodes for side in (-np.inf, np.inf)]
    for t in nodes + mids + beside + extra:
        _assert_snapshot_is_the_record_formula(fleet, t)
        _assert_snapshot_is_the_record_formula(fleet.subsample(2, 1), t)


def test_probe_fleet_snapshot_at_every_step_time():
    # the paper's 41 oscillating probes at 1 s sampling, queried at the 600
    # step times of a 2 s step over its 20 minutes (every 2nd a sample node)
    fleet = generate_synthetic(n=41, c=0.3, horizon_h=1.0 / 3.0, v_max=90.0)
    for n in range(601):
        _assert_snapshot_is_the_record_formula(fleet, n * 2.0 / 3600.0)


def test_interpolate_linear_segment():
    traj = Trajectory("a", times_h=np.array([0.0, 1.0]), positions_km=np.array([0.0, 10.0]))
    idx, p, p_dot, p_ddot = Fleet((traj,)).snapshot(0.5)
    assert idx.tolist() == [0]
    assert p[0] == pytest.approx(5.0)
    assert p_dot[0] == pytest.approx(10.0)
    assert p_ddot[0] == 0.0


def test_interpolate_at_sample_nodes():
    traj = Trajectory("a", times_h=np.array([0.0, 1.0]), positions_km=np.array([0.0, 10.0]),
                      speeds_kmh=np.array([0.0, 20.0]))
    fleet = Fleet((traj,))
    _, p0, v0, _ = fleet.snapshot(0.0)
    _, p1, v1, _ = fleet.snapshot(1.0)
    assert (p0[0], v0[0]) == (0.0, 0.0)
    assert (p1[0], v1[0]) == (10.0, 20.0)


def test_interpolate_speed_ramp():
    traj = Trajectory("a", times_h=np.array([0.0, 1.0]), positions_km=np.array([0.0, 10.0]),
                      speeds_kmh=np.array([0.0, 20.0]))
    _, p, p_dot, p_ddot = Fleet((traj,)).snapshot(0.5)
    assert p[0] == pytest.approx(5.0)
    assert p_dot[0] == pytest.approx(10.0)
    assert p_ddot[0] == pytest.approx(20.0)  # ramp slope over one segment


def test_interpolate_off_road_signal():
    fleet = Fleet((Trajectory.from_line("a", 0.0, 10.0, t0_h=0.25, t1_h=0.75),))
    for t in (0.1, 0.9):
        idx, p, p_dot, p_ddot = fleet.snapshot(t)
        assert idx.size == p.size == p_dot.size == p_ddot.size == 0
    assert fleet.snapshot(0.5)[0].tolist() == [0]


def test_slope_acceleration_across_segment_midpoints():
    # speeds 10 then 30 km/h on two unit segments -> p_ddot = (30-10)/1
    fleet = Fleet((Trajectory("a", times_h=np.array([0.0, 1.0, 2.0]),
                              positions_km=np.array([0.0, 10.0, 40.0])),))
    _, _, p_dot, p_ddot = fleet.snapshot(0.5)
    assert p_dot[0] == pytest.approx(10.0)
    assert p_ddot[0] == pytest.approx(20.0)
    _, _, p_dot_2, p_ddot_2 = fleet.snapshot(1.5)
    assert p_dot_2[0] == pytest.approx(30.0)
    assert p_ddot_2[0] == 0.0  # last segment: no forward midpoint


# ---------------------------------------------------------------------------
# fleet queries
# ---------------------------------------------------------------------------

def test_closest_vehicle_cases():
    assert _closest(Fleet.empty(), 1.0) is None
    assert _closest(_tagged_fleet(2.0), 3.0) == 0
    assert _closest(_tagged_fleet(1.0, 5.0), 2.9) == 0
    assert _closest(_tagged_fleet(5.0, 1.0), 2.9) == 1
    assert _closest(_tagged_fleet(1.0, 3.0), 2.0) == 0  # tie -> lowest index


def test_closest_vehicle_ignores_off_road():
    early = _parked("early", 1.0, 0, t1_h=0.1)
    late = _parked("late", 5.0, 1)
    assert _closest(Fleet((early, late)), 1.0) == 1


@settings(max_examples=50)
@given(st.data())
def test_closest_vehicle_matches_linear_scan(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    positions = [data.draw(st.floats(0.0, 10.0)) for _ in range(n)]
    x = data.draw(st.floats(-1.0, 11.0))
    expected = min(range(n), key=lambda i: (abs(x - positions[i]), i))
    assert _closest(_tagged_fleet(*positions), x) == expected


def test_coverage_count_cases():
    assert _coverage(Fleet.empty(), 1.0) == 0
    fleet = _line_fleet((1.0, 0.0))
    assert _coverage(fleet, 1.5) == 1
    assert _coverage(fleet, 1.7) == 0  # |x-p| >= L
    clustered = _line_fleet((1.0, 0.0), (1.001, 0.0), (1.002, 0.0))
    assert _coverage(clustered, 1.0) == 3


def test_coverage_iff_closest_within_support():
    rng = np.random.default_rng(7)
    for _ in range(100):
        fleet = _line_fleet(*((float(p), 0.0) for p in rng.uniform(0, 5, size=3)))
        x = float(rng.uniform(-1, 6))
        _, positions, _, _ = fleet.snapshot(0.5)
        nearest_dist = np.min(np.abs(positions - x))
        covered = _coverage(fleet, x) >= 1
        assert covered == (nearest_dist < SHAPE.big_l)
        closest = _Embedding(np.array([x]), 0.5, fleet, SHAPE,
                             EmbeddingMode.CLOSEST_VEHICLE)
        assert covered == (closest.chi_k[0] > 0.0)


# ---------------------------------------------------------------------------
# synthetic platoon
# ---------------------------------------------------------------------------

def test_synthetic_initial_conditions():
    n, c, horizon, v_max = 41, 0.3, 1.0 / 3.0, 90.0
    assert synthetic_position(0, 0.0, n, c, horizon, v_max) == pytest.approx(1.0)
    assert synthetic_position(40, 0.0, n, c, horizon, v_max) == pytest.approx(3.0)
    for idx in (0, 20, 40):
        assert synthetic_speed(idx, 0.0, n, c, horizon, v_max) == pytest.approx(27.0)


def test_synthetic_peak_speed():
    n, c, horizon, v_max = 41, 0.3, 1.0 / 3.0, 90.0
    t = np.linspace(0.0, horizon, 20001)
    speeds = synthetic_speed(7, t, n, c, horizon, v_max)
    assert np.max(speeds) == pytest.approx(2 * c * v_max, rel=1e-6)
    assert np.min(speeds) >= 0.0


def test_synthetic_position_speed_consistency():
    # numerical derivative of x_i reproduces v_i
    n, c, horizon, v_max = 11, 0.3, 1.0 / 3.0, 90.0
    dt = 1e-7
    t = np.linspace(0.05, horizon - 0.05, 13)
    for idx in (0, 5, 10):
        x_plus = synthetic_position(idx, t + dt, n, c, horizon, v_max)
        x_minus = synthetic_position(idx, t - dt, n, c, horizon, v_max)
        v = synthetic_speed(idx, t, n, c, horizon, v_max)
        assert np.allclose((x_plus - x_minus) / (2 * dt), v, rtol=1e-5, atol=1e-5)


def test_generate_synthetic_fleet():
    fleet = generate_synthetic(n=5, c=0.3, horizon_h=1.0 / 3.0, v_max=90.0,
                               sample_dt_h=1.0 / 3600.0)
    assert len(fleet) == 5
    traj = fleet.trajectories[0]
    assert traj.times_h[0] == 0.0
    assert traj.times_h[-1] == pytest.approx(1.0 / 3.0)
    assert traj.speeds_kmh is not None
    _, p, _, _ = Fleet((traj,)).snapshot(0.123)
    exact = synthetic_position(0, 0.123, 5, 0.3, 1.0 / 3.0, 90.0)
    assert p[0] == pytest.approx(exact, abs=2e-4)  # 1 s sampling, <0.2 m error


# ---------------------------------------------------------------------------
# follow the leader
# ---------------------------------------------------------------------------

CFG = FtlConfig(n_vehicles=4, accel_gain=1.0, preferred_gap_km=0.05,
                leader_speed_kmh=50.0, relaxation_time_h=1.0 / 120.0)


def test_ftl_equilibrium_is_steady():
    x = np.arange(4) * CFG.preferred_gap_km
    v = np.full(4, CFG.leader_speed_kmh)
    state = FtlState(positions_km=x, speeds_kmh=v)
    stepped = step_ftl(state, CFG, dt_h=CFG.relaxation_time_h / 4.0)
    assert np.allclose(stepped.speeds_kmh, CFG.leader_speed_kmh, atol=1e-12)
    assert np.allclose(np.diff(stepped.positions_km), CFG.preferred_gap_km, atol=1e-12)


def test_ftl_slow_follower_accelerates():
    x = np.array([0.0, 0.5, 1.0, 1.5])  # gaps far above preferred
    v = np.array([10.0, 50.0, 50.0, 50.0])
    state = FtlState(positions_km=x, speeds_kmh=v)
    stepped = step_ftl(state, CFG, dt_h=CFG.relaxation_time_h / 4.0)
    assert stepped.speeds_kmh[0] > 10.0
    assert stepped.speeds_kmh[-1] == 50.0  # leader keeps its speed


def test_ftl_optimal_velocity_shape():
    g_min = 0.2 * CFG.preferred_gap_km
    assert optimal_velocity(g_min, CFG) == 0.0
    assert optimal_velocity(CFG.preferred_gap_km, CFG) == pytest.approx(CFG.leader_speed_kmh)
    assert optimal_velocity(10.0, CFG) == pytest.approx(2 * CFG.leader_speed_kmh)


def test_ftl_collision_detection():
    state = FtlState(positions_km=np.array([0.0, 1e-4]),
                     speeds_kmh=np.array([100.0, 0.0]))
    cfg = FtlConfig(n_vehicles=2, accel_gain=1.0, preferred_gap_km=0.05,
                    leader_speed_kmh=50.0, relaxation_time_h=1.0 / 120.0)
    with pytest.raises(SimulationError):
        step_ftl(state, cfg, dt_h=cfg.relaxation_time_h / 4.0)


def test_ftl_ordering_preserved_under_stability_bound():
    # string-stable regime: relaxation_time * dV_opt/dgap < 1/2
    rng = np.random.default_rng(3)
    cfg = FtlConfig(n_vehicles=12, accel_gain=2.0, preferred_gap_km=1.0,
                    leader_speed_kmh=40.0, relaxation_time_h=1.0 / 120.0)
    x = np.cumsum(rng.uniform(0.5, 1.5, size=12))
    v = rng.uniform(35.0, 45.0, size=12)
    state = FtlState(positions_km=x, speeds_kmh=v)
    for _ in range(200):
        state = step_ftl(state, cfg, dt_h=cfg.relaxation_time_h / 4.0)
        assert np.all(np.diff(state.positions_km) > 0)


def test_ftl_stop_and_go_oscillations():
    # string-unstable platoon: relaxation_time * dV_opt/dgap > 1/2
    n = 50
    cfg = FtlConfig(n_vehicles=n, accel_gain=1.0, preferred_gap_km=0.1,
                    leader_speed_kmh=30.0, relaxation_time_h=1.0 / 480.0)
    x = np.arange(n) * cfg.preferred_gap_km
    v = np.full(n, cfg.leader_speed_kmh)
    v[n // 2] = 15.0  # one braking vehicle seeds the wave
    state = FtlState(positions_km=x, speeds_kmh=v)
    dt = cfg.relaxation_time_h / 8.0
    stds, probe = [], []
    for _ in range(600):
        state = step_ftl(state, cfg, dt_h=dt)
        stds.append(float(np.std(state.speeds_kmh)))
        probe.append(float(state.speeds_kmh[10]))
    probe_arr = np.array(probe)
    rises = np.any(np.diff(probe_arr) > 1e-9)
    falls = np.any(np.diff(probe_arr) < -1e-9)
    assert rises and falls  # oscillating, not monotone
    assert max(stds) > np.std(v)  # the perturbation grows
    assert stds[-1] > 0.1 * max(stds)  # and persists


def test_run_ftl_returns_consistent_fleet():
    cfg = FtlConfig(n_vehicles=4, accel_gain=1.0, preferred_gap_km=1.0,
                    leader_speed_kmh=50.0, relaxation_time_h=1.0 / 120.0)
    x = np.arange(4) * 1.2
    v = np.array([40.0, 44.0, 47.0, 50.0])
    state = FtlState(positions_km=x, speeds_kmh=v)
    fleet = run_ftl(state, cfg, dt_h=cfg.relaxation_time_h / 4.0, n_steps=50,
                    record_every=5)
    assert len(fleet) == 4
    for traj in fleet.trajectories:
        assert traj.times_h[0] == 0.0
        assert traj.speeds_kmh is not None
    with pytest.raises(SimulationError):
        run_ftl(state, cfg, dt_h=cfg.relaxation_time_h, n_steps=1)


# ---------------------------------------------------------------------------
# kernel density
# ---------------------------------------------------------------------------

GRID = SpatialGrid(a_km=0.0, b_km=4.0, n_cells=400)


def test_kde_density_empty_fleet():
    out = kde_density(Fleet.empty(), 0.0, KdeConfig(bandwidth_km=0.1), GRID)
    assert np.array_equal(out, np.zeros(400))


def test_kde_density_single_vehicle_peak_and_symmetry():
    fleet = _line_fleet((2.0, 0.0))
    rho = kde_density(fleet, 0.0, KdeConfig(bandwidth_km=0.1), GRID)
    centers = GRID.centers()
    peak = centers[np.argmax(rho)]
    assert abs(peak - 2.0) <= GRID.dx_km
    left = np.interp(2.0 - 0.3, centers, rho)
    right = np.interp(2.0 + 0.3, centers, rho)
    assert left == pytest.approx(right, rel=1e-6)


def test_kde_density_platoon_near_constant_interior():
    positions = 1.0 + 0.05 * np.arange(41)
    fleet = _line_fleet(*((float(p), 20.0) for p in positions))
    rho = kde_density(fleet, 0.0, KdeConfig(bandwidth_km=0.1), GRID)
    centers = GRID.centers()
    interior = (centers > 1.4) & (centers < 2.6)  # away from platoon edges
    ratio = np.max(rho[interior]) / np.min(rho[interior])
    assert ratio < 1.05


@pytest.mark.parametrize("normalization, kernel_mass",
                         [("standard", 1.0), ("paper", 1.0 / math.sqrt(2 * math.pi))])
def test_kde_density_total_mass(normalization, kernel_mass):
    # discrete integral matches N x (mass of one kernel) when the grid pads
    # the platoon by >= 5h on each side
    positions = 1.0 + 0.05 * np.arange(41)
    fleet = _line_fleet(*((float(p), 20.0) for p in positions))
    cfg = KdeConfig(bandwidth_km=0.1, normalization=normalization)
    rho = kde_density(fleet, 0.0, cfg, GRID)
    mass = float(np.sum(rho) * GRID.dx_km)
    assert mass == pytest.approx(41 * kernel_mass, rel=0.01)


def test_kde_velocity_weighted_mean():
    fleet = _line_fleet((1.0, 10.0), (3.0, 30.0))
    cfg = KdeConfig(bandwidth_km=0.1)
    v = kde_velocity(fleet, 0.0, cfg, GRID)
    assert np.all(v >= 10.0 - 1e-9) and np.all(v <= 30.0 + 1e-9)
    midway = np.interp(2.0, GRID.centers(), v)
    assert midway == pytest.approx(20.0, abs=1e-6)


def test_kde_velocity_constant_fleet_speed():
    fleet = _line_fleet((1.0, 20.0), (1.5, 20.0), (2.0, 20.0))
    v = kde_velocity(fleet, 0.0, KdeConfig(bandwidth_km=0.1), GRID)
    assert np.allclose(v, 20.0, atol=1e-9)


def test_kde_velocity_underflow_falls_back_to_nearest():
    # bandwidth so small that far cells underflow to zero weight
    fleet = _line_fleet((1.0, 10.0), (3.0, 30.0))
    v = kde_velocity(fleet, 0.0, KdeConfig(bandwidth_km=1e-4), GRID)
    assert np.all(np.isfinite(v))
    centers = GRID.centers()
    assert v[centers < 1.9].max() == pytest.approx(10.0)
    assert v[centers > 2.1].min() == pytest.approx(30.0)


def test_kde_velocity_requires_a_vehicle():
    with pytest.raises(ValueError):
        kde_velocity(Fleet.empty(), 0.0, KdeConfig(bandwidth_km=0.1), GRID)
