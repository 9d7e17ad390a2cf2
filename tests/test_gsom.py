"""Second-order solver: two-field stepping, reduction, acceleration field."""

import numpy as np
import pytest

from trafnox.core import (
    CgarzAtFixedW,
    CgarzDiagram,
    ConfigError,
    CutoffShape,
    MacroState1,
    MacroState2,
    SimulationError,
    SpatialGrid,
    cgarz_speed,
    cgarz_speed_drho,
)
from trafnox.gsom import (
    AccelerationField,
    _advance,
    _cell_tables,
    acceleration_field,
    embedded_speed_2,
    max_dt_2,
    step,
)
from trafnox.lagrangian import Fleet, Trajectory
from trafnox.lwr import EmbeddingMode, FluxSamplingConfig, ctm_step, max_dt

DIAG = CgarzDiagram.from_densities(rho_max=56.0, rho_f=10.0, v_max=90.0)
SHAPE = CutoffShape(ell=0.2, big_l=0.6)


def _fleet_at(*positions_and_speeds):
    return Fleet(tuple(
        Trajectory.from_line(f"v{i}", x0, v)
        for i, (x0, v) in enumerate(positions_and_speeds)
    ))


# ---------------------------------------------------------------------------
# embedded speed and step bound
# ---------------------------------------------------------------------------

def test_embedded_speed_2_no_fleet_is_flux_family_speed():
    w_mid = 0.5 * (DIAG.w_left + DIAG.w_right)
    got = embedded_speed_2(2.0, 0.0, 28.0, w_mid, None, DIAG, SHAPE)
    assert got == pytest.approx(float(cgarz_speed(28.0, w_mid, DIAG)))


def test_embedded_speed_2_blend_value():
    # chi = 1, p_dot = 15, v(28, w_right) = 45 -> 2*15*45/60 = 22.5 km/h
    fleet = _fleet_at((2.0, 15.0))
    got = embedded_speed_2(2.0, 0.0, 28.0, DIAG.w_right, fleet, DIAG, SHAPE)
    assert got == pytest.approx(22.5, abs=1e-12)


def test_embedded_speed_2_stopped_vehicle():
    fleet = _fleet_at((2.0, 0.0))
    assert embedded_speed_2(2.0, 0.0, 56.0, DIAG.w_left, fleet, DIAG, SHAPE) == 0.0


def test_max_dt_2_values():
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
    assert max_dt_2(None, DIAG, grid) == pytest.approx(0.1 / 90.0)  # 4 s
    fleet = _fleet_at((1.0, 100.0))
    assert max_dt_2(fleet, DIAG, grid) == pytest.approx(0.1 / 100.0)  # 3.6 s


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_step_uniform_state_is_steady():
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
    w_mid = 0.5 * (DIAG.w_left + DIAG.w_right)
    rho = np.full(30, 20.0)
    flux_own = 20.0 * float(cgarz_speed(20.0, w_mid, DIAG))
    state = MacroState2(rho=rho, w=np.full(30, w_mid))
    dt = 0.5 * max_dt_2(None, DIAG, grid)
    out = step(state, grid, 0.0, dt, DIAG, left_flux=flux_own)
    assert np.array_equal(out.rho, state.rho)
    assert np.array_equal(out.w, state.w)


def test_step_refuses_cfl_violation():
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
    state = MacroState2(rho=np.full(30, 20.0), w=np.full(30, DIAG.w_right))
    with pytest.raises(SimulationError):
        step(state, grid, 0.0, 1.5 * max_dt_2(None, DIAG, grid), DIAG)


def test_step_upwind_w_first_step_value():
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
    w0 = 0.5 * (DIAG.w_left + DIAG.w_right)
    state = MacroState2(rho=np.full(30, 20.0), w=np.full(30, w0))
    dt = 0.5 * max_dt_2(None, DIAG, grid)
    out = step(state, grid, 0.0, dt, DIAG, left_flux=0.0, left_w=DIAG.w_left)
    v0 = float(cgarz_speed(20.0, w0, DIAG))
    expected_w0 = w0 - (dt / grid.dx_km) * v0 * (w0 - DIAG.w_left)
    assert out.w[0] == pytest.approx(expected_w0, rel=1e-12)
    assert np.array_equal(out.w[1:], state.w[1:])  # only the inflow cell moves


def test_step_rejects_out_of_range_boundary_w():
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
    state = MacroState2(rho=np.full(30, 20.0), w=np.full(30, DIAG.w_right))
    dt = 0.5 * max_dt_2(None, DIAG, grid)
    with pytest.raises(ValueError):
        step(state, grid, 0.0, dt, DIAG, left_w=2.0 * DIAG.w_right)


def test_step_w_min_max_principle():
    rng = np.random.default_rng(3)
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
    fleet = _fleet_at((1.0, 30.0), (2.2, 80.0))
    w = rng.uniform(DIAG.w_left, DIAG.w_right, size=30)
    rho = rng.uniform(0.0, 56.0, size=30)
    left_w = float(rng.uniform(DIAG.w_left, DIAG.w_right))
    lo = min(float(w.min()), left_w)
    hi = max(float(w.max()), left_w)
    state = MacroState2(rho=rho, w=w)
    dt = 0.5 * max_dt_2(fleet, DIAG, grid)
    for n in range(100):
        state = step(state, grid, n * dt, dt, DIAG, fleet, SHAPE,
                     left_flux=400.0, left_w=left_w)
        assert float(state.w.min()) >= lo - 1e-10
        assert float(state.w.max()) <= hi + 1e-10


def test_step_mass_balance_with_reported_fluxes():
    rng = np.random.default_rng(12)
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
    fleet = _fleet_at((1.5, 25.0))
    state = MacroState2(rho=rng.uniform(0.0, 56.0, size=30),
                        w=rng.uniform(DIAG.w_left, DIAG.w_right, size=30))
    dt = 0.5 * max_dt_2(fleet, DIAG, grid)
    tables = _cell_tables(state, grid, 0.0, DIAG, fleet, SHAPE,
                          FluxSamplingConfig())
    new_state, fluxes = _advance(tables, grid, dt, DIAG, 700.0, None, None)
    assert fluxes.shape == (31,)
    stepped = step(state, grid, 0.0, dt, DIAG, fleet, SHAPE, left_flux=700.0)
    assert np.array_equal(new_state.rho, stepped.rho)
    assert np.array_equal(new_state.w, stepped.w)
    old_mass = float(np.sum(state.rho)) * grid.dx_km
    new_mass = float(np.sum(new_state.rho)) * grid.dx_km
    assert new_mass == pytest.approx(
        old_mass + dt * (float(fluxes[0]) - float(fluxes[-1])), rel=1e-12, abs=1e-12)


def test_constant_w_reduces_to_first_order_solver():
    """With w frozen at a constant, the two-field scheme and the first-order
    solver driven by the fixed-w speed law take identical update paths; the
    densities agree bitwise for the whole run."""
    rng = np.random.default_rng(21)
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=40)
    fleet = _fleet_at((0.8, 20.0), (2.4, 55.0))
    w_const = 0.5 * (DIAG.w_left + DIAG.w_right)
    law = CgarzAtFixedW(DIAG, w_const)
    rho0 = rng.uniform(0.0, 56.0, size=40)
    state2 = MacroState2(rho=rho0.copy(), w=np.full(40, w_const))
    state1 = MacroState1(rho=rho0.copy())
    dt = 0.5 * max_dt_2(fleet, DIAG, grid)
    for n in range(200):
        t = n * dt
        state2 = step(state2, grid, t, dt, DIAG, fleet, SHAPE,
                      left_flux=600.0)
        state1 = ctm_step(state1, grid, t, dt, law, fleet, SHAPE,
                          EmbeddingMode.CLOSEST_VEHICLE, left_flux=600.0)
        assert np.array_equal(state2.w, np.full(40, w_const))
    assert float(np.max(np.abs(state2.rho - state1.rho))) == 0.0


# ---------------------------------------------------------------------------
# acceleration field
# ---------------------------------------------------------------------------

def test_acceleration_uniform_state_is_zero():
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
    state = MacroState2(rho=np.full(30, 25.0),
                        w=np.full(30, 0.5 * (DIAG.w_left + DIAG.w_right)))
    out = acceleration_field(state, grid, 0.0, DIAG)
    assert np.array_equal(out.a_kmh2, np.zeros(30))


def test_acceleration_no_fleet_composition():
    # without vehicles the field is exactly -rho v_rho dV/dx with the
    # centered difference of the speed field
    rng = np.random.default_rng(17)
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
    rho = rng.uniform(5.0, 50.0, size=30)
    w = rng.uniform(DIAG.w_left, DIAG.w_right, size=30)
    state = MacroState2(rho=rho, w=w)
    out = acceleration_field(state, grid, 0.0, DIAG)
    v = np.asarray(cgarz_speed(rho, w, DIAG))
    v_rho = np.asarray(cgarz_speed_drho(rho, w, DIAG))
    expected = -rho * v_rho * np.gradient(v, grid.dx_km)
    assert np.allclose(out.a_kmh2, expected, rtol=1e-12, atol=1e-12)


def test_acceleration_sign_entering_congestion():
    # density ramp increasing downstream: traffic decelerates into it
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
    rho = np.linspace(15.0, 50.0, 30)
    state = MacroState2(rho=rho, w=np.full(30, DIAG.w_right))
    out = acceleration_field(state, grid, 0.0, DIAG)
    assert np.all(out.a_kmh2 <= 1e-12)
    assert np.min(out.a_kmh2) < 0.0


def test_acceleration_decelerating_vehicle_plateau():
    """On the cutoff plateau around a braking vehicle in uniform traffic the
    only surviving term is chi * 2 pddot v^2 / (pdot + v)^2."""
    grid = SpatialGrid(a_km=0.0, b_km=4.5, n_cells=45)
    fleet = Fleet((Trajectory(
        vehicle_id="dec",
        times_h=np.array([0.0, 1.0]),
        positions_km=np.array([2.0, 2.5]),
        speeds_kmh=np.array([60.0, 40.0]),
    ),))
    w_mid = 0.5 * (DIAG.w_left + DIAG.w_right)
    state = MacroState2(rho=np.full(45, 30.0), w=np.full(45, w_mid))
    t = 0.5  # vehicle at x = 2.25 (a cell center), p_dot = 50, p_ddot = -20
    out = acceleration_field(state, grid, t, DIAG, fleet, SHAPE)
    center = 22
    assert grid.centers()[center] == pytest.approx(2.25)
    v = float(cgarz_speed(30.0, w_mid, DIAG))
    expected = 2.0 * (-20.0) * v * v / (50.0 + v) ** 2
    assert out.a_kmh2[center] == pytest.approx(expected, rel=1e-9)
    assert out.a_kmh2[center] < 0.0


def test_acceleration_zero_speed_convention():
    # jammed road with a stopped vehicle: pdot + v = 0 -> a = 0
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
    fleet = _fleet_at((1.5, 0.0))
    state = MacroState2(rho=np.full(30, 56.0), w=np.full(30, DIAG.w_left))
    out = acceleration_field(state, grid, 0.0, DIAG, fleet, SHAPE)
    assert np.array_equal(out.a_kmh2, np.zeros(30))


def test_acceleration_field_validation():
    ok = np.array([1.0, 2.0])
    field = AccelerationField(a_kmh2=ok, speed_kmh=ok)
    assert not field.speed_kmh.flags.writeable
    with pytest.raises(ConfigError):
        AccelerationField(a_kmh2=np.array([1.0, np.nan]), speed_kmh=ok)
    with pytest.raises(ConfigError):
        AccelerationField(a_kmh2=np.ones((2, 2)), speed_kmh=ok)
    with pytest.raises(ConfigError):
        AccelerationField(a_kmh2=ok, speed_kmh=np.array([np.inf, 1.0]))
    with pytest.raises(ConfigError):
        AccelerationField(a_kmh2=ok, speed_kmh=np.ones((2, 2)))


@pytest.mark.parametrize("fleet", [None, _fleet_at((0.9, 20.0), (2.2, 70.0))])
def test_acceleration_field_speed_is_the_embedded_speed(fleet):
    rng = np.random.default_rng(40)
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
    state = MacroState2(rho=rng.uniform(0.0, 56.0, size=30),
                        w=rng.uniform(DIAG.w_left, DIAG.w_right, size=30))
    out = acceleration_field(state, grid, 0.01, DIAG, fleet, SHAPE)
    expected = embedded_speed_2(grid.centers(), 0.01, state.rho, state.w, fleet,
                                DIAG, SHAPE)
    assert np.array_equal(out.speed_kmh, expected)


def test_acceleration_requires_shape_with_fleet():
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
    fleet = _fleet_at((1.5, 30.0))
    state = MacroState2(rho=np.full(30, 25.0), w=np.full(30, DIAG.w_right))
    with pytest.raises(ConfigError):
        acceleration_field(state, grid, 0.0, DIAG, fleet, None)
