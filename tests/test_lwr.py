"""First-order solver: embedded speed/flux, critical-density search, CTM.

Fluxes, critical densities and sending/receiving are read from the arrays
the step itself forms (lwr._cell_capacities and lwr._critical_tables), so a
query with one density per point is a road of those points.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafnox.core import (
    CutoffShape,
    GreenshieldsDiagram,
    MacroState1,
    SimulationError,
    SpatialGrid,
)
from trafnox import lwr
from trafnox.lagrangian import Fleet, Trajectory
from trafnox.lwr import (
    EmbeddingMode,
    FluxSamplingConfig,
    ctm_step,
    embedded_speed,
    harmonic_blend,
    max_dt,
)

DIAG = GreenshieldsDiagram(rho_max=100.0, u_max=90.0)
SHAPE = CutoffShape(ell=0.2, big_l=0.6)
CV = EmbeddingMode.CLOSEST_VEHICLE
ACV = EmbeddingMode.AVERAGE_CLOSEST_VEHICLES
NONE = EmbeddingMode.NONE


def _fleet_at(*positions_and_speeds):
    return Fleet(tuple(
        Trajectory.from_line(f"v{i}", x0, v)
        for i, (x0, v) in enumerate(positions_and_speeds)
    ))


def _capacities(x, rho, fleet, mode, sampling=FluxSamplingConfig()):
    """(embedded speed, own flux, sending, receiving) at points x (a scalar
    is repeated) with one density per point, as ctm_step forms them."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    x = np.broadcast_to(np.asarray(x, dtype=float), rho.shape)
    _, capacities = lwr._cell_capacities(x, 0.0, rho, DIAG.rho_max, DIAG.speed,
                                         fleet, SHAPE, mode, sampling)
    return capacities


def _critical(x, fleet, mode, sampling=FluxSamplingConfig()):
    """(sigma, flux_max) of the embedded flux at the point x and t = 0."""
    emb = lwr._Embedding(np.array([x]), 0.0, fleet, SHAPE, mode)
    samples = sampling.samples(DIAG.rho_max)
    sigma, flux_max = lwr._critical_tables(samples, emb.blended(DIAG.speed(samples[:, None])))
    return float(sigma[0]), float(flux_max[0])


def _godunov(x_left, rho_left, x_right, rho_right, fleet, mode):
    """Interface flux min{sending(left), receiving(right)} of two cells."""
    _, _, send, _ = _capacities(x_left, rho_left, fleet, mode)
    _, _, _, recv = _capacities(x_right, rho_right, fleet, mode)
    return float(min(send[0], recv[0]))


def _run(state, grid, dt, n_steps, fleet=None, mode=NONE, left_flux=0.0):
    """n_steps of ctm_step from t = 0."""
    for n in range(n_steps):
        state = ctm_step(state, grid, n * dt, dt, DIAG, fleet, SHAPE, mode,
                         left_flux=left_flux)
    return state


# ---------------------------------------------------------------------------
# embedded speed and flux
# ---------------------------------------------------------------------------

def test_embedded_speed_no_vehicle_reduces_to_law():
    # chi = 0: query far outside the cutoff support
    fleet = _fleet_at((10.0, 30.0))
    for rho in (0.0, 40.0, 100.0):
        got = embedded_speed(2.0, 0.0, rho, fleet, DIAG, SHAPE, CV)
        assert got == DIAG.speed(rho)


def test_embedded_speed_equal_speeds_identity():
    # chi = 1 and p_dot = u(rho): harmonic mean of equal values
    rho = 40.0
    u = float(DIAG.speed(rho))
    fleet = _fleet_at((2.0, u))
    assert embedded_speed(2.0, 0.0, rho, fleet, DIAG, SHAPE, CV) == pytest.approx(u)


def test_embedded_speed_harmonic_blend_value():
    # chi = 1, p_dot = 30, u = 60 -> 2*30*60/90 = 40 km/h
    rho = 100.0 * (1.0 - 60.0 / 90.0)  # u(rho) = 60
    fleet = _fleet_at((2.0, 30.0))
    got = embedded_speed(2.0, 0.0, rho, fleet, DIAG, SHAPE, CV)
    assert got == pytest.approx(40.0, abs=1e-12)


def test_embedded_speed_stopped_vehicle_in_jam():
    # (p_dot, u) = (0, 0): the blend is defined as 0
    fleet = _fleet_at((2.0, 0.0))
    assert embedded_speed(2.0, 0.0, 100.0, fleet, DIAG, SHAPE, CV) == 0.0


@settings(max_examples=100)
@given(
    p_dot=st.floats(min_value=0.0, max_value=130.0),
    rho=st.floats(min_value=0.0, max_value=100.0),
    offset=st.floats(min_value=-1.0, max_value=1.0),
    mode=st.sampled_from([CV, ACV]),
)
def test_embedded_speed_bounds(p_dot, rho, offset, mode):
    # 0 <= U <= max{u(rho), p_dot} for any cutoff weight
    fleet = _fleet_at((2.0 + offset, p_dot))
    got = embedded_speed(2.0, 0.0, rho, fleet, DIAG, SHAPE, mode)
    assert 0.0 <= got <= max(float(DIAG.speed(rho)), p_dot) + 1e-12


def test_acv_averages_covering_vehicles():
    # both vehicles at chi = 1 around x: mean of the two blends
    rho = 100.0 / 3.0  # u = 60
    fleet = _fleet_at((2.0, 30.0), (2.1, 60.0))
    u = float(DIAG.speed(rho))
    blend_1 = 2 * 30.0 * u / (30.0 + u)
    blend_2 = 2 * 60.0 * u / (60.0 + u)
    got = embedded_speed(2.05, 0.0, rho, fleet, DIAG, SHAPE, ACV)
    assert got == pytest.approx(0.5 * (blend_1 + blend_2))
    # CV picks only the nearest (tie impossible here: 2.0 is closer)
    got_cv = embedded_speed(2.04, 0.0, rho, fleet, DIAG, SHAPE, CV)
    assert got_cv == pytest.approx(blend_1)


def test_averaged_speed_does_not_depend_on_the_other_query_points():
    # about 30 vehicles cover x = 2.0; its speed is the same bits whether it
    # is queried alone or between two neighbours
    rng = np.random.default_rng(11)
    for _ in range(200):
        fleet = _fleet_at(*zip(2.0 + rng.uniform(-0.5, 0.5, 30),
                               rng.uniform(0.0, 100.0, 30)))
        rho = rng.uniform(0.0, DIAG.rho_max)
        alone = embedded_speed(2.0, 0.0, rho, fleet, DIAG, SHAPE, ACV)
        among = embedded_speed(np.array([1.9, 2.0, 2.1]), 0.0, rho, fleet,
                               DIAG, SHAPE, ACV)
        assert alone[0] == among[1]


def _restated_average(x, positions, speeds, u, shape):
    """Mean over covering vehicles, added one by one in fleet order, of
    chi 2pu/(p+u) + (1-chi) u (0 where p + u = 0); u where none covers."""
    u = np.broadcast_to(u, u.shape[:-1] + (x.size,))
    out = np.array(u)
    for i, xi in enumerate(x):
        ui, total, count = u[..., i], np.zeros(u.shape[:-1]), 0
        for p, p_dot in zip(positions, speeds):
            chi = float(np.clip((shape.big_l - abs(xi - p)) / (shape.big_l - shape.ell),
                                0.0, 1.0))
            if chi > 0.0:
                d = p_dot + ui
                h = np.where(d > 0.0, 2.0 * p_dot * ui / np.where(d > 0.0, d, 1.0), 0.0)
                total = total + (chi * h + (1.0 - chi) * ui)
                count += 1
        if count:
            out[..., i] = total / count
    return out


def _restated_closest(x, positions, speeds, u, shape):
    """chi 2pu/(p+u) + (1-chi) u (0 where p + u = 0) with each point's nearest
    vehicle (the first in fleet order on a tie) where its chi > 0; u elsewhere."""
    u = np.broadcast_to(u, u.shape[:-1] + (x.size,))
    out = np.array(u)
    for i, xi in enumerate(x):
        k = int(np.argmin(np.abs(xi - positions)))
        chi = float(np.clip((shape.big_l - abs(xi - positions[k])) / (shape.big_l - shape.ell),
                            0.0, 1.0))
        if chi > 0.0:
            ui, p_dot = u[..., i], speeds[k]
            d = p_dot + ui
            h = np.where(d > 0.0, 2.0 * p_dot * ui / np.where(d > 0.0, d, 1.0), 0.0)
            out[..., i] = chi * h + (1.0 - chi) * ui
    return out


def test_averaged_blend_is_the_vehicle_order_sum_of_its_pairs():
    # a platoon-like stack: 41 vehicles 1/32 km apart cover the middle points
    # about 32 times; dyadic positions give offsets of exactly ell and L
    shape = CutoffShape(ell=0.125, big_l=0.5)
    rng = np.random.default_rng(5)
    positions = 2.0 + np.arange(41) / 32.0
    speeds = rng.uniform(0.0, 100.0, 41)
    speeds[20] = 0.0  # a stopped vehicle
    fleet = Fleet(tuple(
        Trajectory(f"v{i}", np.array([0.0, 1.0]), np.array([p, p]),
                   np.array([v, v])) for i, (p, v) in enumerate(zip(positions, speeds))
    ) + (Trajectory("off", np.array([0.6, 1.0]), np.array([2.5, 2.6])),))
    x = 1.5 + np.arange(48) / 16.0
    offsets = np.abs(x[:, None] - positions[None, :])
    assert np.any(offsets == shape.ell) and np.any(offsets == shape.big_l)
    emb = lwr._Embedding(x, 0.5, fleet, shape, ACV)
    assert emb.n_active == 41 and emb.covering.max() >= 30
    closest = lwr._Embedding(x, 0.5, fleet, shape, CV)
    assert closest.n_active == 41 and 0 < closest.covering.sum() < x.size
    # every table _cell_capacities blends: a per-density law's sample column
    # (reaching u = 0 at jam density), a per-point sample table, and the
    # cells' own row, blended on its own
    samples = np.linspace(0.0, DIAG.rho_max, 129)
    column = DIAG.speed(samples[:, None])
    stack = rng.uniform(0.0, 90.0, (129, x.size))
    stack[:, 25] = 0.0
    row = rng.uniform(0.0, 90.0, x.size)
    row[[25, 30]] = 0.0
    for u in (column, stack, row):
        want = _restated_average(x, positions, speeds, u, shape)
        assert np.array_equal(np.broadcast_to(emb.blended(u), want.shape), want)
        want = _restated_closest(x, positions, speeds, u, shape)
        assert np.array_equal(np.broadcast_to(closest.blended(u), want.shape), want)


def test_embedded_speed_broadcasts_a_point_against_densities():
    # one query point, two densities: the two per-density speeds
    fleet = _fleet_at((2.0, 30.0))
    got = embedded_speed(2.0, 0.0, np.array([10.0, 20.0]), fleet, DIAG, SHAPE, CV)
    assert got.shape == (2,)
    expected = harmonic_blend(30.0, DIAG.speed(np.array([10.0, 20.0])))
    assert np.allclose(got, expected, rtol=1e-14)
    for r, value in zip((10.0, 20.0), got):
        assert embedded_speed(2.0, 0.0, r, fleet, DIAG, SHAPE, CV)[0] == value


def test_embedded_flux_examples():
    fleet = _fleet_at((10.0, 30.0))
    _, flux, _, _ = _capacities(2.0, [0.0, 100.0, 50.0, -5e-11], fleet, CV)
    assert flux[0] == 0.0
    assert flux[1] == 0.0
    assert flux[2] == pytest.approx(2250.0)
    # a density just below 0, inside the clamp band, flows as 0
    assert flux[3] == 0.0


def test_blended_flux_concavity_logged():
    """The strict-concavity assumption on the blended flux is checked
    numerically; violations are logged as warnings, and only gross ones
    (beyond sampling noise) fail."""
    rng = np.random.default_rng(11)
    rho = np.linspace(0.0, 100.0, 401)
    worst = 0.0
    for _ in range(50):
        p_dot = float(rng.uniform(0.0, 120.0))
        offset = float(rng.uniform(-0.7, 0.7))
        fleet = _fleet_at((2.0 + offset, p_dot))
        _, flux, _, _ = _capacities(2.0, rho, fleet, CV)
        second = np.diff(flux, 2)
        worst = max(worst, float(second.max()))
    if worst > 1e-9:
        warnings.warn(f"blended-flux concavity violated by {worst}")
    assert worst < 1e-3 * 2250.0


# ---------------------------------------------------------------------------
# critical density, sending, receiving
# ---------------------------------------------------------------------------

def test_critical_density_no_vehicle_matches_vertex():
    sigma, flux_max = _critical(2.0, None, NONE)
    spacing = 100.0 / 255.0
    assert abs(sigma - 50.0) <= spacing
    assert flux_max == pytest.approx(2250.0, abs=2250.0 * 1e-4)


def test_critical_density_stopped_vehicle_blockage():
    fleet = _fleet_at((2.0, 0.0))
    sigma, flux_max = _critical(2.0, fleet, CV)
    assert sigma == 0.0  # first sample by convention
    assert flux_max == 0.0
    # sending and receiving then both vanish: total blockage
    _, _, send, recv = _capacities(2.0, 70.0, fleet, CV)
    assert send[0] == 0.0
    assert recv[0] == 0.0


def test_critical_density_increases_for_slower_vehicle():
    sigma_slow, _ = _critical(2.0, _fleet_at((2.0, 5.0)), CV)
    sigma_fast, _ = _critical(2.0, _fleet_at((2.0, 90.0)), CV)
    assert sigma_slow > sigma_fast


def test_critical_density_matches_finer_sampling():
    # coarse argmax within coarse+fine spacing of a 10x-finer search
    rng = np.random.default_rng(5)
    coarse = FluxSamplingConfig(n_rho_samples=64)
    fine = FluxSamplingConfig(n_rho_samples=631)  # 10x finer spacing
    tol = 100.0 / 63.0 + 100.0 / 630.0
    for _ in range(20):
        fleet = _fleet_at((float(rng.uniform(1.5, 2.5)), float(rng.uniform(0, 100))))
        s_coarse, _ = _critical(2.0, fleet, CV, coarse)
        s_fine, _ = _critical(2.0, fleet, CV, fine)
        assert abs(s_coarse - s_fine) <= tol


def test_sending_receiving_branch_structure():
    sigma, flux_max = _critical(2.0, None, NONE)
    _, _, send, recv = _capacities(2.0, [0.0, 100.0, sigma], None, NONE)
    assert send[0] == 0.0
    assert recv[0] == flux_max
    assert send[1] == flux_max
    assert recv[1] == 0.0
    # at rho = sigma both branches meet at the cap
    assert send[2] == flux_max
    assert recv[2] == flux_max


def test_sending_receiving_monotone_in_rho():
    rho = np.linspace(0.0, 100.0, 101)
    fleet = _fleet_at((2.2, 25.0))
    _, _, s, r_ = _capacities(2.0, rho, fleet, CV)
    assert np.all(np.diff(s) >= -1e-9)
    assert np.all(np.diff(r_) <= 1e-9)


def test_numerical_flux_examples():
    assert _godunov(2.0, 0.0, 2.1, 0.0, None, NONE) == 0.0
    _, fmax = _critical(2.0, None, NONE)
    jammed_to_empty = _godunov(2.0, 100.0, 2.1, 0.0, None, NONE)
    assert jammed_to_empty == pytest.approx(fmax)
    free_into_jam = _godunov(2.0, 30.0, 2.1, 100.0, None, NONE)
    assert free_into_jam == 0.0


def test_numerical_flux_is_the_steps_interface_flux(monkeypatch):
    """Sending and receiving formed one cell at a time give the step's
    interface fluxes over the whole road, with the clamped density (cell 5
    sits just below 0, inside the clamp band); the step takes one snapshot."""
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=12)
    fleet = _fleet_at((1.05, 25.0), (2.3, 60.0))
    rho = np.random.default_rng(13).uniform(5.0, 95.0, size=12)
    rho[5] = -5e-11
    step_fluxes = []
    interface_fluxes = lwr._interface_fluxes

    def kept_fluxes(*args):
        step_fluxes.append(interface_fluxes(*args))
        return step_fluxes[-1]

    snapshots = []
    snapshot = Fleet.snapshot

    def counted_snapshot(self, t):
        snapshots.append(t)
        return snapshot(self, t)

    monkeypatch.setattr(lwr, "_interface_fluxes", kept_fluxes)
    monkeypatch.setattr(Fleet, "snapshot", counted_snapshot)
    ctm_step(MacroState1(rho=rho), grid, 0.0, 0.5 * max_dt(fleet, DIAG, grid),
             DIAG, fleet, SHAPE, CV)
    assert len(snapshots) == 1
    centers = grid.centers()
    pointwise = [_godunov(centers[j], rho[j], centers[j + 1], rho[j + 1], fleet, CV)
                 for j in range(11)]
    assert pointwise == list(step_fluxes[0][1:-1])
    assert pointwise[5] == 0.0


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def test_max_dt_values():
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
    hours_4s = 0.1 / 90.0
    assert max_dt(None, DIAG, grid) == pytest.approx(hours_4s)
    assert max_dt(_fleet_at((1.0, 30.0)), DIAG, grid) == pytest.approx(hours_4s)
    assert max_dt(_fleet_at((1.0, 120.0)), DIAG, grid) == pytest.approx(0.1 / 120.0)


def test_ctm_step_refuses_cfl_violation():
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
    state = MacroState1(rho=np.full(30, 40.0))
    with pytest.raises(SimulationError):
        ctm_step(state, grid, 0.0, 1.5 * max_dt(None, DIAG, grid), DIAG)


class _ShapeSpyLaw:
    """DIAG's speed law, recording the shape of every density input."""

    rho_max, free_speed = DIAG.rho_max, DIAG.free_speed

    def __init__(self):
        self.shapes = []

    def speed(self, rho):
        self.shapes.append(np.shape(rho))
        return DIAG.speed(rho)


def test_no_embedding_step_calls_a_per_density_law_on_a_sample_column():
    # the law sees the sample densities as one column and the cells' own
    # densities as one row, never a samples x cells table
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
    state = MacroState1(rho=np.linspace(5.0, 95.0, 30))
    dt = 0.5 * max_dt(None, DIAG, grid)
    spy = _ShapeSpyLaw()
    sampling = FluxSamplingConfig(n_rho_samples=64)
    out = ctm_step(state, grid, 0.0, dt, spy, sampling=sampling, left_flux=900.0)
    assert sorted(spy.shapes) == [(30,), (64, 1)]
    want = ctm_step(state, grid, 0.0, dt, DIAG, sampling=sampling, left_flux=900.0)
    assert np.array_equal(out.rho, want.rho)


def test_ctm_uniform_state_is_steady():
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
    state = MacroState1(rho=np.full(30, 45.0))
    dt = 0.5 * max_dt(None, DIAG, grid)
    out = ctm_step(state, grid, 0.0, dt, DIAG, left_flux=float(DIAG.flux(45.0)))
    assert np.array_equal(out.rho, state.rho)


def test_ctm_mass_conservation_zero_flux():
    rng = np.random.default_rng(2)
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
    state = MacroState1(rho=rng.uniform(0.0, 100.0, size=30))
    fleet = _fleet_at((1.0, 20.0), (2.0, 70.0))
    dt = 0.5 * max_dt(fleet, DIAG, grid)
    mass = float(np.sum(state.rho)) * grid.dx_km
    for n in range(50):
        state = ctm_step(state, grid, n * dt, dt, DIAG, fleet, SHAPE, CV,
                         left_flux=0.0, right_flux=0.0)
        new_mass = float(np.sum(state.rho)) * grid.dx_km
        assert new_mass == pytest.approx(mass, rel=1e-12)


def _riemann_setup():
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
    dt = 0.5 * max_dt(None, DIAG, grid)  # 2 s
    n_steps = 30  # exactly 1 minute
    horizon = n_steps * dt
    assert horizon == pytest.approx(1.0 / 60.0)
    return grid, dt, n_steps, horizon


def test_ctm_rarefaction_matches_exact_solution():
    grid, dt, n_steps, horizon = _riemann_setup()
    centers = grid.centers()
    rho0 = np.where(centers < 1.5, 45.0, 30.0)
    state = MacroState1(rho=rho0)
    state = _run(state, grid, dt, n_steps, left_flux=float(DIAG.flux(45.0)))
    # exact rarefaction: characteristic speed f'(rho) = 90 - 1.8 rho
    xi = (centers - 1.5) / horizon
    exact = np.where(xi <= 90.0 - 1.8 * 45.0, 45.0,
                     np.where(xi >= 90.0 - 1.8 * 30.0, 30.0, (90.0 - xi) / 1.8))
    l1 = float(np.sum(np.abs(state.rho - exact)) * grid.dx_km)
    assert l1 <= 3.0 * grid.dx_km * abs(45.0 - 30.0)


def test_ctm_shock_moves_at_rankine_hugoniot_speed():
    grid, dt, n_steps, horizon = _riemann_setup()
    centers = grid.centers()
    rho0 = np.where(centers < 1.5, 20.0, 40.0)
    state = MacroState1(rho=rho0)
    state = _run(state, grid, dt, n_steps, left_flux=float(DIAG.flux(20.0)))
    shock_speed = (float(DIAG.flux(40.0)) - float(DIAG.flux(20.0))) / (40.0 - 20.0)
    assert shock_speed == pytest.approx(36.0)
    x_exact = 1.5 + shock_speed * horizon  # 2.1 km
    crossed = centers[state.rho > 30.0]
    x_numeric = float(crossed.min()) if crossed.size else float(centers[-1])
    assert abs(x_numeric - x_exact) <= 2.0 * grid.dx_km


def test_ctm_slow_vehicle_creates_upstream_congestion():
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
    fleet = _fleet_at((1.5, 5.0))
    state = MacroState1(rho=np.full(30, 30.0))
    dt = 0.5 * max_dt(fleet, DIAG, grid)
    out = _run(state, grid, dt, 40, fleet, CV, left_flux=float(DIAG.flux(30.0)))
    centers = grid.centers()
    vehicle_x = 1.5 + 5.0 * 40 * dt
    behind = (centers > vehicle_x - 1.0) & (centers < vehicle_x - 0.1)
    assert np.max(out.rho[behind]) > 35.0  # queue forms behind the slow vehicle


def test_cv_equals_acv_for_separated_vehicles():
    # pairwise separations stay above 2L for the whole run: the modes agree
    # bitwise because a single vehicle covers every affected cell
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=60)
    fleet = _fleet_at((0.5, 20.0), (2.5, 25.0))
    rng = np.random.default_rng(8)
    rho0 = rng.uniform(10.0, 90.0, size=60)
    dt = 0.5 * max_dt(fleet, DIAG, grid)
    state_cv = MacroState1(rho=rho0.copy())
    state_acv = MacroState1(rho=rho0.copy())
    for n in range(30):
        t = n * dt
        state_cv = ctm_step(state_cv, grid, t, dt, DIAG, fleet, SHAPE, CV,
                            left_flux=1000.0)
        state_acv = ctm_step(state_acv, grid, t, dt, DIAG, fleet, SHAPE, ACV,
                             left_flux=1000.0)
        assert np.array_equal(state_cv.rho, state_acv.rho)


def test_update_operator_monotone():
    """Raising one input cell never lowers any output cell (finite-difference
    probe).  Tolerance covers the critical-density sampling slack."""
    rng = np.random.default_rng(4)
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
    fleet = _fleet_at((1.2, 15.0), (2.1, 60.0))
    sampling = FluxSamplingConfig(n_rho_samples=2048)
    dt = 0.5 * max_dt(fleet, DIAG, grid)
    bump = 1e-3
    for _ in range(5):
        rho0 = rng.uniform(0.0, 100.0 - bump, size=30)
        base = ctm_step(MacroState1(rho=rho0), grid, 0.0, dt, DIAG, fleet,
                        SHAPE, CV, sampling, left_flux=500.0).rho
        for k in rng.choice(30, size=6, replace=False):
            bumped_rho = rho0.copy()
            bumped_rho[k] += bump
            bumped = ctm_step(MacroState1(rho=bumped_rho), grid, 0.0, dt, DIAG,
                              fleet, SHAPE, CV, sampling, left_flux=500.0).rho
            assert np.min(bumped - base) >= -1e-6


def test_randomized_density_bounds():
    # scaled-down version of the acceptance sweep: bounds hold for random
    # states and fleets at half the advertised step bound
    rng = np.random.default_rng(6)
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
    sampling = FluxSamplingConfig(n_rho_samples=32)
    for _ in range(20):
        n_veh = int(rng.integers(1, 4))
        fleet = _fleet_at(*(
            (float(rng.uniform(0, 3)), float(rng.uniform(0, 110)))
            for _ in range(n_veh)
        ))
        state = MacroState1(rho=rng.uniform(0.0, 100.0, size=30))
        dt = 0.5 * max_dt(fleet, DIAG, grid)
        for n in range(30):
            state = ctm_step(state, grid, n * dt, dt, DIAG, fleet, SHAPE, CV,
                             sampling, left_flux=float(rng.uniform(0, 2250)))
            assert float(state.rho.min()) >= 0.0
            assert float(state.rho.max()) <= 100.0 + 1e-10


def test_step_matches_public_operator_composition():
    # the step's update, composed by hand from each cell's own capacities
    rng = np.random.default_rng(9)
    grid = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=12)
    fleet = _fleet_at((1.0, 25.0), (1.3, 40.0))
    rho = rng.uniform(5.0, 95.0, size=12)
    dt = 0.5 * max_dt(fleet, DIAG, grid)
    left_flux = 800.0
    out = ctm_step(MacroState1(rho=rho), grid, 0.0, dt, DIAG, fleet, SHAPE,
                   ACV, left_flux=left_flux).rho
    cells = [_capacities(x, r, fleet, ACV) for x, r in zip(grid.centers(), rho)]
    fluxes = np.empty(13)
    fluxes[0] = min(left_flux, cells[0][3][0])
    for j in range(11):
        fluxes[j + 1] = min(cells[j][2][0], cells[j + 1][3][0])
    fluxes[12] = cells[-1][1][0]
    manual = rho - (dt / grid.dx_km) * np.diff(fluxes)
    assert np.allclose(out, manual, atol=1e-12)


def test_documented_overshoot_at_full_step_bound():
    """The advertised step bound controls only the positive characteristic
    speed.  A fast probe vehicle inside a jam can still push a cell above
    rho_max at the full bound; the violation then surfaces as a validation
    error on the next step.  At half the bound the update is provably
    monotone and in bounds, which is why the randomized suites use it."""
    grid = SpatialGrid(a_km=0.0, b_km=0.3, n_cells=3)
    fleet = _fleet_at((0.15, 90.0))
    rho0 = np.array([100.0, 90.0, 100.0])
    dt_full = max_dt(fleet, DIAG, grid)
    out = ctm_step(MacroState1(rho=rho0), grid, 0.0, dt_full, DIAG, fleet,
                   SHAPE, CV, left_flux=0.0)
    assert float(out.rho.max()) > 100.0  # documented overshoot
    with pytest.raises(ValueError):
        ctm_step(out, grid, dt_full, dt_full, DIAG, fleet, SHAPE, CV)
    half = ctm_step(MacroState1(rho=rho0), grid, 0.0, 0.5 * dt_full, DIAG,
                    fleet, SHAPE, CV, left_flux=0.0)
    assert float(half.rho.max()) <= 100.0 + 1e-10


def test_harmonic_blend_properties():
    assert harmonic_blend(0.0, 0.0) == 0.0
    assert harmonic_blend(30.0, 60.0) == pytest.approx(40.0)
    assert harmonic_blend(50.0, 50.0) == pytest.approx(50.0)
