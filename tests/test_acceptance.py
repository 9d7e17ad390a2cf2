"""End-to-end acceptance checks for the multiscale traffic/emission stack.

Each test pins one quantitative guarantee of the package: density bounds
under randomized trajectory embedding, exact-solution agreement for jump
initial data, agreement and separation of the two embedding variants, the
sampled critical-density search, the second-order model's first-order
reduction, emission point values, the trajectory-driven emission-gap
reduction, stop-and-go onset from sparse probes, network and diffusion mass
balances, and first-order convergence of the acceleration field against a
Lagrangian probe.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from trafnox import (
    CgarzAtFixedW,
    CgarzDiagram,
    ConcentrationField,
    CutoffShape,
    Domain2D,
    EmbeddingMode,
    Fleet,
    FluxSamplingConfig,
    FtlConfig,
    FtlState,
    GreenshieldsDiagram,
    KdeConfig,
    MacroState1,
    MacroState2,
    SensorSeries,
    SpatialGrid,
    Trajectory,
    acceleration_field,
    build_six_road_network,
    cgarz_speed,
    ctm_step,
    diffusion_step,
    diverge_fluxes,
    embedded_speed_2,
    emission_exp_micro,
    emission_max_macro,
    emission_max_micro,
    from_solver_units,
    generate_synthetic,
    gsom_step,
    invert_speed_in_w,
    kde_density,
    kde_velocity,
    max_dt,
    max_dt_2,
    merge_fluxes,
    network_step,
    run_ftl,
    stable_dt,
    warm_start,
)
from trafnox.lwr import _critical_tables, _Embedding

# Shared single-road setting: Greenshields law on a 3 km road, 100 m cells,
# with the cutoff plateau/support used throughout the single-road tests.
LAW = GreenshieldsDiagram(rho_max=100.0, u_max=90.0)
GRID3 = SpatialGrid(a_km=0.0, b_km=3.0, n_cells=30)
SHAPE = CutoffShape(ell=0.2, big_l=0.6)
CV = EmbeddingMode.CLOSEST_VEHICLE
ACV = EmbeddingMode.AVERAGE_CLOSEST_VEHICLES


def _linear_vehicle(vid: str, x0: float, speed: float, t_end: float) -> Trajectory:
    return Trajectory(vid, np.array([0.0, t_end]),
                      np.array([x0, x0 + speed * t_end]))


def _sampled_sigma(emb: _Embedding, law, sampling: FluxSamplingConfig) -> float:
    """The sampled critical density at the embedding's one point."""
    samples = sampling.samples(law.rho_max)
    return float(_critical_tables(samples, emb.blended(law.speed(samples[:, None])))[0][0])


def _flux(rho: np.ndarray | float) -> np.ndarray | float:
    return LAW.u_max * np.asarray(rho) * (1.0 - np.asarray(rho) / LAW.rho_max)


# ---------------------------------------------------------------------------
# 1. randomized density bounds
# ---------------------------------------------------------------------------

def test_randomized_embedded_runs_keep_density_in_bounds():
    # 1000 randomized runs of 200 steps each: random initial density, one to
    # five random straight-line vehicles, either embedding variant.  The
    # blended flux has d(rho*U)/d(rho) reaching 2*u_max at jam density under
    # an embedded vehicle, so half the speed-based step bound is what makes
    # the update provably monotone; under it the density must never leave
    # [0, rho_max], and the whole sweep must stay under a minute.
    rng = np.random.default_rng(20260818)
    law = GreenshieldsDiagram(rho_max=120.0, u_max=90.0)
    shape = CutoffShape(ell=0.1, big_l=0.5)
    sampling = FluxSamplingConfig(n_rho_samples=32)
    started = time.perf_counter()
    for _ in range(1000):
        rho0 = rng.uniform(0.0, law.rho_max, GRID3.n_cells)
        n_veh = int(rng.integers(1, 6))
        fleet = Fleet(tuple(
            _linear_vehicle(f"v{i}", rng.uniform(-1.0, 3.0),
                            rng.uniform(0.0, 90.0), 0.25)
            for i in range(n_veh)
        ))
        mode = CV if rng.integers(0, 2) == 0 else ACV
        dt = 0.5 * max_dt(fleet, law, GRID3)
        state = MacroState1(rho=rho0)
        lo, hi = np.inf, -np.inf
        for n in range(200):
            state = ctm_step(state, GRID3, n * dt, dt, law, fleet, shape,
                             mode, sampling)
            lo = min(lo, float(state.rho.min()))
            hi = max(hi, float(state.rho.max()))
        assert lo >= 0.0
        assert hi <= law.rho_max
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"1000-run sweep took {elapsed:.2f} s of its 60 s budget"


# ---------------------------------------------------------------------------
# 2. exact jump solutions
# ---------------------------------------------------------------------------

def _run_riemann(rho_left: float, rho_right: float, n_steps: int,
                 dt: float) -> np.ndarray:
    x = GRID3.centers()
    state = MacroState1(rho=np.where(x < 1.5, rho_left, rho_right))
    inflow = float(_flux(rho_left))
    for n in range(n_steps):
        state = ctm_step(state, GRID3, n * dt, dt, law=LAW, mode=EmbeddingMode.NONE,
                         left_flux=inflow)
    return state.rho


def test_shock_matches_exact_solution():
    dt = 0.2 / 3600.0
    t_end = 1.0 / 60.0
    rho = _run_riemann(20.0, 40.0, int(round(t_end / dt)), dt)
    x = GRID3.centers()
    speed = (_flux(40.0) - _flux(20.0)) / 20.0  # Rankine-Hugoniot: 36 km/h
    x_shock = 1.5 + speed * t_end
    exact = np.where(x < x_shock, 20.0, 40.0)
    l1 = float(np.sum(np.abs(rho - exact)) * GRID3.dx_km)
    assert l1 <= 3.0 * GRID3.dx_km * 20.0
    # locate the numerical jump as the crossing of the midpoint value 30
    i = int(np.argmax(rho >= 30.0))
    x_num = x[i - 1] + GRID3.dx_km * (30.0 - rho[i - 1]) / (rho[i] - rho[i - 1])
    assert abs(x_num - x_shock) <= 2.0 * GRID3.dx_km


def test_rarefaction_matches_exact_solution():
    dt = 0.2 / 3600.0
    t_end = 1.0 / 60.0
    rho = _run_riemann(45.0, 30.0, int(round(t_end / dt)), dt)
    x = GRID3.centers()

    def wave_speed(r: float) -> float:
        return LAW.u_max * (1.0 - 2.0 * r / LAW.rho_max)

    xi = (x - 1.5) / t_end
    fan = (LAW.u_max - xi) * LAW.rho_max / (2.0 * LAW.u_max)
    exact = np.where(xi < wave_speed(45.0), 45.0,
                     np.where(xi > wave_speed(30.0), 30.0, fan))
    l1 = float(np.sum(np.abs(rho - exact)) * GRID3.dx_km)
    assert l1 <= 3.0 * GRID3.dx_km * 15.0


# ---------------------------------------------------------------------------
# 3. nearest-vehicle vs averaged embedding
# ---------------------------------------------------------------------------

def _paired_run(fleet: Fleet, rho_left: float, rho_right: float,
                n_steps: int, dt: float) -> list[float]:
    """Per-step max |rho_nearest - rho_averaged| for the same Riemann data."""
    x = GRID3.centers()
    rho0 = np.where(x < 1.5, rho_left, rho_right)
    inflow = float(_flux(rho_left))
    a = MacroState1(rho=rho0.copy())
    b = MacroState1(rho=rho0.copy())
    gaps = []
    for n in range(n_steps):
        t = n * dt
        a = ctm_step(a, GRID3, t, dt, LAW, fleet, SHAPE, CV, left_flux=inflow)
        b = ctm_step(b, GRID3, t, dt, LAW, fleet, SHAPE, ACV, left_flux=inflow)
        gaps.append(float(np.abs(a.rho - b.rho).max()))
    return gaps


def test_well_separated_vehicles_make_variants_agree():
    # pairwise gaps stay above twice the cutoff support, so no cell ever
    # sees two vehicles and the variants coincide at every step
    fleet = Fleet((
        _linear_vehicle("v1", 0.2, 10.0, 0.2),
        _linear_vehicle("v2", 1.5, 20.0, 0.2),
        _linear_vehicle("v3", 2.9, 40.0, 0.2),
    ))
    gaps = _paired_run(fleet, 20.0, 40.0, n_steps=300, dt=0.2 / 3600.0)
    assert max(gaps) <= 1e-14


def test_clustered_vehicles_separate_variants_until_spread():
    # three vehicles released 1 m apart at different speeds: the variants
    # must differ while the cluster is tight.  Once every pairwise gap
    # exceeds twice the cutoff support (2L = 1.2 km, reached at
    # t = (1.2 - 0.001) / 15 ~ 0.0799 h for the slowest pair) the two
    # speed definitions coincide, so (i) a single step of either variant
    # from the SAME state gives identical output, and (ii) the field gap
    # accumulated during the clustered phase stops growing and decays —
    # the profiles end up close, not bitwise equal, because their
    # histories differ.
    dt = 0.2 / 3600.0
    fleet = Fleet((
        _linear_vehicle("v1", 1.0, 10.0, 0.2),
        _linear_vehicle("v2", 1.001, 25.0, 0.2),
        _linear_vehicle("v3", 1.002, 50.0, 0.2),
    ))
    n_steps = int(round(0.2 / dt))
    gaps = _paired_run(fleet, 45.0, 30.0, n_steps=n_steps, dt=dt)
    clustered = int(0.04 / dt)      # all pairwise gaps still below 2L
    spread = int(0.08 / dt)         # slowest pair has passed 2L
    assert min(gaps[:clustered]) > 0.0
    # same state, one step of each variant: identical once separated
    rng = np.random.default_rng(5)
    inflow = float(_flux(45.0))
    for t_probe in (0.081, 0.1, 0.15, 0.19):
        state = MacroState1(rho=rng.uniform(0.0, LAW.rho_max, GRID3.n_cells))
        one = ctm_step(state, GRID3, t_probe, dt, LAW, fleet, SHAPE, CV,
                       left_flux=inflow)
        other = ctm_step(state, GRID3, t_probe, dt, LAW, fleet, SHAPE, ACV,
                         left_flux=inflow)
        assert float(np.abs(one.rho - other.rho).max()) <= 1e-14
    # accumulated gap only shrinks after separation, ending far below peak
    tail = np.asarray(gaps[spread:])
    assert np.all(np.diff(tail) <= 1e-12)
    assert gaps[-1] <= 0.05 * max(gaps)


# ---------------------------------------------------------------------------
# 4. sampled critical-density search
# ---------------------------------------------------------------------------

def test_sampled_critical_density_matches_finer_search():
    # 500 randomized (speed law, probe speed, cutoff) configurations: the
    # argmax over the coarse sample grid must sit within one coarse spacing
    # of a ten-times-finer brute force
    rng = np.random.default_rng(7)
    n_coarse = 64
    coarse = FluxSamplingConfig(n_rho_samples=n_coarse)
    fine = FluxSamplingConfig(n_rho_samples=10 * n_coarse)
    x_eval, t_eval = 5.0, 0.5
    for _ in range(500):
        law = GreenshieldsDiagram(rho_max=rng.uniform(50.0, 150.0),
                                  u_max=rng.uniform(40.0, 120.0))
        ell = rng.uniform(0.05, 0.3)
        shape = CutoffShape(ell=ell, big_l=ell + rng.uniform(0.05, 0.5))
        p_speed = rng.uniform(0.0, 1.2 * law.u_max)
        offset = rng.uniform(-shape.big_l, shape.big_l)
        start = x_eval - offset - p_speed * t_eval
        fleet = Fleet((_linear_vehicle("v0", start, p_speed, 1.0),))
        emb = _Embedding(np.array([x_eval]), t_eval, fleet, shape, CV)
        sigma_c = _sampled_sigma(emb, law, coarse)
        sigma_f = _sampled_sigma(emb, law, fine)
        assert abs(sigma_c - sigma_f) <= law.rho_max / (n_coarse - 1) + 1e-12


# ---------------------------------------------------------------------------
# 5. second-order reduction to first order
# ---------------------------------------------------------------------------

def test_uniform_invariant_reduces_to_first_order_dynamics():
    diag = CgarzDiagram.from_densities(rho_max=56.0, rho_f=10.0, v_max=90.0)
    w_mid = 0.5 * (diag.w_left + diag.w_right)
    law = CgarzAtFixedW(diag, w_mid)
    grid = SpatialGrid(a_km=0.0, b_km=5.0, n_cells=50)
    x = grid.centers()
    rho0 = 20.0 + 15.0 * np.exp(-0.5 * ((x - 2.0) / 0.6) ** 2)
    sampling = FluxSamplingConfig(n_rho_samples=128)
    dt = 1.0 / 3600.0
    second = MacroState2(rho=rho0.copy(), w=np.full(grid.n_cells, w_mid))
    first = MacroState1(rho=rho0.copy())
    worst = 0.0
    for n in range(200):
        t = n * dt
        second = gsom_step(second, grid, t, dt, diag, sampling=sampling,
                           left_flux=900.0)
        first = ctm_step(first, grid, t, dt, law, sampling=sampling,
                         left_flux=900.0)
        worst = max(worst, float(np.abs(second.rho - first.rho).max()))
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# 6. emission point values
# ---------------------------------------------------------------------------

def test_emission_point_values():
    assert emission_max_micro(0.0, 0.0) == 6.19e-4
    for v in (0.0, 3.0, 11.1, 30.0):
        for a in (-0.51, -1.0, -5.0):
            assert emission_max_micro(v, a) == 2.17e-4
    assert emission_exp_micro(0.0, 0.0) == pytest.approx(np.exp(-14.8831),
                                                         rel=1e-12)


# ---------------------------------------------------------------------------
# 7. trajectory data halves the emission gap
# ---------------------------------------------------------------------------

def test_embedded_trajectories_shrink_emission_gap():
    # 41 synthetic vehicles with sinusoidal speed; the second-order model is
    # started from their kernel-density estimate and run with the full fleet,
    # every second vehicle, every fourth vehicle, and no fleet at all.  The
    # time-mean gap between the per-cell emission total and the ground-truth
    # vehicle emission total on the 4-7 km window must shrink at least 2x
    # whenever trajectories are embedded, and sit within [1e-3, 2e-2] g/s.
    started = time.perf_counter()
    horizon = 1.0 / 3.0
    n_vehicles = 41
    c, v_max = 0.3, 90.0
    diag = CgarzDiagram.from_densities(rho_max=100.0, rho_f=10.0, v_max=v_max)
    grid = SpatialGrid(a_km=0.0, b_km=10.0, n_cells=100)
    x = grid.centers()
    window = (x >= 4.0) & (x <= 7.0)
    sampling = FluxSamplingConfig(n_rho_samples=256)
    fleet = generate_synthetic(n_vehicles, c, horizon, v_max)

    steepness = 20.0 + 5.0 * np.arange(n_vehicles) / (n_vehicles - 1)
    offsets = 1.0 + 0.05 * np.arange(n_vehicles)

    def truth_emission_total(t: float) -> float:
        phase = steepness * np.pi * t / horizon
        pos = c * v_max * (t - horizon / (steepness * np.pi) * np.cos(phase)
                           + horizon / (steepness * np.pi)) + offsets
        speed = c * v_max * (np.sin(phase) + 1.0)
        accel = c * v_max * (steepness * np.pi / horizon) * np.cos(phase)
        on = (pos >= 4.0) & (pos <= 7.0)
        v_ms, a_ms2 = from_solver_units(speed[on], accel[on])
        return float(np.sum(emission_max_micro(v_ms, a_ms2)))

    kde = KdeConfig(bandwidth_km=0.1, normalization="standard")
    rho0 = np.clip(kde_density(fleet, 0.0, kde, grid), 0.0, diag.rho_max)
    nu0 = kde_velocity(fleet, 0.0, kde, grid)
    w0 = invert_speed_in_w(rho0, nu0, diag)

    dt = 1.0 / 3600.0
    n_steps = int(round(horizon / dt))
    truth = np.array([truth_emission_total(n * dt) for n in range(n_steps + 1)])

    def model_gap(sub: Fleet | None) -> float:
        shape = SHAPE if sub is not None else None
        state = MacroState2(rho=rho0.copy(), w=w0.copy())
        series = np.empty(n_steps + 1)
        for n in range(n_steps + 1):
            t = n * dt
            speed = embedded_speed_2(x, t, state.rho, state.w, sub, diag, shape)
            accel = acceleration_field(state, grid, t, diag, sub, shape).a_kmh2
            v_ms, a_ms2 = from_solver_units(speed, accel)
            rates = emission_max_macro(state.rho, v_ms, a_ms2, grid.dx_km)
            series[n] = float(np.sum(rates[window]))
            if n < n_steps:
                state = gsom_step(state, grid, t, dt, diag, sub, shape, sampling)
        return float(np.mean(np.abs(series - truth)))

    gap_without = model_gap(None)
    for subset in (fleet, fleet.subsample(2, 1), fleet.subsample(4, 1)):
        gap_with = model_gap(subset)
        assert 1e-3 <= gap_with <= 2e-2
        assert gap_without >= 2.0 * gap_with
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"probe-count study took {elapsed:.2f} s of its 300 s budget"


# ---------------------------------------------------------------------------
# 8. stop-and-go onset from sparse probes
# ---------------------------------------------------------------------------

def test_sparse_probe_fleet_triggers_stop_and_go():
    # a 50-vehicle platoon whose followers brake toward a slower target
    # speed, embedded into a constant-density first-order run at equilibrium
    # inflow: the density field must develop spatial structure (std above 5%
    # of the background), stay exactly constant without embedding, and still
    # oscillate with only a 5-vehicle subsample
    n = 50
    cfg = FtlConfig(n_vehicles=n, accel_gain=30.0, preferred_gap_km=0.025,
                    leader_speed_kmh=24.0, relaxation_time_h=0.01)
    initial = FtlState(positions_km=1.0 + 0.04 * np.arange(n),
                       speeds_kmh=np.full(n, 60.0))
    dt_platoon = 1.0 / 3600.0
    fleet = run_ftl(initial, cfg, dt_platoon, int(round(0.2 / dt_platoon)),
                    record_every=10)

    law = GreenshieldsDiagram(rho_max=120.0, u_max=90.0)
    grid = SpatialGrid(a_km=0.0, b_km=8.0, n_cells=80)
    shape = CutoffShape(ell=0.1, big_l=0.5)
    sampling = FluxSamplingConfig(n_rho_samples=64)
    rho_bg = 40.0
    inflow = float(law.u_max * rho_bg * (1.0 - rho_bg / law.rho_max))
    dt = 2.0 / 3600.0
    n_steps = int(round(0.2 / dt))

    def run(sub: Fleet | None, mode: EmbeddingMode) -> tuple[float, float]:
        state = MacroState1(rho=np.full(grid.n_cells, rho_bg))
        top_std, drift = 0.0, 0.0
        for k in range(n_steps):
            state = ctm_step(state, grid, k * dt, dt, law, sub,
                             shape if sub is not None else None, mode,
                             sampling, left_flux=inflow)
            top_std = max(top_std, float(state.rho.std()))
            drift = max(drift, float(np.abs(state.rho - rho_bg).max()))
        return top_std, drift

    full_std, _ = run(fleet, CV)
    assert full_std > 0.05 * rho_bg
    _, none_drift = run(None, EmbeddingMode.NONE)
    assert none_drift <= 1e-12
    sparse = fleet.subsample(10)
    assert len(sparse) == 5
    sparse_std, _ = run(sparse, CV)
    assert sparse_std > 0.05 * rho_bg


# ---------------------------------------------------------------------------
# 9. network mass balance and junction rules
# ---------------------------------------------------------------------------

def test_network_steps_conserve_mass():
    diag = CgarzDiagram.from_densities(rho_max=56.0, rho_f=10.0, v_max=90.0)
    net = build_six_road_network(diag, dx_km=1.0)
    minutes = np.arange(90)
    sensors = {
        rid: SensorSeries(
            road_id=rid, minutes=minutes,
            flux_veh_per_h=base + swing * np.sin(2.0 * np.pi * minutes / 30.0),
            speed_kmh=np.full(minutes.size, speed),
        )
        for rid, base, swing, speed in (
            ("1", 600.0, 250.0, 70.0),
            ("3", 450.0, 150.0, 65.0),
            ("5", 300.0, 120.0, 75.0),
        )
    }
    fleets = {
        "1": Fleet((_linear_vehicle("a", 2.0, 40.0, 1.5),)),
        "2": Fleet((_linear_vehicle("b", 5.0, 55.0, 1.5),)),
    }
    dt = 10.0 / 3600.0
    shape = CutoffShape(ell=0.2, big_l=0.6)
    net = warm_start(net, sensors, fleets, duration_h=0.5, dt_h=dt, shape=shape)
    assert net.total_vehicles() > 10.0
    mass_scale = 1.0
    for n in range(300):
        t = 0.5 + n * dt
        net, report = network_step(net, t, fleets, dt, shape=shape,
                                   return_report=True)
        mass_scale = max(mass_scale, report.mass_after)
        gained = report.mass_after - report.mass_before
        assert gained == pytest.approx(dt * report.flux_balance,
                                       abs=1e-10 * mass_scale)


def test_randomized_junction_rules():
    # 10^4 randomized junction states against a direct restatement of the
    # split/merge rules, plus the structural caps they promise
    rng = np.random.default_rng(99)
    for case in range(10_000):
        demand = float(rng.uniform(0.0, 3000.0)) if case % 50 else 0.0
        r_main = float(rng.uniform(0.0, 3000.0))
        r_side = float(rng.uniform(0.0, 3000.0))
        alpha = float(rng.uniform(0.02, 0.98))
        q_main, q_side = diverge_fluxes(demand, r_main, r_side, alpha)

        want_main, want_side = alpha * demand, (1.0 - alpha) * demand
        scale = 1.0
        if want_main > 0.0:
            scale = min(scale, r_main / want_main)
        if want_side > 0.0:
            scale = min(scale, r_side / want_side)
        assert q_main == pytest.approx(want_main * scale, rel=1e-12, abs=1e-12)
        assert q_side == pytest.approx(want_side * scale, rel=1e-12, abs=1e-12)
        # the split ratio is preserved even when a receiver saturates
        assert abs(q_main * (1.0 - alpha) - q_side * alpha) <= 1e-12 * (demand + 1.0)
        assert q_main <= r_main and q_side <= r_side
        assert q_main + q_side <= demand * (1.0 + 1e-12)

        s_main = float(rng.uniform(0.0, 3000.0))
        s_side = float(rng.uniform(0.0, 3000.0)) if case % 37 else 0.0
        r_out = float(rng.uniform(0.0, 3000.0))
        beta = float(rng.uniform(0.02, 0.98))
        q_main, q_side = merge_fluxes(s_main, s_side, r_out, beta)

        if s_main + s_side <= r_out:
            want_main, want_side = s_main, s_side
        else:
            mid = sorted((s_main, r_out - s_side, beta * r_out))[1]
            want_main = min(max(mid, 0.0), s_main, r_out)
            want_side = min(max(r_out - want_main, 0.0), s_side)
        assert q_main == pytest.approx(want_main, rel=1e-12, abs=1e-12)
        assert q_side == pytest.approx(want_side, rel=1e-12, abs=1e-12)
        assert q_main <= s_main and q_side <= s_side
        assert q_main + q_side <= r_out * (1.0 + 1e-12) or s_main + s_side <= r_out


# ---------------------------------------------------------------------------
# 10. diffusion mass balance
# ---------------------------------------------------------------------------

def test_diffusion_conserves_injected_mass():
    rng = np.random.default_rng(3)
    domain = Domain2D(half_length_x_km=0.3, half_length_y_km=0.1,
                      dx_km=0.01, dy_km=0.01)
    mu = 1e-3
    dt = 0.9 * stable_dt(mu, domain.dx_km, domain.dy_km)
    field = ConcentrationField(domain, np.zeros((domain.n_y, domain.n_x)))
    area = domain.cell_area_km2
    injected = 0.0
    source = None
    for n in range(10_000):
        if n % 500 == 0:  # a fresh arbitrary nonnegative source, half sparse
            source = rng.uniform(0.0, 5.0, (domain.n_y, domain.n_x))
            source[rng.random(source.shape) < 0.5] = 0.0
        field = diffusion_step(field, source, mu, dt)
        injected += dt * float(source.sum()) * area
        assert float(field.psi.min()) >= 0.0
        if (n + 1) % 1000 == 0:
            held = float(field.psi.sum()) * area
            assert held == pytest.approx(injected, rel=1e-10)
    held = float(field.psi.sum()) * area
    assert held == pytest.approx(injected, rel=1e-10)


# ---------------------------------------------------------------------------
# 11. acceleration field vs Lagrangian probe
# ---------------------------------------------------------------------------

def test_acceleration_field_converges_to_lagrangian_probe():
    # on a smooth vehicle-free second-order state, the per-cell acceleration
    # must approach a centered probe that rides the local speed: the max
    # interior error halves (first order) at each (dx, dt) refinement
    diag = CgarzDiagram.from_densities(rho_max=56.0, rho_f=10.0, v_max=90.0)
    w_mid = 0.5 * (diag.w_left + diag.w_right)
    sampling = FluxSamplingConfig(n_rho_samples=256)
    t_end = 1.0 / 60.0

    def speed_of(state: MacroState2) -> np.ndarray:
        return np.asarray(cgarz_speed(state.rho, state.w, diag), dtype=float)

    def level_error(dx_km: float, dt_s: float) -> float:
        n = int(round(10.0 / dx_km))
        grid = SpatialGrid(a_km=0.0, b_km=10.0, n_cells=n)
        x = grid.centers()
        state = MacroState2(
            rho=20.0 + 15.0 * np.exp(-0.5 * ((x - 5.0) / 0.8) ** 2),
            w=np.full(n, w_mid))
        dt = dt_s / 3600.0
        n_steps = int(round(t_end / dt))
        inflow = 20.0 * float(cgarz_speed(20.0, w_mid, diag))
        previous = state
        for k in range(n_steps):
            previous = state if k == n_steps - 1 else previous
            state = gsom_step(state, grid, k * dt, dt, diag, sampling=sampling,
                              left_flux=inflow)
        following = gsom_step(state, grid, t_end, dt, diag, sampling=sampling,
                              left_flux=inflow)
        field = acceleration_field(state, grid, t_end, diag).a_kmh2
        v_now = speed_of(state)
        probe = (np.interp(x + v_now * dt, x, speed_of(following))
                 - np.interp(x - v_now * dt, x, speed_of(previous))) / (2.0 * dt)
        interior = (x > 3.0) & (x < 7.5)
        return float(np.abs(field - probe)[interior].max())

    errors = [level_error(0.1, 2.0), level_error(0.05, 1.0),
              level_error(0.025, 0.5)]
    assert errors[0] > errors[1] > errors[2]
    for coarse, finer in zip(errors, errors[1:]):
        assert 1.4 <= coarse / finer <= 3.2
