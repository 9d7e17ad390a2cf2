"""Network coupling: junction flux rules, sensors, coupled stepping."""

import dataclasses

import numpy as np
import pytest

from trafnox.core import (
    CgarzDiagram,
    ConfigError,
    CutoffShape,
    MacroState2,
    SimulationError,
    SpatialGrid,
    cgarz_speed,
    invert_speed_in_w,
)
from trafnox import gsom, network
from trafnox.gsom import _advance, _cell_tables, boundary_capacities, max_dt_2
from trafnox.gsom import step as gsom_step
from trafnox.lagrangian import Fleet, Trajectory
from trafnox.lwr import FluxSamplingConfig
from trafnox.network import (
    DivergeJunction,
    MergeJunction,
    Road,
    RoadNetwork,
    SensorSeries,
    build_six_road_network,
    diverge_fluxes,
    merge_fluxes,
    network_step,
    sensor_boundary,
    warm_start,
)

DIAG = CgarzDiagram.from_densities(rho_max=56.0, rho_f=10.0, v_max=90.0)


def _constant_sensor(road_id, flux, speed, n_minutes=240):
    minutes = np.arange(n_minutes)
    return SensorSeries(road_id=road_id, minutes=minutes,
                        flux_veh_per_h=np.full(n_minutes, float(flux)),
                        speed_kmh=np.full(n_minutes, float(speed)))


# ---------------------------------------------------------------------------
# junction flux rules
# ---------------------------------------------------------------------------

def test_diverge_unconstrained_split():
    q_main, q_side = diverge_fluxes(1000.0, 1e6, 1e6, 0.78)
    assert q_main == pytest.approx(780.0, rel=1e-12)
    assert q_side == pytest.approx(220.0, rel=1e-12)


def test_diverge_blocked_branch_stalls():
    assert diverge_fluxes(1000.0, 1e6, 0.0, 0.78) == (0.0, 0.0)


def test_diverge_all_to_main():
    q_main, q_side = diverge_fluxes(1000.0, 600.0, 1e6, 1.0)
    assert q_main == 600.0
    assert q_side == 0.0


def test_diverge_fifo_keeps_composition():
    rng = np.random.default_rng(1)
    for _ in range(200):
        s = float(rng.uniform(0.0, 3000.0))
        alpha = float(rng.uniform(0.05, 0.95))
        r_main = float(rng.uniform(0.0, 2000.0))
        r_side = float(rng.uniform(0.0, 2000.0))
        q_main, q_side = diverge_fluxes(s, r_main, r_side, alpha)
        assert 0.0 <= q_main <= r_main + 1e-12
        assert 0.0 <= q_side <= r_side + 1e-12
        assert q_main + q_side <= s + 1e-9
        if q_main > 0.0:  # composition is always alpha : (1 - alpha)
            assert q_side / q_main == pytest.approx((1.0 - alpha) / alpha, rel=1e-12)


def test_merge_pass_through():
    assert merge_fluxes(300.0, 100.0, 600.0, 0.2) == (300.0, 100.0)


def test_merge_symmetric_congested_split():
    assert merge_fluxes(600.0, 600.0, 1000.0, 0.5) == (500.0, 500.0)


def test_merge_median_rule_example():
    q_main, q_side = merge_fluxes(600.0, 100.0, 500.0, 0.2)
    assert q_main == 400.0
    assert q_side == 100.0


def test_merge_caps_hold_randomized():
    rng = np.random.default_rng(2)
    for _ in range(200):
        s_main = float(rng.uniform(0.0, 2000.0))
        s_side = float(rng.uniform(0.0, 2000.0))
        r_out = float(rng.uniform(0.0, 2500.0))
        beta = float(rng.uniform(0.0, 1.0))
        q_main, q_side = merge_fluxes(s_main, s_side, r_out, beta)
        assert 0.0 <= q_main <= s_main + 1e-12
        assert 0.0 <= q_side <= s_side + 1e-12
        assert q_main + q_side <= min(s_main + s_side, r_out) + 1e-9
        assert q_main + q_side == pytest.approx(min(s_main + s_side, r_out),
                                                rel=1e-12, abs=1e-12)


def test_junction_rule_validation():
    with pytest.raises(ConfigError):
        diverge_fluxes(-1.0, 1.0, 1.0, 0.5)
    with pytest.raises(ConfigError):
        diverge_fluxes(1.0, 1.0, 1.0, 1.5)
    with pytest.raises(ConfigError):
        merge_fluxes(1.0, 1.0, -1.0, 0.5)


# ---------------------------------------------------------------------------
# road and network validation
# ---------------------------------------------------------------------------

def test_road_grid_must_span_length():
    grid = SpatialGrid(a_km=0.0, b_km=5.0, n_cells=10)
    state = MacroState2(rho=np.zeros(10), w=np.full(10, DIAG.w_left))
    with pytest.raises(ConfigError):
        Road(road_id="r", length_km=6.0, grid=grid, state=state, diagram=DIAG)


def test_network_rejects_duplicate_wiring():
    r1 = Road.empty("1", 2.0, 10, DIAG)
    r2 = Road.empty("2", 2.0, 10, DIAG)
    r3 = Road.empty("3", 2.0, 10, DIAG)
    with pytest.raises(ConfigError):  # road 1 drained by two junctions
        RoadNetwork(
            roads=(r1, r2, r3),
            diverges=(DivergeJunction("1", "2", "3", 0.5),),
            merges=(MergeJunction("1", "2", "3", 0.5),),
        )
    with pytest.raises(ConfigError):  # dangling connector
        RoadNetwork(roads=(r1, r2),
                    diverges=(DivergeJunction("1", "2", "c", 0.5),))
    with pytest.raises(ConfigError):  # sensor on a junction-fed road
        RoadNetwork(roads=(r1, r2, r3),
                    diverges=(DivergeJunction("1", "2", "3", 0.5),),
                    sensors={"2": _constant_sensor("2", 100.0, 50.0)})


def test_sensor_series_validation():
    with pytest.raises(ConfigError):  # gap in minutes
        SensorSeries("1", np.array([0, 2]), np.array([1.0, 1.0]),
                     np.array([50.0, 50.0]))
    with pytest.raises(ConfigError):  # negative flux
        SensorSeries("1", np.array([0, 1]), np.array([-1.0, 1.0]),
                     np.array([50.0, 50.0]))


# ---------------------------------------------------------------------------
# sensor boundary
# ---------------------------------------------------------------------------

def _first_cell_recv(road, t):
    return boundary_capacities(road.state, road.grid, t, road.diagram)[0]


def test_sensor_boundary_zero_flux():
    road = Road.empty("1", 5.0, 10, DIAG)
    q, _ = sensor_boundary(_constant_sensor("1", 0.0, 50.0), 0.1, road,
                           _first_cell_recv(road, 0.1))
    assert q == 0.0


def test_sensor_boundary_clamps_to_receiving_capacity():
    road = Road.empty("1", 5.0, 10, DIAG)
    recv = _first_cell_recv(road, 0.0)
    q, _ = sensor_boundary(_constant_sensor("1", 10 * recv, 60.0), 0.0, road, recv)
    assert q == recv


def test_sensor_boundary_inverts_speed_at_implied_density():
    road = Road.empty("1", 5.0, 10, DIAG, w0=DIAG.w_right)
    q_sens, v_sens = 1120.0, 60.0
    q, w_b = sensor_boundary(_constant_sensor("1", q_sens, v_sens), 0.0, road,
                             _first_cell_recv(road, 0.0))
    assert q == q_sens  # well under capacity
    assert float(cgarz_speed(q_sens / v_sens, w_b, DIAG)) == pytest.approx(
        v_sens, abs=1e-6)


def test_sensor_boundary_out_of_span_warns_and_zeroes(caplog):
    road = Road.empty("1", 5.0, 10, DIAG)
    series = _constant_sensor("1", 500.0, 60.0, n_minutes=3)
    import logging
    with caplog.at_level(logging.WARNING, logger="trafnox.network"):
        q, w_b = sensor_boundary(series, 1.0, road,  # minute 60, span 0..2
                                 _first_cell_recv(road, 1.0))
    assert q == 0.0
    assert w_b == float(road.state.w[0])
    assert any("no record" in rec.message for rec in caplog.records)


def test_sensor_consistent_state_is_exact_fixed_point():
    """A road already at the sensor-implied state (rho = q/V everywhere,
    w such that v(rho, w) = V) is held exactly stationary by constant
    (q, V) feeding: the sensor flux enters unclamped, every interior
    interface carries it, and the free outflow removes it again."""
    q_sens, v_sens = 1120.0, 60.0
    rho_c = q_sens / v_sens
    w_c = invert_speed_in_w(rho_c, v_sens, DIAG)
    assert float(cgarz_speed(rho_c, w_c, DIAG)) == pytest.approx(v_sens, abs=1e-6)
    road = Road.empty("1", 5.0, 20, DIAG).with_state(
        MacroState2(rho=np.full(20, rho_c), w=np.full(20, w_c)))
    net = RoadNetwork(roads=(road,),
                      sensors={"1": _constant_sensor("1", q_sens, v_sens)})
    dt = 0.5 * max_dt_2(None, DIAG, road.grid)
    for n in range(50):
        net, report = network_step(net, n * dt, {}, dt, return_report=True)
        assert report.inflow["1"] == q_sens
        assert report.outflow["1"] == pytest.approx(q_sens, rel=1e-12)
    final = net.road("1").state
    assert np.array_equal(final.rho, road.state.rho)
    assert np.array_equal(final.w, road.state.w)


# ---------------------------------------------------------------------------
# network stepping
# ---------------------------------------------------------------------------

def test_empty_network_stays_empty():
    net = build_six_road_network(DIAG)
    dt = 0.5 * max_dt_2(None, DIAG, net.road("1").grid)
    out, report = network_step(net, 0.0, {}, dt, return_report=True)
    for road in out.roads:
        assert np.array_equal(road.state.rho, np.zeros_like(road.state.rho))
    assert report.mass_after == 0.0


def test_single_road_matches_standalone_solver():
    rng = np.random.default_rng(7)
    rho0 = rng.uniform(0.0, 56.0, size=20)
    w0 = rng.uniform(DIAG.w_left, DIAG.w_right, size=20)
    road = Road(road_id="1", length_km=5.0,
                grid=SpatialGrid(a_km=0.0, b_km=5.0, n_cells=20),
                state=MacroState2(rho=rho0, w=w0), diagram=DIAG)
    net = RoadNetwork(roads=(road,))
    dt = 0.5 * max_dt_2(None, DIAG, road.grid)
    state = road.state
    for n in range(50):
        net = network_step(net, n * dt, {}, dt)
        state = gsom_step(state, road.grid, n * dt, dt, DIAG, left_flux=0.0,
                          right_flux=None)
    assert np.array_equal(net.road("1").state.rho, state.rho)
    assert np.array_equal(net.road("1").state.w, state.w)


def test_network_step_refuses_cfl_violation():
    net = build_six_road_network(DIAG)
    dt = 2.0 * max_dt_2(None, DIAG, net.road("1").grid)
    with pytest.raises(SimulationError):
        network_step(net, 0.0, {}, dt)


def test_six_road_mass_balance_with_sensors():
    net = build_six_road_network(DIAG, dx_km=1.0)
    sensors = {
        "1": _constant_sensor("1", 900.0, 70.0),
        "3": _constant_sensor("3", 600.0, 65.0),
        "5": _constant_sensor("5", 400.0, 75.0),
    }
    net = RoadNetwork(roads=net.roads, diverges=net.diverges,
                      merges=net.merges, sensors=sensors)
    dt = 0.5 * max_dt_2(None, DIAG, net.road("1").grid)
    mass_scale = 1.0
    for n in range(120):
        net, report = network_step(net, n * dt, {}, dt, return_report=True)
        gained = report.mass_after - report.mass_before
        expected = dt * report.flux_balance
        mass_scale = max(mass_scale, report.mass_after)
        assert gained == pytest.approx(expected, abs=1e-10 * mass_scale)
    assert net.total_vehicles() > 10.0  # the network actually filled


def test_six_road_reachability_from_road_1():
    # constant inflow on road 1 only: density reaches roads 2 and 6 but
    # never roads 3, 4, 5
    net = build_six_road_network(DIAG, dx_km=1.0)
    sensors = {"1": _constant_sensor("1", 900.0, 70.0)}
    dt = 0.5 * max_dt_2(None, DIAG, net.road("1").grid)
    net = warm_start(net, sensors, {}, duration_h=0.5, dt_h=dt)
    assert float(np.sum(net.road("1").state.rho)) > 0.0
    assert float(np.sum(net.road("2").state.rho)) > 0.0
    assert float(np.sum(net.road("6").state.rho)) > 0.0
    for untouched in ("3", "4", "5"):
        assert np.array_equal(net.road(untouched).state.rho,
                              np.zeros_like(net.road(untouched).state.rho))


def test_warm_start_zero_sensors_stays_empty():
    net = build_six_road_network(DIAG, dx_km=1.0)
    dt = 0.5 * max_dt_2(None, DIAG, net.road("1").grid)
    out = warm_start(net, {}, {}, duration_h=0.5, dt_h=dt)
    assert out.total_vehicles() == 0.0


def test_diverge_to_roads_conserves_and_splits():
    # a single diverge feeding two roads directly: realized inflows keep the
    # alpha composition and the upstream outflow equals their sum
    rho0 = np.full(10, 20.0)
    w_mid = 0.5 * (DIAG.w_left + DIAG.w_right)
    roads = tuple(
        Road(road_id=rid, length_km=5.0,
             grid=SpatialGrid(a_km=0.0, b_km=5.0, n_cells=10),
             state=MacroState2(rho=rho0.copy() if rid == "up" else np.zeros(10),
                               w=np.full(10, w_mid)),
             diagram=DIAG)
        for rid in ("up", "main", "side")
    )
    net = RoadNetwork(roads=roads,
                      diverges=(DivergeJunction("up", "main", "side", 0.78),))
    dt = 0.5 * max_dt_2(None, DIAG, roads[0].grid)
    net, report = network_step(net, 0.0, {}, dt, return_report=True)
    assert report.outflow["up"] == pytest.approx(
        report.inflow["main"] + report.inflow["side"], rel=1e-12)
    assert report.inflow["side"] / report.inflow["main"] == pytest.approx(
        0.22 / 0.78, rel=1e-12)


def test_merge_from_roads_conserves():
    w_mid = 0.5 * (DIAG.w_left + DIAG.w_right)
    def _road(rid, rho_val, w_val):
        return Road(road_id=rid, length_km=5.0,
                    grid=SpatialGrid(a_km=0.0, b_km=5.0, n_cells=10),
                    state=MacroState2(rho=np.full(10, rho_val),
                                      w=np.full(10, w_val)),
                    diagram=DIAG)
    net = RoadNetwork(
        roads=(_road("m", 25.0, DIAG.w_right), _road("s", 20.0, w_mid),
               _road("out", 50.0, w_mid)),
        merges=(MergeJunction("m", "s", "out", 0.2),),
    )
    dt = 0.5 * max_dt_2(None, DIAG, net.road("m").grid)
    net, report = network_step(net, 0.0, {}, dt, return_report=True)
    assert report.inflow["out"] == pytest.approx(
        report.outflow["m"] + report.outflow["s"], rel=1e-12)
    # congested outlet: allocation respects both demands and the capacity
    assert report.inflow["out"] > 0.0


def test_merge_blends_w_by_flux_share():
    # free-flowing merge: downstream ghost w is the flux-weighted upstream w,
    # visible through the first cell's w after one step
    def _road(rid, rho_val, w_val):
        return Road(road_id=rid, length_km=5.0,
                    grid=SpatialGrid(a_km=0.0, b_km=5.0, n_cells=10),
                    state=MacroState2(rho=np.full(10, rho_val),
                                      w=np.full(10, w_val)),
                    diagram=DIAG)
    w_lo, w_hi = DIAG.w_left, DIAG.w_right
    out0 = 0.5 * (w_lo + w_hi)
    net = RoadNetwork(
        roads=(_road("m", 15.0, w_hi), _road("s", 15.0, w_lo),
               _road("out", 5.0, out0)),
        merges=(MergeJunction("m", "s", "out", 0.5),),
    )
    dt = 0.5 * max_dt_2(None, DIAG, net.road("m").grid)
    new_net, report = network_step(net, 0.0, {}, dt, return_report=True)
    q_m, q_s = report.outflow["m"], report.outflow["s"]
    ghost = (q_m * w_hi + q_s * w_lo) / (q_m + q_s)
    v0 = float(cgarz_speed(5.0, out0, DIAG))
    expected = out0 - (dt / net.road("out").grid.dx_km) * v0 * (out0 - ghost)
    assert float(new_net.road("out").state.w[0]) == pytest.approx(expected,
                                                                  rel=1e-12)


def test_boundary_capacities_match_step_internals():
    # a right_flux equal to the reported sending capacity passes through
    # unchanged: realized outflow == min(S, cap) == cap
    rng = np.random.default_rng(30)
    grid = SpatialGrid(a_km=0.0, b_km=5.0, n_cells=20)
    state = MacroState2(rho=rng.uniform(0.0, 56.0, size=20),
                        w=rng.uniform(DIAG.w_left, DIAG.w_right, size=20))
    _, send = boundary_capacities(state, grid, 0.0, DIAG)
    tables = _cell_tables(state, grid, 0.0, DIAG, None, None,
                          FluxSamplingConfig())
    _, fluxes = _advance(tables, grid, 0.5 * max_dt_2(None, DIAG, grid), DIAG,
                         0.0, send, None)
    assert float(fluxes[-1]) == send


def test_network_step_builds_each_road_table_once(monkeypatch):
    """One network_step builds each road's cell tables once: the junction
    phase and the road's advance read the same arrays."""
    calls = []
    build = gsom._cell_tables

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(gsom, "_cell_tables", counted)
    monkeypatch.setattr(network, "_cell_tables", counted)
    net = dataclasses.replace(build_six_road_network(DIAG, dx_km=0.5),
                              sensors={"1": _constant_sensor("1", 600.0, 70.0)})
    fleet = Fleet((Trajectory.from_line("probe", 3.0, 40.0, 0.0, 1.0),))
    shape = CutoffShape(ell=0.2, big_l=0.6)
    dt = 0.5 * min(max_dt_2(fleet, road.diagram, road.grid) for road in net.roads)
    network_step(net, 0.0, {"1": fleet}, dt, shape,
                 FluxSamplingConfig(n_rho_samples=64))
    assert len(calls) == len(net.roads) == 6


def test_sensor_inflow_is_capped_by_the_embedded_first_cell():
    """With a slow tracked vehicle over the first cells of sensor road 1, the
    realized inflow is the sensor flux capped by that road's receiving
    capacity with the vehicle blended in, as boundary_capacities reports it."""
    shape = CutoffShape(ell=0.2, big_l=0.6)
    sampling = FluxSamplingConfig(n_rho_samples=64)
    fleet = Fleet((Trajectory.from_line("probe", 0.1, 5.0, 0.0, 1.0),))
    net = build_six_road_network(DIAG, dx_km=0.5)
    road1 = net.road("1").with_state(
        MacroState2(rho=np.full(82, 20.0), w=np.full(82, DIAG.w_right)))
    net = dataclasses.replace(
        net.with_states({"1": road1.state}),
        sensors={"1": _constant_sensor("1", 5000.0, 60.0)})
    dt = 0.5 * min(max_dt_2(fleet, road.diagram, road.grid) for road in net.roads)
    t = 0.02  # the vehicle is at 0.2 km, over the first cell (center 0.25 km)
    recv = boundary_capacities(road1.state, road1.grid, t, DIAG, fleet, shape,
                               sampling)[0]
    free_recv = boundary_capacities(road1.state, road1.grid, t, DIAG,
                                    sampling=sampling)[0]
    assert recv < free_recv < 5000.0  # the vehicle tightens the binding cap
    new_net, report = network_step(net, t, {"1": fleet}, dt, shape, sampling,
                                   return_report=True)
    assert report.inflow["1"] == min(5000.0, recv)
    gained = report.mass_after - report.mass_before
    assert gained == pytest.approx(dt * report.flux_balance, abs=1e-9)

