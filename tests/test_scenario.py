"""Scenario configuration, the end-to-end pipeline, and fleet generation."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from trafnox import (
    ConfigError,
    DiagramConfig,
    DiffusionConfig,
    Fleet,
    InitialConfig,
    ScenarioConfig,
    StripConfig,
    Trajectory,
    TrajectoryGenConfig,
    config_from_mapping,
    config_hash,
    generate_fleet,
    generate_trajectories,
    load_config,
    load_trajectories,
    manifest_content_hash,
    read_field_dump,
    run_scenario,
    write_sensors,
    write_trajectories,
)
from trafnox.lagrangian import synthetic_position
from trafnox.network import SensorSeries

CGARZ = DiagramConfig(kind="cgarz", rho_max=56.0, v_max=90.0, rho_f=10.0)


def _linear_fleet(slopes_kmh, intercepts_km, horizon_h, n_samples=200):
    times = np.linspace(0.0, horizon_h, n_samples)
    trajectories = tuple(
        Trajectory(vehicle_id=f"v{i}", times_h=times,
                   positions_km=x0 + v * times,
                   speeds_kmh=np.full_like(times, v))
        for i, (v, x0) in enumerate(zip(slopes_kmh, intercepts_km))
    )
    return Fleet(trajectories=trajectories)


def _write_fleet(path, fleet, road_id="0"):
    write_trajectories(path, {road_id: fleet})
    return str(path)


def _riemann(rho_left, rho_right, x_jump_km):
    return InitialConfig(kind="riemann", rho_left=rho_left,
                         rho_right=rho_right, x_jump_km=x_jump_km)


# ---------------------------------------------------------------------------
# config parsing and validation


def test_defaults_build_a_valid_config():
    cfg = ScenarioConfig()
    assert cfg.model == "lwr"
    assert cfg.embedding == "none"
    assert cfg.diagram.kind == "greenshields"


def test_yaml_round_trip_resolves_relative_paths(tmp_path):
    fleet = _linear_fleet([50.0], [1.0], 0.1)
    _write_fleet(tmp_path / "fleet.csv", fleet)
    (tmp_path / "scenario.yaml").write_text(yaml.safe_dump({
        "model": "lwr",
        "embedding": "cv",
        "diagram": {"kind": "greenshields", "rho_max": 150.0, "v_max": 80.0},
        "initial": {"kind": "constant", "rho": 30.0},
        "n_cells": 40,
        "horizon_h": 0.05,
        "trajectories_path": "fleet.csv",
        "out_dir": "results",
    }))
    cfg = load_config(tmp_path / "scenario.yaml")
    assert cfg.diagram.rho_max == 150.0
    assert cfg.trajectories_path == str(tmp_path / "fleet.csv")
    assert cfg.out_dir == str(tmp_path / "results")


def test_empty_yaml_gives_defaults(tmp_path):
    (tmp_path / "empty.yaml").write_text("")
    assert load_config(tmp_path / "empty.yaml") == ScenarioConfig()


@pytest.mark.parametrize("raw, needle", [
    ({"model": "fancy"}, "model"),
    ({"embedding": "avg"}, "embedding"),
    ({"mdoel": "lwr"}, "mdoel"),
    ({"diagram": {"kind": "triangular"}}, "diagram.kind"),
    ({"diagram": {"kind": "cgarz"}}, "rho_f"),
    ({"initial": {"kind": "bump"}}, "initial.kind"),
    ({"initial": {"kind": "riemann", "rho_left": 1.0}}, "rho_right"),
    ({"horizon_h": -1.0}, "horizon_h"),
    ({"n_cells": 0}, "n_cells"),
    ({"dt_h": 0.0}, "dt_h"),
    ({"cfl_safety": 1.5}, "cfl_safety"),
    ({"record_every": 0}, "record_every"),
    ({"embed_subsample": 0}, "embed_subsample"),
    ({"road_a_km": 5.0, "road_b_km": 1.0}, "road_b_km"),
    ({"embedding": "cv"}, "trajectories_path"),
    ({"initial": {"kind": "kde"}}, "trajectories_path"),
    ({"trajectories_path": "/no/such/file.csv"}, "no such file"),
    ({"emission_formula": "square"}, "emission_formula"),
    ({"emission_formula": "max"}, "second-order"),
])
def test_invalid_configs_name_the_field(raw, needle):
    with pytest.raises(ConfigError, match=needle):
        config_from_mapping(raw)


def test_acv_requires_the_first_order_model(tmp_path):
    path = _write_fleet(tmp_path / "f.csv", _linear_fleet([50.0], [1.0], 0.1))
    with pytest.raises(ConfigError, match="acv"):
        ScenarioConfig(model="gsom", embedding="acv", diagram=CGARZ,
                       trajectories_path=path)


def test_model_and_diagram_family_must_match():
    with pytest.raises(ConfigError, match="greenshields"):
        ScenarioConfig(model="lwr", diagram=CGARZ)
    with pytest.raises(ConfigError, match="cgarz"):
        ScenarioConfig(model="gsom", diagram=DiagramConfig())


def test_network_requires_sensors_and_empty_start(tmp_path):
    with pytest.raises(ConfigError, match="sensors_path"):
        ScenarioConfig(model="network", diagram=CGARZ)
    sensors = tmp_path / "s.csv"
    write_sensors(sensors, {"1": SensorSeries(
        road_id="1", minutes=(0,), flux_veh_per_h=(100.0,),
        speed_kmh=(50.0,))})
    with pytest.raises(ConfigError, match="empty"):
        ScenarioConfig(model="network", diagram=CGARZ,
                       sensors_path=str(sensors),
                       initial=InitialConfig(kind="constant", rho=10.0))


def test_diffusion_needs_an_emission_formula():
    diff = DiffusionConfig(strips=(
        StripConfig(road_id="0", x_km=(-1.0, 1.0), y_km=(0.0, 0.01)),))
    with pytest.raises(ConfigError, match="emission_formula"):
        ScenarioConfig(model="gsom", diagram=CGARZ, diffusion=diff)


def test_coefficient_file_only_applies_to_the_two_regime_formula(tmp_path):
    path = tmp_path / "coeffs.txt"
    path.write_text("threshold -0.5\n")
    with pytest.raises(ConfigError, match="emission_coeffs_path"):
        ScenarioConfig(model="gsom", diagram=CGARZ, emission_formula="exp",
                       emission_coeffs_path=str(path))


def test_config_hash_tracks_field_changes():
    base = ScenarioConfig(n_cells=50)
    assert config_hash(base) == config_hash(ScenarioConfig(n_cells=50))
    assert config_hash(base) != config_hash(ScenarioConfig(n_cells=51))
    assert config_hash(base) != config_hash(
        dataclasses.replace(base, seed=1))


# ---------------------------------------------------------------------------
# single-road pipelines


def test_determinism_identical_runs_are_byte_identical(tmp_path):
    cfg = ScenarioConfig(n_cells=30, horizon_h=0.03,
                         initial=_riemann(45.0, 30.0, 5.0))
    first = run_scenario(cfg, out_dir=tmp_path)
    blobs = {entry["file"]: (tmp_path / entry["file"]).read_bytes()
             for entry in first["content"]["files"].values()}
    second = run_scenario(cfg, out_dir=tmp_path)
    assert (manifest_content_hash(first)
            == manifest_content_hash(second))
    for key, entry in first["content"]["files"].items():
        assert entry["sha256"] == second["content"]["files"][key]["sha256"]
        assert (tmp_path / entry["file"]).read_bytes() == blobs[entry["file"]]


def test_manifest_lists_every_dump_with_matching_rows(tmp_path):
    cfg = ScenarioConfig(n_cells=20, horizon_h=0.02, record_every=3)
    manifest = run_scenario(cfg, out_dir=tmp_path)
    content = manifest["content"]
    assert content["record_every"] == 3
    assert set(content["files"]) == {"rho", "speed"}
    for key, entry in content["files"].items():
        dump = read_field_dump(tmp_path / entry["file"])
        assert dump.rows.shape == (entry["rows"], 20)
        assert dump.rows.shape[0] == content["n_steps"] // 3
    raw = json.loads((tmp_path / "manifest.json").read_text())
    assert raw["content"] == content


def test_left_inflow_accumulates_the_injected_mass(tmp_path):
    cfg = ScenarioConfig(n_cells=100, horizon_h=0.02, left_flux_veh_h=2400.0,
                         initial=InitialConfig(kind="constant", rho=0.0))
    manifest = run_scenario(cfg, out_dir=tmp_path)
    dump = read_field_dump(tmp_path / "rho.csv")
    dt = manifest["content"]["dt_h"]
    n = manifest["content"]["n_steps"]
    mass = dump.rows[-1].sum() * dump.dx_km
    assert mass == pytest.approx(2400.0 * n * dt, rel=1e-12)


def test_embedding_modes_differ_while_vehicles_are_clustered(tmp_path):
    # Rarefaction with three co-located probes whose speeds fan out; the
    # closest-vehicle field and the averaged field must disagree while more
    # than one probe sits inside the influence region.
    horizon = 0.02
    fleet = _linear_fleet([10.0, 25.0, 50.0], [1.0, 1.001, 1.002], horizon)
    path = _write_fleet(tmp_path / "fleet.csv", fleet)
    base = dict(
        model="lwr",
        diagram=DiagramConfig(kind="greenshields", rho_max=120.0, v_max=90.0),
        initial=_riemann(45.0, 30.0, 1.0),
        road_a_km=0.0, road_b_km=4.0, n_cells=80, horizon_h=horizon,
        trajectories_path=path, cutoff_ell_km=0.1, cutoff_big_l_km=0.5,
    )
    run_scenario(ScenarioConfig(embedding="cv", **base),
                 out_dir=tmp_path / "cv")
    run_scenario(ScenarioConfig(embedding="acv", **base),
                 out_dir=tmp_path / "acv")
    rho_cv = read_field_dump(tmp_path / "cv" / "rho.csv").rows
    rho_acv = read_field_dump(tmp_path / "acv" / "rho.csv").rows
    # all three vehicles stay within 2 * big_l = 1 km of each other here
    assert np.abs(rho_cv - rho_acv).max() > 0.0


def test_no_embedding_matches_fleetless_run(tmp_path):
    fleet = _linear_fleet([30.0], [2.0], 0.02)
    path = _write_fleet(tmp_path / "fleet.csv", fleet)
    base = dict(n_cells=40, horizon_h=0.02, initial=_riemann(45.0, 30.0, 5.0))
    run_scenario(ScenarioConfig(**base), out_dir=tmp_path / "plain")
    run_scenario(ScenarioConfig(trajectories_path=path, **base),
                 out_dir=tmp_path / "with_file")
    a = (tmp_path / "plain" / "rho.csv").read_bytes()
    b = (tmp_path / "with_file" / "rho.csv").read_bytes()
    assert a == b


def test_gsom_scenario_writes_second_order_fields(tmp_path):
    # left inflow equal to the uniform state's own flux keeps it stationary
    cfg = ScenarioConfig(model="gsom", diagram=CGARZ,
                         initial=InitialConfig(kind="constant", rho=20.0),
                         n_cells=25, horizon_h=0.02, emission_formula="max",
                         left_flux_veh_h=48600.0 / 56.0)
    manifest = run_scenario(cfg, out_dir=tmp_path)
    assert set(manifest["content"]["files"]) == {
        "rho", "w", "speed", "accel", "emission"}
    w = read_field_dump(tmp_path / "w.csv")
    assert np.all(w.rows == pytest.approx(0.5 * (41400.0 / 56.0 + 1260.0)))
    emission = read_field_dump(tmp_path / "emission.csv")
    assert np.all(emission.rows > 0.0)


def test_gsom_scenario_on_a_road_not_starting_at_zero(tmp_path):
    """A single second-order road may start anywhere: shifted by 2 km, the
    same scenario writes the same rows under an a_km=2 header."""
    base = dict(model="gsom", diagram=CGARZ, n_cells=40, horizon_h=0.02,
                left_flux_veh_h=600.0)
    run_scenario(ScenarioConfig(initial=_riemann(40.0, 8.0, 5.0), **base),
                 out_dir=tmp_path / "at0")
    run_scenario(ScenarioConfig(initial=_riemann(40.0, 8.0, 7.0),
                                road_a_km=2.0, road_b_km=12.0, **base),
                 out_dir=tmp_path / "at2")
    for name in ("rho.csv", "w.csv"):
        header0, rows0 = (tmp_path / "at0" / name).read_bytes().split(b"\n", 1)
        header2, rows2 = (tmp_path / "at2" / name).read_bytes().split(b"\n", 1)
        assert rows2 == rows0
        assert b"a_km=2" in header2.split() and b"a_km=0" in header0.split()
        assert read_field_dump(tmp_path / "at2" / name).a_km == 2.0


def test_kde_initial_profile_peaks_at_the_fleet(tmp_path):
    fleet = _linear_fleet([40.0] * 5, [4.8, 4.9, 5.0, 5.1, 5.2], 0.01,
                          n_samples=50)
    path = _write_fleet(tmp_path / "fleet.csv", fleet)
    cfg = ScenarioConfig(
        model="gsom", diagram=CGARZ,
        initial=InitialConfig(kind="kde", kde_bandwidth_km=0.3),
        n_cells=50, horizon_h=1e-4, dt_h=1e-4,
        trajectories_path=path)
    run_scenario(cfg, out_dir=tmp_path / "out")
    rho = read_field_dump(tmp_path / "out" / "rho.csv").rows[0]
    centers_km = 10.0 * (np.arange(50) + 0.5) / 50.0
    peak = centers_km[np.argmax(rho)]
    assert abs(peak - 5.0) < 0.5
    assert rho.max() > 10.0 * rho[0]


def test_riemann_profile_places_the_jump(tmp_path):
    # inflow equal to q(45) keeps the left plateau exactly stationary
    cfg = ScenarioConfig(n_cells=10, horizon_h=1e-4, dt_h=1e-4,
                         initial=_riemann(45.0, 30.0, 5.0),
                         left_flux_veh_h=2531.25)
    run_scenario(cfg, out_dir=tmp_path)
    rho = read_field_dump(tmp_path / "rho.csv").rows[0]
    assert rho[0] == pytest.approx(45.0, abs=1e-9)
    assert rho[-1] == pytest.approx(30.0, abs=1e-9)


# ---------------------------------------------------------------------------
# network pipeline


def _sensor_file(tmp_path, n_minutes=40, flux=800.0, speed=70.0):
    series = {
        rid: SensorSeries(road_id=rid, minutes=tuple(range(n_minutes)),
                          flux_veh_per_h=tuple([flux] * n_minutes),
                          speed_kmh=tuple([speed] * n_minutes))
        for rid in ("1", "3", "5")
    }
    path = tmp_path / "sensors.csv"
    write_sensors(path, series)
    return str(path)


def test_network_scenario_dumps_every_road(tmp_path):
    cfg = ScenarioConfig(model="network", diagram=CGARZ, horizon_h=0.05,
                         sensors_path=_sensor_file(tmp_path),
                         record_every=5, out_dir=str(tmp_path / "out"))
    manifest = run_scenario(cfg)
    files = manifest["content"]["files"]
    for quantity in ("rho", "w", "speed"):
        for rid in "123456":
            assert f"{quantity}.{rid}" in files
    assert manifest["content"]["warm_start_h"] == 0.5
    # the warm start fed the entry roads: densities are strictly positive
    rho1 = read_field_dump(tmp_path / "out" / "rho.1.csv").rows
    assert rho1[-1].max() > 1.0


def test_network_mass_grows_only_through_boundaries(tmp_path):
    cfg = ScenarioConfig(model="network", diagram=CGARZ, horizon_h=0.03,
                         sensors_path=_sensor_file(tmp_path),
                         out_dir=str(tmp_path / "out"))
    manifest = run_scenario(cfg)
    total = 0.0
    for rid in "123456":
        dump = read_field_dump(tmp_path / "out" / f"rho.{rid}.csv")
        total += dump.rows[-1].sum() * dump.dx_km
    # three entries fed at 800 veh/h for warm start plus horizon, exits open
    assert 0.0 < total < 3 * 800.0 * (0.5 + 0.03)


# ---------------------------------------------------------------------------
# dispersion coupling


def _diffusion_block(road_id="0", span=(0.0, 5.0)):
    return DiffusionConfig(
        mu_km2_per_h=1e-8, half_length_x_km=2.5, half_length_y_km=0.25,
        dx_km=0.05, dy_km=0.05,
        strips=(StripConfig(road_id=road_id, x_km=(-2.5, 2.5),
                            y_km=(0.0, 0.05), road_span_km=span),))


def test_dispersion_mass_equals_time_integrated_source(tmp_path):
    cfg = ScenarioConfig(
        model="gsom", diagram=CGARZ,
        initial=InitialConfig(kind="constant", rho=20.0),
        road_a_km=0.0, road_b_km=5.0, n_cells=10, horizon_h=0.02,
        emission_formula="max", diffusion=_diffusion_block(),
        out_dir=str(tmp_path))
    manifest = run_scenario(cfg)
    dt = manifest["content"]["dt_h"]
    psi = read_field_dump(tmp_path / "psi.csv")
    emission = read_field_dump(tmp_path / "emission.csv")
    # every step is recorded, so the source history is exactly the emission
    # dump: each fine cell inherits its coarse cell's rate E and injects
    # E / dx^3 per unit time into a dx * dy cell.
    fine_per_coarse = round(0.5 / 0.05)
    mass = psi.rows.sum(axis=1) * (0.05 * 0.05)
    injected = (emission.rows.sum(axis=1).cumsum() * dt
                * fine_per_coarse * (0.05 * 0.05) / 0.05 ** 3)
    np.testing.assert_allclose(mass, injected, rtol=1e-10)


def test_dispersion_rejects_unknown_road(tmp_path):
    cfg = ScenarioConfig(
        model="gsom", diagram=CGARZ,
        initial=InitialConfig(kind="constant", rho=20.0),
        road_a_km=0.0, road_b_km=5.0, n_cells=10, horizon_h=0.01,
        emission_formula="max", diffusion=_diffusion_block(road_id="9"),
        out_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="unknown road"):
        run_scenario(cfg)


def test_dispersion_rejects_misaligned_span(tmp_path):
    cfg = ScenarioConfig(
        model="gsom", diagram=CGARZ,
        initial=InitialConfig(kind="constant", rho=20.0),
        road_a_km=0.0, road_b_km=5.0, n_cells=10, horizon_h=0.01,
        emission_formula="max",
        diffusion=_diffusion_block(span=(0.13, 5.13)),
        out_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="align"):
        run_scenario(cfg)


def test_dispersion_rejects_span_of_wrong_length(tmp_path):
    cfg = ScenarioConfig(
        model="gsom", diagram=CGARZ,
        initial=InitialConfig(kind="constant", rho=20.0),
        road_a_km=0.0, road_b_km=5.0, n_cells=10, horizon_h=0.01,
        emission_formula="max",
        diffusion=_diffusion_block(span=(0.0, 4.5)),
        out_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="km long"):
        run_scenario(cfg)


# ---------------------------------------------------------------------------
# fleet generation


def test_synthetic_generation_matches_the_closed_form():
    cfg = TrajectoryGenConfig(kind="synthetic", n_vehicles=5, c=0.3,
                              horizon_h=0.1, v_max_kmh=90.0,
                              sample_dt_h=0.01)
    fleet = generate_fleet(cfg)
    assert len(fleet) == 5
    times = fleet.trajectories[2].times_h
    expected = synthetic_position(2, times, 5, 0.3, 0.1, 90.0)
    np.testing.assert_allclose(fleet.trajectories[2].positions_km, expected,
                               rtol=1e-12)


def test_ftl_generation_produces_a_platoon():
    # start slightly below the leader's speed; followers close in smoothly
    cfg = TrajectoryGenConfig(kind="ftl", n_vehicles=4, horizon_h=0.01,
                              dt_h=1e-4, sample_dt_h=1e-3,
                              initial_speed_kmh=55.0)
    fleet = generate_fleet(cfg)
    assert len(fleet) == 4
    for trajectory in fleet.trajectories:
        assert np.all(np.diff(trajectory.times_h) > 0)
        assert np.all(np.diff(trajectory.positions_km) >= 0)


def test_generated_file_round_trips(tmp_path):
    cfg = TrajectoryGenConfig(kind="synthetic", n_vehicles=3, horizon_h=0.05,
                              sample_dt_h=1.0 / 3600.0, road_id="7",
                              out_file=str(tmp_path / "gen.csv"))
    path = generate_trajectories(cfg)
    fleets = load_trajectories(path)
    assert set(fleets) == {"7"}
    loaded = fleets["7"]
    original = generate_fleet(cfg)
    assert len(loaded) == len(original)
    np.testing.assert_array_equal(loaded.trajectories[0].positions_km,
                                  original.trajectories[0].positions_km)


def test_generation_config_validation():
    with pytest.raises(ConfigError, match="kind"):
        TrajectoryGenConfig(kind="random")
    with pytest.raises(ConfigError, match="n_vehicles"):
        TrajectoryGenConfig(n_vehicles=0)
