"""Command-line driver: subcommands, exit codes, file plumbing."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from trafnox import read_field_dump, scenario, write_sensors
from trafnox.cli import main
from trafnox.core import MacroState1
from trafnox.network import SensorSeries

CGARZ = {"kind": "cgarz", "rho_max": 56.0, "v_max": 90.0, "rho_f": 10.0}


def _write_yaml(path, mapping):
    path.write_text(yaml.safe_dump(mapping))
    return str(path)


def _gsom_config(tmp_path, name="scenario.yaml", **extra):
    raw = {
        "model": "gsom",
        "diagram": dict(CGARZ),
        "initial": {"kind": "constant", "rho": 20.0},
        "road_a_km": 0.0,
        "road_b_km": 5.0,
        "n_cells": 10,
        "horizon_h": 0.01,
        "left_flux_veh_h": 48600.0 / 56.0,
        "out_dir": str(tmp_path / "out"),
    }
    raw.update(extra)
    return _write_yaml(tmp_path / name, raw)


def _diffusion_block():
    return {
        "mu_km2_per_h": 1e-8,
        "half_length_x_km": 2.5,
        "half_length_y_km": 0.25,
        "dx_km": 0.05,
        "dy_km": 0.05,
        "strips": [{"road_id": "0", "x_km": [-2.5, 2.5],
                    "y_km": [0.0, 0.05], "road_span_km": [0.0, 5.0]}],
    }


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_dumps_and_manifest(tmp_path, capsys):
    config = _write_yaml(tmp_path / "s.yaml", {
        "n_cells": 20, "horizon_h": 0.02,
        "initial": {"kind": "riemann", "rho_left": 45.0, "rho_right": 30.0,
                    "x_jump_km": 5.0},
        "out_dir": str(tmp_path / "out"),
    })
    assert main(["simulate", "--config", config]) == 0
    out = tmp_path / "out"
    assert (out / "rho.csv").is_file()
    assert (out / "speed.csv").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["content"]["model"] == "lwr"
    assert "wrote 2 dump(s)" in capsys.readouterr().out


def test_simulate_honors_out_and_record_every_flags(tmp_path):
    config = _gsom_config(tmp_path)
    other = tmp_path / "elsewhere"
    assert main(["simulate", "--config", config, "--out", str(other),
                 "--record-every", "3"]) == 0
    manifest = json.loads((other / "manifest.json").read_text())
    assert manifest["content"]["record_every"] == 3
    dump = read_field_dump(other / "rho.csv")
    assert dump.rows.shape[0] == manifest["content"]["n_steps"] // 3


def test_unknown_config_field_exits_2(tmp_path, capsys):
    config = _write_yaml(tmp_path / "bad.yaml", {"modle": "lwr"})
    assert main(["simulate", "--config", config]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_4(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_cfl_violation_exits_3(tmp_path, capsys):
    config = _gsom_config(tmp_path, dt_h=0.5, horizon_h=1.0)
    assert main(["simulate", "--config", config]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_non_finite_density_exits_3(tmp_path, monkeypatch, capsys):
    # a NaN density that got past the initial-state builders is refused by
    # the first step, before anything is written
    def nan_state(cfg, grid, law, data_fleet):
        return MacroState1(rho=np.full(grid.n_cells, np.nan))

    monkeypatch.setattr(scenario, "_initial_state_1", nan_state)
    config = _write_yaml(tmp_path / "s.yaml", {
        "n_cells": 20, "horizon_h": 0.02,
        "initial": {"kind": "constant", "rho": 30.0},
        "out_dir": str(tmp_path / "out"),
    })
    assert main(["simulate", "--config", config]) == 3
    assert "density outside" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_invalid_yaml_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("model: [unclosed\n")
    assert main(["simulate", "--config", str(path)]) == 2
    assert "invalid YAML" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# generate-trajectories


def test_generate_writes_a_loadable_fleet(tmp_path, capsys):
    config = _write_yaml(tmp_path / "gen.yaml", {
        "kind": "synthetic", "n_vehicles": 4, "horizon_h": 0.05,
        "sample_dt_h": 1.0 / 3600.0, "out_file": "fleet.csv",
    })
    assert main(["generate-trajectories", "--config", config]) == 0
    assert "synthetic fleet (4 vehicles)" in capsys.readouterr().out
    from trafnox import load_trajectories
    fleets = load_trajectories(tmp_path / "fleet.csv")
    assert set(fleets) == {"0"}
    assert len(fleets["0"]) == 4


def test_generate_out_flag_redirects_the_file(tmp_path):
    config = _write_yaml(tmp_path / "gen.yaml", {
        "kind": "synthetic", "n_vehicles": 3, "horizon_h": 0.02,
        "out_file": "fleet.csv",
    })
    target = tmp_path / "data"
    assert main(["generate-trajectories", "--config", config,
                 "--out", str(target)]) == 0
    assert (target / "fleet.csv").is_file()


def test_generate_rejects_bad_kind(tmp_path, capsys):
    config = _write_yaml(tmp_path / "gen.yaml", {"kind": "teleport"})
    assert main(["generate-trajectories", "--config", config]) == 2


# ---------------------------------------------------------------------------
# emissions / diffuse post-processing


def test_emissions_postprocesses_recorded_fields(tmp_path):
    plain = _gsom_config(tmp_path)
    assert main(["simulate", "--config", plain]) == 0
    out = tmp_path / "out"
    assert not (out / "emission.csv").exists()

    with_formula = _write_yaml(tmp_path / "with_formula.yaml",
                               {**yaml.safe_load(Path(plain).read_text()),
                                "emission_formula": "max"})
    assert main(["emissions", "--config", with_formula,
                 "--out", str(out)]) == 0
    dump = read_field_dump(out / "emission.csv")
    rho = read_field_dump(out / "rho.csv")
    assert dump.rows.shape == rho.rows.shape
    assert np.all(dump.rows > 0.0)
    manifest = json.loads((out / "manifest.json").read_text())
    assert "emission" in manifest["content"]["files"]


def test_emissions_requires_a_formula(tmp_path, capsys):
    config = _gsom_config(tmp_path)
    assert main(["simulate", "--config", config]) == 0
    assert main(["emissions", "--config", config,
                 "--out", str(tmp_path / "out")]) == 2
    assert "emission_formula" in capsys.readouterr().err


def test_emissions_rejects_first_order_dumps(tmp_path, capsys):
    config = _write_yaml(tmp_path / "lwr.yaml", {
        "n_cells": 10, "horizon_h": 0.01,
        "out_dir": str(tmp_path / "out"),
    })
    assert main(["simulate", "--config", config]) == 0
    with_formula = _write_yaml(tmp_path / "f.yaml", {
        "model": "gsom", "diagram": dict(CGARZ),
        "n_cells": 10, "horizon_h": 0.01, "emission_formula": "max",
        "out_dir": str(tmp_path / "out"),
    })
    assert main(["emissions", "--config", with_formula,
                 "--out", str(tmp_path / "out")]) == 2
    assert "second-order" in capsys.readouterr().err


def test_emissions_without_manifest_exits_2(tmp_path, capsys):
    config = _gsom_config(tmp_path, emission_formula="max")
    assert main(["emissions", "--config", config,
                 "--out", str(tmp_path / "empty")]) == 2
    assert "manifest" in capsys.readouterr().err


def test_diffuse_runs_on_dumped_emissions(tmp_path):
    config = _gsom_config(tmp_path, emission_formula="max")
    assert main(["simulate", "--config", config]) == 0
    out = tmp_path / "out"
    with_diffusion = _write_yaml(
        tmp_path / "d.yaml",
        {**yaml.safe_load(Path(config).read_text()),
         "diffusion": _diffusion_block()})
    assert main(["diffuse", "--config", with_diffusion,
                 "--out", str(out)]) == 0
    psi = read_field_dump(out / "psi.csv")
    emission = read_field_dump(out / "emission.csv")
    assert psi.rows.shape[0] == emission.rows.shape[0]
    assert psi.extra["n_y"] == 10.0
    assert psi.rows[-1].sum() > 0.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "psi" in manifest["content"]["files"]


def test_diffuse_equals_inline_dispersion(tmp_path):
    """Post-processed dispersion matches the coupled run when every step
    is recorded (the source history is then identical)."""
    inline = _gsom_config(tmp_path, name="inline.yaml",
                          emission_formula="max",
                          diffusion=_diffusion_block(),
                          out_dir=str(tmp_path / "inline"))
    assert main(["simulate", "--config", inline]) == 0
    post = _gsom_config(tmp_path, name="post.yaml", emission_formula="max",
                        out_dir=str(tmp_path / "post"))
    assert main(["simulate", "--config", post]) == 0
    with_diffusion = _write_yaml(
        tmp_path / "d.yaml",
        {**yaml.safe_load(Path(post).read_text()),
         "diffusion": _diffusion_block()})
    assert main(["diffuse", "--config", with_diffusion,
                 "--out", str(tmp_path / "post")]) == 0
    a = read_field_dump(tmp_path / "inline" / "psi.csv")
    b = read_field_dump(tmp_path / "post" / "psi.csv")
    np.testing.assert_array_equal(a.rows, b.rows)


def test_diffuse_without_emission_dumps_exits_2(tmp_path, capsys):
    config = _gsom_config(tmp_path, name="with_diffusion.yaml",
                          diffusion=_diffusion_block(),
                          emission_formula="max")
    plain = _gsom_config(tmp_path)
    assert main(["simulate", "--config", plain]) == 0
    assert main(["diffuse", "--config", config,
                 "--out", str(tmp_path / "out")]) == 2
    assert "no emission dumps" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate


def test_validate_accepts_a_scenario_config(tmp_path, capsys):
    config = _gsom_config(tmp_path)
    assert main(["validate", "--config", config]) == 0
    assert "scenario config ok" in capsys.readouterr().out


def test_validate_accepts_a_generation_config(tmp_path, capsys):
    config = _write_yaml(tmp_path / "gen.yaml",
                         {"kind": "synthetic", "n_vehicles": 3})
    assert main(["validate", "--config", config]) == 0
    assert "generation config ok" in capsys.readouterr().out


def test_validate_rejects_a_broken_config(tmp_path, capsys):
    config = _write_yaml(tmp_path / "bad.yaml", {"model": "quantum"})
    assert main(["validate", "--config", config]) == 2
    assert "model" in capsys.readouterr().err


def test_validate_checks_referenced_files(tmp_path, capsys):
    sensors = tmp_path / "sensors.csv"
    # minutes 0 and 2: a gap the loader must reject
    sensors.write_text("1,0,800,70\n1,2,800,70\n")
    config = _write_yaml(tmp_path / "net.yaml", {
        "model": "network", "diagram": dict(CGARZ),
        "horizon_h": 0.01, "sensors_path": str(sensors),
        "out_dir": str(tmp_path / "out"),
    })
    assert main(["validate", "--config", config]) == 2
    assert "gaps at minutes" in capsys.readouterr().err


def test_validate_rejects_a_non_finite_trajectory_value(tmp_path, capsys):
    trajectories = tmp_path / "t.csv"
    trajectories.write_text("v0,0,0,1.0,30\nv0,0,3600,nan,30\n")
    config = _write_yaml(tmp_path / "s.yaml", {
        "embedding": "cv", "trajectories_path": str(trajectories),
        "out_dir": str(tmp_path / "out"),
    })
    assert main(["validate", "--config", config]) == 2
    assert f"{trajectories}:2: x_km must be finite" in capsys.readouterr().err


def test_validate_network_scenario_with_sensors(tmp_path, capsys):
    series = {rid: SensorSeries(road_id=rid, minutes=tuple(range(35)),
                                flux_veh_per_h=tuple([800.0] * 35),
                                speed_kmh=tuple([70.0] * 35))
              for rid in ("1", "3", "5")}
    sensors = tmp_path / "sensors.csv"
    write_sensors(sensors, series)
    config = _write_yaml(tmp_path / "net.yaml", {
        "model": "network", "diagram": dict(CGARZ),
        "horizon_h": 0.01, "sensors_path": str(sensors),
        "out_dir": str(tmp_path / "out"),
    })
    assert main(["validate", "--config", config]) == 0


SHIPPED_SCENARIOS = sorted(
    (Path(__file__).resolve().parent.parent / "scenarios").glob("*.yaml"))


@pytest.mark.parametrize("config", SHIPPED_SCENARIOS, ids=lambda p: p.name)
def test_validate_accepts_every_shipped_scenario(config, capsys):
    assert main(["validate", "--config", str(config)]) == 0
    assert "config ok" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# entry point


def test_module_entry_point_runs(tmp_path):
    config = _write_yaml(tmp_path / "gen.yaml",
                         {"kind": "synthetic", "n_vehicles": 3})
    result = subprocess.run(
        [sys.executable, "-m", "trafnox.cli", "validate",
         "--config", config],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "generation config ok" in result.stdout

@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_kde_start_without_a_vehicle_at_t0_exits_2(tmp_path, capsys, command):
    # the only vehicle enters at 600 s, so no velocity can be estimated at t=0
    trajectories = tmp_path / "late.csv"
    trajectories.write_text("a,0,600,1.0,40\na,0,660,1.5,40\n")
    config = _gsom_config(tmp_path, embedding="cv",
                          trajectories_path=str(trajectories),
                          initial={"kind": "kde"})
    assert main([command, "--config", config]) == 2
    err = capsys.readouterr().err
    assert "late.csv" in err and "road '0'" in err and "t=0" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_one_cell_second_order_road_exits_2(tmp_path, capsys, command):
    # the acceleration field differences neighbouring cells, so a one-cell
    # gsom road is refused up front instead of failing inside the first step
    config = _gsom_config(tmp_path, n_cells=1)
    assert main([command, "--config", config]) == 2
    assert "n_cells must be >= 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_one_cell_network_road_exits_2(tmp_path, capsys, command):
    series = {rid: SensorSeries(road_id=rid, minutes=tuple(range(35)),
                                flux_veh_per_h=tuple([800.0] * 35),
                                speed_kmh=tuple([70.0] * 35))
              for rid in ("1", "3", "5")}
    sensors = tmp_path / "sensors.csv"
    write_sensors(sensors, series)
    lengths = {rid: 2.0 for rid in ("1", "2", "3", "4", "5", "6")}
    lengths["4"] = 0.5  # exactly one cell of dx_km
    config = _write_yaml(tmp_path / "net.yaml", {
        "model": "network", "diagram": dict(CGARZ),
        "horizon_h": 0.01, "sensors_path": str(sensors),
        "network": {"dx_km": 0.5, "lengths_km": lengths},
        "out_dir": str(tmp_path / "out"),
    })
    assert main([command, "--config", config]) == 2
    err = capsys.readouterr().err
    assert "road 4" in err and "lengths_km" in err and "dx_km" in err
    assert not (tmp_path / "out").exists()
