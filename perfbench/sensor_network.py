"""sensor_network: the six-road network fed by three entry sensors, with
two-regime emissions and inline dispersion on a fine 2-D grid.

One pass runs one scenario: a half-hour warm start from empty, then a
quarter hour with emissions and four road strips on a 2000 x 200 cell
dispersion grid (10 m cells).  No vehicle trajectories are involved.  The
seed draws each sensor's base flux, the phase of its half-hour flux wave,
and per-minute noise on flux and speed.

The output check wraps the network step to read its flow report and
requires, after every step, vehicles gained = dt (inflow - outflow), the
two sides computed by independent paths in the program.  It wraps the
diffusion step to accumulate the injected mass dt sum(S) cell_area and
requires the final dumped concentration field to hold exactly that mass,
with psi >= 0 in every step's field.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from common import CheckFailed, patched, write_yaml

ENTRY_ROADS = {"1": (620.0, 72.0), "3": (480.0, 66.0), "5": (330.0, 75.0)}
N_MINUTES = 46          # covers the warm start and the run, minutes 0..45
DT_H = 10.0 / 3600.0
CELL_AREA_KM2 = 0.01 * 0.01


def sensor_rows(seed: int) -> list[str]:
    rng = np.random.default_rng([seed, 2])
    minutes = np.arange(N_MINUTES)
    lines = ["# road_id,minute,flux_veh_per_h,speed_kmh"]
    for rid, (base, speed) in ENTRY_ROADS.items():
        level = base * rng.uniform(0.95, 1.05)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        flux = (level * (1.0 + 0.3 * np.sin(2.0 * math.pi * minutes / 30.0 + phase))
                + rng.normal(0.0, 15.0, minutes.size))
        speeds = speed + rng.normal(0.0, 2.0, minutes.size)
        lines.extend(f"{rid},{m},{q!r},{v!r}" for m, q, v in
                     zip(minutes.tolist(), np.maximum(flux, 0.0).tolist(), speeds.tolist()))
    return lines


def scenario_config() -> dict:
    strips = [
        {"road_id": "1", "x_km": [-9.5, 9.5], "y_km": [-0.6, -0.59], "road_span_km": [20.0, 39.0]},
        {"road_id": "2", "x_km": [-9.5, 9.5], "y_km": [-0.2, -0.19], "road_span_km": [0.0, 19.0]},
        {"road_id": "4", "x_km": [-9.5, 9.5], "y_km": [0.2, 0.21], "road_span_km": [0.0, 19.0]},
        {"road_id": "6", "x_km": [-9.5, 9.5], "y_km": [0.6, 0.61], "road_span_km": [10.0, 29.0]},
    ]
    return {
        "model": "network", "embedding": "none",
        "diagram": {"kind": "cgarz", "rho_max": 56.0, "rho_f": 10.0, "v_max": 90.0},
        "horizon_h": 0.25, "dt_h": DT_H, "n_flux_samples": 256,
        "sensors_path": "sensors.csv",
        "network": {"dx_km": 0.5, "warm_start_h": 0.5},
        "emission_formula": "max",
        "diffusion": {"mu_km2_per_h": 0.005, "half_length_x_km": 10.0,
                      "half_length_y_km": 1.0, "dx_km": 0.01, "dy_km": 0.01,
                      "strips": strips},
        "record_every": 30,
    }


class _Hooks:
    """Check wrappers around the network and diffusion steps."""

    def __init__(self, trafnox) -> None:
        self.steps = 0
        self.injected = 0.0
        self.network_step = trafnox.network.network_step
        self.diffusion_step = trafnox.diffusion.diffusion_step
        self.replacements = [(trafnox.scenario, "network_step", self.checked_network_step),
                             (trafnox.network, "network_step", self.checked_network_step),
                             (trafnox.scenario, "diffusion_step", self.checked_diffusion_step)]

    def checked_network_step(self, net, t, fleets, dt, shape=None, sampling=None):
        new_net, report = self.network_step(net, t, fleets, dt, shape, sampling,
                                            return_report=True)
        gained = report.mass_after - report.mass_before
        scale = max(1.0, report.mass_after)
        if abs(gained - dt * report.flux_balance) > 1e-9 * scale:
            raise CheckFailed(
                f"network step at t = {t:.6f} h gained {gained!r} vehicles, "
                f"but dt (inflow - outflow) = {dt * report.flux_balance!r}")
        self.steps += 1
        return new_net

    def checked_diffusion_step(self, field, source, mu, dt):
        new_field = self.diffusion_step(field, source, mu, dt)
        self.injected += dt * float(np.sum(source)) * CELL_AREA_KM2
        if float(new_field.psi.min()) < 0.0:
            raise CheckFailed("dispersion step produced psi < 0")
        return new_field

    def installed(self):
        return patched(self.replacements)


class Workload:
    def __init__(self, seed: int, inputs_dir: Path) -> None:
        inputs_dir.mkdir(parents=True, exist_ok=True)
        (inputs_dir / "sensors.csv").write_text("\n".join(sensor_rows(seed)) + "\n",
                                                encoding="utf-8")
        path = inputs_dir / "network.yaml"
        write_yaml(path, scenario_config())
        self.scenarios = {"network": path}

    def check_hooks(self, trafnox):
        return _Hooks(trafnox)

    def check(self, runs_dir: Path, hooks: _Hooks) -> tuple[dict, dict]:
        expected_steps = int(round(0.75 / DT_H))
        if hooks.steps != expected_steps:
            raise CheckFailed(f"saw {hooks.steps} network steps, expected {expected_steps}")
        with open(runs_dir / "network" / "psi.csv", "rb") as rows:
            for line in rows:       # streamed: only the last row is kept
                if line.strip():
                    last = line
        psi = np.array(last.split(b","), dtype=float)
        if psi.size != 2000 * 200 or float(psi.min()) < 0.0:
            raise CheckFailed("final psi row has the wrong size or a negative value")
        held = float(psi.sum()) * CELL_AREA_KM2
        if hooks.injected <= 0.0 or abs(held - hooks.injected) > 1e-9 * hooks.injected:
            raise CheckFailed(f"dispersion holds {held!r} but {hooks.injected!r} was injected")
        return {}, {}
