"""probe_study: the paper's experiment, a second-order road with a few
vehicle trajectories embedded by the closest-vehicle rule.

The fleet is the oscillating closed-form family of the paper,
x_i(t) = c V (t - T/(k_i pi) cos(k_i pi t/T) + T/(k_i pi)) + x0_i,
v_i(t) = c V (sin(k_i pi t/T) + 1), with k_i = 20 + 5 i/(n-1) and
x0_i = 1 + 0.05 i km, written at 1 s sampling into one file.  The seed
jitters k_i by up to 0.15 and x0_i by up to 5 m on the odd-numbered
vehicles; the even-numbered ones, which are all the sparse scenarios read,
are the paper's fleet unchanged.  The every-4th emission gap then spreads
about 0.2% between seeds (quartile spread over median), through the
ground truth alone; wider jitter (0.5 and 10 m on every vehicle) had moved
it by 6%.

One pass runs four scenarios on that file: the full fleet, every 2nd
vehicle and every 4th vehicle (the program's ``embed_subsample``), and no
embedding.  All start from the program's kernel-density estimate.

The output check rebuilds the vehicle ground-truth emissions of the whole
fleet from the same closed form (not through the program's trajectory
interpolation) and a restatement of the two-regime emission formula, and
requires every embedded run to at least halve the emission gap of the run
without trajectories.  The sparse runs miss that target on every seed
because ``scenario._data_fleet`` thins the fleet before the kernel-density
start, so they also start from a half or a quarter of the density.  Their
program inputs do not depend on the seed, and a miss there is counted as a
failed scenario run rather than a broken check.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from common import CheckFailed, read_rows, write_yaml

N_VEHICLES = 41
C = 0.3
V_MAX = 90.0
HORIZON_H = 1.0 / 3.0
SAMPLE_S = 1.0
DT_H = 2.0 / 3600.0
RHO_MAX = 100.0
WINDOW_KM = (4.0, 7.0)
ROAD_ID = "0"

#: scenario name -> embedded vehicles are every n-th (None: no embedding)
SUBSETS = {"all": 1, "every2": 2, "every4": 4, "none": None}
#: scenarios whose halving miss comes from the thinned kernel-density start
KNOWN_MISSES = ("every2", "every4")

# Two-regime NOx formula (m/s, m/s^2 -> g/s), restated for the ground truth.
_HIGH = (6.19e-04, 8e-05, -4.03e-06, -4.13e-04, 3.80e-04, 1.77e-04)
_LOW = (2.17e-04, 0.0, 0.0, 0.0, 0.0, 0.0)
_THRESHOLD_MS2 = -0.5
_CLAMP_MS2 = 10.0


class Fleet:
    """Closed-form oscillating fleet drawn from a seed."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        i = np.arange(N_VEHICLES)
        odd = i % 2
        self.k = 20.0 + 5.0 * i / (N_VEHICLES - 1) + odd * rng.uniform(-0.15, 0.15, N_VEHICLES)
        self.x0 = 1.0 + 0.05 * i + odd * rng.uniform(-0.005, 0.005, N_VEHICLES)

    def _arg(self, t: np.ndarray) -> np.ndarray:
        return self.k[:, None] * math.pi * np.asarray(t)[None, :] / HORIZON_H

    def position(self, t: np.ndarray) -> np.ndarray:
        kp = self.k[:, None] * math.pi
        drift = np.asarray(t)[None, :] - HORIZON_H / kp * (np.cos(self._arg(t)) - 1.0)
        return C * V_MAX * drift + self.x0[:, None]

    def speed(self, t: np.ndarray) -> np.ndarray:
        return C * V_MAX * (np.sin(self._arg(t)) + 1.0)

    def acceleration(self, t: np.ndarray) -> np.ndarray:
        return C * V_MAX * (self.k[:, None] * math.pi / HORIZON_H) * np.cos(self._arg(t))

    def write_csv(self, path: Path) -> None:
        n_samples = int(round(HORIZON_H * 3600.0 / SAMPLE_S))
        t_s = SAMPLE_S * np.arange(n_samples + 1)
        t_h = t_s / 3600.0
        pos, vel = self.position(t_h), self.speed(t_h)
        lines = ["# vehicle_id,road_id,t_seconds,x_km,v_kmh"]
        for v in range(N_VEHICLES):
            lines.extend(f"p{v:03d},{ROAD_ID},{t!r},{x!r},{s!r}" for t, x, s in
                         zip(t_s.tolist(), pos[v].tolist(), vel[v].tolist()))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _emission_micro(v_kmh: np.ndarray, a_kmh2: np.ndarray) -> np.ndarray:
    v = v_kmh / 3.6
    a = np.clip(a_kmh2 / 12960.0, -_CLAMP_MS2, _CLAMP_MS2)
    coeff = np.where((a >= _THRESHOLD_MS2)[None, :],
                     np.array(_HIGH)[:, None], np.array(_LOW)[:, None])
    quad = (coeff[0] + coeff[1] * v + coeff[2] * v * v + coeff[3] * a
            + coeff[4] * a * a + coeff[5] * v * a)
    return np.maximum(0.0, quad)


def truth_emission(fleet: Fleet, times_h: np.ndarray) -> np.ndarray:
    """Ground-truth fleet emission (g/s) on the window at each time."""
    pos = fleet.position(times_h)
    vel = fleet.speed(times_h)
    acc = fleet.acceleration(times_h)
    on = (pos >= WINDOW_KM[0]) & (pos <= WINDOW_KM[1])
    rates = _emission_micro(vel.ravel(), acc.ravel()).reshape(pos.shape)
    return np.where(on, rates, 0.0).sum(axis=0)


def scenario_config(name: str) -> dict:
    every = SUBSETS[name]
    return {
        "model": "gsom",
        "embedding": "none" if every is None else "cv",
        "diagram": {"kind": "cgarz", "rho_max": RHO_MAX, "rho_f": 10.0, "v_max": V_MAX},
        "initial": {"kind": "kde", "kde_bandwidth_km": 0.1,
                    "kde_normalization": "standard"},
        "road_a_km": 0.0, "road_b_km": 10.0, "n_cells": 100,
        "horizon_h": HORIZON_H, "dt_h": DT_H, "n_flux_samples": 256,
        "cutoff_ell_km": 0.2, "cutoff_big_l_km": 0.6,
        "trajectories_path": "fleet.csv", "road_id": ROAD_ID, "embed_subsample": every or 1,
        "emission_formula": "max", "record_every": 1,
    }


class Workload:
    def __init__(self, seed: int, inputs_dir: Path, names=tuple(SUBSETS)) -> None:
        self.fleet = Fleet(seed)
        inputs_dir.mkdir(parents=True, exist_ok=True)
        self.scenarios = {}
        self.fleet.write_csv(inputs_dir / "fleet.csv")
        for name in names:
            path = inputs_dir / f"{name}.yaml"
            write_yaml(path, scenario_config(name))
            self.scenarios[name] = path

    def check_hooks(self, trafnox):
        return None

    def check(self, runs_dir: Path, hooks) -> tuple[dict, dict]:
        """Density bounds and the emission-gap halving: (gaps, known misses)."""
        gaps = {}
        for name in self.scenarios:
            rho = read_rows(runs_dir / name / "rho.csv")
            if rho.min() < 0.0 or rho.max() > RHO_MAX:
                raise CheckFailed(f"{name}: rho leaves [0, {RHO_MAX}]: "
                                  f"[{rho.min()}, {rho.max()}]")
            emission = read_rows(runs_dir / name / "emission.csv")
            times = DT_H * np.arange(1, emission.shape[0] + 1)
            centers = 10.0 / 100 * (np.arange(100) + 0.5)
            window = (centers >= WINDOW_KM[0]) & (centers <= WINDOW_KM[1])
            model = emission[:, window].sum(axis=1)
            gaps[name] = float(np.mean(np.abs(model - truth_emission(self.fleet, times))))
        misses = {name: f"{name}: emission gap {gap:.6g} g/s is not at most half "
                        f"of the gap without trajectories {gaps['none']:.6g} g/s"
                  for name, gap in gaps.items()
                  if "none" in gaps and name != "none" and not gap <= 0.5 * gaps["none"]}
        for name, message in misses.items():
            if name not in KNOWN_MISSES:
                raise CheckFailed(message)
        return gaps, misses
