"""acv_platoon: a first-order road with a 100-vehicle follow-the-leader
platoon embedded by the averaging variant, recording every step.

The platoon is integrated here, independently of the program: each
follower drives at a speed set by its gap to the vehicle ahead, and the
lead vehicle follows a slow speed wave.  The seed draws the initial gaps
and the phase and depth of the leader's wave.  The platoon
is written at 1 s sampling and stays on the road for the whole run, so
every cell near it is covered by about thirty vehicles' cutoffs.

The output check restates the averaged harmonic blend from the dumped
density rows and the vehicle states interpolated from the written samples,
and compares it with the dumped speed rows.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from common import CheckFailed, read_rows, write_yaml

N_VEHICLES = 100
HORIZON_S = 180
DT_H = 0.0005
RHO_MAX = 120.0
U_MAX = 90.0
N_CELLS = 200
ROAD_KM = 10.0
ELL_KM, BIG_L_KM = 0.1, 0.5
ROAD_ID = "main"

_SUBSTEPS = 4           # integration steps per recorded second
_FREE_KMH = 95.0
_GAP_KM = 0.03
_JAM_GAP_KM = 0.008


def platoon(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times_h, positions_km, speeds_kmh); rows are vehicles, leader last.

    Followers drive at V(gap) = V_free (1 - g_jam/gap), which falls to 0 as
    the gap closes to g_jam, so the explicit update never reorders them.
    The leader's speed is 70 km/h minus a two-minute wave of 15-20 km/h,
    keeping every speed at or below the road's 90 km/h.
    """
    rng = np.random.default_rng([seed, 3])
    gaps = _GAP_KM + rng.uniform(-0.004, 0.004, N_VEHICLES - 1)
    x = 2.0 + np.concatenate(([0.0], np.cumsum(gaps)))
    depth = rng.uniform(15.0, 20.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    dt = 1.0 / (3600.0 * _SUBSTEPS)
    v = np.empty(N_VEHICLES)
    pos, vel = [], []
    for k in range(HORIZON_S * _SUBSTEPS + 1):
        v[:-1] = _FREE_KMH * np.maximum(0.0, 1.0 - _JAM_GAP_KM / np.diff(x))
        v[-1] = 70.0 - depth * math.sin(2.0 * math.pi * 30.0 * k * dt + phase)
        if k % _SUBSTEPS == 0:
            pos.append(x.copy())
            vel.append(v.copy())
        x = x + dt * v
    if np.any(np.diff(np.array(pos), axis=1) <= 0.0):
        raise RuntimeError("generated platoon reorders; the generator is mis-tuned")
    times = np.arange(HORIZON_S + 1) / 3600.0
    return times, np.array(pos).T, np.array(vel).T


def scenario_config() -> dict:
    return {
        "model": "lwr", "embedding": "acv",
        "diagram": {"kind": "greenshields", "rho_max": RHO_MAX, "v_max": U_MAX},
        "initial": {"kind": "constant", "rho": 20.0},
        "road_a_km": 0.0, "road_b_km": ROAD_KM, "n_cells": N_CELLS,
        "horizon_h": HORIZON_S / 3600.0, "dt_h": DT_H, "n_flux_samples": 128,
        "cutoff_ell_km": ELL_KM, "cutoff_big_l_km": BIG_L_KM,
        "trajectories_path": "platoon.csv", "road_id": ROAD_ID,
        "left_flux_veh_h": 1500.0, "record_every": 1,
    }


def averaged_blend(rho: np.ndarray, positions: np.ndarray,
                   speeds: np.ndarray) -> np.ndarray:
    """Mean over covering vehicles of chi 2pu/(p+u) + (1-chi) u; u elsewhere."""
    x = (np.arange(N_CELLS) + 0.5) * (ROAD_KM / N_CELLS)
    u = U_MAX * (RHO_MAX - rho) / RHO_MAX
    chi = np.clip((BIG_L_KM - np.abs(x[None, :] - positions[:, None]))
                  / (BIG_L_KM - ELL_KM), 0.0, 1.0)
    p = speeds[:, None]
    total = p + u[None, :]
    harmonic = np.where(total > 0.0, 2.0 * p * u[None, :] / np.where(total > 0.0, total, 1.0), 0.0)
    per_vehicle = chi * harmonic + (1.0 - chi) * u[None, :]
    covering = chi > 0.0
    count = covering.sum(axis=0)
    summed = np.where(covering, per_vehicle, 0.0).sum(axis=0)
    return np.where(count > 0, summed / np.maximum(count, 1), u)


class Workload:
    def __init__(self, seed: int, inputs_dir: Path) -> None:
        _, positions, speeds = platoon(seed)
        inputs_dir.mkdir(parents=True, exist_ok=True)
        lines = ["# vehicle_id,road_id,t_seconds,x_km,v_kmh"]
        t_s = np.arange(HORIZON_S + 1, dtype=float).tolist()
        for i in range(N_VEHICLES):
            lines.extend(f"a{i:03d},{ROAD_ID},{t!r},{x!r},{v!r}" for t, x, v in
                         zip(t_s, positions[i].tolist(), speeds[i].tolist()))
        self.csv = inputs_dir / "platoon.csv"
        self.csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        path = inputs_dir / "platoon.yaml"
        write_yaml(path, scenario_config())
        self.scenarios = {"platoon": path}

    def check_hooks(self, trafnox):
        return None

    def check(self, runs_dir: Path, hooks) -> tuple[dict, dict]:
        rho = read_rows(runs_dir / "platoon" / "rho.csv")
        speed = read_rows(runs_dir / "platoon" / "speed.csv")
        n_steps = int(round(HORIZON_S / 3600.0 / DT_H))
        if rho.shape != (n_steps, N_CELLS) or speed.shape != rho.shape:
            raise CheckFailed(f"dumps have shapes {rho.shape}, {speed.shape}; "
                              f"expected ({n_steps}, {N_CELLS})")
        if rho.min() < 0.0 or rho.max() > RHO_MAX:
            raise CheckFailed(f"rho leaves [0, {RHO_MAX}]: [{rho.min()}, {rho.max()}]")
        samples = np.loadtxt(self.csv, delimiter=",", comments="#", usecols=(2, 3, 4))
        samples = samples.reshape(N_VEHICLES, HORIZON_S + 1, 3)
        times = samples[0, :, 0] / 3600.0
        for row in sorted(set(range(0, n_steps, 7)) | {n_steps - 1}):
            t = (row + 1) * DT_H
            if times[0] <= t <= times[-1]:
                pos = np.array([np.interp(t, times, p) for p in samples[:, :, 1]])
                vel = np.array([np.interp(t, times, v) for v in samples[:, :, 2]])
                want = averaged_blend(rho[row], pos, vel)
            else:
                want = U_MAX * (RHO_MAX - rho[row]) / RHO_MAX
            err = float(np.max(np.abs(speed[row] - want)))
            if err > 1e-9 * U_MAX:
                raise CheckFailed(f"speed row {row} differs from the averaged blend "
                                  f"by {err!r} km/h")
        return {}, {}
