"""Vehicle trajectories: storage, interpolation, fleet snapshots, synthetic
and follow-the-leader generation, and kernel-density fields.

A trajectory is a piecewise-linear record of (time, position[, speed])
samples.  Outside its sampled time span a vehicle is "not on the road" and
contributes nothing to any query; no extrapolation is ever performed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .core import ConfigError, SimulationError, SpatialGrid

ArrayLike = Union[float, np.ndarray]

#: Fraction of the preferred gap below which the optimal-velocity target is 0.
FTL_MIN_GAP_FRACTION = 0.2


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear vehicle record with finite samples, strictly
    increasing times and non-decreasing positions (vehicles never drive
    backwards)."""

    vehicle_id: str
    times_h: np.ndarray
    positions_km: np.ndarray
    speeds_kmh: Optional[np.ndarray] = None
    # derived once: segment slopes of a speedless record, and the top speed
    _slopes: Optional[np.ndarray] = field(init=False, repr=False, compare=False)
    _max_speed: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        t = np.array(self.times_h, dtype=float)
        x = np.array(self.positions_km, dtype=float)
        v = None if self.speeds_kmh is None else np.array(self.speeds_kmh, dtype=float)
        if t.ndim != 1 or t.shape != x.shape or t.size < 2:
            raise ConfigError(
                f"trajectory {self.vehicle_id!r} needs >= 2 aligned (t, x) samples"
            )
        for name, values in (("times", t), ("positions", x), ("speeds", v)):
            if values is not None and not np.all(np.isfinite(values)):
                raise ConfigError(f"trajectory {self.vehicle_id!r}: {name} must be finite")
        t_steps, x_steps = np.diff(t), np.diff(x)
        if np.any(t_steps <= 0):
            raise ConfigError(f"trajectory {self.vehicle_id!r}: times must strictly increase")
        if np.any(x_steps < 0):
            raise ConfigError(f"trajectory {self.vehicle_id!r}: positions must be non-decreasing")
        t.flags.writeable = False
        x.flags.writeable = False
        object.__setattr__(self, "times_h", t)
        object.__setattr__(self, "positions_km", x)
        if v is not None:
            if v.shape != t.shape:
                raise ConfigError(
                    f"trajectory {self.vehicle_id!r}: speed samples must align with times"
                )
            if np.any(v < 0):
                raise ConfigError(f"trajectory {self.vehicle_id!r}: speeds must be >= 0")
            v.flags.writeable = False
            object.__setattr__(self, "speeds_kmh", v)
        slopes = None if self.speeds_kmh is not None else x_steps / t_steps
        object.__setattr__(self, "_slopes", slopes)
        object.__setattr__(self, "_max_speed", float(np.max(
            self.speeds_kmh if slopes is None else slopes)))

    @classmethod
    def from_line(cls, vehicle_id: str, x0_km: float, speed_kmh: float,
                  t0_h: float = 0.0, t1_h: float = 1.0) -> "Trajectory":
        """Constant-speed straight-line trajectory p(t) = x0 + speed (t - t0)."""
        return cls(
            vehicle_id=vehicle_id,
            times_h=np.array([t0_h, t1_h]),
            positions_km=np.array([x0_km, x0_km + speed_kmh * (t1_h - t0_h)]),
            speeds_kmh=np.array([speed_kmh, speed_kmh]),
        )

    def active(self, t: float) -> bool:
        """Whether the vehicle is on the road (t inside the sampled span)."""
        return self.times_h[0] <= t <= self.times_h[-1]

    @property
    def max_speed_kmh(self) -> float:
        """Largest speed the record can produce (for CFL bounds)."""
        return self._max_speed

    def _segment_index(self, t: float) -> int:
        k = int(self.times_h.searchsorted(t, side="right")) - 1
        return min(max(k, 0), self.times_h.size - 2)


def interpolate(traj: Trajectory, t: float) -> Optional[tuple[float, float, float]]:
    """Linearly interpolated (p, p_dot, p_ddot) at time t, or None off-road.

    Position interpolates the samples.  Speed interpolates the recorded
    speeds when present, else uses the segment slope.  Acceleration is the
    finite difference of the interpolated speed over one data segment:
    the speed-ramp slope when speeds are recorded, else the forward
    difference of segment slopes across adjacent segment midpoints.
    """
    if not traj.active(t):
        return None
    times = traj.times_h
    k = traj._segment_index(t)
    dt_seg = times[k + 1] - times[k]
    if traj.speeds_kmh is not None:
        v = traj.speeds_kmh
        frac = (t - times[k]) / dt_seg
        p_dot = float(v[k] + frac * (v[k + 1] - v[k]))
        p = float(traj.positions_km[k]
                  + (traj.positions_km[k + 1] - traj.positions_km[k]) * frac)
        p_ddot = float((v[k + 1] - v[k]) / dt_seg)
        return p, p_dot, p_ddot
    slopes = traj._slopes
    p = float(traj.positions_km[k] + slopes[k] * (t - times[k]))
    p_dot = float(slopes[k])
    if k + 1 < slopes.size:
        mid_k = 0.5 * (times[k] + times[k + 1])
        mid_next = 0.5 * (times[k + 1] + times[k + 2])
        p_ddot = float((slopes[k + 1] - slopes[k]) / (mid_next - mid_k))
    else:
        p_ddot = 0.0
    return p, p_dot, p_ddot


@dataclass(frozen=True)
class Fleet:
    """An ordered collection of trajectories (query ties break by index)."""

    trajectories: tuple[Trajectory, ...]
    _max_speed: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        trajectories = tuple(self.trajectories)
        object.__setattr__(self, "trajectories", trajectories)
        object.__setattr__(self, "_max_speed", max(
            (tr.max_speed_kmh for tr in trajectories), default=0.0))

    def __len__(self) -> int:
        return len(self.trajectories)

    @classmethod
    def empty(cls) -> "Fleet":
        return cls(trajectories=())

    @classmethod
    def from_samples(cls, ids: Sequence[str], times_h: np.ndarray,
                     positions_km: np.ndarray,
                     speeds_kmh: Optional[np.ndarray] = None) -> "Fleet":
        """Build one trajectory per row of the (n_vehicles, n_times) matrices."""
        trajs = []
        for i, vid in enumerate(ids):
            v = None if speeds_kmh is None else speeds_kmh[i]
            trajs.append(Trajectory(vehicle_id=vid, times_h=times_h,
                                    positions_km=positions_km[i], speeds_kmh=v))
        return cls(trajectories=tuple(trajs))

    @property
    def max_speed_kmh(self) -> float:
        """Largest recorded speed across the fleet; 0 for an empty fleet."""
        return self._max_speed

    def snapshot(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(indices, positions, speeds, accelerations) of vehicles active at t."""
        idx, pos, vel, acc = [], [], [], []
        for i, tr in enumerate(self.trajectories):
            point = interpolate(tr, t)
            if point is None:
                continue
            idx.append(i)
            pos.append(point[0])
            vel.append(point[1])
            acc.append(point[2])
        return (np.asarray(idx, dtype=int), np.asarray(pos, dtype=float),
                np.asarray(vel, dtype=float), np.asarray(acc, dtype=float))

    def subsample(self, step: int, offset: int = 0) -> "Fleet":
        """Every step-th trajectory starting at offset (tracked-subset runs)."""
        return Fleet(trajectories=self.trajectories[offset::step])


# ---------------------------------------------------------------------------
# synthetic trajectories (oscillating platoon)
# ---------------------------------------------------------------------------

def synthetic_wavenumber(idx: int, n: int) -> float:
    """k_i = 20 + 5 (i-1)/(n-1) for the 1-based vehicle index idx+1."""
    if n < 2:
        raise ConfigError("synthetic platoon needs n >= 2")
    return 20.0 + 5.0 * idx / (n - 1)


def synthetic_position(idx: int, t: ArrayLike, n: int, c: float, horizon_h: float,
                       v_max: float) -> ArrayLike:
    """x_i(t) = c v_max (t - (T/(k pi)) cos(k pi t/T) + T/(k pi)) + x0_i,
    with x0_i = 1 + 0.05 (i-1) km."""
    k = synthetic_wavenumber(idx, n)
    tt = np.asarray(t, dtype=float)
    kp = k * math.pi
    out = (c * v_max * (tt - (horizon_h / kp) * np.cos(kp * tt / horizon_h)
                        + horizon_h / kp) + 1.0 + 0.05 * idx)
    return float(out) if np.ndim(t) == 0 else out


def synthetic_speed(idx: int, t: ArrayLike, n: int, c: float, horizon_h: float,
                    v_max: float) -> ArrayLike:
    """v_i(t) = c v_max (sin(k pi t/T) + 1), oscillating in [0, 2 c v_max]."""
    k = synthetic_wavenumber(idx, n)
    tt = np.asarray(t, dtype=float)
    out = c * v_max * (np.sin(k * math.pi * tt / horizon_h) + 1.0)
    return float(out) if np.ndim(t) == 0 else out


def generate_synthetic(n: int, c: float, horizon_h: float, v_max: float,
                       sample_dt_h: float = 1.0 / 3600.0) -> Fleet:
    """Fleet of n oscillating-platoon trajectories sampled every sample_dt_h."""
    if n < 2:
        raise ConfigError("synthetic platoon needs n >= 2")
    n_samples = int(round(horizon_h / sample_dt_h))
    times = np.linspace(0.0, horizon_h, n_samples + 1)
    positions = np.stack([
        synthetic_position(i, times, n, c, horizon_h, v_max) for i in range(n)
    ])
    speeds = np.stack([
        synthetic_speed(i, times, n, c, horizon_h, v_max) for i in range(n)
    ])
    ids = [f"syn{i:03d}" for i in range(n)]
    return Fleet.from_samples(ids, times, positions, speeds)


# ---------------------------------------------------------------------------
# follow-the-leader generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FtlConfig:
    """Follow-the-leader parameters (the last vehicle is the leader)."""

    n_vehicles: int
    accel_gain: float          # 1/h, weight of the speed-difference term
    preferred_gap_km: float    # gap at which the target speed equals the leader's
    leader_speed_kmh: float
    relaxation_time_h: float

    def __post_init__(self) -> None:
        values = (self.n_vehicles, self.accel_gain, self.preferred_gap_km,
                  self.leader_speed_kmh, self.relaxation_time_h)
        if any(v <= 0 for v in values):
            raise ConfigError(f"FTL parameters must all be positive, got {self}")
        if self.n_vehicles < 2:
            raise ConfigError("FTL needs at least a leader and one follower")


@dataclass(frozen=True)
class FtlState:
    """Positions (strictly increasing; leader last) and speeds of the platoon."""

    positions_km: np.ndarray
    speeds_kmh: np.ndarray

    def __post_init__(self) -> None:
        x = np.array(self.positions_km, dtype=float)
        v = np.array(self.speeds_kmh, dtype=float)
        if x.shape != v.shape or x.ndim != 1:
            raise ConfigError("FTL state needs aligned 1-d position/speed arrays")
        if np.any(np.diff(x) <= 0):
            raise SimulationError("vehicle collision: positions not strictly increasing")
        x.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "positions_km", x)
        object.__setattr__(self, "speeds_kmh", v)


def optimal_velocity(gap_km: ArrayLike, cfg: FtlConfig) -> ArrayLike:
    """Gap-dependent target speed: 0 below the minimum gap, the leader speed
    at the preferred gap, capped at twice the leader speed."""
    g_min = FTL_MIN_GAP_FRACTION * cfg.preferred_gap_km
    ramp = (np.asarray(gap_km, dtype=float) - g_min) / (cfg.preferred_gap_km - g_min)
    out = cfg.leader_speed_kmh * np.clip(ramp, 0.0, 2.0)
    return float(out) if np.ndim(gap_km) == 0 else out


def step_ftl(state: FtlState, cfg: FtlConfig, dt_h: float) -> FtlState:
    """One explicit Euler step of the platoon ODE.

    Followers: V_dot_i = accel_gain (V_{i+1} - V_i)
                         + (optimal_velocity(gap_i) - V_i)/relaxation_time;
    the leader keeps its speed.  Speeds are floored at 0 (no reversing);
    a non-positive gap after the update is a collision and refuses the step.
    """
    x, v = state.positions_km, state.speeds_kmh
    accel = np.zeros_like(v)
    gaps = x[1:] - x[:-1]
    accel[:-1] = (cfg.accel_gain * (v[1:] - v[:-1])
                  + (optimal_velocity(gaps, cfg) - v[:-1]) / cfg.relaxation_time_h)
    new_v = np.maximum(v + dt_h * accel, 0.0)
    new_x = x + dt_h * v
    if np.any(np.diff(new_x) <= 0):
        raise SimulationError("vehicle collision during follow-the-leader step")
    return FtlState(positions_km=new_x, speeds_kmh=new_v)


def run_ftl(initial: FtlState, cfg: FtlConfig, dt_h: float, n_steps: int,
            record_every: int = 1) -> Fleet:
    """Roll the platoon forward and package the recorded states as a Fleet."""
    if dt_h > cfg.relaxation_time_h / 4.0 + 1e-15:
        raise SimulationError(
            f"FTL step dt={dt_h} exceeds the ordering bound relaxation_time/4="
            f"{cfg.relaxation_time_h / 4.0}"
        )
    states = [initial]
    state = initial
    for _ in range(n_steps):
        state = step_ftl(state, cfg, dt_h)
        states.append(state)
    recorded = list(range(0, n_steps + 1, record_every))
    if recorded[-1] != n_steps:
        recorded.append(n_steps)
    times = np.asarray(recorded, dtype=float) * dt_h
    positions = np.stack([states[k].positions_km for k in recorded], axis=1)
    speeds = np.stack([states[k].speeds_kmh for k in recorded], axis=1)
    n = initial.positions_km.size
    ids = [f"ftl{i:03d}" for i in range(n)]
    return Fleet.from_samples(ids, times, positions, speeds)


# ---------------------------------------------------------------------------
# kernel-density reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KdeConfig:
    """Gaussian-kernel bandwidth and normalization choice.

    normalization="paper" keeps the constant 1/(2 pi h) exactly as published
    (each kernel then carries mass 1/sqrt(2 pi), not 1); "standard" uses the
    probability-density constant 1/(sqrt(2 pi) h) so each vehicle carries
    unit mass.
    """

    bandwidth_km: float
    normalization: str = "paper"

    def __post_init__(self) -> None:
        if self.bandwidth_km <= 0:
            raise ConfigError(f"KDE bandwidth must be positive, got {self.bandwidth_km}")
        if self.normalization not in ("paper", "standard"):
            raise ConfigError(
                f"KDE normalization must be 'paper' or 'standard', got "
                f"{self.normalization!r}"
            )

    @property
    def constant(self) -> float:
        h = self.bandwidth_km
        if self.normalization == "paper":
            return 1.0 / (2.0 * math.pi * h)
        return 1.0 / (math.sqrt(2.0 * math.pi) * h)


def _kernel_weights(positions: np.ndarray, centers: np.ndarray, h: float) -> np.ndarray:
    d = centers[None, :] - positions[:, None]
    return np.exp(-(d * d) / (2.0 * h * h))


def kde_density(fleet: Fleet, t: float, cfg: KdeConfig, grid: SpatialGrid) -> np.ndarray:
    """Density field rho(x_j) = sum_i K(x_j - p_i(t)) over active vehicles."""
    centers = grid.centers()
    _, positions, _, _ = fleet.snapshot(t)
    if positions.size == 0:
        return np.zeros(centers.shape)
    return cfg.constant * _kernel_weights(positions, centers, cfg.bandwidth_km).sum(axis=0)


def kde_velocity(fleet: Fleet, t: float, cfg: KdeConfig, grid: SpatialGrid) -> np.ndarray:
    """Kernel-weighted mean speed; cells whose weights all underflow to zero
    fall back to the nearest active vehicle's speed."""
    centers = grid.centers()
    _, positions, speeds, _ = fleet.snapshot(t)
    if positions.size == 0:
        raise ValueError("kde_velocity needs at least one active vehicle")
    weights = _kernel_weights(positions, centers, cfg.bandwidth_km)
    denom = weights.sum(axis=0)
    numer = (speeds[:, None] * weights).sum(axis=0)
    nearest = np.argmin(np.abs(centers[None, :] - positions[:, None]), axis=0)
    safe = denom > 0.0
    out = np.where(safe, numer / np.where(safe, denom, 1.0), speeds[nearest])
    return out
