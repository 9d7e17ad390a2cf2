"""Vehicle trajectories: storage, interpolation, fleet snapshots, synthetic
and follow-the-leader generation, and kernel-density fields.

A trajectory is a piecewise-linear record of (time, position[, speed])
samples.  Outside its sampled time span a vehicle is "not on the road" and
contributes nothing to any query; no extrapolation is ever performed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import ConfigError, SimulationError, SpatialGrid

ArrayLike = Union[float, np.ndarray]

#: Fraction of the preferred gap below which the optimal-velocity target is 0.
FTL_MIN_GAP_FRACTION = 0.2


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def _segment_starts(lengths: np.ndarray) -> np.ndarray:
    """Index, in concatenated columns of runs of the given lengths, of every
    entry except each run's last: the first sample of every segment."""
    return np.delete(np.arange(int(lengths.sum())), np.cumsum(lengths) - 1)


def _check_samples(ids: Sequence[str], lengths: np.ndarray, times: np.ndarray,
                   positions: np.ndarray, speeds: np.ndarray) -> None:
    """Refuse records of fewer than two samples, non-finite samples, times
    that do not strictly increase, decreasing positions and negative speeds,
    naming the first record with the first of these faults."""
    owner = np.repeat(np.arange(len(ids)), lengths)
    first = _segment_starts(lengths)
    checks = (
        (np.arange(len(ids)), lengths < 2, "needs >= 2 samples"),
        (owner, ~np.isfinite(times), "times must be finite"),
        (owner, ~np.isfinite(positions), "positions must be finite"),
        (owner, ~np.isfinite(speeds), "speeds must be finite"),
        (owner[first], times[first + 1] <= times[first], "times must strictly increase"),
        (owner[first], positions[first + 1] < positions[first],
         "positions must be non-decreasing"),
        (owner, speeds < 0.0, "speeds must be >= 0"),
    )
    for record, bad, problem in checks:
        if bad.any():
            raise ConfigError(f"trajectory {ids[record[bad.argmax()]]!r}: {problem}")


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear vehicle record with finite samples, strictly
    increasing times and non-decreasing positions (vehicles never drive
    backwards).  The records of a Fleet are read-only views of its columns."""

    vehicle_id: str
    times_h: np.ndarray
    positions_km: np.ndarray
    speeds_kmh: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        t = np.array(self.times_h, dtype=float)
        x = np.array(self.positions_km, dtype=float)
        v = None if self.speeds_kmh is None else np.array(self.speeds_kmh, dtype=float)
        if t.ndim != 1 or t.shape != x.shape or t.size < 2:
            raise ConfigError(
                f"trajectory {self.vehicle_id!r} needs >= 2 aligned (t, x) samples"
            )
        if v is not None and v.shape != t.shape:
            raise ConfigError(
                f"trajectory {self.vehicle_id!r}: speed samples must align with times"
            )
        _check_samples((self.vehicle_id,), np.array([t.size]), t, x,
                       np.zeros(t.size) if v is None else v)
        for name, values in (("times_h", t), ("positions_km", x), ("speeds_kmh", v)):
            if values is not None:
                values.flags.writeable = False
            object.__setattr__(self, name, values)

    @classmethod
    def _view(cls, vehicle_id: str, times_h: np.ndarray, positions_km: np.ndarray,
              speeds_kmh: Optional[np.ndarray]) -> "Trajectory":
        """A record over read-only rows that a fleet has already checked."""
        record = object.__new__(cls)
        for name, values in (("vehicle_id", vehicle_id), ("times_h", times_h),
                             ("positions_km", positions_km), ("speeds_kmh", speeds_kmh)):
            object.__setattr__(record, name, values)
        return record

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

    @property
    def max_speed_kmh(self) -> float:
        """Largest speed the record can produce (for CFL bounds)."""
        if self.speeds_kmh is not None:
            return float(self.speeds_kmh.max())
        return float((np.diff(self.positions_km) / np.diff(self.times_h)).max())


class Fleet:
    """An ordered collection of trajectories (query ties break by index).

    The fleet stores its samples once, as one block of concatenated time,
    position and speed rows (see ``_store``), and each record in
    ``trajectories`` is a read-only view of its columns.  The per-segment
    interpolation coefficients and search keys are formed once, at the
    first query (``_table``).
    """

    def __init__(self, trajectories: Sequence[Trajectory] = ()) -> None:
        records = tuple(trajectories)
        columns = [np.concatenate([np.empty(0)] + arrays) for arrays in (
            [tr.times_h for tr in records], [tr.positions_km for tr in records],
            [np.zeros(tr.times_h.size) if tr.speeds_kmh is None else tr.speeds_kmh
             for tr in records])]
        self._store(tuple(tr.vehicle_id for tr in records),
                    np.array([tr.times_h.size for tr in records], dtype=np.intp),
                    *columns, np.array([tr.speeds_kmh is not None for tr in records],
                                       dtype=bool))

    @classmethod
    def _of(cls, ids, lengths, times, positions, speeds, has_speed) -> "Fleet":
        """The fleet of the given columns, built without going through records."""
        fleet = cls.__new__(cls)
        fleet._store(ids, lengths, times, positions, speeds, has_speed)
        return fleet

    def _store(self, ids: tuple[str, ...], lengths: np.ndarray, times: np.ndarray,
               positions: np.ndarray, speeds: np.ndarray, has_speed: np.ndarray) -> None:
        """Check the columns, stack them as the fleet's samples and build
        the record views; the segment table waits for the first query.

        The speed row holds a speedless record's segment slopes instead
        (the slope of the segment a sample starts, the last one repeated),
        so that it is the speed each record produces at every sample."""
        _check_samples(ids, lengths, times, positions, speeds)
        ends = np.cumsum(lengths)
        starts = ends - lengths
        first = _segment_starts(lengths)
        slopes = np.empty(times.size)
        slopes[first] = (positions[first + 1] - positions[first]) / (times[first + 1] - times[first])
        slopes[ends - 1] = slopes[ends - 2]
        samples = np.stack([times, positions,
                            np.where(np.repeat(has_speed, lengths), speeds, slopes)])
        samples.flags.writeable = False
        self._ids, self._lengths, self._has_speed = ids, lengths, has_speed
        self._samples, self._max_speed = samples, float(samples[2].max(initial=0.0))
        self._starts, self._ends = samples[0, starts], samples[0, ends - 1]
        self.trajectories = tuple(
            Trajectory._view(vid, samples[0, a:b], samples[1, a:b],
                             samples[2, a:b] if has else None)
            for vid, a, b, has in zip(ids, starts.tolist(), ends.tolist(), has_speed.tolist()))

    @functools.cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """(segment table, segment search keys).

        Segment k of a record starts at sample k, at (start, x0, v0), and is
        evaluated as p = x0 + dx frac and p_dot = v0 + frac dv with
        frac = (t - start) / divisor, and p_ddot = accel.  With recorded
        speeds, divisor is the segment's duration, dx and dv the increments
        over it and accel = dv / duration: position and speed interpolate the
        samples.  Without, divisor is 1, dx = v0 is the segment slope,
        dv = 0, and accel is the difference of the next and this segment's
        slopes over the distance of their midpoints (0 on the last segment).
        A segment's key is the complex number record + 1j start, so NumPy's
        lexicographic complex order sorts the keys by record, then time.
        """
        times, positions, speeds = self._samples
        lengths = self._lengths
        first = _segment_starts(lengths)
        start, v0 = times[first], speeds[first]
        duration = times[first + 1] - start
        dx, dv = positions[first + 1] - positions[first], speeds[first + 1] - v0
        mid = 0.5 * (start + times[first + 1])
        inner = _segment_starts(lengths - 1)     # segments followed by one of their record
        bend = np.zeros(first.size)
        bend[inner] = (v0[inner + 1] - v0[inner]) / (mid[inner + 1] - mid[inner])
        with_speed = np.repeat(self._has_speed, lengths - 1)
        segments = np.stack([
            np.where(with_speed, duration, 1.0), np.where(with_speed, dx, v0),
            np.where(with_speed, dv, 0.0), np.where(with_speed, dv / duration, bend)])
        keys = np.empty(first.size, dtype=complex)
        keys.real = np.repeat(np.arange(len(self)), lengths - 1)
        keys.imag = start
        return segments, keys

    def __len__(self) -> int:
        return len(self._ids)

    @classmethod
    def empty(cls) -> "Fleet":
        return cls(())

    @classmethod
    def from_columns(cls, ids: Sequence[str], lengths: np.ndarray, times_h: np.ndarray,
                     positions_km: np.ndarray,
                     speeds_kmh: Optional[np.ndarray] = None) -> "Fleet":
        """Record i holds the next lengths[i] rows of the concatenated
        columns, which the fleet takes over without copying."""
        n = len(ids)
        speeds = np.zeros(times_h.size) if speeds_kmh is None else speeds_kmh
        return cls._of(tuple(ids), np.asarray(lengths, dtype=np.intp), times_h,
                       positions_km, speeds, np.full(n, speeds_kmh is not None))

    @classmethod
    def from_samples(cls, ids: Sequence[str], times_h: np.ndarray,
                     positions_km: np.ndarray,
                     speeds_kmh: Optional[np.ndarray] = None) -> "Fleet":
        """One trajectory per row of the (n_vehicles, n_times) matrices."""
        times = np.asarray(times_h, dtype=float)
        rows = np.array(positions_km, dtype=float)
        speeds = None if speeds_kmh is None else np.array(speeds_kmh, dtype=float)
        shape = (len(ids), times.size)
        if times.ndim != 1 or times.size < 2 or rows.shape != shape or (
                speeds is not None and speeds.shape != shape):
            raise ConfigError(f"fleet samples need (n_vehicles, n_times) = {shape} "
                              f"position and speed rows on >= 2 times")
        return cls.from_columns(ids, np.full(len(ids), times.size), np.tile(times, len(ids)),
                                rows.ravel(), None if speeds is None else speeds.ravel())

    @property
    def max_speed_kmh(self) -> float:
        """Largest recorded speed across the fleet; 0 for an empty fleet."""
        return self._max_speed

    def snapshot(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(indices, positions, speeds, accelerations) of vehicles active at t.

        A vehicle is active on its closed sampled span; at a sample time it
        is evaluated on the segment that starts there (its last segment at
        its end).  No extrapolation is ever performed.
        """
        segments, keys = self._table
        idx = ((self._starts <= t) & (t <= self._ends)).nonzero()[0]
        # the keys <= (record, t) end at the record's segment; record i's
        # segment k starts at sample k + i of the concatenated columns
        segment = keys.searchsorted(idx + complex(0.0, t), side="right") - 1
        start, x0, v0 = self._samples.take(segment + idx, axis=1)
        divisor, dx, dv, accel = segments.take(segment, axis=1)
        frac = (t - start) / divisor
        return idx, x0 + dx * frac, v0 + frac * dv, accel

    def subsample(self, step: int, offset: int = 0) -> "Fleet":
        """Every step-th trajectory starting at offset (tracked-subset runs)."""
        if step == 1 and offset == 0:
            return self
        picked = np.zeros(len(self), dtype=bool)
        picked[offset::step] = True
        has_speed = self._has_speed[picked]
        times, positions, speeds = self._samples[:, np.repeat(picked, self._lengths)]
        return Fleet._of(self._ids[offset::step], self._lengths[picked], times, positions,
                         np.where(np.repeat(has_speed, self._lengths[picked]), speeds, 0.0),
                         has_speed)


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
