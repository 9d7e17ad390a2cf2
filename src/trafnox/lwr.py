"""First-order macroscopic density solver with trajectory-embedded speeds.

The local speed field blends the bulk speed law u(rho) with the speeds of
tracked vehicles through a compactly supported cutoff: near a tracked
vehicle the field is pulled toward the harmonic mean of the vehicle's speed
and u(rho).  Two blending variants exist: using only the closest vehicle,
or averaging the blends of every vehicle whose cutoff covers the point.
Densities advance with a Godunov/cell-transmission step built on sampled
critical densities.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Union

import numpy as np

from .core import (
    ConfigError,
    CutoffShape,
    MacroState1,
    SimulationError,
    SpatialGrid,
    _clamped,
    cutoff,
)
from .lagrangian import Fleet

ArrayLike = Union[float, np.ndarray]


class SpeedLaw(Protocol):
    """Bulk speed law: decreasing speed(rho) on [0, rho_max]."""

    rho_max: float

    @property
    def free_speed(self) -> float: ...

    def speed(self, rho: ArrayLike) -> ArrayLike: ...


class EmbeddingMode(enum.Enum):
    """How tracked vehicles enter the speed field."""

    NONE = "none"
    CLOSEST_VEHICLE = "closest_vehicle"
    AVERAGE_CLOSEST_VEHICLES = "average_closest_vehicles"


@dataclass(frozen=True)
class FluxSamplingConfig:
    """Resolution of the sampled search for the critical density."""

    n_rho_samples: int = 256

    def __post_init__(self) -> None:
        if self.n_rho_samples < 16:
            raise ConfigError(
                f"critical-density search needs >= 16 samples, got {self.n_rho_samples}"
            )

    def samples(self, rho_max: float) -> np.ndarray:
        return np.linspace(0.0, rho_max, self.n_rho_samples)


def harmonic_blend(p_dot: ArrayLike, u: ArrayLike) -> ArrayLike:
    """2 p u / (p + u), the harmonic mean of two speeds; 0 when both vanish."""
    p_dot = np.asarray(p_dot, dtype=float)
    u = np.asarray(u, dtype=float)
    denom = p_dot + u
    safe = denom > 0.0
    return np.where(safe, 2.0 * p_dot * u / np.where(safe, denom, 1.0), 0.0)


class _Embedding:
    """Cutoff weights and speeds of the vehicles active at one query time.

    Precomputed once per step for the cell centers, then applied to any
    stack of bulk-speed arrays whose last axis runs over the query points.
    In closest-vehicle mode it keeps, per point, the nearest vehicle's
    offset xi_k = x - p_k, cutoff weight, speed and acceleration.
    """

    def __init__(self, x: np.ndarray, t: float, fleet: Optional[Fleet],
                 shape: Optional[CutoffShape], mode: EmbeddingMode) -> None:
        self.x = np.asarray(x, dtype=float)
        self.n_points = self.x.size
        self.mode = mode
        self.n_active = 0
        if mode is EmbeddingMode.NONE or fleet is None or len(fleet) == 0:
            return
        if shape is None:
            raise ConfigError("vehicle embedding needs a cutoff shape")
        _, positions, speeds, accels = fleet.snapshot(t)
        self.n_active = positions.size
        if self.n_active == 0:
            return
        offsets = self.x[:, None] - positions[None, :]
        if mode is EmbeddingMode.CLOSEST_VEHICLE:
            nearest = np.argmin(np.abs(offsets), axis=1)
            self.xi_k = np.take_along_axis(offsets, nearest[:, None], axis=1)[:, 0]
            self.chi_k = np.asarray(cutoff(self.xi_k, shape))
            self.pdot_k = speeds[nearest]
            self.pddot_k = accels[nearest]
        else:
            self.p_dot = speeds
            self.chi = np.asarray(cutoff(offsets, shape))

    def blended(self, u: ArrayLike) -> np.ndarray:
        """Embedded speed for bulk speeds u (last axis = query points)."""
        u = np.asarray(u, dtype=float)
        if self.n_active == 0:
            return u
        if self.mode is EmbeddingMode.CLOSEST_VEHICLE:
            return (self.chi_k * harmonic_blend(self.pdot_k, u)
                    + (1.0 - self.chi_k) * u)
        # average over the covering vehicles
        m = self.n_active
        extra = max(u.ndim - 1, 0)
        chi = self.chi.T.reshape((m,) + (1,) * extra + (self.n_points,))
        pdot = self.p_dot.reshape((m,) + (1,) * (extra + 1))
        per_vehicle = chi * harmonic_blend(pdot, u[None]) + (1.0 - chi) * u[None]
        covering = chi > 0.0
        phi = covering.sum(axis=0)
        total = np.where(covering, per_vehicle, 0.0).sum(axis=0)
        return np.where(phi > 0, total / np.where(phi > 0, phi, 1), u)


def _critical_tables(emb: _Embedding, rho_samples: np.ndarray,
                     u_samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-point (sigma, flux_max) from the sampled embedded-flux table.

    u_samples holds bulk speeds at the sample densities: shape
    (n_samples, 1) for a shared law, (n_samples, n_points) when the law
    varies per point.  An identically-zero flux column takes the first
    sample, sigma = 0, so sending and receiving both vanish (blockage at a
    stopped vehicle).
    """
    speed_table = np.broadcast_to(
        np.asarray(emb.blended(u_samples), dtype=float),
        (rho_samples.size, emb.n_points),
    )
    flux_table = rho_samples[:, None] * speed_table
    best = np.argmax(flux_table, axis=0)
    sigma = rho_samples[best]
    flux_max = np.take_along_axis(flux_table, best[None, :], axis=0)[0]
    return sigma, flux_max


def _cell_capacities(x: ArrayLike, t: float, rho: ArrayLike, rho_max: float,
                     speed: Callable[[np.ndarray], ArrayLike],
                     fleet: Optional[Fleet], shape: Optional[CutoffShape],
                     mode: EmbeddingMode, sampling: FluxSamplingConfig):
    """(clamped rho, (embedded speed, own flux, sending, receiving)) at the
    points x, from one embedding.

    speed gives the bulk speed of a density array; the sample densities
    reach it with a leading sample axis, so it may vary per point.  Sending
    is the own flux up to sigma and the flux cap above it, receiving the
    reverse.  The step's interface fluxes, a network junction's boundary
    capacities and the pointwise sending/receiving all read these arrays.
    """
    rho = _clamped(np.atleast_1d(np.asarray(rho, dtype=float)), 0.0, rho_max,
                   "density")
    emb = _pointwise(x, t, fleet, shape, mode)
    rho_samples = sampling.samples(rho_max)
    sigma, flux_max = _critical_tables(emb, rho_samples,
                                       speed(rho_samples[:, None]))
    speed_own = np.broadcast_to(emb.blended(speed(rho)), (emb.n_points,))
    flux_own = rho * speed_own
    below = rho <= sigma
    send = np.where(below, flux_own, flux_max)
    recv = np.where(below, flux_max, flux_own)
    return rho, (speed_own, flux_own, send, recv)


def _interface_fluxes(flux_own: np.ndarray, send: np.ndarray, recv: np.ndarray,
                      left_flux: float, right_flux: Optional[float]) -> np.ndarray:
    """Godunov fluxes at the n+1 interfaces from the _cell_capacities arrays.

    The left ghost supplies the inflow as a sending value; a None right flux
    copies the last cell (homogeneous Neumann), making the outflow the last
    cell's own flux; otherwise the supplied value caps the last sending.
    """
    fluxes = np.empty(flux_own.size + 1)
    fluxes[1:-1] = np.minimum(send[:-1], recv[1:])
    fluxes[0] = min(float(left_flux), float(recv[0]))
    if right_flux is None:
        fluxes[-1] = flux_own[-1]
    else:
        fluxes[-1] = min(float(send[-1]), float(right_flux))
    return fluxes


# ---------------------------------------------------------------------------
# public field queries
# ---------------------------------------------------------------------------

def _pointwise(x: ArrayLike, t: float, fleet: Optional[Fleet],
               shape: Optional[CutoffShape], mode: EmbeddingMode) -> _Embedding:
    return _Embedding(np.atleast_1d(np.asarray(x, dtype=float)), t, fleet, shape, mode)


def embedded_speed(x: ArrayLike, t: float, rho: ArrayLike, fleet: Optional[Fleet],
                   law: SpeedLaw, shape: Optional[CutoffShape],
                   mode: EmbeddingMode) -> ArrayLike:
    """Speed field with tracked vehicles blended in at their cutoff supports."""
    return _embedded_speed(x, t, rho, law.rho_max, law.speed, fleet, shape, mode)


def _embedded_speed(x: ArrayLike, t: float, rho: ArrayLike, rho_max: float,
                    speed: Callable[[np.ndarray], ArrayLike], fleet: Optional[Fleet],
                    shape: Optional[CutoffShape], mode: EmbeddingMode) -> ArrayLike:
    """embedded_speed for any bulk speed function of the clamped density."""
    rho_arr = _clamped(np.atleast_1d(np.asarray(rho, dtype=float)),
                       0.0, rho_max, "density")
    emb = _pointwise(x, t, fleet, shape, mode)
    out = np.broadcast_to(emb.blended(speed(rho_arr)), (emb.n_points,)).copy()
    return _query_result(out, x, rho)


def _query_result(out: np.ndarray, x: ArrayLike, rho: ArrayLike) -> ArrayLike:
    """A float for a scalar query point and density, else the array."""
    if np.ndim(x) == 0 and np.ndim(rho) == 0:
        return float(out[0])
    return out


def embedded_flux(x: ArrayLike, t: float, rho: ArrayLike, fleet: Optional[Fleet],
                  law: SpeedLaw, shape: Optional[CutoffShape],
                  mode: EmbeddingMode) -> ArrayLike:
    """rho times the embedded speed."""
    speed = embedded_speed(x, t, rho, fleet, law, shape, mode)
    out = np.asarray(rho, dtype=float) * speed
    if np.ndim(x) == 0 and np.ndim(rho) == 0:
        return float(out)
    return out


def critical_density(x: ArrayLike, t: float, fleet: Optional[Fleet], law: SpeedLaw,
                     shape: Optional[CutoffShape], mode: EmbeddingMode,
                     sampling: FluxSamplingConfig = FluxSamplingConfig(),
                     ) -> tuple[ArrayLike, ArrayLike]:
    """(sigma, flux_max): sampled argmax of the embedded flux in [0, rho_max].

    By strict concavity of the flux the sampled maximizer lies within one
    sample spacing of the true one.
    """
    emb = _pointwise(x, t, fleet, shape, mode)
    rho_samples = sampling.samples(law.rho_max)
    sigma, flux_max = _critical_tables(emb, rho_samples,
                                       law.speed(rho_samples[:, None]))
    if np.ndim(x) == 0:
        return float(sigma[0]), float(flux_max[0])
    return sigma, flux_max


def sending(x: ArrayLike, t: float, rho: ArrayLike, fleet: Optional[Fleet],
            law: SpeedLaw, shape: Optional[CutoffShape], mode: EmbeddingMode,
            sampling: FluxSamplingConfig = FluxSamplingConfig()) -> ArrayLike:
    """Demand: the cell's own flux below sigma, the flux cap above."""
    _, (_, _, send, _) = _cell_capacities(x, t, rho, law.rho_max, law.speed,
                                          fleet, shape, mode, sampling)
    return _query_result(send, x, rho)


def receiving(x: ArrayLike, t: float, rho: ArrayLike, fleet: Optional[Fleet],
              law: SpeedLaw, shape: Optional[CutoffShape], mode: EmbeddingMode,
              sampling: FluxSamplingConfig = FluxSamplingConfig()) -> ArrayLike:
    """Supply: the flux cap below sigma, the cell's own flux above."""
    _, (_, _, _, recv) = _cell_capacities(x, t, rho, law.rho_max, law.speed,
                                          fleet, shape, mode, sampling)
    return _query_result(recv, x, rho)


def numerical_flux(x_left: float, rho_left: float, x_right: float, rho_right: float,
                   t: float, fleet: Optional[Fleet], law: SpeedLaw,
                   shape: Optional[CutoffShape], mode: EmbeddingMode,
                   sampling: FluxSamplingConfig = FluxSamplingConfig()) -> float:
    """Godunov interface flux min{sending(left), receiving(right)}."""
    s = sending(x_left, t, rho_left, fleet, law, shape, mode, sampling)
    r = receiving(x_right, t, rho_right, fleet, law, shape, mode, sampling)
    return float(min(s, r))


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def max_dt(fleet: Optional[Fleet], law: SpeedLaw, grid: SpatialGrid) -> float:
    """Largest admissible step dx / max{fastest tracked speed, free speed}."""
    top_speed = float(law.free_speed)
    if fleet is not None and len(fleet) > 0:
        top_speed = max(top_speed, fleet.max_speed_kmh)
    if top_speed <= 0.0:
        raise ConfigError("cannot bound the time step: no positive speed scale")
    return grid.dx_km / top_speed


def ctm_step(state: MacroState1, grid: SpatialGrid, t: float, dt: float,
             law: SpeedLaw, fleet: Optional[Fleet] = None,
             shape: Optional[CutoffShape] = None,
             mode: EmbeddingMode = EmbeddingMode.NONE,
             sampling: FluxSamplingConfig = FluxSamplingConfig(),
             left_flux: float = 0.0,
             right_flux: Optional[float] = None) -> MacroState1:
    """One conservative density update rho_j -= (dt/dx)(F_{j+1/2} - F_{j-1/2}).

    Refuses dt above max_dt.  left_flux is the inflow demand at the left
    ghost; right_flux None means homogeneous Neumann outflow (the last
    cell's own flux), a value caps the last cell's sending.
    """
    if state.rho.size != grid.n_cells:
        raise ConfigError(
            f"state has {state.rho.size} cells but the grid has {grid.n_cells}"
        )
    bound = max_dt(fleet, law, grid)
    if dt > bound * (1.0 + 1e-12):
        raise SimulationError(f"time step {dt} exceeds the admissible bound {bound}")
    rho, (_, flux_own, send, recv) = _cell_capacities(
        grid.centers(), t, state.rho, law.rho_max, law.speed, fleet, shape, mode,
        sampling)
    fluxes = _interface_fluxes(flux_own, send, recv, left_flux, right_flux)
    return MacroState1(rho=rho - (dt / grid.dx_km) * np.diff(fluxes))


def run_ctm(state: MacroState1, grid: SpatialGrid, dt: float, n_steps: int,
            law: SpeedLaw, fleet: Optional[Fleet] = None,
            shape: Optional[CutoffShape] = None,
            mode: EmbeddingMode = EmbeddingMode.NONE,
            sampling: FluxSamplingConfig = FluxSamplingConfig(),
            left_flux: float = 0.0, right_flux: Optional[float] = None,
            t0: float = 0.0, record_every: int = 0) -> tuple[MacroState1, list[np.ndarray]]:
    """Advance n_steps from t0; optionally record every record_every-th field
    (0 records nothing).  Returns the final state and the recorded fields."""
    recorded: list[np.ndarray] = []
    for n in range(n_steps):
        state = ctm_step(state, grid, t0 + n * dt, dt, law, fleet, shape, mode,
                         sampling, left_flux, right_flux)
        if record_every and (n + 1) % record_every == 0:
            recorded.append(state.rho.copy())
    return state, recorded
