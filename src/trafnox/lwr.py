"""First-order macroscopic density solver with trajectory-embedded speeds.

The local speed field blends the bulk speed law u(rho) with the speeds of
tracked vehicles through a compactly supported cutoff: near a tracked
vehicle the field is pulled toward the harmonic mean of the vehicle's speed
and u(rho).  An embedding is its covered (point, vehicle) pairs, all of them
for the averaging variant and each point's closest vehicle's for the other;
one blend averages a point's pairs.  Densities advance with a
Godunov/cell-transmission step built on sampled critical densities.
"""

from __future__ import annotations

import enum
import functools
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

    @functools.lru_cache(maxsize=16)
    def samples(self, rho_max: float) -> np.ndarray:
        """The sample densities on [0, rho_max], built once and read-only."""
        grid = np.linspace(0.0, rho_max, self.n_rho_samples)
        grid.flags.writeable = False
        return grid


def harmonic_blend(p_dot: ArrayLike, u: ArrayLike) -> ArrayLike:
    """2 p u / (p + u), the harmonic mean of two speeds; 0 when both vanish."""
    denom = np.add(p_dot, u)
    return np.divide(2.0 * p_dot * u, denom, out=np.zeros(np.shape(denom)),
                     where=denom > 0.0)


class _Embedding:
    """The vehicles active at one query time, as covered (point, vehicle) pairs.

    Built once per step for the cell centers.  A pair keeps its point, cutoff
    weight chi > 0 and vehicle speed; covering counts each point's pairs.  The
    averaging variant keeps every covered pair, closest-vehicle mode the nearest
    vehicle's, plus per point its offset xi_k = x - p_k, chi_k, pdot_k, pddot_k."""

    def __init__(self, x: np.ndarray, t: float, fleet: Optional[Fleet],
                 shape: Optional[CutoffShape], mode: EmbeddingMode) -> None:
        self.x = np.asarray(x, dtype=float)
        self.n_points = self.x.size
        self.n_active, self._ends = 0, []
        if mode is EmbeddingMode.NONE or fleet is None or len(fleet) == 0:
            return
        if shape is None:
            raise ConfigError("vehicle embedding needs a cutoff shape")
        _, positions, speeds, accels = fleet.snapshot(t)
        self.n_active = positions.size
        if self.n_active == 0:
            return
        offsets = self.x[:, None] - positions[None, :]
        # Row r of the layer tables holds each point's r-th covering
        # vehicle in fleet order (its nearest vehicle in closest-vehicle mode).
        if mode is EmbeddingMode.CLOSEST_VEHICLE:
            nearest = np.abs(offsets).argmin(axis=1)
            self.xi_k = self.x - positions[nearest]
            self.chi_k = np.asarray(cutoff(self.xi_k, shape))
            self.pdot_k, self.pddot_k = speeds[nearest], accels[nearest]
            layer_vehicle, layer_chi = nearest[None, :], self.chi_k[None, :]
        else:
            weights = np.asarray(cutoff(offsets.T, shape))
            layer_vehicle = (weights <= 0.0).argsort(axis=0, kind="stable")
            layer_chi = weights[layer_vehicle, np.arange(self.n_points)]
        # The pairs are the covered entries, rank-major, so that blended adds a
        # whole rank at once and still sums each point's pairs in vehicle
        # order: _ends closes each rank, rank 0 holds one pair per covered
        # point (in point order) and _slot places a pair among those points.
        keep = layer_chi > 0.0
        rank, point = keep.nonzero()
        self._point, self._chi, self._pdot = point, layer_chi[keep], speeds[layer_vehicle[keep]]
        self._ends = np.bincount(rank).cumsum().tolist()
        self.covering, self._covered = keep.sum(axis=0), keep[0].nonzero()[0]
        self._slot = self._covered.searchsorted(point)

    def blended(self, u: ArrayLike) -> np.ndarray:
        """Mean over each point's pairs of chi H(p, u) + (1 - chi) u; u if none."""
        # H is the harmonic blend; a point's pairs are summed in vehicle order
        u = np.asarray(u, dtype=float)
        if not self._ends:
            return u
        # clip reads column 0 for every pair when u has one column for all points
        at = u.take(self._point, axis=-1, mode="clip")
        per_pair = self._chi * harmonic_blend(self._pdot, at) + (1.0 - self._chi) * at
        total = per_pair[..., :self._ends[0]]
        for lo, hi in zip(self._ends, self._ends[1:]):
            total[..., self._slot[lo:hi]] += per_pair[..., lo:hi]
        out = np.empty(at.shape[:-1] + (self.n_points,))
        out[...] = u
        out[..., self._covered] = total / self.covering[self._covered]
        return out


def _critical_tables(rho_samples: np.ndarray,
                     speed_table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-point (sigma, flux_max) of the sampled embedded flux rho * speed.

    speed_table holds embedded speeds at the sample densities, one row per
    sample; a single column stands for every point.  An identically-zero
    flux column takes the first sample, sigma = 0, so sending and receiving
    both vanish (blockage at a stopped vehicle).  The flux being strictly
    concave, the sampled sigma lies within one sample spacing of the true
    maximizer.
    """
    flux_table = rho_samples[:, None] * speed_table
    return rho_samples[flux_table.argmax(axis=0)], flux_table.max(axis=0)


def _cell_capacities(x: np.ndarray, t: float, rho: np.ndarray, rho_max: float,
                     speed: Callable[[np.ndarray], ArrayLike],
                     fleet: Optional[Fleet], shape: Optional[CutoffShape],
                     mode: EmbeddingMode, sampling: FluxSamplingConfig):
    """(clamped rho, (embedded speed, own flux, sending, receiving)) at the
    points x, one density per point, from one embedding.

    speed gives the bulk speed of a density array; it is called once, on the
    sample densities stacked above the cells' own row, so it may vary per
    point, and one blend embeds the whole stack.  Sending is the own flux up
    to sigma and the flux cap above it, receiving the reverse.  The step's
    interface fluxes and a network junction's boundary capacities both read
    these arrays.
    """
    rho = _clamped(np.asarray(rho, dtype=float), 0.0, rho_max, "density")
    emb = _Embedding(x, t, fleet, shape, mode)
    rho_samples = sampling.samples(rho_max)
    rho_table = np.empty((rho_samples.size + 1, rho.size))
    rho_table[:-1], rho_table[-1] = rho_samples[:, None], rho
    speed_table = emb.blended(speed(rho_table))
    sigma, flux_max = _critical_tables(rho_samples, speed_table[:-1])
    speed_own, flux_own = speed_table[-1], rho * speed_table[-1]
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
# observed speed
# ---------------------------------------------------------------------------

def embedded_speed(x: ArrayLike, t: float, rho: ArrayLike, fleet: Optional[Fleet],
                   law: SpeedLaw, shape: Optional[CutoffShape],
                   mode: EmbeddingMode) -> np.ndarray:
    """Speed field with tracked vehicles blended in at their cutoff supports,
    at the points x broadcast against the densities rho."""
    return _embedded_speed(x, t, rho, law.rho_max, law.speed, fleet, shape, mode)


def _embedded_speed(x: ArrayLike, t: float, rho: ArrayLike, rho_max: float,
                    speed: Callable[[np.ndarray], ArrayLike], fleet: Optional[Fleet],
                    shape: Optional[CutoffShape], mode: EmbeddingMode) -> np.ndarray:
    """embedded_speed for any bulk speed function of the clamped density."""
    x, rho = np.broadcast_arrays(np.atleast_1d(x), np.atleast_1d(rho))
    rho = _clamped(rho, 0.0, rho_max, "density")
    emb = _Embedding(x, t, fleet, shape, mode)
    return np.broadcast_to(emb.blended(speed(rho)), x.shape).copy()


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

