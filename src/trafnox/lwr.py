"""First-order macroscopic density solver with trajectory-embedded speeds.

The local speed field blends the bulk speed law u(rho) with the speeds of
tracked vehicles through a compactly supported cutoff: near a tracked
vehicle the field is pulled toward the harmonic mean of the vehicle's speed
and u(rho).  An embedding is its covered (point, vehicle) pairs, all of them
for the averaging variant and each point's closest vehicle's for the other;
one blend averages a point's pairs.  Densities advance with a
Godunov/cell-transmission step built on sampled critical densities.  A step
evaluates the bulk law on the sample densities, as one column, and on the
cells' own densities, and blends the two apart, so a per-density law's
sample table stays one column wide until a vehicle covers a point.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Union

import numpy as np

from .core import (
    CgarzDiagram,
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


# How many pair values blended forms at once: 2**15 doubles, 256 KiB, which
# keeps a run's temporaries within a core's share of L2 cache.
_CACHE_ENTRIES = 1 << 15


def harmonic_blend(p_dot: ArrayLike, u: ArrayLike) -> ArrayLike:
    """2 p u / (p + u), the harmonic mean of two speeds; 0 when both vanish."""
    denom = np.add(p_dot, u)
    return np.divide(2.0 * p_dot * u, denom, out=np.zeros(denom.shape),
                     where=denom > 0.0)


class _Embedding:
    """The vehicles active at one query time, as covered (point, vehicle) pairs.

    Built once per step for the cell centers.  A pair keeps its point, cutoff
    weight chi > 0 and vehicle; covering counts each point's pairs.  The
    averaging variant keeps every covered pair, closest-vehicle mode the nearest
    vehicle's, plus per point its offset xi_k = x - p_k, chi_k, pdot_k, pddot_k.
    A point's r-th pair, in fleet order, has rank r."""

    def __init__(self, x: np.ndarray, t: float, fleet: Optional[Fleet],
                 shape: Optional[CutoffShape], mode: EmbeddingMode) -> None:
        self.x = np.asarray(x, dtype=float)
        self.n_points = self.x.size
        self.n_active, self._ranks = 0, []
        if mode is EmbeddingMode.NONE or fleet is None or len(fleet) == 0:
            return
        if shape is None:
            raise ConfigError("vehicle embedding needs a cutoff shape")
        _, positions, speeds, accels = fleet.snapshot(t)
        self.n_active = positions.size
        if self.n_active == 0:
            return
        offsets = self.x[:, None] - positions[None, :]
        # The pairs are the covered entries, rank-major, each rank in the
        # order of _covered: the covered points, most-covered first (ties in
        # point order).  Rank r's points are then the first of them, so a rank
        # adds to a prefix of blended's running total, and each point's pairs
        # are still summed in vehicle order.  ends closes each rank.
        if mode is EmbeddingMode.CLOSEST_VEHICLE:
            # one rank: each covered point's pair with its nearest vehicle
            nearest = np.abs(offsets).argmin(axis=1)
            self.xi_k = self.x - positions[nearest]
            self.chi_k = np.asarray(cutoff(self.xi_k, shape))
            self.pdot_k, self.pddot_k = speeds[nearest], accels[nearest]
            self.covering = (self.chi_k > 0.0).astype(np.intp)
            self._covered = self._point = self.covering.nonzero()[0]
            self._vehicle, chi = nearest.take(self._covered), self.chi_k.take(self._covered)
            ends = [self._covered.size]
        else:
            # row r of the layer tables holds each covered point's r-th
            # covering vehicle in fleet order
            weights = np.asarray(cutoff(offsets.T, shape))
            self.covering = (weights > 0.0).sum(axis=0)
            self._covered = (-self.covering).argsort(kind="stable")[
                :np.count_nonzero(self.covering)]
            count = self.covering.take(self._covered)
            weights = weights.take(self._covered, axis=1)
            layer_vehicle = (weights <= 0.0).argsort(axis=0, kind="stable")[
                :count.max(initial=0)]
            layer_chi = weights[layer_vehicle, np.arange(self._covered.size)]
            keep = layer_chi > 0.0
            rank, column = keep.nonzero()
            self._vehicle, self._point = layer_vehicle[keep], self._covered.take(column)
            chi = layer_chi[keep]
            ends = np.bincount(rank).cumsum().tolist()
            self._count = count[:, None]
        if not self._covered.size:
            return
        self._ranks = list(zip([0] + ends, ends))
        self._speeds, self._chi = speeds, chi[:, None]
        self._rest, self._pdot = 1.0 - self._chi, speeds.take(self._vehicle)[:, None]

    def _runs(self, width: int):
        """The ranks in runs of at most width pairs, or one rank if wider."""
        if self._ranks[-1][1] <= width:
            return [self._ranks]
        runs, run = [], []
        for lo, hi in self._ranks:
            if run and hi - run[0][0] > width:
                runs.append(run)
                run = []
            run.append((lo, hi))
        return runs + [run]

    def blended(self, u: ArrayLike) -> np.ndarray:
        """Mean over each point's pairs of chi H(p, u) + (1 - chi) u; u if none.

        u holds one speed per point along its last axis, or one column for
        every point.  H is the harmonic blend; a point's pairs are summed in
        vehicle order.  The work is pair-major: each point's speeds are one
        contiguous row.  The pair values of a run of whole ranks, a cache's
        worth, are formed together and in place, and each rank is then added
        to the prefix of the running total that its points occupy.  A
        one-column u gives every pair of a vehicle the same speeds, so H is
        then formed once per vehicle and gathered per pair.
        """
        u = np.asarray(u, dtype=float)
        if not self._ranks:
            return u
        rows = u.reshape(-1, u.shape[-1]).T
        shared = rows.shape[0] == 1
        if shared:
            per_vehicle, at = harmonic_blend(self._speeds[:, None], rows), rows
        for run in self._runs(_CACHE_ENTRIES // rows.shape[1]):
            base, top = run[0][0], run[-1][1]
            if shared:
                part = per_vehicle.take(self._vehicle[base:top], axis=0)
            else:
                at = rows.take(self._point[base:top], axis=0)
                part = harmonic_blend(self._pdot[base:top], at)
            part *= self._chi[base:top]
            part += self._rest[base:top] * at
            for lo, hi in run:
                if lo == 0:
                    total = part[:hi]
                else:
                    total[:hi - lo] += part[lo - base:hi - base]
        if len(self._ranks) > 1:  # with one rank every point has one pair
            total /= self._count
        out = np.empty((self.n_points, rows.shape[1]))
        out[...] = rows
        out[self._covered] = total
        return out.T.reshape(u.shape[:-1] + (self.n_points,))


def _critical_tables(rho_samples: np.ndarray,
                     speed_table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-point (sigma, flux_max) of the sampled embedded flux rho * speed.

    speed_table holds embedded speeds at the sample densities, one row per
    sample and one column per point; a single column, a per-density law's
    with nothing blended, stands for every point and gives one (sigma,
    flux_max) that broadcasts against the points.  An identically-zero
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

    speed gives the bulk speed of a density array and may vary per point,
    broadcasting a column of densities against the points.  It is called on
    the sample densities as one column and on the cells' own densities, and
    each result is blended on its own: a per-density law's sample speeds stay
    one column for the critical tables when no vehicle covers a point, and
    otherwise have their harmonic means formed once per vehicle.  Sending is
    the own flux up to sigma and the flux cap above it, receiving the reverse.
    The step's interface fluxes and a network junction's boundary capacities
    both read these arrays.
    """
    rho = _clamped(np.asarray(rho, dtype=float), 0.0, rho_max, "density")
    emb = _Embedding(x, t, fleet, shape, mode)
    rho_samples = sampling.samples(rho_max)
    sigma, flux_max = _critical_tables(rho_samples,
                                       emb.blended(speed(rho_samples[:, None])))
    speed_own = emb.blended(speed(rho))
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

def max_dt(fleet: Optional[Fleet], law: Union[SpeedLaw, CgarzDiagram],
           grid: SpatialGrid) -> float:
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
    return MacroState1(rho=rho - (dt / grid.dx_km) * (fluxes[1:] - fluxes[:-1]))

