"""2D explicit diffusion of pollutant concentration fed by road emissions.

A rectangular domain around the road network is discretized on a uniform
cell grid.  Per-road emission rates computed on the (coarser) traffic grid
are prolonged piecewise-constantly onto the fine grid, stamped onto
axis-aligned road strips as a source term, and the concentration field is
advanced by an explicit 5-point finite-difference scheme with zero-flux
(homogeneous Neumann) boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import ArrayLike, ConfigError, SimulationError, frozen_array

__all__ = [
    "ConcentrationField",
    "Domain2D",
    "RoadStrip",
    "build_source",
    "diffusion_step",
    "refine_emissions",
    "stable_dt",
]

#: Tolerance (in grid-step units) for deciding that a coordinate sits on
#: a grid line; strips must be grid-aligned so cell ownership is exact.
_ALIGN_TOL = 1e-6


def _aligned_index(coord_km: float, origin_km: float, step_km: float,
                   what: str) -> int:
    raw = (coord_km - origin_km) / step_km
    idx = int(round(raw))
    if abs(raw - idx) > _ALIGN_TOL:
        raise ConfigError(
            f"{what} at {coord_km} km does not sit on the {step_km} km grid")
    return idx


@dataclass(frozen=True)
class RoadStrip:
    """Axis-aligned embedding of one road: x-span [a, b], y-span [c, d] (km)."""

    road_id: str
    x_km: tuple[float, float]
    y_km: tuple[float, float]

    def __post_init__(self) -> None:
        a, b = self.x_km
        c, d = self.y_km
        if not all(math.isfinite(v) for v in (a, b, c, d)):
            raise ConfigError(f"strip {self.road_id!r} has non-finite extent")
        if b <= a or d <= c:
            raise ConfigError(
                f"strip {self.road_id!r} extent must be increasing, "
                f"got x={self.x_km} y={self.y_km}")


@dataclass(frozen=True)
class Domain2D:
    """Rectangle [-lx, lx] x [-ly, ly] on a uniform cell grid with road strips.

    Cells are indexed (row, col) = (y, x); centers at
    x_i = -lx + (i + 1/2) dx, y_j = -ly + (j + 1/2) dy.  Each strip must be
    grid-aligned and exactly one cell high (the road embedding is a single
    row of cells of the traffic model's one-dimensional geometry).
    """

    half_length_x_km: float
    half_length_y_km: float
    dx_km: float
    dy_km: float
    strips: tuple[RoadStrip, ...] = ()

    def __post_init__(self) -> None:
        if not (self.dx_km > 0 and self.dy_km > 0):
            raise ConfigError(
                f"grid steps must be positive, got dx={self.dx_km} dy={self.dy_km}")
        if not (self.half_length_x_km > 0 and self.half_length_y_km > 0):
            raise ConfigError("domain half-lengths must be positive")
        object.__setattr__(self, "strips", tuple(self.strips))
        nx = _aligned_index(self.half_length_x_km, -self.half_length_x_km,
                            self.dx_km, "domain x-extent")
        ny = _aligned_index(self.half_length_y_km, -self.half_length_y_km,
                            self.dy_km, "domain y-extent")
        if nx < 1 or ny < 1:
            raise ConfigError("domain must contain at least one cell per axis")
        seen: set[str] = set()
        for strip in self.strips:
            if strip.road_id in seen:
                raise ConfigError(f"duplicate strip for road {strip.road_id!r}")
            seen.add(strip.road_id)
            a, b = strip.x_km
            c, d = strip.y_km
            if a < -self.half_length_x_km or b > self.half_length_x_km \
                    or c < -self.half_length_y_km or d > self.half_length_y_km:
                raise ConfigError(
                    f"strip {strip.road_id!r} extends outside the domain")
            if abs((d - c) - self.dy_km) > _ALIGN_TOL * self.dy_km:
                raise ConfigError(
                    f"strip {strip.road_id!r} must be one cell high "
                    f"({self.dy_km} km), got {d - c}")
            self.strip_cells(strip)  # validates alignment

    @property
    def n_x(self) -> int:
        return int(round(2.0 * self.half_length_x_km / self.dx_km))

    @property
    def n_y(self) -> int:
        return int(round(2.0 * self.half_length_y_km / self.dy_km))

    @property
    def cell_area_km2(self) -> float:
        return self.dx_km * self.dy_km

    def x_centers(self) -> np.ndarray:
        return -self.half_length_x_km + self.dx_km * (np.arange(self.n_x) + 0.5)

    def y_centers(self) -> np.ndarray:
        return -self.half_length_y_km + self.dy_km * (np.arange(self.n_y) + 0.5)

    def strip_cells(self, strip: RoadStrip) -> tuple[int, int, int]:
        """(row, first column, column count) of the cells a strip occupies."""
        a, b = strip.x_km
        col0 = _aligned_index(a, -self.half_length_x_km, self.dx_km,
                              f"strip {strip.road_id!r} start")
        col1 = _aligned_index(b, -self.half_length_x_km, self.dx_km,
                              f"strip {strip.road_id!r} end")
        row = _aligned_index(strip.y_km[0], -self.half_length_y_km, self.dy_km,
                             f"strip {strip.road_id!r} y-position")
        return row, col0, col1 - col0


@dataclass(frozen=True)
class ConcentrationField:
    """Pollutant concentration per cell (weight/volume) on a Domain2D grid."""

    domain: Domain2D
    psi: np.ndarray

    def __post_init__(self) -> None:
        arr = frozen_array(self.psi)
        expected = (self.domain.n_y, self.domain.n_x)
        if arr.shape != expected:
            raise ConfigError(
                f"psi must have shape {expected} for this domain, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("psi contains non-finite values")
        object.__setattr__(self, "psi", arr)

    @classmethod
    def zero(cls, domain: Domain2D) -> "ConcentrationField":
        return cls(domain, np.zeros((domain.n_y, domain.n_x)))

    def total_mass(self) -> float:
        """Integral of psi over the domain (concentration times cell area)."""
        return float(np.sum(self.psi)) * self.domain.cell_area_km2


def refine_emissions(emissions: ArrayLike, traffic_dx_km: float,
                     fine_dx_km: float = 0.01) -> np.ndarray:
    """Piecewise-constant prolongation of per-cell emission rates.

    Each traffic cell of width ``traffic_dx_km`` is split into
    ``traffic_dx_km / fine_dx_km`` fine cells that inherit its value
    (default: 100 m cells split into 10 m cells).
    """
    arr = np.asarray(emissions, dtype=float)
    if arr.ndim != 1:
        raise ConfigError(f"emissions must be a 1-d cell field, got {arr.shape}")
    if traffic_dx_km <= 0 or fine_dx_km <= 0:
        raise ConfigError("grid steps must be positive")
    ratio = traffic_dx_km / fine_dx_km
    k = int(round(ratio))
    if k < 1 or abs(ratio - k) > _ALIGN_TOL:
        raise ConfigError(
            f"traffic step {traffic_dx_km} km is not an integer multiple of "
            f"the fine step {fine_dx_km} km")
    return np.repeat(arr, k)


def build_source(fine_emissions: Mapping[str, ArrayLike], domain: Domain2D,
                 mixing_height_km: float | None = None) -> np.ndarray:
    """Source field S on the domain grid from per-road fine emission rows.

    On each road strip S = E / dx^3 (the published scaling); off-strip cells
    are 0.  Passing ``mixing_height_km`` switches to the dimensional form
    S = E / (dx * dy * H) for an explicit vertical mixing height H.
    Entries of ``fine_emissions`` without a registered strip are ignored.
    """
    if mixing_height_km is None:
        volume = domain.dx_km ** 3
    else:
        if mixing_height_km <= 0:
            raise ConfigError(
                f"mixing height must be positive, got {mixing_height_km}")
        volume = domain.dx_km * domain.dy_km * mixing_height_km
    source = np.zeros((domain.n_y, domain.n_x))
    for strip in domain.strips:
        if strip.road_id not in fine_emissions:
            raise ConfigError(
                f"no emission row supplied for road {strip.road_id!r}")
        row_values = np.asarray(fine_emissions[strip.road_id], dtype=float)
        row, col0, n_cols = domain.strip_cells(strip)
        if row_values.shape != (n_cols,):
            raise ConfigError(
                f"road {strip.road_id!r} emission row must have {n_cols} cells "
                f"to cover its strip, got {row_values.shape}")
        if np.any(row_values < 0) or not np.all(np.isfinite(row_values)):
            raise ValueError(
                f"road {strip.road_id!r} emission rates must be finite and >= 0")
        source[row, col0:col0 + n_cols] = row_values / volume
    return source


def stable_dt(mu_km2_per_h: float, dx_km: float, dy_km: float) -> float:
    """Largest stable explicit step: dt <= 1 / (2 mu (1/dx^2 + 1/dy^2))."""
    if mu_km2_per_h < 0:
        raise ConfigError(f"diffusivity must be >= 0, got {mu_km2_per_h}")
    if dx_km <= 0 or dy_km <= 0:
        raise ConfigError("grid steps must be positive")
    if mu_km2_per_h == 0:
        return math.inf
    return 1.0 / (2.0 * mu_km2_per_h * (1.0 / dx_km**2 + 1.0 / dy_km**2))


def diffusion_step(field: ConcentrationField, source: ArrayLike,
                   mu_km2_per_h: float, dt_h: float) -> ConcentrationField:
    """One explicit Euler step of d(psi)/dt - mu Laplacian(psi) = S.

    Five-point Laplacian with zero-flux boundaries (edge-copied ghost
    cells), then the source contribution dt * S.  Refuses steps beyond the
    explicit stability bound.

    psi + dt (mu ((east - 2 psi + west) / dx^2 + (north - 2 psi + south)
    / dy^2) + S) is formed in that operation order from shifted slices, in
    two grid-sized buffers: one becomes the new field, so the step makes no
    padded copy and no other grid-sized temporary.
    """
    dom = field.domain
    if dt_h <= 0:
        raise ConfigError(f"step must be positive, got {dt_h}")
    bound = stable_dt(mu_km2_per_h, dom.dx_km, dom.dy_km)
    if dt_h > bound:
        raise SimulationError(
            f"step {dt_h} h exceeds the explicit stability bound {bound} h")
    s_arr = np.asarray(source, dtype=float)
    if s_arr.shape != field.psi.shape:
        raise ConfigError(
            f"source shape {s_arr.shape} does not match psi {field.psi.shape}")
    psi = field.psi
    twice = np.multiply(psi, 2.0)
    out = np.empty_like(psi)
    # east - 2 psi + west; the last column is its own east, the first its own west
    np.subtract(psi[:, 1:], twice[:, :-1], out=out[:, :-1])
    np.subtract(psi[:, -1:], twice[:, -1:], out=out[:, -1:])
    out[:, 1:] += psi[:, :-1]
    out[:, :1] += psi[:, :1]
    out /= dom.dx_km**2
    # north - 2 psi + south, formed over 2 psi in place
    np.subtract(psi[1:], twice[:-1], out=twice[:-1])
    np.subtract(psi[-1:], twice[-1:], out=twice[-1:])
    twice[1:] += psi[:-1]
    twice[:1] += psi[:1]
    twice /= dom.dy_km**2
    out += twice
    out *= mu_km2_per_h
    out += s_arr
    out *= dt_h
    out += psi
    out.flags.writeable = False
    return ConcentrationField(dom, out)
