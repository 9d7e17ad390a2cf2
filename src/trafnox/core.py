"""Fundamental diagrams, cutoff function, and shared grid/state types.

Everything here is immutable after construction and all operations are pure,
so values can be shared freely between solver workers.  Internal units are
hours, kilometres, veh/km and km/h throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

#: Absolute tolerance band used to absorb floating-point drift before a
#: diagram evaluation raises a domain error.
CLAMP_BAND = 1e-12

#: Bisection tolerance (absolute, on speed) for the w-inversion.
W_INVERSION_SPEED_TOL = 1e-9


class ConfigError(ValueError):
    """A configuration value violates a documented invariant."""


class SimulationError(RuntimeError):
    """A numerical contract was violated (CFL bound, vehicle collision, ...)."""


def _clamped(value: ArrayLike, lo: float, hi: float, what: str) -> np.ndarray:
    """Clamp ``value`` into [lo, hi] within CLAMP_BAND, else raise ValueError."""
    band = CLAMP_BAND * max(abs(hi), 1.0)
    arr = np.asarray(value, dtype=float)
    if np.any(arr < lo - band) or np.any(arr > hi + band):
        bad_lo = float(np.min(arr))
        bad_hi = float(np.max(arr))
        raise ValueError(
            f"{what} outside [{lo}, {hi}] beyond the {CLAMP_BAND} clamp band "
            f"(range seen: [{bad_lo}, {bad_hi}])"
        )
    return np.clip(arr, lo, hi)


def _as_input_shape(result: np.ndarray, reference: ArrayLike) -> ArrayLike:
    """Return ``result`` as a float when ``reference`` was scalar."""
    if np.ndim(reference) == 0:
        return float(result)
    return result


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpatialGrid:
    """Uniform cell grid on [a_km, b_km] with cell centers a + (j+1/2)dx."""

    a_km: float
    b_km: float
    n_cells: int

    def __post_init__(self) -> None:
        if not self.b_km > self.a_km:
            raise ConfigError(f"grid needs b > a, got [{self.a_km}, {self.b_km}]")
        if self.n_cells <= 0:
            raise ConfigError(f"grid needs n_cells > 0, got {self.n_cells}")

    @property
    def dx_km(self) -> float:
        return (self.b_km - self.a_km) / self.n_cells

    def centers(self) -> np.ndarray:
        """Cell-center coordinates x_j = a + (j + 1/2) dx, j = 0..n_cells-1."""
        return self.a_km + (np.arange(self.n_cells) + 0.5) * self.dx_km


@dataclass(frozen=True)
class TimeGrid:
    """Time horizon split into n_steps explicit steps of length dt_h."""

    horizon_h: float
    dt_h: float
    n_steps: int

    def __post_init__(self) -> None:
        if self.dt_h <= 0:
            raise ConfigError(f"time grid needs dt > 0, got {self.dt_h}")
        if self.n_steps * self.dt_h < self.horizon_h * (1.0 - 1e-12):
            raise ConfigError(
                f"n_steps*dt = {self.n_steps * self.dt_h} does not cover "
                f"horizon {self.horizon_h}"
            )

    @classmethod
    def from_horizon(cls, horizon_h: float, dt_h: float) -> "TimeGrid":
        """Smallest step count whose n_steps*dt covers the horizon."""
        n = max(1, math.ceil(horizon_h / dt_h - 1e-9))
        return cls(horizon_h=horizon_h, dt_h=dt_h, n_steps=n)


# ---------------------------------------------------------------------------
# fundamental diagrams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GreenshieldsDiagram:
    """Linear speed law u(rho) = u_max (rho_max - rho) / rho_max."""

    rho_max: float
    u_max: float

    def __post_init__(self) -> None:
        if self.rho_max <= 0 or self.u_max <= 0:
            raise ConfigError(
                f"Greenshields diagram needs positive parameters, got "
                f"rho_max={self.rho_max}, u_max={self.u_max}"
            )

    def speed(self, rho: ArrayLike) -> ArrayLike:
        return greenshields_speed(rho, self)

    def flux(self, rho: ArrayLike) -> ArrayLike:
        """Flux rho * u(rho) (veh/h)."""
        r = _clamped(rho, 0.0, self.rho_max, "density")
        return _as_input_shape(r * (self.u_max * (self.rho_max - r) / self.rho_max), rho)

    @property
    def free_speed(self) -> float:
        """Largest speed the law can produce, u(0) = u_max."""
        return self.u_max


def greenshields_speed(rho: ArrayLike, diag: GreenshieldsDiagram) -> ArrayLike:
    """Speed u(rho) = u_max (rho_max - rho) / rho_max, non-increasing in rho."""
    r = _clamped(rho, 0.0, diag.rho_max, "density")
    return _as_input_shape(diag.u_max * (diag.rho_max - r) / diag.rho_max, rho)


@dataclass(frozen=True)
class CgarzDiagram:
    """Two-regime flux family Q(rho, w) with a w-independent free branch.

    Free flow (rho <= rho_f):  Q = g(rho) = (v_max/rho_max) rho (rho_max - rho).
    Congestion (rho > rho_f):  Q = (1 - theta(w)) f(rho) + theta(w) g(rho) with
    f(rho) = (v_max/rho_max) rho_f (rho_max - rho) and
    theta(w) = (w - w_left)/(w_right - w_left).
    """

    rho_max: float
    rho_f: float
    v_max: float
    w_left: float
    w_right: float

    def __post_init__(self) -> None:
        if not 0 < self.rho_f < self.rho_max:
            raise ConfigError(
                f"CGARZ needs 0 < rho_f < rho_max, got rho_f={self.rho_f}, "
                f"rho_max={self.rho_max}"
            )
        if self.v_max <= 0:
            raise ConfigError(f"CGARZ needs v_max > 0, got {self.v_max}")
        if not self.w_left < self.w_right:
            raise ConfigError(
                f"CGARZ needs w_left < w_right, got [{self.w_left}, {self.w_right}]"
            )

    @classmethod
    def from_densities(cls, rho_max: float, rho_f: float, v_max: float) -> "CgarzDiagram":
        """Build with the conventional bounds w_left=g(rho_f), w_right=g(rho_max/2)."""
        scale = v_max / rho_max
        w_left = scale * rho_f * (rho_max - rho_f)
        w_right = scale * (rho_max / 2.0) * (rho_max / 2.0)
        return cls(rho_max=rho_max, rho_f=rho_f, v_max=v_max,
                   w_left=w_left, w_right=w_right)

    def theta(self, w: ArrayLike) -> ArrayLike:
        """Mixing weight theta(w) = (w - w_left)/(w_right - w_left) in [0, 1]."""
        wc = _clamped(w, self.w_left, self.w_right, "invariant w")
        return _as_input_shape((wc - self.w_left) / (self.w_right - self.w_left), w)

    def g(self, rho: ArrayLike) -> ArrayLike:
        """Parabolic branch g(rho) = (v_max/rho_max) rho (rho_max - rho)."""
        r = np.asarray(rho, dtype=float)
        return _as_input_shape((self.v_max / self.rho_max) * r * (self.rho_max - r), rho)

    def f(self, rho: ArrayLike) -> ArrayLike:
        """Linear congested branch f(rho) = (v_max/rho_max) rho_f (rho_max - rho)."""
        r = np.asarray(rho, dtype=float)
        return _as_input_shape((self.v_max / self.rho_max) * self.rho_f * (self.rho_max - r), rho)

    def speed(self, rho: ArrayLike, w: ArrayLike) -> ArrayLike:
        return cgarz_speed(rho, w, self)

    @property
    def free_speed(self) -> float:
        """Largest speed the family can produce, v(0, w) = v_max for every w."""
        return self.v_max


def cgarz_flux(rho: ArrayLike, w: ArrayLike, diag: CgarzDiagram) -> ArrayLike:
    """Flux Q(rho, w): g(rho) when rho <= rho_f, else (1-theta)f + theta g."""
    r = _clamped(rho, 0.0, diag.rho_max, "density")
    th = np.asarray(diag.theta(w), dtype=float)
    g = (diag.v_max / diag.rho_max) * r * (diag.rho_max - r)
    f = (diag.v_max / diag.rho_max) * diag.rho_f * (diag.rho_max - r)
    out = np.where(r <= diag.rho_f, g, (1.0 - th) * f + th * g)
    if np.ndim(rho) == 0 and np.ndim(w) == 0:
        return float(out)
    return out


def cgarz_speed(rho: ArrayLike, w: ArrayLike, diag: CgarzDiagram) -> ArrayLike:
    """Speed v(rho, w) = Q/rho with the analytic limit v(0, w) = v_max."""
    r = _clamped(rho, 0.0, diag.rho_max, "density")
    th = np.asarray(diag.theta(w), dtype=float)
    scale = diag.v_max / diag.rho_max
    # Free branch g(rho)/rho collapses to a linear law with no division.
    v_free = scale * (diag.rho_max - r)
    # Entries on the free branch are discarded below; give them a benign
    # denominator so tiny densities cannot overflow the unused lane.
    r_safe = np.where(r > diag.rho_f, r, 1.0)
    v_cong = ((1.0 - th) * scale * diag.rho_f * (diag.rho_max - r) / r_safe
              + th * v_free)
    out = np.where(r <= diag.rho_f, v_free, v_cong)
    if np.ndim(rho) == 0 and np.ndim(w) == 0:
        return float(out)
    return out


def cgarz_speed_drho(rho: ArrayLike, w: ArrayLike, diag: CgarzDiagram) -> ArrayLike:
    """Density derivative of the speed: -v_max/rho_max on the free branch,
    -[(1-theta) v_max rho_f / rho^2 + theta v_max/rho_max] in congestion."""
    r = _clamped(rho, 0.0, diag.rho_max, "density")
    th = np.asarray(diag.theta(w), dtype=float)
    d_free = np.full_like(r, -diag.v_max / diag.rho_max)
    # Same masking as cgarz_speed: the free-branch lane is discarded, so
    # keep its denominator away from zero/denormal densities.
    r_safe = np.where(r > diag.rho_f, r, 1.0)
    d_cong = -((1.0 - th) * diag.v_max * diag.rho_f / (r_safe * r_safe)
               + th * diag.v_max / diag.rho_max)
    out = np.where(r <= diag.rho_f, d_free, d_cong)
    if np.ndim(rho) == 0 and np.ndim(w) == 0:
        return float(out)
    return out


def invert_speed_in_w(rho: float, v_target: float, diag: CgarzDiagram) -> float:
    """Invariant w in [w_left, w_right] with v(rho, w) closest to v_target.

    Bisection on the (monotone increasing) map w -> v(rho, w) down to an
    absolute speed tolerance of 1e-9; outside the attainable speed range the
    nearer endpoint is returned.  For rho <= rho_f the speed is w-independent
    and the neutral midpoint (w_left + w_right)/2 is the declared fallback.
    """
    r = float(_clamped(rho, 0.0, diag.rho_max, "density"))
    if v_target < 0:
        raise ValueError(f"target speed must be nonnegative, got {v_target}")
    if r <= diag.rho_f:
        return 0.5 * (diag.w_left + diag.w_right)
    v_lo = cgarz_speed(r, diag.w_left, diag)
    v_hi = cgarz_speed(r, diag.w_right, diag)
    if v_target <= v_lo:
        return diag.w_left
    if v_target >= v_hi:
        return diag.w_right
    lo, hi = diag.w_left, diag.w_right
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        v_mid = cgarz_speed(r, mid, diag)
        if abs(v_mid - v_target) <= W_INVERSION_SPEED_TOL:
            return mid
        if v_mid < v_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# cutoff function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutoffShape:
    """Trapezoid plateau half-width ell and support half-width big_l (km)."""

    ell: float
    big_l: float

    def __post_init__(self) -> None:
        if not 0 < self.ell < self.big_l:
            raise ConfigError(
                f"cutoff needs 0 < ell < big_l, got ell={self.ell}, big_l={self.big_l}"
            )


def cutoff(xi: ArrayLike, shape: CutoffShape) -> ArrayLike:
    """Even piecewise-linear trapezoid: 1 on |xi|<=ell, 0 on |xi|>=big_l,
    linear ramp (big_l - |xi|)/(big_l - ell) in between."""
    x = np.abs(np.asarray(xi, dtype=float))
    out = np.clip((shape.big_l - x) / (shape.big_l - shape.ell), 0.0, 1.0)
    return _as_input_shape(out, xi)


def cutoff_derivative(xi: ArrayLike, shape: CutoffShape) -> ArrayLike:
    """Slope of the trapezoid: +-1/(big_l - ell) on the ramps, 0 elsewhere."""
    x = np.asarray(xi, dtype=float)
    slope = 1.0 / (shape.big_l - shape.ell)
    ax = np.abs(x)
    on_ramp = (ax > shape.ell) & (ax <= shape.big_l)
    out = np.where(on_ramp, -np.sign(x) * slope, 0.0)
    return _as_input_shape(out, xi)


# ---------------------------------------------------------------------------
# solver states
# ---------------------------------------------------------------------------

def _frozen_field(values: ArrayLike, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ConfigError(f"{name} must be a 1-d cell field, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class MacroState1:
    """First-order state: one density value per cell (veh/km)."""

    rho: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", _frozen_field(self.rho, "rho"))


@dataclass(frozen=True)
class MacroState2:
    """Second-order state: density rho (veh/km) and advected invariant w."""

    rho: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", _frozen_field(self.rho, "rho"))
        object.__setattr__(self, "w", _frozen_field(self.w, "w"))
        if self.rho.shape != self.w.shape:
            raise ConfigError(
                f"rho and w must share one grid, got {self.rho.shape} vs {self.w.shape}"
            )


@dataclass(frozen=True)
class CgarzAtFixedW:
    """CGARZ family frozen at one invariant value: a first-order speed law.

    Exposes the (rho -> speed) interface of GreenshieldsDiagram so the
    first-order solver can run the exact same density dynamics the
    second-order solver produces when w is uniform.
    """

    diagram: CgarzDiagram
    w: float

    def __post_init__(self) -> None:
        _clamped(self.w, self.diagram.w_left, self.diagram.w_right, "invariant w")

    @property
    def rho_max(self) -> float:
        return self.diagram.rho_max

    @property
    def free_speed(self) -> float:
        return self.diagram.v_max

    def speed(self, rho: ArrayLike) -> ArrayLike:
        return cgarz_speed(rho, self.w, self.diagram)

    def flux(self, rho: ArrayLike) -> ArrayLike:
        return cgarz_flux(rho, self.w, self.diagram)
