"""Second-order macroscopic solver: density plus an advected property field w
(CGARZ flux family), with trajectory-embedded speeds and the material-
derivative acceleration field that feeds the emission models.

Density advances with the same Godunov/cell-transmission kernel as the
first-order solver, built on a per-cell flux Q(rho, w_j); w advances with an
upwind step driven by the embedded speed.  The blend with tracked vehicles
always uses the closest vehicle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import (
    CgarzAtFixedW,
    CgarzDiagram,
    ConfigError,
    CutoffShape,
    MacroState2,
    SimulationError,
    SpatialGrid,
    _clamped,
    cgarz_speed,
    cgarz_speed_drho,
    cutoff_derivative,
)
from .lagrangian import Fleet
from .lwr import (
    EmbeddingMode,
    FluxSamplingConfig,
    _cell_capacities,
    _embedded_speed,
    _Embedding,
    _interface_fluxes,
    max_dt,
)

ArrayLike = Union[float, np.ndarray]

# The second-order blend always uses the closest vehicle; without vehicles
# the embedding is empty and leaves the bulk speed as it is.
_CLOSEST = EmbeddingMode.CLOSEST_VEHICLE


def embedded_speed_2(x: ArrayLike, t: float, rho: ArrayLike, w: ArrayLike,
                     fleet: Optional[Fleet], diag: CgarzDiagram,
                     shape: Optional[CutoffShape]) -> ArrayLike:
    """Speed field v(rho, w) blended with the closest tracked vehicle."""
    return _embedded_speed(x, t, rho, diag.rho_max,
                           lambda r: cgarz_speed(r, w, diag), fleet, shape, _CLOSEST)


def max_dt_2(fleet: Optional[Fleet], diag: CgarzDiagram, grid: SpatialGrid) -> float:
    """dx / max{fastest tracked speed, V_max} with V_max = max_w v(0, w)."""
    return max_dt(fleet, CgarzAtFixedW(diag, diag.w_right), grid)


def _cell_tables(state: MacroState2, grid: SpatialGrid, t: float,
                 diag: CgarzDiagram, fleet: Optional[Fleet],
                 shape: Optional[CutoffShape], sampling: FluxSamplingConfig):
    """Clamped (rho, w) and the _cell_capacities arrays of the CGARZ flux,
    sampled per cell at that cell's w."""
    w = _clamped(state.w, diag.w_left, diag.w_right, "property w")
    rho, capacities = _cell_capacities(
        grid.centers(), t, state.rho, diag.rho_max,
        lambda r: cgarz_speed(r, w, diag), fleet, shape, _CLOSEST, sampling)
    return rho, w, capacities


def boundary_capacities(state: MacroState2, grid: SpatialGrid, t: float,
                        diag: CgarzDiagram, fleet: Optional[Fleet] = None,
                        shape: Optional[CutoffShape] = None,
                        sampling: FluxSamplingConfig = FluxSamplingConfig(),
                        ) -> tuple[float, float]:
    """(receiving capacity of the first cell, sending capacity of the last).

    The two ends of the receiving and sending arrays that _cell_tables builds
    from the same state and time.  network_step caps a road's junction and
    sensor fluxes with these ends of the very tables the road then advances
    from, so a boundary flux capped by these values passes through the
    step's interface min() unchanged and junction conservation is exact.
    """
    _, _, (_, _, send, recv) = _cell_tables(state, grid, t, diag, fleet, shape,
                                            sampling)
    return float(recv[0]), float(send[-1])


def _advance(tables, grid: SpatialGrid, dt: float, diag: CgarzDiagram,
             left_flux: float, right_flux: Optional[float],
             left_w: Optional[float]) -> tuple[MacroState2, np.ndarray]:
    """(new state, interface fluxes) of one step from the _cell_tables of
    the current state; the caller has checked dt against max_dt_2."""
    rho, w, (speed_own, flux_own, send, recv) = tables
    fluxes = _interface_fluxes(flux_own, send, recv, left_flux, right_flux)
    rho_new = rho - (dt / grid.dx_km) * np.diff(fluxes)
    if left_w is None:
        ghost_w = w[0]
    else:
        ghost_w = float(_clamped(np.asarray(float(left_w)), diag.w_left,
                                 diag.w_right, "left boundary w"))
    w_upstream = np.concatenate(([ghost_w], w[:-1]))
    w_new = w - (dt / grid.dx_km) * speed_own * (w - w_upstream)
    return MacroState2(rho=rho_new, w=w_new), fluxes


def step(state: MacroState2, grid: SpatialGrid, t: float, dt: float,
         diag: CgarzDiagram, fleet: Optional[Fleet] = None,
         shape: Optional[CutoffShape] = None,
         sampling: FluxSamplingConfig = FluxSamplingConfig(),
         left_flux: float = 0.0, right_flux: Optional[float] = None,
         left_w: Optional[float] = None) -> MacroState2:
    """One step of the two-field scheme.

    rho: conservative update with sending/receiving built from Q = rho * V
    and a per-cell critical density sampled with that cell's w.
    w: upwind advection w_j -= (dt/dx) V_j (w_j - w_{j-1}), the left ghost
    carrying left_w (defaults to the first cell, homogeneous Neumann).
    """
    if state.rho.size != grid.n_cells:
        raise ConfigError(
            f"state has {state.rho.size} cells but the grid has {grid.n_cells}"
        )
    bound = max_dt_2(fleet, diag, grid)
    if dt > bound * (1.0 + 1e-12):
        raise SimulationError(f"time step {dt} exceeds the admissible bound {bound}")
    tables = _cell_tables(state, grid, t, diag, fleet, shape, sampling)
    return _advance(tables, grid, dt, diag, left_flux, right_flux, left_w)[0]


# ---------------------------------------------------------------------------
# acceleration field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AccelerationField:
    """Per-cell embedded speed (km/h) and its material derivative (km/h^2)."""

    a_kmh2: np.ndarray
    speed_kmh: np.ndarray

    def __post_init__(self) -> None:
        for name in ("a_kmh2", "speed_kmh"):
            values = np.array(getattr(self, name), dtype=float)
            if values.ndim != 1 or not np.all(np.isfinite(values)):
                raise ConfigError(f"{name} must be a finite 1-d array")
            values.flags.writeable = False
            object.__setattr__(self, name, values)


def acceleration_field(state: MacroState2, grid: SpatialGrid, t: float,
                       diag: CgarzDiagram, fleet: Optional[Fleet] = None,
                       shape: Optional[CutoffShape] = None) -> AccelerationField:
    """Embedded speed V per cell and its material derivative a = DV/Dt.

    The density-coupling term uses the centered finite difference of the
    discrete speed field (its total spatial variation); the remaining terms
    use the closed-form partials in x and t at fixed (rho, w):

        a = -rho V_rho dV/dx|_field + V_t + V V_x

    with V_rho = (chi 2 pdot^2/(pdot+v)^2 + (1-chi)) v_rho,
         V_t   = chi' pdot v (v-pdot)/(pdot+v) + chi 2 pddot v^2/(pdot+v)^2,
         V_x   = chi' v (pdot-v)/(pdot+v),

    which reproduces DV/Dt exactly on solutions of the two-field system.
    Cells where pdot + v = 0 get a = 0 by the zero-speed convention.  V is
    embedded_speed_2 at the cell centers.
    """
    rho = _clamped(state.rho, 0.0, diag.rho_max, "density")
    w = _clamped(state.w, diag.w_left, diag.w_right, "property w")
    v = np.asarray(cgarz_speed(rho, w, diag), dtype=float)
    v_rho = np.asarray(cgarz_speed_drho(rho, w, diag), dtype=float)
    emb = _Embedding(grid.centers(), t, fleet, shape, _CLOSEST)
    vel_field = emb.blended(v)
    vel_x_field = np.gradient(vel_field, grid.dx_km)

    if emb.n_active:
        chi, p_dot, p_ddot = emb.chi_k, emb.pdot_k, emb.pddot_k
        chi_prime = np.asarray(cutoff_derivative(emb.xi_k, shape))
    else:
        chi = chi_prime = p_dot = p_ddot = np.zeros_like(v)
    denom = p_dot + v
    moving = denom > 0.0
    safe = np.where(moving, denom, 1.0)
    factor = chi * 2.0 * p_dot * p_dot / (safe * safe) + (1.0 - chi)
    vel_x_expl = chi_prime * v * (p_dot - v) / safe
    vel_t_expl = (chi_prime * p_dot * v * (v - p_dot) / safe
                  + chi * 2.0 * p_ddot * v * v / (safe * safe))
    a = (-rho * factor * v_rho * vel_x_field
         + vel_t_expl + vel_field * vel_x_expl)
    return AccelerationField(a_kmh2=np.where(moving, a, 0.0), speed_kmh=vel_field)
