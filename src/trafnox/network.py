"""Road-network coupling for the two-field solver: diverge/merge junctions,
sensor-driven inflow boundaries, and warm-start initialization.

Junctions connect roads either directly or through zero-length connectors
(a diverge branch feeding a merge port).  Each step resolves boundary fluxes
in a serial phase — diverges post their split demands, merges allocate
capacity by a priority rule, diverges then throttle both branches by the
most constrained one (first-in-first-out coupling) — and every road then
advances independently with those fluxes as boundary data.  Slack opened at
a merge by the other port's throttling is not redistributed within a step.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .core import (
    CgarzDiagram,
    ConfigError,
    MacroState2,
    SimulationError,
    SpatialGrid,
    TimeGrid,
    cgarz_speed,
    invert_speed_in_w,
)
from .gsom import _advance, _cell_tables, max_dt_2
# Not called here: bound because perfbench/tracing.py wraps this name.
from .gsom import boundary_capacities  # noqa: F401
# Not called here: bound because perfbench/tracing.py wraps this name.
from .gsom import step  # noqa: F401
from .lagrangian import Fleet
from .lwr import FluxSamplingConfig

logger = logging.getLogger(__name__)

_SPEED_TOL_KMH = 1e-9


@dataclass(frozen=True)
class Road:
    """One directed road segment with its own grid, state, and flux family."""

    road_id: str
    length_km: float
    grid: SpatialGrid
    state: MacroState2
    diagram: CgarzDiagram

    def __post_init__(self) -> None:
        if not self.road_id:
            raise ConfigError("road id must be a non-empty string")
        if self.grid.a_km != 0.0 or self.grid.b_km != self.length_km:
            raise ConfigError(
                f"road {self.road_id!r}: grid [{self.grid.a_km}, {self.grid.b_km}] "
                f"must span [0, {self.length_km}]"
            )
        if self.state.rho.size != self.grid.n_cells:
            raise ConfigError(
                f"road {self.road_id!r}: state has {self.state.rho.size} cells, "
                f"grid has {self.grid.n_cells}"
            )

    @classmethod
    def empty(cls, road_id: str, length_km: float, n_cells: int,
              diagram: CgarzDiagram, w0: Optional[float] = None) -> "Road":
        """An empty road; w0 defaults to the midpoint of the w range."""
        if w0 is None:
            w0 = 0.5 * (diagram.w_left + diagram.w_right)
        grid = SpatialGrid(a_km=0.0, b_km=length_km, n_cells=n_cells)
        state = MacroState2(rho=np.zeros(n_cells), w=np.full(n_cells, float(w0)))
        return cls(road_id=road_id, length_km=length_km, grid=grid,
                   state=state, diagram=diagram)

    def with_state(self, state: MacroState2) -> "Road":
        return dataclasses.replace(self, state=state)


@dataclass(frozen=True)
class DivergeJunction:
    """One-in/two-out split by a fixed distribution fraction alpha.

    Outputs name either a road or a zero-length connector consumed by a
    merge port.
    """

    in_road: str
    out_main: str
    out_side: str
    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"diverge fraction must be in [0, 1], got {self.alpha}")
        if len({self.in_road, self.out_main, self.out_side}) != 3:
            raise ConfigError("diverge endpoints must be three distinct ids")


@dataclass(frozen=True)
class MergeJunction:
    """Two-in/one-out junction with priority beta for the main input.

    Inputs name either a road or a connector posted by a diverge branch.
    """

    in_main: str
    in_side: str
    out_road: str
    beta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"merge priority must be in [0, 1], got {self.beta}")
        if len({self.in_main, self.in_side, self.out_road}) != 3:
            raise ConfigError("merge endpoints must be three distinct ids")


@dataclass(frozen=True)
class SensorSeries:
    """Per-minute flux/speed records from a stationary sensor on one road."""

    road_id: str
    minutes: np.ndarray
    flux_veh_per_h: np.ndarray
    speed_kmh: np.ndarray

    def __post_init__(self) -> None:
        minutes = np.array(self.minutes, dtype=int)
        flux = np.array(self.flux_veh_per_h, dtype=float)
        speed = np.array(self.speed_kmh, dtype=float)
        if minutes.ndim != 1 or minutes.size == 0:
            raise ConfigError(f"sensor {self.road_id!r}: needs at least one record")
        if flux.shape != minutes.shape or speed.shape != minutes.shape:
            raise ConfigError(f"sensor {self.road_id!r}: column lengths differ")
        if minutes.size > 1 and not np.all(np.diff(minutes) == 1):
            raise ConfigError(f"sensor {self.road_id!r}: minutes must be contiguous")
        if np.any(flux < 0) or not np.all(np.isfinite(flux)):
            raise ConfigError(f"sensor {self.road_id!r}: flux must be finite and >= 0")
        if np.any(speed < 0) or not np.all(np.isfinite(speed)):
            raise ConfigError(f"sensor {self.road_id!r}: speed must be finite and >= 0")
        for name, arr in (("minutes", minutes), ("flux_veh_per_h", flux),
                          ("speed_kmh", speed)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def at_time(self, t_hours: float) -> Optional[tuple[float, float]]:
        """(flux, speed) at the minute containing t, or None outside the span."""
        minute = int(np.floor(60.0 * t_hours + 1e-9))
        first = int(self.minutes[0])
        if minute < first or minute > int(self.minutes[-1]):
            return None
        idx = minute - first
        return float(self.flux_veh_per_h[idx]), float(self.speed_kmh[idx])


@dataclass(frozen=True)
class RoadNetwork:
    """Roads plus junction wiring and optional per-road inflow sensors."""

    roads: tuple[Road, ...]
    diverges: tuple[DivergeJunction, ...] = ()
    merges: tuple[MergeJunction, ...] = ()
    sensors: Mapping[str, SensorSeries] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ids = [road.road_id for road in self.roads]
        if len(set(ids)) != len(ids):
            raise ConfigError("road ids must be unique")
        road_ids = set(ids)
        connectors = set()
        fed: set[str] = set()       # roads/connectors receiving a junction output
        drained: set[str] = set()   # roads/connectors consumed as a junction input
        for div in self.diverges:
            if div.in_road not in road_ids:
                raise ConfigError(f"diverge input {div.in_road!r} is not a road")
            self._claim(drained, div.in_road, "input")
            for out in (div.out_main, div.out_side):
                self._claim(fed, out, "output")
                if out not in road_ids:
                    connectors.add(out)
        for mrg in self.merges:
            if mrg.out_road not in road_ids:
                raise ConfigError(f"merge output {mrg.out_road!r} is not a road")
            self._claim(fed, mrg.out_road, "output")
            for inp in (mrg.in_main, mrg.in_side):
                self._claim(drained, inp, "input")
                if inp not in road_ids and inp not in connectors:
                    raise ConfigError(
                        f"merge input {inp!r} is neither a road nor a diverge branch"
                    )
        dangling = connectors - drained
        if dangling:
            raise ConfigError(f"diverge branch(es) {sorted(dangling)} feed no merge")
        for road_id, series in self.sensors.items():
            if road_id not in road_ids:
                raise ConfigError(f"sensor bound to unknown road {road_id!r}")
            if series.road_id != road_id:
                raise ConfigError(
                    f"sensor for road {series.road_id!r} bound under key {road_id!r}"
                )
            if road_id in fed:
                raise ConfigError(
                    f"road {road_id!r} is junction-fed and cannot take a sensor"
                )
        object.__setattr__(self, "sensors", dict(self.sensors))

    @staticmethod
    def _claim(used: set[str], endpoint: str, role: str) -> None:
        if endpoint in used:
            raise ConfigError(f"endpoint {endpoint!r} used as a junction {role} twice")
        used.add(endpoint)

    def road(self, road_id: str) -> Road:
        for road in self.roads:
            if road.road_id == road_id:
                return road
        raise KeyError(road_id)

    @property
    def road_ids(self) -> tuple[str, ...]:
        return tuple(road.road_id for road in self.roads)

    def total_vehicles(self) -> float:
        return float(sum(np.sum(road.state.rho) * road.grid.dx_km
                         for road in self.roads))

    def with_states(self, states: Mapping[str, MacroState2]) -> "RoadNetwork":
        roads = tuple(
            road.with_state(states[road.road_id]) if road.road_id in states else road
            for road in self.roads
        )
        return dataclasses.replace(self, roads=roads)


@dataclass(frozen=True)
class NetworkFlowReport:
    """Realized boundary fluxes of one network step (veh/h per road)."""

    mass_before: float
    mass_after: float
    inflow: dict[str, float]
    outflow: dict[str, float]

    @property
    def flux_balance(self) -> float:
        """Net inflow rate; mass_after - mass_before should equal dt times this."""
        return sum(self.inflow.values()) - sum(self.outflow.values())


# ---------------------------------------------------------------------------
# junction flux rules
# ---------------------------------------------------------------------------

def diverge_fluxes(s_in: float, r_main: float, r_side: float,
                   alpha: float) -> tuple[float, float]:
    """First-in-first-out split: both branches carry their alpha share of the
    largest total the two capacities admit, so the outflow composition stays
    exactly alpha : (1 - alpha) and a blocked branch stalls the junction."""
    if min(s_in, r_main, r_side) < 0.0:
        raise ConfigError("diverge fluxes must be >= 0")
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"diverge fraction must be in [0, 1], got {alpha}")
    d_main = alpha * s_in
    d_side = (1.0 - alpha) * s_in
    scale = 1.0
    if d_main > 0.0:
        scale = min(scale, r_main / d_main)
    if d_side > 0.0:
        scale = min(scale, r_side / d_side)
    return min(d_main * scale, r_main), min(d_side * scale, r_side)


def merge_fluxes(s_main: float, s_side: float, r_out: float,
                 beta: float) -> tuple[float, float]:
    """Priority merge: pass-through when both demands fit, otherwise the main
    input takes median{S_main, R_out - S_side, beta * R_out} and the side
    input the remaining capacity, each capped by its demand."""
    if min(s_main, s_side, r_out) < 0.0:
        raise ConfigError("merge fluxes must be >= 0")
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"merge priority must be in [0, 1], got {beta}")
    if s_main + s_side <= r_out:
        return s_main, s_side
    q_main = sorted((s_main, r_out - s_side, beta * r_out))[1]
    q_main = min(max(q_main, 0.0), s_main, r_out)
    q_side = min(max(r_out - q_main, 0.0), s_side)
    return q_main, q_side


# ---------------------------------------------------------------------------
# sensor boundary
# ---------------------------------------------------------------------------

def sensor_boundary(series: SensorSeries, t: float, road: Road,
                    recv: float) -> tuple[float, float]:
    """(inflow flux, ghost w) from the piecewise-constant sensor record.

    The sensor flux at minute floor(60 t) is clamped to [0, recv], where
    recv is the receiving capacity of the road's first cell at t, which
    network_step reads from the cell tables the road then advances from
    (the first value of boundary_capacities).  The ghost w inverts the
    sensor speed at the implied boundary density flux/speed; after the road
    steps, the first cell's w is re-inverted at the new density (see
    network_step).  Outside the sensor span the inflow is zero, with a
    warning.
    """
    record = series.at_time(t)
    if record is None:
        logger.warning(
            "sensor on road %s has no record at t = %.6f h; using zero inflow",
            road.road_id, t,
        )
        return 0.0, float(road.state.w[0])
    q_sens, v_sens = record
    q_in = min(q_sens, recv)
    if v_sens <= _SPEED_TOL_KMH:
        return q_in, float(road.state.w[0])
    rho_b = min(q_in / v_sens, road.diagram.rho_max)
    return q_in, invert_speed_in_w(rho_b, v_sens, road.diagram)


def _sensor_w_or_keep(rho0: float, v_sens: float, w_keep: float,
                      diag: CgarzDiagram) -> float:
    """w reproducing the recorded speed at density ``rho0``, if one exists.

    While a sensor-fed road is emptier (or fuller) than the record implies,
    no invariant value can match the recorded speed at the updated first-cell
    density; re-setting w to an endpoint there would throttle the very inflow
    that closes the gap.  In that case the advected value ``w_keep`` stands.
    """
    if rho0 <= diag.rho_f or v_sens <= _SPEED_TOL_KMH:
        return w_keep
    v_lo = float(cgarz_speed(rho0, diag.w_left, diag))
    v_hi = float(cgarz_speed(rho0, diag.w_right, diag))
    if v_sens < v_lo - _SPEED_TOL_KMH or v_sens > v_hi + _SPEED_TOL_KMH:
        return w_keep
    return invert_speed_in_w(rho0, v_sens, diag)


# ---------------------------------------------------------------------------
# network stepping
# ---------------------------------------------------------------------------

def _resolve_boundaries(net: RoadNetwork,
                        caps: Mapping[str, tuple[float, float]]):
    """Serial junction phase: per-road (left_flux, left_w, right_flux) from
    the per-road boundary capacities (receiving first, sending last)."""
    road_ids = set(net.road_ids)
    w_last = {road.road_id: float(road.state.w[-1]) for road in net.roads}

    # diverges post their alpha-split demands (connectors carry the upstream w)
    demands = {}
    posted: dict[str, tuple[float, float]] = {}
    for div in net.diverges:
        s_in = caps[div.in_road][1]
        d_main, d_side = div.alpha * s_in, (1.0 - div.alpha) * s_in
        demands[id(div)] = (s_in, d_main, d_side)
        for endpoint, demand in ((div.out_main, d_main), (div.out_side, d_side)):
            if endpoint not in road_ids:
                posted[endpoint] = (demand, w_last[div.in_road])

    # merges allocate their output capacity across the two ports
    alloc: dict[str, float] = {}
    port_w: dict[str, float] = {}
    for mrg in net.merges:
        port_demand = []
        for port in (mrg.in_main, mrg.in_side):
            if port in posted:
                port_demand.append(posted[port][0])
                port_w[port] = posted[port][1]
            else:
                port_demand.append(caps[port][1])
                port_w[port] = w_last[port]
        a_main, a_side = merge_fluxes(port_demand[0], port_demand[1],
                                      caps[mrg.out_road][0], mrg.beta)
        alloc[mrg.in_main] = a_main
        alloc[mrg.in_side] = a_side

    # diverges throttle both branches by the tightest allocation (FIFO)
    left_flux: dict[str, float] = {}
    left_w: dict[str, Optional[float]] = {}
    right_flux: dict[str, Optional[float]] = {road.road_id: None
                                              for road in net.roads}
    realized: dict[str, float] = {}
    for div in net.diverges:
        s_in, d_main, d_side = demands[id(div)]
        cap_main = alloc.get(div.out_main, caps.get(div.out_main, (np.inf,))[0])
        cap_side = alloc.get(div.out_side, caps.get(div.out_side, (np.inf,))[0])
        q_main, q_side = diverge_fluxes(s_in, cap_main, cap_side, div.alpha)
        right_flux[div.in_road] = q_main + q_side
        for endpoint, q in ((div.out_main, q_main), (div.out_side, q_side)):
            realized[endpoint] = q
            if endpoint in road_ids:
                left_flux[endpoint] = q
                left_w[endpoint] = w_last[div.in_road] if q > 0.0 else None

    for mrg in net.merges:
        q_ports = []
        for port in (mrg.in_main, mrg.in_side):
            q = realized.get(port, alloc[port])
            q_ports.append(q)
            if port in road_ids:
                right_flux[port] = alloc[port]
        total = q_ports[0] + q_ports[1]
        left_flux[mrg.out_road] = total
        if total > 0.0:
            left_w[mrg.out_road] = (q_ports[0] * port_w[mrg.in_main]
                                    + q_ports[1] * port_w[mrg.in_side]) / total
        else:
            left_w[mrg.out_road] = None

    return left_flux, left_w, right_flux


def network_step(net: RoadNetwork, t: float, fleets: Mapping[str, Fleet],
                 dt: float, shape=None,
                 sampling: FluxSamplingConfig = FluxSamplingConfig(),
                 return_report: bool = False):
    """Advance every road by dt with junction/sensor boundary coupling.

    Each road's cell tables are built once, at time t from its current
    state.  Junction and sensor fluxes are resolved against the ends of
    those tables, then each road advances from the same tables: junction
    conservation is exact because the same flux value caps the upstream
    road and feeds the downstream one.  Sensor-driven roads take the sensor
    flux as inflow and re-invert their first cell's w against the sensor
    speed after stepping.
    Returns the new network, or (network, NetworkFlowReport).
    """
    bound = min(max_dt_2(fleets.get(road.road_id), road.diagram, road.grid)
                for road in net.roads)
    if dt > bound * (1.0 + 1e-12):
        raise SimulationError(
            f"time step {dt} exceeds the tightest road bound {bound}")
    tables = {road.road_id: _cell_tables(road.state, road.grid, t, road.diagram,
                                         fleets.get(road.road_id), shape, sampling)
              for road in net.roads}
    caps = {rid: (float(recv[0]), float(send[-1]))
            for rid, (_, _, (_, _, send, recv)) in tables.items()}
    left_flux, left_w, right_flux = _resolve_boundaries(net, caps)
    sensor_speeds: dict[str, float] = {}
    for road_id, series in net.sensors.items():
        q_in, w_ghost = sensor_boundary(series, t, net.road(road_id),
                                        caps[road_id][0])
        left_flux[road_id] = q_in
        left_w[road_id] = w_ghost if q_in > 0.0 else None
        record = series.at_time(t)
        if record is not None:
            sensor_speeds[road_id] = record[1]

    new_states: dict[str, MacroState2] = {}
    inflow: dict[str, float] = {}
    outflow: dict[str, float] = {}
    for road in net.roads:
        rid = road.road_id
        new_state, fluxes = _advance(
            tables[rid], road.grid, dt, road.diagram, left_flux.get(rid, 0.0),
            right_flux[rid], left_w.get(rid))
        if rid in sensor_speeds:
            w_fixed = new_state.w.copy()
            w_fixed[0] = _sensor_w_or_keep(
                float(new_state.rho[0]), sensor_speeds[rid],
                float(w_fixed[0]), road.diagram)
            new_state = MacroState2(rho=new_state.rho, w=w_fixed)
        new_states[rid] = new_state
        inflow[rid] = float(fluxes[0])
        outflow[rid] = float(fluxes[-1])

    new_net = net.with_states(new_states)
    if return_report:
        report = NetworkFlowReport(
            mass_before=net.total_vehicles(),
            mass_after=new_net.total_vehicles(),
            inflow=inflow, outflow=outflow)
        return new_net, report
    return new_net


def warm_start(net: RoadNetwork, sensors: Mapping[str, SensorSeries],
               fleets: Mapping[str, Fleet], duration_h: float = 0.5, *,
               dt_h: float, shape=None,
               sampling: FluxSamplingConfig = FluxSamplingConfig(),
               t0: float = 0.0) -> RoadNetwork:
    """Fill the network from its current (typically empty) state by running
    the coupled step with sensor inflows and free outflow for duration_h."""
    if duration_h <= 0.0:
        raise ConfigError(f"warm-start duration must be > 0, got {duration_h}")
    net = dataclasses.replace(net, sensors=dict(sensors))
    timing = TimeGrid.from_horizon(horizon_h=duration_h, dt_h=dt_h)
    for n in range(timing.n_steps):
        net = network_step(net, t0 + n * dt_h, fleets, dt_h, shape, sampling)
    return net


# ---------------------------------------------------------------------------
# the six-road layout
# ---------------------------------------------------------------------------

#: Default road lengths (km) for the six-road highway layout.
SIX_ROAD_LENGTHS = {"1": 41.0, "2": 36.0, "3": 36.0, "4": 41.0,
                    "5": 36.0, "6": 36.0}


def build_six_road_network(diagram: CgarzDiagram,
                           lengths_km: Optional[Mapping[str, float]] = None,
                           dx_km: float = 0.5,
                           alphas: tuple[float, float, float] = (0.78, 0.78, 0.48),
                           betas: tuple[float, float, float] = (0.2, 0.5, 0.2),
                           w0: Optional[float] = None) -> RoadNetwork:
    """Empty six-road network: roads 1/3/5 enter, 2/4/6 leave.

    Each incoming road splits between a straight-through movement and a side
    movement; each outgoing road merges two movements (straight-through on
    the main port): 1 -> {2, 6}, 3 -> {4, 6}, 5 -> {4, 2}.
    """
    lengths = dict(SIX_ROAD_LENGTHS if lengths_km is None else lengths_km)
    if set(lengths) != set(SIX_ROAD_LENGTHS):
        raise ConfigError(f"six-road layout needs lengths for roads "
                          f"{sorted(SIX_ROAD_LENGTHS)}, got {sorted(lengths)}")
    roads = []
    for road_id in sorted(lengths):
        n_cells = int(round(lengths[road_id] / dx_km))
        if abs(n_cells * dx_km - lengths[road_id]) > 1e-9:
            raise ConfigError(
                f"road {road_id}: dx = {dx_km} does not divide {lengths[road_id]} km")
        if n_cells < 2:
            raise ConfigError(
                f"road {road_id}: lengths_km gives {lengths[road_id]} km, a single "
                f"cell of dx_km = {dx_km}; a second-order road needs at least 2 cells")
        roads.append(Road.empty(road_id, lengths[road_id], n_cells, diagram, w0))
    diverges = (
        DivergeJunction(in_road="1", out_main="1>2", out_side="1>6", alpha=alphas[0]),
        DivergeJunction(in_road="3", out_main="3>4", out_side="3>6", alpha=alphas[1]),
        DivergeJunction(in_road="5", out_main="5>4", out_side="5>2", alpha=alphas[2]),
    )
    merges = (
        MergeJunction(in_main="1>2", in_side="5>2", out_road="2", beta=betas[0]),
        MergeJunction(in_main="3>4", in_side="5>4", out_road="4", beta=betas[1]),
        MergeJunction(in_main="1>6", in_side="3>6", out_road="6", beta=betas[2]),
    )
    return RoadNetwork(roads=tuple(roads), diverges=diverges, merges=merges)
