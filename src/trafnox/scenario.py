"""Scenario configuration and the end-to-end simulation pipeline.

A scenario file selects a model (first-order single road, second-order
single road, or the six-road network), a data-embedding mode, a fundamental
diagram, grids and horizon, and optional trajectory/sensor inputs, emission
evaluation, and pollutant dispersion.  ``run_scenario`` executes the whole
pipeline deterministically and writes one delimited-text dump per recorded
quantity plus a ``manifest.json`` describing exactly what was produced.

Configs are plain YAML mappings mirroring the dataclasses below; relative
paths inside a file are resolved against the file's directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

import numpy as np
import yaml

from .core import (CgarzDiagram, ConfigError, CutoffShape, GreenshieldsDiagram,
                   MacroState1, MacroState2, SpatialGrid, TimeGrid,
                   invert_speed_in_w)
from .dataio import (FieldDump, file_sha256, load_trajectories, load_sensors,
                     write_fields, write_manifest, write_trajectories)
from .diffusion import (ConcentrationField, Domain2D, RoadStrip, build_source,
                        diffusion_step, refine_emissions)
from .emissions import (EmissionCoefficients, ExpMatrix, emission_exp_macro,
                        emission_max_macro, from_solver_units,
                        load_coefficients)
from .gsom import acceleration_field, max_dt_2
# Not called here: bound because perfbench/tracing.py wraps this name.
from .gsom import embedded_speed_2  # noqa: F401
from .gsom import step as gsom_step
from .lagrangian import (Fleet, FtlConfig, FtlState, KdeConfig,
                         generate_synthetic, kde_density, kde_velocity,
                         run_ftl)
from .lwr import (EmbeddingMode, FluxSamplingConfig, ctm_step, embedded_speed,
                  max_dt)
from .network import build_six_road_network, network_step, warm_start

logger = logging.getLogger(__name__)

PathLike = Union[str, Path]

MODELS = ("lwr", "gsom", "network")
EMBEDDINGS = {"none": EmbeddingMode.NONE,
              "cv": EmbeddingMode.CLOSEST_VEHICLE,
              "acv": EmbeddingMode.AVERAGE_CLOSEST_VEHICLES}
EMISSION_FORMULAS = ("max", "exp")


# ---------------------------------------------------------------------------
# configuration blocks


@dataclass(frozen=True)
class DiagramConfig:
    """Fundamental-diagram family and parameters (densities veh/km, km/h)."""

    kind: str = "greenshields"
    rho_max: float = 120.0
    v_max: float = 90.0
    rho_f: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("greenshields", "cgarz"):
            raise ConfigError(
                f"diagram.kind must be 'greenshields' or 'cgarz', got {self.kind!r}"
            )
        if self.kind == "cgarz" and self.rho_f is None:
            raise ConfigError("diagram.rho_f is required for the cgarz family")

    def build(self):
        if self.kind == "greenshields":
            return GreenshieldsDiagram(rho_max=self.rho_max, u_max=self.v_max)
        return CgarzDiagram.from_densities(self.rho_max, self.rho_f, self.v_max)


@dataclass(frozen=True)
class InitialConfig:
    """Initial density profile (and driver attribute for second-order runs).

    kind "constant" fills every cell with ``rho``; "riemann" puts ``rho_left``
    below ``x_jump_km`` and ``rho_right`` above; "kde" estimates the profile
    from the trajectory data at the start time.  ``w0`` (veh/h) seeds the
    second-order attribute everywhere; the family midpoint when omitted.
    """

    kind: str = "constant"
    rho: float = 0.0
    rho_left: Optional[float] = None
    rho_right: Optional[float] = None
    x_jump_km: Optional[float] = None
    w0: Optional[float] = None
    kde_bandwidth_km: float = 0.1
    kde_normalization: str = "standard"

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "riemann", "kde"):
            raise ConfigError(
                f"initial.kind must be constant, riemann or kde, got {self.kind!r}"
            )
        if self.kind == "riemann":
            missing = [name for name in ("rho_left", "rho_right", "x_jump_km")
                       if getattr(self, name) is None]
            if missing:
                raise ConfigError(
                    "initial profile 'riemann' requires " + ", ".join(missing)
                )


@dataclass(frozen=True)
class StripConfig:
    """One road's footprint inside the dispersion domain.

    ``x_km``/``y_km`` are the strip's rectangle in domain coordinates; the
    strip must be exactly one transverse cell high.  ``road_span_km`` is the
    window on the road's own axis that feeds the strip (the whole strip
    length starting at 0 when omitted); it must have the same length as the
    strip and align with the traffic grid.
    """

    road_id: str
    x_km: tuple[float, float]
    y_km: tuple[float, float]
    road_span_km: Optional[tuple[float, float]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_km", _pair(self.x_km, "strip x_km"))
        object.__setattr__(self, "y_km", _pair(self.y_km, "strip y_km"))
        if self.road_span_km is not None:
            object.__setattr__(self, "road_span_km",
                               _pair(self.road_span_km, "strip road_span_km"))

    def strip(self) -> RoadStrip:
        return RoadStrip(road_id=self.road_id, x_km=self.x_km, y_km=self.y_km)

    def span(self) -> tuple[float, float]:
        if self.road_span_km is not None:
            return self.road_span_km
        return (0.0, self.x_km[1] - self.x_km[0])


@dataclass(frozen=True)
class DiffusionConfig:
    """Pollutant-dispersion block: domain geometry, diffusivity, road strips."""

    mu_km2_per_h: float = 1e-8
    half_length_x_km: float = 15.0
    half_length_y_km: float = 5.0
    dx_km: float = 0.01
    dy_km: float = 0.01
    mixing_height_km: Optional[float] = None
    strips: tuple[StripConfig, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "strips", tuple(self.strips))
        if not self.strips:
            raise ConfigError("diffusion.strips must name at least one road")

    def domain(self) -> Domain2D:
        return Domain2D(half_length_x_km=self.half_length_x_km,
                        half_length_y_km=self.half_length_y_km,
                        dx_km=self.dx_km, dy_km=self.dy_km,
                        strips=tuple(s.strip() for s in self.strips))


@dataclass(frozen=True)
class NetworkConfig:
    """Six-road topology parameters; lengths default to the reference network."""

    dx_km: float = 0.5
    alphas: tuple[float, float, float] = (0.78, 0.78, 0.48)
    betas: tuple[float, float, float] = (0.2, 0.5, 0.2)
    lengths_km: Optional[Mapping[str, float]] = None
    warm_start_h: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphas", _triple(self.alphas, "network.alphas"))
        object.__setattr__(self, "betas", _triple(self.betas, "network.betas"))
        if self.lengths_km is not None:
            object.__setattr__(self, "lengths_km",
                               {str(k): float(v)
                                for k, v in dict(self.lengths_km).items()})
        if self.warm_start_h <= 0:
            raise ConfigError(
                f"network.warm_start_h must be > 0, got {self.warm_start_h}"
            )


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one simulation run needs, validated up front."""

    model: str = "lwr"
    embedding: str = "none"
    diagram: DiagramConfig = field(default_factory=DiagramConfig)
    initial: InitialConfig = field(default_factory=InitialConfig)
    road_a_km: float = 0.0
    road_b_km: float = 10.0
    n_cells: int = 100
    horizon_h: float = 0.25
    dt_h: Optional[float] = None
    cfl_safety: float = 0.5
    n_flux_samples: int = 256
    cutoff_ell_km: float = 0.1
    cutoff_big_l_km: float = 0.5
    trajectories_path: Optional[str] = None
    road_id: str = "0"
    embed_subsample: int = 1
    sensors_path: Optional[str] = None
    left_flux_veh_h: float = 0.0
    emission_formula: Optional[str] = None
    emission_coeffs_path: Optional[str] = None
    diffusion: Optional[DiffusionConfig] = None
    network: NetworkConfig = field(default_factory=NetworkConfig)
    out_dir: str = "out"
    seed: int = 0
    record_every: int = 1

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.embedding not in EMBEDDINGS:
            raise ConfigError(
                f"embedding must be one of {tuple(EMBEDDINGS)}, got {self.embedding!r}"
            )
        if self.model != "lwr" and self.embedding == "acv":
            raise ConfigError(
                "embedding 'acv' is only defined for model 'lwr'; the "
                "second-order embedding blends with the closest vehicle only"
            )
        if self.model == "lwr" and self.diagram.kind != "greenshields":
            raise ConfigError(
                "model 'lwr' needs a single-parameter diagram (greenshields)"
            )
        if self.model != "lwr" and self.diagram.kind != "cgarz":
            raise ConfigError(
                f"model {self.model!r} needs the two-parameter cgarz diagram"
            )
        if self.road_b_km <= self.road_a_km:
            raise ConfigError(
                f"road_b_km must exceed road_a_km, got "
                f"[{self.road_a_km}, {self.road_b_km}]"
            )
        if self.n_cells < 1:
            raise ConfigError(f"n_cells must be >= 1, got {self.n_cells}")
        if self.horizon_h <= 0:
            raise ConfigError(f"horizon_h must be > 0, got {self.horizon_h}")
        if self.dt_h is not None and self.dt_h <= 0:
            raise ConfigError(f"dt_h must be > 0 when given, got {self.dt_h}")
        if not 0 < self.cfl_safety <= 1:
            raise ConfigError(
                f"cfl_safety must lie in (0, 1], got {self.cfl_safety}"
            )
        if self.embed_subsample < 1:
            raise ConfigError(
                f"embed_subsample must be >= 1, got {self.embed_subsample}"
            )
        if self.record_every < 1:
            raise ConfigError(
                f"record_every must be >= 1, got {self.record_every}"
            )
        if self.embedding != "none" and self.trajectories_path is None:
            raise ConfigError(
                "trajectories_path is required when embedding is enabled"
            )
        if self.initial.kind == "kde" and self.trajectories_path is None:
            raise ConfigError(
                "trajectories_path is required for a kde initial profile"
            )
        if self.model == "network":
            if self.sensors_path is None:
                raise ConfigError(
                    "sensors_path is required for the network model "
                    "(incoming roads are sensor-driven)"
                )
            if self.initial.kind != "constant" or self.initial.rho != 0.0:
                raise ConfigError(
                    "network scenarios start empty and fill during the warm "
                    "start; set initial kind 'constant' with rho 0"
                )
        if (self.emission_formula is not None
                and self.emission_formula not in EMISSION_FORMULAS):
            raise ConfigError(
                f"emission_formula must be one of {EMISSION_FORMULAS}, "
                f"got {self.emission_formula!r}"
            )
        if self.emission_formula is not None and self.model == "lwr":
            raise ConfigError(
                "emission evaluation needs the acceleration field of a "
                "second-order model; use model 'gsom' or 'network'"
            )
        if (self.emission_coeffs_path is not None
                and self.emission_formula != "max"):
            raise ConfigError(
                "emission_coeffs_path applies to the two-regime formula only "
                "(emission_formula 'max')"
            )
        if self.diffusion is not None and self.emission_formula is None:
            raise ConfigError(
                "the diffusion block needs emission_formula to produce its "
                "source term"
            )
        for name in ("trajectories_path", "sensors_path",
                     "emission_coeffs_path"):
            value = getattr(self, name)
            if value is not None and not Path(value).is_file():
                raise ConfigError(f"{name}: no such file: {value}")

    def sampling(self) -> FluxSamplingConfig:
        return FluxSamplingConfig(n_rho_samples=self.n_flux_samples)

    def cutoff_shape(self) -> CutoffShape:
        return CutoffShape(ell=self.cutoff_ell_km, big_l=self.cutoff_big_l_km)


# ---------------------------------------------------------------------------
# YAML parsing


def _pair(value: Any, what: str) -> tuple[float, float]:
    seq = tuple(value) if isinstance(value, (list, tuple)) else None
    if seq is None or len(seq) != 2:
        raise ConfigError(f"{what} must be a pair [lo, hi], got {value!r}")
    return (float(seq[0]), float(seq[1]))


def _triple(value: Any, what: str) -> tuple[float, float, float]:
    seq = tuple(value) if isinstance(value, (list, tuple)) else None
    if seq is None or len(seq) != 3:
        raise ConfigError(f"{what} must hold three numbers, got {value!r}")
    return (float(seq[0]), float(seq[1]), float(seq[2]))


def _checked_mapping(raw: Any, cls, where: str) -> dict:
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{where} must be a mapping, got {type(raw).__name__}")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown field(s): {', '.join(unknown)}")
    return dict(raw)


def _resolve(path: Optional[str], base_dir: Optional[Path]) -> Optional[str]:
    if path is None or base_dir is None:
        return path
    candidate = Path(path)
    return str(candidate if candidate.is_absolute() else base_dir / candidate)


def _strip_from(raw: Any, where: str) -> StripConfig:
    data = _checked_mapping(raw, StripConfig, where)
    if "road_id" not in data or "x_km" not in data or "y_km" not in data:
        raise ConfigError(f"{where} needs road_id, x_km and y_km")
    return StripConfig(
        road_id=str(data["road_id"]),
        x_km=_pair(data["x_km"], f"{where}.x_km"),
        y_km=_pair(data["y_km"], f"{where}.y_km"),
        road_span_km=(None if data.get("road_span_km") is None
                      else _pair(data["road_span_km"], f"{where}.road_span_km")),
    )


def _diffusion_from(raw: Any) -> DiffusionConfig:
    data = _checked_mapping(raw, DiffusionConfig, "diffusion")
    strips_raw = data.pop("strips", [])
    if not isinstance(strips_raw, Sequence) or isinstance(strips_raw, str):
        raise ConfigError("diffusion.strips must be a list of strip mappings")
    strips = tuple(_strip_from(s, f"diffusion.strips[{i}]")
                   for i, s in enumerate(strips_raw))
    return DiffusionConfig(strips=strips, **data)


def config_from_mapping(raw: Mapping,
                        base_dir: Optional[PathLike] = None) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a plain (YAML-shaped) mapping."""
    base = None if base_dir is None else Path(base_dir)
    data = _checked_mapping(raw, ScenarioConfig, "scenario")
    if "diagram" in data:
        data["diagram"] = DiagramConfig(
            **_checked_mapping(data["diagram"], DiagramConfig, "diagram"))
    if "initial" in data:
        data["initial"] = InitialConfig(
            **_checked_mapping(data["initial"], InitialConfig, "initial"))
    if "network" in data:
        data["network"] = NetworkConfig(
            **_checked_mapping(data["network"], NetworkConfig, "network"))
    if data.get("diffusion") is not None:
        data["diffusion"] = _diffusion_from(data["diffusion"])
    for name in ("trajectories_path", "sensors_path", "emission_coeffs_path",
                 "out_dir"):
        if data.get(name) is not None:
            data[name] = _resolve(str(data[name]), base)
    if "road_id" in data:
        data["road_id"] = str(data["road_id"])
    return ScenarioConfig(**data)


def _load_yaml_mapping(path: Path, what: str) -> Mapping:
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{path}: a {what} must be a mapping")
    return raw


def load_config(path: PathLike) -> ScenarioConfig:
    """Parse a YAML scenario file; relative paths resolve against its folder."""
    p = Path(path)
    raw = _load_yaml_mapping(p, "scenario config")
    return config_from_mapping(raw, base_dir=p.parent)


def config_hash(config: ScenarioConfig) -> str:
    """SHA-256 over the canonical JSON form of the config."""
    blob = json.dumps(dataclasses.asdict(config), sort_keys=True,
                      separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# initial states


def _profile_rho(init: InitialConfig, grid: SpatialGrid,
                 rho_max: float) -> np.ndarray:
    if init.kind == "constant":
        if not 0.0 <= init.rho <= rho_max:
            raise ConfigError(
                f"initial.rho must lie in [0, {rho_max}], got {init.rho}"
            )
        return np.full(grid.n_cells, float(init.rho))
    for name in ("rho_left", "rho_right"):
        value = getattr(init, name)
        if not 0.0 <= value <= rho_max:
            raise ConfigError(
                f"initial.{name} must lie in [0, {rho_max}], got {value}"
            )
    return np.where(grid.centers() < init.x_jump_km,
                    float(init.rho_left), float(init.rho_right))


def _kde_rho(init: InitialConfig, grid: SpatialGrid, rho_max: float,
             fleet: Fleet, t0: float) -> np.ndarray:
    kcfg = KdeConfig(bandwidth_km=init.kde_bandwidth_km,
                     normalization=init.kde_normalization)
    return np.clip(kde_density(fleet, t0, kcfg, grid), 0.0, rho_max)


def _initial_state_1(cfg: ScenarioConfig, grid: SpatialGrid, law,
                     data_fleet: Optional[Fleet]) -> MacroState1:
    if cfg.initial.kind == "kde":
        return MacroState1(rho=_kde_rho(cfg.initial, grid, law.rho_max,
                                        data_fleet, 0.0))
    return MacroState1(rho=_profile_rho(cfg.initial, grid, law.rho_max))


def _initial_state_2(cfg: ScenarioConfig, grid: SpatialGrid,
                     diag: CgarzDiagram,
                     data_fleet: Optional[Fleet]) -> MacroState2:
    w_fill = (0.5 * (diag.w_left + diag.w_right)
              if cfg.initial.w0 is None else float(cfg.initial.w0))
    if not diag.w_left <= w_fill <= diag.w_right:
        raise ConfigError(
            f"initial.w0 must lie in [{diag.w_left}, {diag.w_right}], "
            f"got {w_fill}"
        )
    if cfg.initial.kind != "kde":
        rho = _profile_rho(cfg.initial, grid, diag.rho_max)
        return MacroState2(rho=rho, w=np.full(grid.n_cells, w_fill))
    rho = _kde_rho(cfg.initial, grid, diag.rho_max, data_fleet, 0.0)
    kcfg = KdeConfig(bandwidth_km=cfg.initial.kde_bandwidth_km,
                     normalization=cfg.initial.kde_normalization)
    v = kde_velocity(data_fleet, 0.0, kcfg, grid)
    w = np.array([invert_speed_in_w(float(r), float(s), diag)
                  for r, s in zip(rho, v)])
    return MacroState2(rho=rho, w=w)


# ---------------------------------------------------------------------------
# emission helper


def _emission_evaluator(cfg: ScenarioConfig):
    """Row function (rho, v_kmh, a_kmh2, dx_km) -> g/s per cell, or None."""
    if cfg.emission_formula is None:
        return None
    if cfg.emission_formula == "max":
        coeffs = (EmissionCoefficients() if cfg.emission_coeffs_path is None
                  else load_coefficients(cfg.emission_coeffs_path))

        def row(rho, v_kmh, a_kmh2, dx_km):
            v_si, a_si = from_solver_units(v_kmh, a_kmh2)
            return emission_max_macro(rho, v_si, a_si, dx_km, coeffs)
    else:
        matrix = ExpMatrix()

        def row(rho, v_kmh, a_kmh2, dx_km):
            v_si, a_si = from_solver_units(v_kmh, a_kmh2)
            return emission_exp_macro(rho, v_si, a_si, dx_km, matrix)
    return row


# ---------------------------------------------------------------------------
# dispersion driver


class _DispersionRun:
    """Steps the concentration field alongside the traffic solver.

    Resolves each configured strip to a window of traffic cells on its road,
    refines the per-cell emission rates onto the fine grid, and applies one
    explicit diffusion step per traffic step.
    """

    def __init__(self, dcfg: DiffusionConfig,
                 road_geometry: Mapping[str, tuple[float, int]]) -> None:
        self.config = dcfg
        self.domain = dcfg.domain()
        self.windows: dict[str, tuple[int, int, float]] = {}
        for scfg in dcfg.strips:
            rid = scfg.road_id
            if rid not in road_geometry:
                raise ConfigError(
                    f"diffusion strip references unknown road {rid!r}"
                )
            dx_traffic, n_cells = road_geometry[rid]
            lo, hi = scfg.span()
            strip_len = scfg.x_km[1] - scfg.x_km[0]
            if abs((hi - lo) - strip_len) > 1e-9 * max(strip_len, 1.0):
                raise ConfigError(
                    f"road {rid!r}: road_span_km covers {hi - lo} km but the "
                    f"strip is {strip_len} km long"
                )
            j0 = lo / dx_traffic
            j1 = hi / dx_traffic
            if (abs(j0 - round(j0)) > 1e-6 or abs(j1 - round(j1)) > 1e-6):
                raise ConfigError(
                    f"road {rid!r}: road_span_km [{lo}, {hi}] does not align "
                    f"with the traffic grid spacing {dx_traffic}"
                )
            j0, j1 = int(round(j0)), int(round(j1))
            if j0 < 0 or j1 > n_cells or j0 >= j1:
                raise ConfigError(
                    f"road {rid!r}: road_span_km [{lo}, {hi}] falls outside "
                    f"the road's {n_cells} cells"
                )
            self.windows[rid] = (j0, j1, dx_traffic)
        self.field = ConcentrationField.zero(self.domain)
        self.rows: list[np.ndarray] = []

    def step(self, emissions: Mapping[str, np.ndarray], dt_h: float) -> None:
        fine = {}
        for rid, (j0, j1, dx_traffic) in self.windows.items():
            fine[rid] = refine_emissions(emissions[rid][j0:j1], dx_traffic,
                                         self.domain.dx_km)
        source = build_source(fine, self.domain,
                              mixing_height_km=self.config.mixing_height_km)
        self.field = diffusion_step(self.field, source,
                                    self.config.mu_km2_per_h, dt_h)

    def record(self) -> None:
        self.rows.append(self.field.psi.ravel().copy())

    def dump(self, dt_rows_h: float) -> FieldDump:
        dom = self.domain
        return FieldDump(
            quantity="psi", a_km=-dom.half_length_x_km,
            b_km=dom.half_length_x_km, dx_km=dom.dx_km, dt_h=dt_rows_h,
            rows=np.array(self.rows),
            extra={"n_y": float(dom.n_y), "dy_km": dom.dy_km,
                   "half_length_y_km": dom.half_length_y_km},
        )


# ---------------------------------------------------------------------------
# pipelines


def _data_fleet(cfg: ScenarioConfig,
                fleets: Mapping[str, Fleet]) -> Optional[Fleet]:
    """The (subsampled) fleet bound to the single-road scenario, if any."""
    if cfg.trajectories_path is None:
        return None
    if cfg.road_id not in fleets:
        raise ConfigError(
            f"road_id {cfg.road_id!r} not present in the trajectory file "
            f"(roads: {sorted(fleets)})"
        )
    return fleets[cfg.road_id].subsample(cfg.embed_subsample)


def _run_lwr(cfg: ScenarioConfig, fleets: Mapping[str, Fleet]):
    law = cfg.diagram.build()
    grid = SpatialGrid(a_km=cfg.road_a_km, b_km=cfg.road_b_km,
                       n_cells=cfg.n_cells)
    data_fleet = _data_fleet(cfg, fleets)
    mode = EMBEDDINGS[cfg.embedding]
    embed_fleet = data_fleet if mode is not EmbeddingMode.NONE else None
    shape = cfg.cutoff_shape()
    sampling = cfg.sampling()

    bound = max_dt(embed_fleet, law, grid)
    dt = cfg.dt_h if cfg.dt_h is not None else cfg.cfl_safety * bound
    timing = TimeGrid.from_horizon(horizon_h=cfg.horizon_h, dt_h=dt)
    state = _initial_state_1(cfg, grid, law, data_fleet)

    centers = grid.centers()
    rows_rho, rows_speed = [], []
    for n in range(timing.n_steps):
        state = ctm_step(state, grid, n * dt, dt, law, embed_fleet, shape,
                         mode, sampling, cfg.left_flux_veh_h, None)
        if (n + 1) % cfg.record_every == 0:
            t_next = (n + 1) * dt
            rows_rho.append(state.rho)
            rows_speed.append(np.asarray(embedded_speed(
                centers, t_next, state.rho, embed_fleet, law, shape, mode)))

    dt_rows = cfg.record_every * dt
    dumps = {
        "rho": _road_dump("rho", grid, dt_rows, rows_rho),
        "speed": _road_dump("speed", grid, dt_rows, rows_speed),
    }
    meta = {"dt_h": dt, "cfl_bound_h": bound, "n_steps": timing.n_steps}
    return dumps, meta


def _road_dump(quantity: str, grid: SpatialGrid, dt_rows_h: float,
               rows: list) -> FieldDump:
    return FieldDump(quantity=quantity, a_km=grid.a_km, b_km=grid.b_km,
                     dx_km=grid.dx_km, dt_h=dt_rows_h, rows=np.array(rows))


def _observe_road(state: MacroState2, grid: SpatialGrid, t: float,
                  diag: CgarzDiagram, fleet: Optional[Fleet],
                  shape: CutoffShape, emission_row) -> dict[str, np.ndarray]:
    """A second-order road's recorded fields at t: rho, w, speed, accel and,
    with an emission formula, emission."""
    observed = acceleration_field(state, grid, t, diag, fleet, shape)
    speed, accel = observed.speed_kmh, observed.a_kmh2
    fields = {"rho": state.rho, "w": state.w, "speed": speed, "accel": accel}
    if emission_row is not None:
        fields["emission"] = emission_row(state.rho, speed, accel, grid.dx_km)
    return fields


def _record_roads(cfg: ScenarioConfig, diag: CgarzDiagram,
                  grids: Mapping[str, SpatialGrid],
                  states: Mapping[str, MacroState2], advance,
                  fleets: Mapping[str, Optional[Fleet]], shape: CutoffShape,
                  t0: float, dt: float, n_steps: int,
                  suffixed: bool) -> dict[str, FieldDump]:
    """The second-order step -> observe -> disperse -> record loop.

    ``advance(t, states)`` returns every road's state one step of dt after
    t.  Each step feeds the roads' emissions to the dispersion run, and
    every record_every-th step appends the observed fields; dump keys are
    ``<quantity>.<road>`` when ``suffixed``, else ``<quantity>``.
    """
    emission_row = _emission_evaluator(cfg)
    dispersion = None
    if cfg.diffusion is not None:
        dispersion = _DispersionRun(
            cfg.diffusion,
            {rid: (grid.dx_km, grid.n_cells) for rid, grid in grids.items()})
    quantities = ["rho", "w", "speed", "accel"]
    if emission_row is not None:
        quantities.append("emission")
    rows = {rid: {q: [] for q in quantities} for rid in grids}
    for n in range(n_steps):
        states = advance(t0 + n * dt, states)
        t_next = t0 + (n + 1) * dt
        recording = (n + 1) % cfg.record_every == 0
        if not recording and dispersion is None:
            continue
        emissions: dict[str, np.ndarray] = {}
        for rid, grid in grids.items():
            fields = _observe_road(states[rid], grid, t_next, diag,
                                   fleets.get(rid), shape, emission_row)
            emissions[rid] = fields.get("emission")
            if recording:
                for name, row in fields.items():
                    rows[rid][name].append(row)
        if dispersion is not None:
            dispersion.step(emissions, dt)
            if recording:
                dispersion.record()

    dt_rows = cfg.record_every * dt
    dumps = {f"{q}.{rid}" if suffixed else q:
             _road_dump(q, grids[rid], dt_rows, data)
             for rid, by_quantity in rows.items()
             for q, data in by_quantity.items()}
    if dispersion is not None:
        dumps["psi"] = dispersion.dump(dt_rows)
    return dumps


def _run_gsom(cfg: ScenarioConfig, fleets: Mapping[str, Fleet]):
    diag = cfg.diagram.build()
    grid = SpatialGrid(a_km=cfg.road_a_km, b_km=cfg.road_b_km,
                       n_cells=cfg.n_cells)
    data_fleet = _data_fleet(cfg, fleets)
    embed_fleet = data_fleet if cfg.embedding == "cv" else None
    shape = cfg.cutoff_shape()
    sampling = cfg.sampling()

    bound = max_dt_2(embed_fleet, diag, grid)
    dt = cfg.dt_h if cfg.dt_h is not None else cfg.cfl_safety * bound
    timing = TimeGrid.from_horizon(horizon_h=cfg.horizon_h, dt_h=dt)
    rid = cfg.road_id

    def advance(t, states):
        return {rid: gsom_step(states[rid], grid, t, dt, diag, embed_fleet,
                               shape, sampling, cfg.left_flux_veh_h, None)}

    dumps = _record_roads(
        cfg, diag, {rid: grid},
        {rid: _initial_state_2(cfg, grid, diag, data_fleet)}, advance,
        {rid: embed_fleet}, shape, 0.0, dt, timing.n_steps, suffixed=False)
    meta = {"dt_h": dt, "cfl_bound_h": bound, "n_steps": timing.n_steps}
    return dumps, meta


def _run_network(cfg: ScenarioConfig, fleets: Mapping[str, Fleet],
                 sensors: Mapping) -> tuple[dict, dict]:
    diag = cfg.diagram.build()
    ncfg = cfg.network
    net = build_six_road_network(diag, lengths_km=ncfg.lengths_km,
                                 dx_km=ncfg.dx_km, alphas=ncfg.alphas,
                                 betas=ncfg.betas, w0=cfg.initial.w0)
    shape = cfg.cutoff_shape()
    sampling = cfg.sampling()
    embed_fleets = ({rid: fleet.subsample(cfg.embed_subsample)
                     for rid, fleet in fleets.items()}
                    if cfg.embedding == "cv" else {})

    bound = min(max_dt_2(embed_fleets.get(road.road_id), road.diagram,
                         road.grid) for road in net.roads)
    dt = cfg.dt_h if cfg.dt_h is not None else cfg.cfl_safety * bound
    net = warm_start(net, sensors, embed_fleets, ncfg.warm_start_h,
                     dt_h=dt, shape=shape, sampling=sampling, t0=0.0)
    timing = TimeGrid.from_horizon(horizon_h=cfg.horizon_h, dt_h=dt)

    def advance(t, states):
        stepped = network_step(net.with_states(states), t, embed_fleets, dt,
                               shape, sampling)
        return {road.road_id: road.state for road in stepped.roads}

    dumps = _record_roads(
        cfg, diag, {road.road_id: road.grid for road in net.roads},
        {road.road_id: road.state for road in net.roads}, advance,
        embed_fleets, shape, ncfg.warm_start_h, dt, timing.n_steps,
        suffixed=True)
    meta = {"dt_h": dt, "cfl_bound_h": bound, "n_steps": timing.n_steps,
            "warm_start_h": ncfg.warm_start_h}
    return dumps, meta


def run_scenario(config: ScenarioConfig,
                 out_dir: Optional[PathLike] = None,
                 seed: Optional[int] = None,
                 record_every: Optional[int] = None) -> dict:
    """Execute a scenario and write its dumps and manifest.

    Returns the manifest as a dict ({"content": ..., "runtime": ...}); the
    content section is deterministic for a given config and seed, the runtime
    section carries wall-clock timing.
    """
    overrides = {}
    if out_dir is not None:
        overrides["out_dir"] = str(out_dir)
    if seed is not None:
        overrides["seed"] = int(seed)
    if record_every is not None:
        overrides["record_every"] = int(record_every)
    cfg = dataclasses.replace(config, **overrides) if overrides else config

    started = time.perf_counter()
    fleets = (load_trajectories(cfg.trajectories_path)
              if cfg.trajectories_path is not None else {})
    if cfg.model == "network":
        sensors = load_sensors(cfg.sensors_path)
        dumps, meta = _run_network(cfg, fleets, sensors)
    elif cfg.model == "gsom":
        dumps, meta = _run_gsom(cfg, fleets)
    else:
        dumps, meta = _run_lwr(cfg, fleets)

    out = Path(cfg.out_dir)
    paths = write_fields(dumps, out)
    files = {key: {"file": path.name, "sha256": file_sha256(path),
                   "rows": int(dumps[key].rows.shape[0])}
             for key, path in sorted(paths.items())}
    content = {"config_hash": config_hash(cfg), "model": cfg.model,
               "embedding": cfg.embedding, "seed": cfg.seed,
               "record_every": cfg.record_every, **meta, "files": files}
    runtime = {"wall_clock_s": time.perf_counter() - started}
    write_manifest(out, content, runtime)
    return {"content": content, "runtime": runtime}


# ---------------------------------------------------------------------------
# trajectory generation (CLI `generate-trajectories`)


@dataclass(frozen=True)
class TrajectoryGenConfig:
    """Synthetic-fleet generation: oscillatory family or follow-the-leader.

    kind "synthetic" produces the oscillatory trajectories
    x_i(t) = c v_max (t - (T/k_i pi) cos(k_i pi t / T) + T/(k_i pi)) + x_0i;
    kind "ftl" integrates a follow-the-leader platoon.  The result is written
    as a trajectory CSV bound to ``road_id``.
    """

    kind: str = "synthetic"
    road_id: str = "0"
    out_file: str = "trajectories.csv"
    n_vehicles: int = 41
    horizon_h: float = 1.0 / 3.0
    sample_dt_h: float = 1.0 / 3600.0
    c: float = 0.3
    v_max_kmh: float = 90.0
    start_km: float = 0.0
    spacing_km: float = 0.05
    initial_speed_kmh: float = 60.0
    leader_speed_kmh: float = 60.0
    accel_gain: float = 40.0
    preferred_gap_km: float = 0.05
    relaxation_time_h: float = 0.005
    dt_h: float = 1.0 / 3600.0

    def __post_init__(self) -> None:
        if self.kind not in ("synthetic", "ftl"):
            raise ConfigError(
                f"kind must be 'synthetic' or 'ftl', got {self.kind!r}"
            )
        if self.n_vehicles < 1:
            raise ConfigError(f"n_vehicles must be >= 1, got {self.n_vehicles}")
        if self.horizon_h <= 0 or self.sample_dt_h <= 0 or self.dt_h <= 0:
            raise ConfigError("horizon_h, sample_dt_h and dt_h must be > 0")


def load_generation_config(path: PathLike) -> TrajectoryGenConfig:
    p = Path(path)
    raw = _load_yaml_mapping(p, "generation config")
    data = _checked_mapping(raw, TrajectoryGenConfig, "generation config")
    if "road_id" in data:
        data["road_id"] = str(data["road_id"])
    cfg = TrajectoryGenConfig(**data)
    out = Path(cfg.out_file)
    if not out.is_absolute():
        cfg = dataclasses.replace(cfg, out_file=str(p.parent / out))
    return cfg


def generate_fleet(cfg: TrajectoryGenConfig) -> Fleet:
    """Build the configured synthetic fleet (deterministic)."""
    if cfg.kind == "synthetic":
        return generate_synthetic(cfg.n_vehicles, cfg.c, cfg.horizon_h,
                                  cfg.v_max_kmh, sample_dt_h=cfg.sample_dt_h)
    initial = FtlState(
        positions_km=cfg.start_km + cfg.spacing_km * np.arange(cfg.n_vehicles),
        speeds_kmh=np.full(cfg.n_vehicles, cfg.initial_speed_kmh),
    )
    ftl = FtlConfig(n_vehicles=cfg.n_vehicles,
                    accel_gain=cfg.accel_gain,
                    preferred_gap_km=cfg.preferred_gap_km,
                    leader_speed_kmh=cfg.leader_speed_kmh,
                    relaxation_time_h=cfg.relaxation_time_h)
    n_steps = TimeGrid.from_horizon(horizon_h=cfg.horizon_h,
                                    dt_h=cfg.dt_h).n_steps
    record = max(1, round(cfg.sample_dt_h / cfg.dt_h))
    return run_ftl(initial, ftl, cfg.dt_h, n_steps, record_every=record)


def generate_trajectories(cfg: TrajectoryGenConfig,
                          out_file: Optional[PathLike] = None) -> Path:
    """Generate the configured fleet and write it as a trajectory CSV."""
    target = Path(out_file) if out_file is not None else Path(cfg.out_file)
    fleet = generate_fleet(cfg)
    write_trajectories(target, {cfg.road_id: fleet})
    return target
