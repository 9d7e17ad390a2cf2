"""Macroscopic traffic simulation with embedded vehicle trajectories,
NOx emission estimation, and pollutant dispersion."""

from .core import (
    CgarzAtFixedW,
    CgarzDiagram,
    ConfigError,
    CutoffShape,
    GreenshieldsDiagram,
    MacroState1,
    MacroState2,
    SimulationError,
    SpatialGrid,
    TimeGrid,
    cgarz_flux,
    cgarz_speed,
    cutoff,
    cutoff_derivative,
    greenshields_speed,
    invert_speed_in_w,
)
from .emissions import (
    EmissionCoefficients,
    ExpMatrix,
    emission_exp_macro,
    emission_exp_micro,
    emission_max_macro,
    emission_max_micro,
    from_solver_units,
)
from .gsom import (
    AccelerationField,
    acceleration_field,
    boundary_capacities,
    embedded_speed_2,
    max_dt_2,
)
from .gsom import step as gsom_step
from .lagrangian import (
    Fleet,
    FtlConfig,
    FtlState,
    KdeConfig,
    Trajectory,
    generate_synthetic,
    kde_density,
    kde_velocity,
    run_ftl,
    step_ftl,
)
from .diffusion import (
    ConcentrationField,
    Domain2D,
    RoadStrip,
    build_source,
    diffusion_step,
    refine_emissions,
    stable_dt,
)
from .network import (
    DivergeJunction,
    MergeJunction,
    NetworkFlowReport,
    Road,
    RoadNetwork,
    SensorSeries,
    build_six_road_network,
    diverge_fluxes,
    merge_fluxes,
    network_step,
    sensor_boundary,
    warm_start,
)
from .lwr import (
    EmbeddingMode,
    FluxSamplingConfig,
    ctm_step,
    embedded_speed,
    max_dt,
)
from .dataio import (
    QUANTITIES,
    FieldDump,
    file_sha256,
    load_sensors,
    load_trajectories,
    manifest_content_hash,
    read_field_dump,
    write_fields,
    write_manifest,
    write_sensors,
    write_trajectories,
)
from .scenario import (
    DiagramConfig,
    DiffusionConfig,
    InitialConfig,
    NetworkConfig,
    ScenarioConfig,
    StripConfig,
    TrajectoryGenConfig,
    config_from_mapping,
    config_hash,
    generate_fleet,
    generate_trajectories,
    load_config,
    load_generation_config,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
