"""Command-line driver.

Subcommands:
  simulate                run a scenario config end to end
  generate-trajectories   write a synthetic or follow-the-leader fleet CSV
  emissions               post-process dumped fields into emission dumps
  diffuse                 run pollutant dispersion on dumped emissions
  validate                check a config and the files it references

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import ConfigError, SimulationError
from .dataio import (FieldDump, file_sha256, load_sensors, load_trajectories,
                     read_field_dump, write_fields, write_manifest)
from .diffusion import stable_dt
from .emissions import load_coefficients
from .scenario import (ScenarioConfig, _data_fleet, _DispersionRun,
                       _emission_evaluator, _require_vehicle_at_start,
                       _six_road_network,
                       generate_trajectories, load_config,
                       load_generation_config, run_scenario)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trafnox",
        description="macroscopic traffic simulation with embedded vehicle "
                    "data, emission estimation, and pollutant dispersion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, out_required: bool = False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--out", required=out_required,
                       help="output directory (overrides the config)")
        return p

    add("simulate", "run a scenario config end to end").add_argument(
        "--record-every", type=int, default=None, dest="record_every",
        help="record every k-th step (overrides the config)")
    add("generate-trajectories", "write a synthetic fleet as a trajectory CSV")
    add("emissions", "compute emission dumps from recorded fields",
        out_required=True)
    add("diffuse", "run dispersion on recorded emission dumps",
        out_required=True)
    add("validate", "check a config and the files it references")
    return parser


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_simulate(args) -> None:
    cfg = load_config(args.config)
    manifest = run_scenario(cfg, out_dir=args.out,
                            record_every=args.record_every)
    content = manifest["content"]
    out = args.out if args.out is not None else cfg.out_dir
    print(f"wrote {len(content['files'])} dump(s) to {out} "
          f"(dt={content['dt_h']:.6g} h, {content['n_steps']} steps)")


def _cmd_generate(args) -> None:
    cfg = load_generation_config(args.config)
    target = None
    if args.out is not None:
        target = Path(args.out) / Path(cfg.out_file).name
        target.parent.mkdir(parents=True, exist_ok=True)
    path = generate_trajectories(cfg, out_file=target)
    print(f"wrote {cfg.kind} fleet ({cfg.n_vehicles} vehicles) to {path}")


def _read_manifest(out_dir: Path) -> dict:
    path = out_dir / "manifest.json"
    if not path.is_file():
        raise ConfigError(
            f"{out_dir} holds no manifest.json; run `simulate` first"
        )
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if "content" not in manifest or "files" not in manifest["content"]:
        raise ConfigError(f"{path}: not a simulation manifest")
    return manifest


def _grouped_dumps(out_dir: Path, files: dict,
                   quantity: str) -> dict[Optional[str], FieldDump]:
    """Read every `quantity` / `quantity.<road>` dump; keys are road ids."""
    found = {}
    for key, entry in files.items():
        base, _, rid = key.partition(".")
        if base == quantity:
            found[rid or None] = read_field_dump(out_dir / entry["file"])
    return found


def _update_manifest(out_dir: Path, manifest: dict,
                     new_dumps: dict[str, FieldDump], started: float) -> None:
    paths = write_fields(new_dumps, out_dir)
    for key, path in paths.items():
        manifest["content"]["files"][key] = {
            "file": path.name, "sha256": file_sha256(path),
            "rows": int(new_dumps[key].rows.shape[0]),
        }
    runtime = dict(manifest.get("runtime", {}))
    runtime["wall_clock_s"] = time.perf_counter() - started
    write_manifest(out_dir, manifest["content"], runtime)


def _cmd_emissions(args) -> None:
    started = time.perf_counter()
    cfg = load_config(args.config)
    if cfg.emission_formula is None:
        raise ConfigError("the config sets no emission_formula")
    evaluator = _emission_evaluator(cfg)
    out_dir = Path(args.out)
    manifest = _read_manifest(out_dir)
    files = manifest["content"]["files"]
    rho_dumps = _grouped_dumps(out_dir, files, "rho")
    speed_dumps = _grouped_dumps(out_dir, files, "speed")
    accel_dumps = _grouped_dumps(out_dir, files, "accel")
    roads = sorted(set(rho_dumps) & set(speed_dumps) & set(accel_dumps),
                   key=str)
    if not roads:
        raise ConfigError(
            "the dumps lack density/speed/acceleration fields; rerun "
            "`simulate` with a second-order model"
        )
    new_dumps = {}
    for rid in roads:
        rho, speed, accel = rho_dumps[rid], speed_dumps[rid], accel_dumps[rid]
        if not (rho.rows.shape == speed.rows.shape == accel.rows.shape):
            raise ConfigError(f"field dumps for road {rid!r} disagree in shape")
        rows = evaluator(rho.rows, speed.rows, accel.rows, rho.dx_km)
        key = "emission" if rid is None else f"emission.{rid}"
        new_dumps[key] = FieldDump(quantity="emission", a_km=rho.a_km,
                                   b_km=rho.b_km, dx_km=rho.dx_km,
                                   dt_h=rho.dt_h, rows=np.asarray(rows))
    _update_manifest(out_dir, manifest, new_dumps, started)
    print(f"wrote {len(new_dumps)} emission dump(s) to {out_dir}")


def _cmd_diffuse(args) -> None:
    started = time.perf_counter()
    cfg = load_config(args.config)
    if cfg.diffusion is None:
        raise ConfigError("the config has no diffusion block")
    out_dir = Path(args.out)
    manifest = _read_manifest(out_dir)
    files = manifest["content"]["files"]
    emission_dumps = _grouped_dumps(out_dir, files, "emission")
    if not emission_dumps:
        raise ConfigError(
            "no emission dumps found; run `simulate` with an emission "
            "formula or the `emissions` subcommand first"
        )
    # single-road dumps carry no road suffix; bind them to the config's road
    dumps = {cfg.road_id if rid is None else rid: dump
             for rid, dump in emission_dumps.items()}
    shapes = {dump.rows.shape[0] for dump in dumps.values()}
    cadences = {dump.dt_h for dump in dumps.values()}
    if len(shapes) != 1 or len(cadences) != 1:
        raise ConfigError("emission dumps disagree in row count or cadence")
    geometry = {rid: (dump.dx_km, dump.rows.shape[1])
                for rid, dump in dumps.items()}
    dispersion = _DispersionRun(cfg.diffusion, geometry)
    dt_rows = cadences.pop()
    bound = stable_dt(cfg.diffusion.mu_km2_per_h, cfg.diffusion.dx_km,
                      cfg.diffusion.dy_km)
    n_sub = 1 if math.isinf(bound) else max(1, math.ceil(dt_rows / bound))
    sub_dt = dt_rows / n_sub
    n_rows = shapes.pop()
    for m in range(n_rows):
        row = {rid: dump.rows[m] for rid, dump in dumps.items()}
        for _ in range(n_sub):
            dispersion.step(row, sub_dt)
        dispersion.record()
    _update_manifest(out_dir, manifest, {"psi": dispersion.dump(dt_rows)},
                     started)
    print(f"wrote psi dump ({n_rows} rows, {n_sub} substep(s) per row) "
          f"to {out_dir}")


def _cmd_validate(args) -> None:
    try:
        cfg = _validate_scenario(args.config)
    except ConfigError as scenario_error:
        try:
            load_generation_config(args.config)
        except ConfigError:
            raise scenario_error
        print(f"{args.config}: generation config ok")
        return
    print(f"{args.config}: scenario config ok ({cfg.model}, "
          f"embedding {cfg.embedding})")


def _validate_scenario(path: str) -> ScenarioConfig:
    cfg = load_config(path)
    if cfg.trajectories_path is not None:
        fleets = load_trajectories(cfg.trajectories_path)
        needs_fleet = cfg.embedding != "none" or cfg.initial.kind == "kde"
        if needs_fleet and cfg.model != "network" and cfg.road_id not in fleets:
            raise ConfigError(
                f"{cfg.trajectories_path}: no trajectories for road "
                f"{cfg.road_id!r} (roads: {sorted(fleets)})"
            )
        if cfg.model == "gsom" and cfg.initial.kind == "kde":
            _require_vehicle_at_start(cfg, _data_fleet(cfg, fleets))
    if cfg.model == "network":
        _six_road_network(cfg, cfg.diagram.build())
    if cfg.sensors_path is not None:
        load_sensors(cfg.sensors_path)
    if cfg.emission_coeffs_path is not None:
        load_coefficients(cfg.emission_coeffs_path)
    return cfg


_COMMANDS = {
    "simulate": _cmd_simulate,
    "generate-trajectories": _cmd_generate,
    "emissions": _cmd_emissions,
    "diffuse": _cmd_diffuse,
    "validate": _cmd_validate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, ValueError, FloatingPointError,
            ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
