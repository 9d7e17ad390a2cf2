"""Delimited-text formats: trajectories, sensors, field dumps, manifests.

All files are comma-separated text with `#`-prefixed comment lines.  Floats
are written with 17 significant digits so a written value parses back to
the identical double.  Internal units are hours and kilometres; the file
formats carry seconds (trajectory timestamps) and explicit unit strings
(dump headers) to keep the stored data self-describing.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Union

import numpy as np

from .core import ConfigError, frozen_array
from .lagrangian import Fleet
from .network import SensorSeries

__all__ = [
    "FieldDump",
    "QUANTITIES",
    "file_sha256",
    "load_sensors",
    "load_trajectories",
    "manifest_content_hash",
    "read_field_dump",
    "write_fields",
    "write_manifest",
    "write_sensors",
    "write_trajectories",
]

logger = logging.getLogger(__name__)

PathLike = Union[str, Path]

#: Dumpable cell quantities and their unit strings.
QUANTITIES = {
    "rho": "veh/km",
    "w": "veh/h",
    "speed": "km/h",
    "accel": "km/h^2",
    "emission": "g/s",
    "psi": "g/km^3",
}

_SECONDS_PER_HOUR = 3600.0
_FLOAT_FMT = "%.17g"
#: Values formatted per write of a dump row: bounds the strings a row of a
#: 2-d concentration grid is written through.
_ROW_CHUNK = 4096


def _data_lines(path: Path):
    """Yield (line_number, stripped_text) for non-blank, non-comment lines."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            yield lineno, text


def _parse_float(token: str, path: Path, lineno: int, what: str) -> float:
    try:
        if "_" in token or not token.isascii():
            raise ValueError(token)     # float() takes these, NumPy's parser does not
        value = float(token)
    except ValueError:
        raise ConfigError(
            f"{path}:{lineno}: {what} is not a number: {token!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{path}:{lineno}: {what} must be finite, got {token!r}")
    return value


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def load_trajectories(path: PathLike) -> dict[str, Fleet]:
    """Per-road fleets from rows `vehicle_id,road_id,t_seconds,x_km[,v_kmh]`.

    The grammar: one sample per line, fields separated by commas and
    stripped of surrounding whitespace (CRLF line ends read as LF).  Blank
    lines and lines whose first non-blank character is `#` are skipped, and
    line numbers in messages count them.  The speed column is optional but
    must be present on either all rows or none.  Numbers are finite decimal
    floats; digit-group underscores (`1_0`) and non-ASCII digits are
    refused, and speeds must be >= 0.  A vehicle's rows may be interleaved
    with other vehicles' and out of time order: samples are sorted by time
    per (road, vehicle), and a repeated time is refused at the later row.
    A vehicle whose sorted positions decrease anywhere, or that has fewer
    than two samples, is dropped with a warning.  Malformed rows abort with
    their line number.
    """
    path = Path(path)
    lines, runs = array("l"), []
    fields = _trajectory_fields(path, lines, runs)
    try:
        values = np.loadtxt(itertools.chain([next(fields)], fields), delimiter=",",
                            comments=None, ndmin=2)
    except StopIteration:
        return {}
    except ValueError as exc:
        _check_trajectory_rows(path)
        raise ConfigError(f"{path}: {exc}") from None
    if values.shape[1] not in (2, 3) or not (
            np.isfinite(values).all() and (values[:, 2:] >= 0.0).all()):
        _check_trajectory_rows(path)

    keys: dict[tuple[str, str], int] = {}      # (road, vehicle) -> group
    run_groups = [keys.setdefault(key, len(keys)) for _, key in runs]
    group = np.repeat(run_groups, np.diff([row for row, _ in runs] + [len(lines)]))
    times = values[:, 0] / _SECONDS_PER_HOUR
    order = np.lexsort((times, group))
    group, times, values = group[order], times[order], values[order]
    same = group[1:] == group[:-1]
    repeated = same & (times[1:] == times[:-1])
    if repeated.any():
        later = repeated.argmax() + 1       # the stable sort keeps file order
        rid, vid = list(keys)[group[later]]
        raise ConfigError(
            f"{path}:{lines[order[later]]}: vehicle {vid!r} on road {rid!r} "
            f"repeats t_seconds {float(values[later, 0])!r}")
    counts = np.bincount(group, minlength=len(keys))
    backwards = set(group[1:][same & (values[1:, 1] < values[:-1, 1])].tolist())
    kept = []
    for g, (rid, vid) in enumerate(keys):
        problem = ("fewer than two samples" if counts[g] < 2 else
                   "positions decrease" if g in backwards else None)
        if problem:
            logger.warning("dropping vehicle %r on road %r: %s", vid, rid, problem)
        kept.append(problem is None)

    fleets = {}
    for road in dict.fromkeys(rid for (rid, _), keep in zip(keys, kept) if keep):
        mine = np.array([keep and rid == road for (rid, _), keep in zip(keys, kept)])
        rows = mine[group]
        fleets[road] = Fleet.from_columns(
            [vid for (_, vid), m in zip(keys, mine) if m], counts[mine], times[rows],
            values[rows, 1], values[rows, 2] if values.shape[1] == 3 else None)
    return fleets


def _trajectory_fields(path: Path, lines: array, runs: list):
    """Yield the numeric fields `t_seconds,x_km[,v_kmh]` of each data row.

    Appends each row's line number to lines and, where the (road, vehicle)
    key changes, (row index, key) to runs.  A row without numeric fields or
    with an empty id raises ValueError; _check_trajectory_rows names it."""
    raw = None
    for lineno, text in _data_lines(path):
        vid, rid, numbers = text.split(",", 2)
        if not numbers:
            raise ValueError(f"no numeric fields at line {lineno}")
        if (vid, rid) != raw:
            raw, key = (vid, rid), (rid.strip(), vid.strip())
            if not all(key):
                raise ValueError(f"empty id at line {lineno}")
            runs.append((len(lines), key))
        lines.append(lineno)
        yield numbers


def _check_trajectory_rows(path: Path) -> None:
    """Refuse the first row that breaks the per-row grammar, by its line."""
    n_columns: Optional[int] = None
    for lineno, text in _data_lines(path):
        parts = [p.strip() for p in text.split(",")]
        if len(parts) not in (4, 5):
            raise ConfigError(
                f"{path}:{lineno}: expected 4 or 5 comma-separated fields "
                f"(vehicle_id,road_id,t_seconds,x_km[,v_kmh]), got {len(parts)}")
        if n_columns is None:
            n_columns = len(parts)
        elif len(parts) != n_columns:
            raise ConfigError(
                f"{path}:{lineno}: row has {len(parts)} fields but earlier "
                f"rows have {n_columns}; the speed column must be used "
                f"consistently")
        if not parts[0] or not parts[1]:
            raise ConfigError(f"{path}:{lineno}: empty vehicle or road id")
        for token, what in zip(parts[2:], ("t_seconds", "x_km", "v_kmh")):
            value = _parse_float(token, path, lineno, what)
        if len(parts) == 5 and value < 0:
            raise ConfigError(f"{path}:{lineno}: speed must be >= 0, got {value}")


def write_trajectories(path: PathLike, fleets: Mapping[str, Fleet]) -> Path:
    """Write per-road fleets in the `load_trajectories` row format.

    Every trajectory must either carry speed samples or none of them may
    (the speed column applies to the whole file).
    """
    path = Path(path)
    all_trajs = [(rid, tr) for rid, fleet in fleets.items()
                 for tr in fleet.trajectories]
    with_speeds = [tr.speeds_kmh is not None for _, tr in all_trajs]
    if any(with_speeds) and not all(with_speeds):
        raise ConfigError(
            "cannot mix trajectories with and without speed samples in one file")
    lines = ["# vehicle_id,road_id,t_seconds,x_km" +
             (",v_kmh" if all(with_speeds) and with_speeds else "")]
    for rid, tr in all_trajs:
        for k in range(tr.times_h.size):
            cells = [tr.vehicle_id, rid,
                     _FLOAT_FMT % (tr.times_h[k] * _SECONDS_PER_HOUR),
                     _FLOAT_FMT % tr.positions_km[k]]
            if tr.speeds_kmh is not None:
                cells.append(_FLOAT_FMT % tr.speeds_kmh[k])
            lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# sensors
# ---------------------------------------------------------------------------

def load_sensors(path: PathLike) -> dict[str, SensorSeries]:
    """Per-road sensor series from rows `road_id,minute,flux_veh_per_h,speed_kmh`.

    Minutes must be contiguous per road: duplicates and gaps are rejected,
    the latter with the list of missing minutes.
    """
    path = Path(path)
    rows: dict[str, dict[int, tuple[float, float]]] = {}
    for lineno, text in _data_lines(path):
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 4:
            raise ConfigError(
                f"{path}:{lineno}: expected 4 comma-separated fields "
                f"(road_id,minute,flux_veh_per_h,speed_kmh), got {len(parts)}")
        rid = parts[0]
        if not rid:
            raise ConfigError(f"{path}:{lineno}: empty road id")
        try:
            minute = int(parts[1])
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: minute must be an integer, got {parts[1]!r}"
            ) from None
        flux = _parse_float(parts[2], path, lineno, "flux_veh_per_h")
        speed = _parse_float(parts[3], path, lineno, "speed_kmh")
        for what, value in (("flux_veh_per_h", flux), ("speed_kmh", speed)):
            if value < 0:
                raise ConfigError(f"{path}:{lineno}: {what} must be >= 0, got {value}")
        per_road = rows.setdefault(rid, {})
        if minute in per_road:
            raise ConfigError(
                f"{path}:{lineno}: duplicate minute {minute} for road {rid!r}")
        per_road[minute] = (flux, speed)

    series: dict[str, SensorSeries] = {}
    for rid, record in rows.items():
        minutes = sorted(record)
        missing = sorted(set(range(minutes[0], minutes[-1] + 1)) - set(minutes))
        if missing:
            raise ConfigError(
                f"{path}: road {rid!r} sensor record has gaps at minutes "
                f"{missing}")
        series[rid] = SensorSeries(
            road_id=rid,
            minutes=tuple(minutes),
            flux_veh_per_h=tuple(record[m][0] for m in minutes),
            speed_kmh=tuple(record[m][1] for m in minutes))
    return series


def write_sensors(path: PathLike, series: Mapping[str, SensorSeries]) -> Path:
    """Write per-road sensor series in the `load_sensors` row format."""
    path = Path(path)
    lines = ["# road_id,minute,flux_veh_per_h,speed_kmh"]
    for rid in series:
        s = series[rid]
        for m, q, v in zip(s.minutes, s.flux_veh_per_h, s.speed_kmh):
            lines.append(f"{s.road_id},{m},{_FLOAT_FMT % q},{_FLOAT_FMT % v}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# field dumps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldDump:
    """A recorded cell quantity: one row per recorded step, one column per cell.

    ``dt_h`` is the time between consecutive rows (solver step times the
    recording cadence).  ``extra`` carries additional numeric header entries
    (e.g. the transverse cell count of a 2-d concentration grid).
    """

    quantity: str
    a_km: float
    b_km: float
    dx_km: float
    dt_h: float
    rows: np.ndarray
    extra: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.quantity not in QUANTITIES:
            raise ConfigError(
                f"unknown quantity {self.quantity!r}; expected one of "
                f"{sorted(QUANTITIES)}")
        arr = frozen_array(self.rows)
        if arr.ndim != 2 or arr.shape[1] < 1:
            raise ConfigError(
                f"dump rows must form a (records, cells) matrix, got {arr.shape}")
        object.__setattr__(self, "rows", arr)
        object.__setattr__(self, "extra", dict(self.extra))

    @property
    def units(self) -> str:
        return QUANTITIES[self.quantity]


def write_fields(dumps: Mapping[str, FieldDump], out_dir: PathLike) -> dict[str, Path]:
    """One `<key>.csv` per dump with a metadata header line; returns the paths.

    The bytes are those of `np.savetxt(fmt="%.17g", delimiter=",",
    comments="# ")`, but each row is formatted and written in chunks of
    `_ROW_CHUNK` values, so no whole-row string is built.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for key, dump in dumps.items():
        meta = [f"quantity={dump.quantity}",
                f"a_km={_FLOAT_FMT % dump.a_km}",
                f"b_km={_FLOAT_FMT % dump.b_km}",
                f"dx_km={_FLOAT_FMT % dump.dx_km}",
                f"dt_h={_FLOAT_FMT % dump.dt_h}",
                f"units={dump.units}"]
        meta += [f"{name}={_FLOAT_FMT % value}"
                 for name, value in sorted(dump.extra.items())]
        path = out_dir / f"{key}.csv"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# " + " ".join(meta) + "\n")
            _write_rows(handle, dump.rows)
        paths[key] = path
    return paths


def _write_rows(handle, rows: np.ndarray) -> None:
    """Write each row as `%.17g` values joined by commas, chunk by chunk."""
    n_cols = rows.shape[1]
    formats = {n: ",".join([_FLOAT_FMT] * n) for n in (_ROW_CHUNK, n_cols % _ROW_CHUNK)}
    for row in rows:
        for start in range(0, n_cols, _ROW_CHUNK):
            values = tuple(row[start:start + _ROW_CHUNK].tolist())
            if start:
                handle.write(",")
            handle.write(formats[len(values)] % values)
        handle.write("\n")


def read_field_dump(path: PathLike) -> FieldDump:
    """Parse a file written by `write_fields` back into a FieldDump."""
    path = Path(path)
    header: Optional[str] = None
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline().strip()
    if first.startswith("#"):
        header = first.lstrip("#").strip()
    if not header:
        raise ConfigError(f"{path}: missing metadata header line")
    entries: dict[str, str] = {}
    for token in header.split():
        if "=" not in token:
            raise ConfigError(f"{path}: malformed header entry {token!r}")
        name, value = token.split("=", 1)
        entries[name] = value
    required = ("quantity", "a_km", "b_km", "dx_km", "dt_h", "units")
    missing = [name for name in required if name not in entries]
    if missing:
        raise ConfigError(f"{path}: header is missing {missing}")
    extra = {name: float(value) for name, value in entries.items()
             if name not in required}
    rows = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    return FieldDump(
        quantity=entries["quantity"],
        a_km=float(entries["a_km"]),
        b_km=float(entries["b_km"]),
        dx_km=float(entries["dx_km"]),
        dt_h=float(entries["dt_h"]),
        rows=rows,
        extra=extra)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def file_sha256(path: PathLike) -> str:
    """Hex SHA-256 of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def manifest_content_hash(manifest: Mapping) -> str:
    """Hash of the deterministic (content) half of a manifest.

    Runtime metadata (wall-clock and the like) lives outside `content`, so
    two runs of the same config hash identically.
    """
    canonical = json.dumps(manifest["content"], sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(out_dir: PathLike, content: Mapping, runtime: Mapping) -> Path:
    """Write `manifest.json` with separated content/runtime sections."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"content": dict(content), "runtime": dict(runtime)}
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
