"""Spans and counts taken from outside the program.

Each public function a module calls is replaced, under the name the calling
module looks it up by, with a wrapper that records a span (name, start,
end, parent) and the counts computed from its arguments or result.  Spans
are kept in memory; ``aggregate`` turns them into per-name calls, total
time and self time (duration minus the part covered by child spans).
"""

from __future__ import annotations

import time

from common import patched

#: Per-layer metrics printed by a traced run, in BENCHMARK.json order.
PER_LAYER = (
    ("lagrangian.snapshot_s", "s"), ("lagrangian.snapshot_calls", "count"),
    ("lagrangian.max_speed_calls", "count"), ("lagrangian.kde_s", "s"),
    ("lwr.ctm_step_s", "s"), ("lwr.ctm_step_calls", "count"),
    ("lwr.embedded_speed_s", "s"), ("lwr.blend_entries", "count"),
    ("gsom.step_s", "s"), ("gsom.step_calls", "count"),
    ("gsom.acceleration_field_s", "s"), ("gsom.embedded_speed_2_s", "s"),
    ("gsom.boundary_capacities_s", "s"), ("gsom.boundary_capacities_calls", "count"),
    ("network.network_step_s", "s"), ("network.sensor_boundary_s", "s"),
    ("core.invert_speed_in_w_s", "s"), ("core.invert_speed_in_w_calls", "count"),
    ("emissions.macro_s", "s"),
    ("diffusion.step_s", "s"), ("diffusion.step_calls", "count"),
    ("diffusion.cells_updated", "count"), ("diffusion.source_s", "s"),
    ("dataio.write_s", "s"), ("dataio.bytes_written", "bytes"),
    ("dataio.hash_s", "s"), ("dataio.load_s", "s"), ("dataio.rows_loaded", "count"),
    ("scenario.self_s", "s"), ("trace.overhead_s", "s"),
)


def _blend_entries(args, kwargs) -> int:
    # ctm_step(state, grid, t, dt, law, fleet, shape, mode, sampling, ...)
    named = dict(zip(("state", "grid", "t", "dt", "law", "fleet", "shape", "mode",
                      "sampling"), args))
    named.update(kwargs)
    mode, fleet = named.get("mode"), named.get("fleet")
    if mode is None or mode.value != "average_closest_vehicles" or fleet is None:
        return 0
    t = named["t"]
    active = sum(1 for tr in fleet.trajectories if tr.times_h[0] <= t <= tr.times_h[-1])
    samples = named["sampling"].n_rho_samples if "sampling" in named else 256
    return active * (samples + 1) * named["grid"].n_cells


def _rows_loaded(result) -> int:
    total = 0
    for item in result.values():
        if hasattr(item, "trajectories"):
            total += sum(tr.times_h.size for tr in item.trajectories)
        else:
            total += item.minutes.size
    return total


def _bytes_written(result) -> int:
    paths = result.values() if isinstance(result, dict) else (result,)
    return sum(p.stat().st_size for p in paths)


class Tracer:
    """Wrappers for every traced call site; collects spans and counts while installed."""

    def __init__(self, trafnox) -> None:
        sc, nw, cli = trafnox.scenario, trafnox.network, trafnox.cli
        # (owner, attribute, span name, counter name, counter function)
        sites = [
            (sc, "run_scenario", "scenario.run_scenario", None, None),
            (sc, "load_config", "scenario.load_config", None, None),
            (sc, "gsom_step", "gsom.step", None, None),
            (nw, "step", "gsom.step", None, None),
            (sc, "embedded_speed_2", "gsom.embedded_speed_2", None, None),
            (sc, "acceleration_field", "gsom.acceleration_field", None, None),
            (sc, "max_dt_2", "gsom.max_dt_2", None, None),
            (nw, "boundary_capacities", "gsom.boundary_capacities", None, None),
            (sc, "ctm_step", "lwr.ctm_step", "lwr.blend_entries",
             lambda a, k, r: _blend_entries(a, k)),
            (sc, "embedded_speed", "lwr.embedded_speed", None, None),
            (sc, "max_dt", "lwr.max_dt", None, None),
            (sc, "network_step", "network.network_step", None, None),
            (nw, "network_step", "network.network_step", None, None),
            (nw, "sensor_boundary", "network.sensor_boundary", None, None),
            (sc, "warm_start", "network.warm_start", None, None),
            (sc, "build_six_road_network", "network.build", None, None),
            (sc, "invert_speed_in_w", "core.invert_speed_in_w", None, None),
            (nw, "invert_speed_in_w", "core.invert_speed_in_w", None, None),
            (sc, "kde_density", "lagrangian.kde", None, None),
            (sc, "kde_velocity", "lagrangian.kde", None, None),
            (trafnox.lagrangian.Fleet, "snapshot", "lagrangian.snapshot", None, None),
            (sc, "emission_max_macro", "emissions.macro", None, None),
            (sc, "emission_exp_macro", "emissions.macro", None, None),
            (sc, "from_solver_units", "emissions.from_solver_units", None, None),
            (sc, "diffusion_step", "diffusion.step", "diffusion.cells_updated",
             lambda a, k, r: r.psi.size),
            (sc, "refine_emissions", "diffusion.source", None, None),
            (sc, "build_source", "diffusion.source", None, None),
            (sc, "write_fields", "dataio.write", "dataio.bytes_written",
             lambda a, k, r: _bytes_written(r)),
            (sc, "write_manifest", "dataio.write", "dataio.bytes_written",
             lambda a, k, r: _bytes_written(r)),
            (sc, "file_sha256", "dataio.hash", None, None),
            (sc, "load_trajectories", "dataio.load", "dataio.rows_loaded",
             lambda a, k, r: _rows_loaded(r)),
            (sc, "load_sensors", "dataio.load", "dataio.rows_loaded",
             lambda a, k, r: _rows_loaded(r)),
            (cli, "load_trajectories", "dataio.load", "dataio.rows_loaded",
             lambda a, k, r: _rows_loaded(r)),
            (cli, "load_sensors", "dataio.load", "dataio.rows_loaded",
             lambda a, k, r: _rows_loaded(r)),
        ]
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.replacements = [
            (owner, attr, self._wrap(vars(owner)[attr], name, counter, count_fn))
            for owner, attr, name, counter, count_fn in sites]
        # counted per trajectory: each call takes the maximum over a whole record
        trajectory = trafnox.lagrangian.Trajectory
        max_speed = vars(trajectory)["max_speed_kmh"].fget
        counts = self.counts

        def counted_max_speed(record):
            counts["lagrangian.max_speed_calls"] = counts.get("lagrangian.max_speed_calls", 0) + 1
            return max_speed(record)
        self.replacements.append((trajectory, "max_speed_kmh", property(counted_max_speed)))

    def installed(self):
        return patched(self.replacements)

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def _wrap(self, fn, name, counter, count_fn):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if counter is not None:
                counts[counter] = counts.get(counter, 0) + count_fn(args, kwargs, result)
            return result
        return wrapper

    def aggregate(self) -> dict:
        """{"spans": {name: {calls, total_s, self_s}}, "counts": {...}}."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        spans: dict[str, dict] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            entry = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child
        return {"spans": spans, "counts": dict(self.counts)}


def layer_values(aggregate: dict) -> dict:
    """Flat per-layer values: <span>_s (self), <span>_calls and the counts."""
    flat = dict(aggregate["counts"])
    for name, entry in aggregate["spans"].items():
        flat[f"{name}_s"] = entry["self_s"]
        flat[f"{name}_calls"] = entry["calls"]
    flat["scenario.self_s"] = flat.get("scenario.run_scenario_s", 0.0)
    return flat
