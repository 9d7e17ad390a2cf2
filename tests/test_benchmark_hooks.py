"""The benchmark's per-layer tracer still finds the names it wraps.

``perfbench/tracing.py`` replaces program functions under the names that
``scenario``, ``network`` and ``cli`` look them up by, and reads
``ctm_step``'s positional arguments to count blend entries.  A traced run of
a tiny averaging first-order road and a tiny second-order road must record
the layers the benchmark reports, among them fleet snapshots and trajectory
loads with every loaded row, so renaming or bypassing one of those names
fails here rather than only in a traced benchmark run.
"""

from pathlib import Path

import trafnox
import trafnox.cli  # noqa: F401  (the tracer wraps names in cli too)
from trafnox import (DiagramConfig, Fleet, InitialConfig, ScenarioConfig,
                     Trajectory, run_scenario, write_trajectories)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_records_the_benchmarks_layers(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    trajectories = tmp_path / "t.csv"
    write_trajectories(trajectories, {"0": Fleet((
        Trajectory.from_line("v0", 1.0, 30.0),
        Trajectory.from_line("v1", 1.2, 40.0)))})
    shared = {"trajectories_path": str(trajectories), "n_cells": 20,
              "horizon_h": 0.01}
    configs = (
        ScenarioConfig(embedding="acv", initial=InitialConfig(rho=30.0),
                       **shared),
        ScenarioConfig(model="gsom", embedding="cv",
                       diagram=DiagramConfig(kind="cgarz", rho_max=56.0,
                                             v_max=90.0, rho_f=10.0),
                       initial=InitialConfig(rho=20.0), **shared),
    )
    tracer = tracing.Tracer(trafnox)
    with tracer.installed():
        for i, cfg in enumerate(configs):
            run_scenario(cfg, out_dir=tmp_path / f"run{i}")
    aggregate = tracer.aggregate()
    spans = aggregate["spans"]
    for layer in ("lwr.ctm_step", "lwr.embedded_speed", "gsom.acceleration_field",
                  "gsom.step", "lagrangian.snapshot"):
        assert spans.get(layer, {}).get("calls", 0) > 0, layer
    assert aggregate["counts"]["lwr.blend_entries"] > 0
    # each run loads the file once, and the loaded fleets hold every row
    rows = sum(1 for line in trajectories.read_text().splitlines()
               if line and not line.startswith("#"))
    assert spans["dataio.load"]["calls"] == len(configs)
    assert aggregate["counts"]["dataio.rows_loaded"] == len(configs) * rows == 8
