"""Benchmark of trafnox: one workload per invocation, single-threaded.

    python3 perfbench/run.py --workload probe_study --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  The workload's inputs are generated from the seed into
``perfbench/out/<workload>/inputs`` and each config is validated as
``trafnox validate`` does.  Passes over the workload's scenarios then run
through ``run_scenario`` into ``perfbench/out/<workload>/runs``, which is
cleared before each pass.  The first pass is a warm-up with the workload's
check hooks installed; its outputs are kept aside and checked after the
timed passes and after peak memory is read, so that the checks' own
allocations cannot set the peak.  Every timed pass must write the identical
manifest.  Timed passes repeat until ``--seconds`` have elapsed.

The last line of standard output is one JSON object: correct, attempted and
failed scenario runs, and the metrics.  With ``--trace 0`` these are the
end-to-end metrics.  With ``--trace 1`` they are the per-layer metrics of a
run that alternates untraced and traced passes; the spans also go to
``perfbench/out/<workload>/trace.json``.  A scenario run that misses an
accuracy target because of a known fault of the program (see
``probe_study.KNOWN_MISSES``) counts as failed in every pass and leaves
``correct`` true.  The exit code is 1 when an output check fails or a
scenario run raises, and 2 when the program cannot be imported.
"""

import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import probe_study  # noqa: E402
from common import CheckFailed, tree_bytes  # noqa: E402
from tracing import PER_LAYER, Tracer, layer_values  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("probe_study", "sensor_network", "acv_platoon")


def import_program():
    """The trafnox package of this checkout, or None when it is missing."""
    if not (SRC_DIR / "trafnox" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC_DIR))
    import trafnox
    import trafnox.cli  # noqa: F401
    if Path(trafnox.__file__).resolve().parent != SRC_DIR / "trafnox":
        return None
    return trafnox


def run_pass(trafnox, workload, runs_dir: Path):
    """(seconds, scenario manifests, raised count) of one pass."""
    shutil.rmtree(runs_dir, ignore_errors=True)
    manifests, failed = {}, 0
    started = time.perf_counter()
    for name, path in workload.scenarios.items():
        try:
            cfg = trafnox.scenario.load_config(path)
            manifests[name] = trafnox.scenario.run_scenario(cfg, out_dir=runs_dir / name)["content"]
        except CheckFailed:
            raise
        except Exception:
            traceback.print_exc()
            failed += 1
    return time.perf_counter() - started, manifests, failed


class Run:
    """Counts and findings of one benchmark invocation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.hooks = None
        self.problems: list[str] = []
        self.plain_s: list[float] = []
        self.traced_s: list[float] = []
        self.traced: list[dict] = []

    def checked_pass(self, trafnox, workload, runs_dir: Path) -> dict:
        """Warm-up pass with the workload's check hooks installed; its manifests."""
        self.hooks = workload.check_hooks(trafnox)
        self.passes += 1
        self.attempted += len(workload.scenarios)
        try:
            with self.hooks.installed() if self.hooks else contextlib.nullcontext():
                _, manifests, failed = run_pass(trafnox, workload, runs_dir)
        except CheckFailed as exc:
            self.problems.append(str(exc))
            return {}
        self.failed += failed
        if failed:
            self.problems.append(f"{failed} scenario run(s) of the checked pass raised")
            return {}
        return manifests

    def check_outputs(self, workload, checked_dir: Path) -> dict:
        """The warm-up pass's output checks; a known miss fails its scenario in every pass."""
        try:
            values, misses = workload.check(checked_dir, self.hooks)
        except CheckFailed as exc:
            self.problems.append(str(exc))
            return {}
        for message in misses.values():
            print(f"failed scenario run (known program fault): {message}", file=sys.stderr)
        self.failed += len(misses) * self.passes
        return values

    def timed_passes(self, trafnox, workload, runs_dir: Path, reference: dict,
                     seconds: float, tracer) -> None:
        """Whole passes until ``seconds`` have elapsed; traced runs alternate."""
        deadline = time.perf_counter() + seconds
        while True:
            for with_trace in ((False, True) if tracer else (False,)):
                if with_trace:
                    tracer.reset()
                with tracer.installed() if with_trace else contextlib.nullcontext():
                    elapsed, manifests, failed = run_pass(trafnox, workload, runs_dir)
                if with_trace:
                    self.traced.append(tracer.aggregate())
                    self.traced_s.append(elapsed)
                else:
                    self.plain_s.append(elapsed)
                self.passes += 1
                self.attempted += len(workload.scenarios)
                self.failed += failed
                if failed:
                    self.problems.append(f"{failed} scenario run(s) of a timed pass raised")
                elif manifests != reference:
                    self.problems.append("a pass wrote outputs that differ from the checked pass")
            if time.perf_counter() >= deadline:
                return

    def layer_metrics(self, setup_trace: dict) -> dict:
        """Set-up plus the median traced pass, per BENCHMARK.json per-layer metric."""
        passes = [layer_values(agg) for agg in self.traced]
        setup = layer_values(setup_trace)
        metrics = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                value = statistics.median(self.traced_s) - statistics.median(self.plain_s)
            elif unit == "count":
                counts = {p.get(name, 0) for p in passes}
                if len(counts) != 1:
                    self.problems.append(f"{name} differs between traced passes: {sorted(counts)}")
                value = setup.get(name, 0) + max(counts)
            else:   # times, and bytes, which include the manifest's wall-clock field
                value = setup.get(name, 0.0) + statistics.median(p.get(name, 0.0) for p in passes)
            metrics[name] = {"value": value, "unit": unit}
        return metrics

    def emission_guard(self, trafnox, seed: int, out: Path) -> float:
        """The every-4th emission gap of probe_study's fleet for this seed."""
        guard = probe_study.Workload(seed, out / "guard_inputs", names=("every4",))
        _, _, failed = run_pass(trafnox, guard, out / "guard_runs")
        if failed:
            self.problems.append("emission guard: a scenario run raised")
            return 0.0
        try:
            return guard.check(out / "guard_runs", None)[0]["every4"]
        except CheckFailed as exc:
            self.problems.append(f"emission guard: {exc}")
            return 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    trafnox = import_program()
    if trafnox is None:
        print(f"no trafnox package under {SRC_DIR}", file=sys.stderr)
        return 2
    module = importlib.import_module(args.workload)
    out = OUT_DIR / args.workload
    shutil.rmtree(out, ignore_errors=True)

    # set-up, on the process's CPU clock from its start: interpreter start-up,
    # importing trafnox (above), then validating the configs.  Input
    # generation is the benchmark's own work and is left out.
    tracer = Tracer(trafnox) if args.trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        generate_start = time.process_time()
        workload = module.Workload(args.seed, out / "inputs")
        generate_s = time.process_time() - generate_start
        for path in workload.scenarios.values():
            with contextlib.redirect_stdout(sys.stderr):
                status = trafnox.cli.main(["validate", "--config", str(path)])
            if status != 0:
                print(f"{path}: validation failed with status {status}", file=sys.stderr)
                return 1
    setup_s = time.process_time() - generate_s
    setup_trace = tracer.aggregate() if tracer else None

    run = Run()
    runs, checked_dir = out / "runs", out / "checked"
    reference = run.checked_pass(trafnox, workload, runs)
    if reference:
        runs.rename(checked_dir)
    dump_mb = tree_bytes(checked_dir) / 1e6 if reference else 0.0
    run.timed_passes(trafnox, workload, runs, reference, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked = run.check_outputs(workload, checked_dir) if reference else {}

    if tracer:
        metrics = run.layer_metrics(setup_trace)
        trace_file = {"workload": args.workload, "seed": args.seed,
                      "untraced_pass_s": run.plain_s, "traced_pass_s": run.traced_s,
                      "setup": setup_trace, "passes": run.traced,
                      "last_pass_spans": tracer.spans}
        (out / "trace.json").write_text(json.dumps(trace_file) + "\n", encoding="utf-8")
    else:
        if args.workload == "probe_study":
            gap = checked.get("every4", 0.0)
        else:
            gap = run.emission_guard(trafnox, args.seed, out)
        metrics = {
            "scenario_s": {"value": statistics.median(run.plain_s), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "dump_mb": {"value": dump_mb, "unit": "MB"},
            "emission_gap_sparse": {"value": gap, "unit": "g/s"},
        }

    print("untraced pass seconds: " + " ".join(f"{t:.4f}" for t in run.plain_s), file=sys.stderr)
    correct = not run.problems
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
