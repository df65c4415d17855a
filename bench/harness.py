"""Time-to-solution per scheme on fixed slab workloads, with output checks.

The untraced path drives only the documented user interface: `slabtrt run` and
`slabtrt cfl` through `slabtrt.cli_io.main` in-process, and the `history.csv` /
`profiles.csv` files they write. With `--trace 1` the same passes run once
plain and once with every public layer function wrapped from outside (see
tracer.py), which gives the per-layer self times and call counts.

Usage, from the repository root:

    python3 bench/run.py --workload pulse_kinetic --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--workload all` every workload runs
in turn in the same process and prints its own such line.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calibration import REFERENCE_S, Calibration
from tracer import Tracer, installed
from workloads import (
    COUNTED,
    END_TO_END,
    HISTORY_COLUMNS,
    LOW_RANK,
    PROFILE_COLUMNS,
    SCHEME_LAYERS,
    SCHEMES,
    SETUP_LAYERS,
    WORKLOADS,
    Workload,
    check_run,
    per_layer_specs,
    read_csv,
)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5  # `cfl` calls timed before every pass
CALIBRATION_REPEATS = 2  # reference loops timed after every `cfl` block and scheme run


class ProgramMissing(RuntimeError):
    """The checkout holds no slabtrt sources to benchmark."""


def load_cli():
    """Import `slabtrt.cli_io` from this checkout's `src/`, never from elsewhere."""
    pkg = ROOT / "src" / "slabtrt"
    if not (pkg / "cli_io.py").is_file():
        raise ProgramMissing(f"no slabtrt sources at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import slabtrt.cli_io as cli_io

    if Path(cli_io.__file__).resolve().parent != pkg.resolve():
        raise ProgramMissing(f"slabtrt was imported from {cli_io.__file__}, not {pkg}")
    return cli_io


# ---------------------------------------------------------------------------
# one pass: every scheme once


@dataclass
class SchemeRun:
    """One `slabtrt run` call and what its outputs showed."""

    scheme: str
    seconds: float
    history: bytes = b""
    profiles: bytes = b""
    steps: int = 0
    ranks: np.ndarray = field(default_factory=lambda: np.zeros(0))
    figures: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    run_id: int = 0
    scale: float = 1.0  # to the reference host speed; 1 when not calibrated

    @property
    def step_us(self) -> float:
        return self.seconds / self.steps * 1e6


def write_configs(workload: Workload, work: Path) -> dict[str, Path]:
    configs = {}
    for scheme in SCHEMES:
        cfg = work / f"{scheme}.cfg"
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text(workload.config_text(scheme, str(work / scheme)), encoding="utf-8")
        configs[scheme] = cfg
    return configs


def _call_main(cli, argv) -> int:
    try:
        return cli.main(argv, out=io.StringIO())
    except Exception:  # a crash is a failed operation, not the end of the benchmark
        traceback.print_exc()
        return -1


def run_scheme(cli, scheme: str, cfg: Path, tracer: Tracer | None) -> SchemeRun:
    out_dir = cfg.parent / scheme
    for name in ("history.csv", "profiles.csv"):
        (out_dir / name).unlink(missing_ok=True)
    run_id = tracer.new_run() if tracer else 0
    began = time.perf_counter()
    code = _call_main(cli, ["run", str(cfg)])
    run = SchemeRun(scheme, time.perf_counter() - began, run_id=run_id)
    if code != 0:
        run.problems.append(f"exit code {code}")
        return run
    try:
        run.history = (out_dir / "history.csv").read_bytes()
        run.profiles = (out_dir / "profiles.csv").read_bytes()
    except OSError as exc:
        run.problems.append(f"missing output: {exc}")
    return run


def run_pass(cli, workload: Workload, configs: dict, order, tracer=None,
             calibration: Calibration | None = None) -> dict[str, SchemeRun]:
    runs = {}
    for scheme in order:
        runs[scheme] = run_scheme(cli, scheme, configs[scheme], tracer)
        if calibration:
            calibration.measure(CALIBRATION_REPEATS)
            runs[scheme].scale = calibration.scale()
    tables = {}
    for scheme, run in runs.items():
        if run.problems:
            continue
        try:
            tables[scheme] = (read_csv(run.history, HISTORY_COLUMNS),
                              read_csv(run.profiles, PROFILE_COLUMNS))
        except ValueError as exc:
            run.problems.append(f"unreadable output: {exc}")
    reference = tables.get(workload.reference)
    for scheme, run in runs.items():
        if scheme not in tables:
            continue
        if reference is None:
            run.problems.append(f"reference {workload.reference} failed")
            continue
        history, profiles = tables[scheme]
        run.steps = len(history["t"])
        run.ranks = history["rank"]
        run.figures, problems = check_run(workload, scheme, history, profiles, reference[1])
        run.problems += problems
    return runs


def time_setup(cli, cfg: Path, repeats: int, tracer=None) -> list[float]:
    """Wall seconds of `slabtrt cfl` (config, scenario, angular operators, CFL bound)."""
    times = []
    for _ in range(repeats):
        if tracer:
            tracer.new_run()
        began = time.perf_counter()
        code = _call_main(cli, ["cfl", str(cfg)])
        times.append(time.perf_counter() - began)
        if code != 0:
            raise RuntimeError(f"`slabtrt cfl` exited with code {code}")
    return times


def require_identical(passes):
    """Every pass, traced or not, must write byte-identical CSVs."""
    for later in passes[1:]:
        for scheme, run in later.items():
            first = passes[0][scheme]
            if not run.problems and not first.problems and (
                    run.history != first.history or run.profiles != first.profiles):
                run.problems.append("CSVs differ from the first pass"
                                    + (" (traced)" if run.run_id else ""))


# ---------------------------------------------------------------------------
# timed (untraced) and traced runs


def _median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def _step_us(passes, scheme, scaled=False) -> float | None:
    return _median(p[scheme].step_us * (p[scheme].scale if scaled else 1.0)
                   for p in passes if not p[scheme].problems)


def _keep_going(began: float, lap: float, seconds: float) -> bool:
    """Start another pass only if it should end within the time budget."""
    return time.perf_counter() - began + lap <= seconds


def timed_run(cli, workload, configs, rng, seconds):
    """Passes timed against the reference loop; a block of it follows every timed call."""
    setup, setup_scaled, passes = [], [], []
    calibration = Calibration()
    calibration.measure(CALIBRATION_REPEATS)
    began = time.perf_counter()
    while True:
        lap_began = time.perf_counter()
        times = time_setup(cli, configs["bug_adaptive"], SETUP_REPEATS)
        calibration.measure(CALIBRATION_REPEATS)
        setup += times
        setup_scaled += [t * calibration.scale() for t in times]
        passes.append(run_pass(cli, workload, configs, rng.sample(SCHEMES, len(SCHEMES)),
                               calibration=calibration))
        if not _keep_going(began, time.perf_counter() - lap_began, seconds):
            break
    require_identical(passes)

    wall = {"setup_s": statistics.median(setup)}
    metrics = {"setup_s": statistics.median(setup_scaled)}
    for scheme in SCHEMES:
        wall[f"step_us.{scheme}"] = _step_us(passes, scheme)
        metrics[f"step_us.{scheme}"] = _step_us(passes, scheme, scaled=True)
    loop = statistics.median(calibration.times)
    print(f"reference loop: median {loop * 1e3:.2f} ms over {len(calibration.times)} runs, "
          f"host speed {REFERENCE_S / loop:.4f} of reference; unscaled: "
          + " ".join(f"{k}={v:.6g}" for k, v in wall.items() if v is not None))
    for scheme in LOW_RANK:
        for key in ("l2_T", "l2_Phi"):
            metrics[f"{key}.{scheme}"] = passes[0][scheme].figures.get(key)
    units = dict(END_TO_END)
    return passes, {name: (metrics[name], units[name]) for name, _ in END_TO_END}


def traced_run(cli, workload, configs, rng, seconds):
    tracer = Tracer()
    pairs, setup_runs = [], []
    began = time.perf_counter()
    while True:
        lap_began = time.perf_counter()
        order = rng.sample(SCHEMES, len(SCHEMES))
        plain = run_pass(cli, workload, configs, order)
        with installed(tracer) as absent:
            first = tracer.run_id + 1
            time_setup(cli, configs["bug_adaptive"], SETUP_REPEATS, tracer)
            setup_runs += range(first, tracer.run_id + 1)
            traced = run_pass(cli, workload, configs, order, tracer)
        pairs.append((plain, traced))
        if not _keep_going(began, time.perf_counter() - lap_began, seconds):
            break
    passes = [p for pair in pairs for p in pair]
    require_identical(passes)
    if absent:
        print(f"absent from the program, reported as 0: {', '.join(absent)}")

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}.npz"
    tracer.write(spans_path)
    print(f"spans: {len(tracer.start)} written to {spans_path.relative_to(ROOT)}")
    self_times = tracer.self_times()

    def per_step(scheme, layer, index):
        return _median(self_times.get((t[scheme].run_id, layer), (0.0, 0))[index] / t[scheme].steps
                       for _, t in pairs if not t[scheme].problems)

    metrics = {}
    for scheme in SCHEMES:
        for layer in SCHEME_LAYERS[scheme]:
            us = per_step(scheme, layer, 0)
            metrics[f"{scheme}.{layer}.us"] = None if us is None else us * 1e6
            if layer in COUNTED:
                metrics[f"{scheme}.{layer}.calls"] = per_step(scheme, layer, 1)
    for layer in SETUP_LAYERS:
        metrics[f"setup.{layer}.us"] = 1e6 * statistics.median(
            self_times.get((run, layer), (0.0, 0))[0] for run in setup_runs)
    ranks = pairs[0][1]["bug_adaptive"].ranks
    metrics["bug_adaptive.rank_mean"] = float(np.mean(ranks)) if ranks.size else None
    metrics["bug_adaptive.rank_max"] = float(np.max(ranks)) if ranks.size else None
    for scheme in SCHEMES:
        # Paired: a traced pass runs right after its plain pass, so slow drifts of
        # the host cancel in each difference.
        metrics[f"trace_overhead_us.{scheme}"] = _median(
            t[scheme].step_us - p[scheme].step_us for p, t in pairs
            if not p[scheme].problems and not t[scheme].problems)
    return passes, {name: (metrics[name], unit) for name, unit in per_layer_specs()}


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    """Machine, toolchain, thread pinning and source identity of this run."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "slabtrt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_summary(workload: Workload, passes):
    print(f"workload {workload.name}: {workload.scenario} eps={workload.epsilon} "
          f"{workload.nx}x{workload.n_moments} t_end={workload.t_end} "
          f"reference={workload.reference} passes={len(passes)}")
    for scheme in SCHEMES:
        run = passes[0][scheme]
        fig = " ".join(f"{k}={v:.3e}" for k, v in run.figures.items())
        steps = [p[scheme].step_us for p in passes if not p[scheme].problems]
        spread = f"{min(steps):.1f}..{max(steps):.1f}" if steps else "-"
        problems = sorted({msg for p in passes for msg in p[scheme].problems})
        print(f"  {scheme:<13} steps={run.steps:<6} step_us={spread:<20} {fig} "
              f"{'FAILED: ' + '; '.join(problems) if problems else 'ok'}")


def run_workload(cli, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object printed as the last line."""
    work = OUT_DIR / f"work-{workload.name}-{os.getpid()}"
    try:
        configs = write_configs(workload, work)
        run = traced_run if trace else timed_run
        passes, metrics = run(cli, workload, configs, random.Random(seed), seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_summary(workload, passes)
    runs = [r for p in passes for r in p.values()]
    failed = sum(1 for r in runs if r.problems)
    correct = failed == 0 and all(v is not None for v, _ in metrics.values())
    return {
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="`all` runs every workload in turn, one result line each")
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the schemes within each pass")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="time budget; passes repeat while the next one fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = load_cli()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment()}))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(cli, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
    return 0
