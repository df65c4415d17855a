"""Flat-file configuration, simulation driver, and CSV emission."""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .bug_adaptive import step_bug_adaptive
from .bug_fixed import step_bug_fixed
from .full_scheme import EPSILON_MAX, FullSchemeWorkspace, step_full
from .limits_diagnostics import (
    cfl_report,
    energy,
    l2_relative_difference,
    mass,
    relative_mass_error,
    rosseland_stable_dt,
    rosseland_step,
)
from .mesh_state import (
    FullMicroState,
    MacroState,
    StaggeredGrid,
    _orth_defect,
    scalar_flux,
    zero_low_rank_state,
)
from .scenarios import SCENARIO_NAMES, Scenario, build_scenario, scenario_defaults

__all__ = [
    "SCHEMES",
    "RunConfig",
    "ConfigError",
    "parse_config",
    "run_simulation",
    "simulate",
    "main",
    "HISTORY_HEADER",
    "PROFILES_HEADER",
    "COMPARISON_HEADER",
]

SCHEMES = ("full", "bug_fixed", "bug_adaptive", "rosseland")

HISTORY_HEADER = "t,energy,mass,rel_mass_error,rank,dt,cfl_violation"
PROFILES_HEADER = "x,T,Phi,h"
COMPARISON_HEADER = "scheme_a,scheme_b,l2_rel_T,l2_rel_Phi"

# Slack on the CFL comparison so a step equal to the bound is not flagged.
_CFL_FLAG_SLACK = 1.0 + 1e-12
_ROSSELAND_SAFETY = 0.9
# The adaptive step carries the old bases into the new ones as they are, so their
# rounding accumulates, by about 1e-13 per 800-1,500 steps. `simulate` measures
# both orthogonality defects every _BASIS_CHECK_STEPS steps and orthonormalizes
# the bases again above _REORTH_TOL, a tenth of what LowRankMicroState accepts.
_BASIS_CHECK_STEPS = 50
_REORTH_TOL = 1e-13


class ConfigError(ValueError):
    """Raised for malformed or invalid configuration text."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; None means `use the scenario default`."""

    scenario: str
    scheme: str
    nx: int | None = None
    n_moments: int | None = None
    epsilon: float | None = None
    rank: int | None = None
    theta_rel: float | None = None
    t_end: float | None = None
    output_dir: str = "."
    history_stride: int = 1


_PARSERS = {
    "scenario": str,
    "scheme": str,
    "nx": int,
    "n_moments": int,
    "epsilon": float,
    "rank": int,
    "theta_rel": float,
    "t_end": float,
    "output_dir": str,
    "history_stride": int,
}


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` lines into a RunConfig; every problem names its line."""
    values: dict[str, object] = {}
    key_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        try:
            values[key] = _PARSERS[key](rhs)
            key_lines[key] = lineno
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: cannot parse value for '{key}': {rhs!r}") from exc
        if _PARSERS[key] is float and not np.isfinite(values[key]):
            raise ConfigError(f"line {lineno}: key '{key}': must be finite, got {rhs!r}")

    def fail(key: str, msg: str):
        where = f"line {key_lines[key]}: " if key in key_lines else ""
        raise ConfigError(f"{where}key '{key}': {msg}")

    for key in ("scenario", "scheme"):
        if key not in values:
            fail(key, "is required")
    config = RunConfig(**values)
    for key, allowed in (("scenario", SCENARIO_NAMES), ("scheme", SCHEMES)):
        if getattr(config, key) not in allowed:
            fail(key, f"must be one of {allowed}")
    if config.nx is not None and config.nx < 1:
        fail("nx", "must be a positive integer")
    if config.n_moments is not None and config.n_moments < 1:
        fail("n_moments", "must be a positive integer")
    if config.epsilon is not None and not 0.0 < config.epsilon <= EPSILON_MAX:
        fail("epsilon", f"must be strictly positive and at most {EPSILON_MAX:g}")
    problem = _start_problem(config)
    if problem:
        fail(*problem)
    if config.theta_rel is not None and config.theta_rel < 0.0:
        fail("theta_rel", "must be nonnegative")
    if config.t_end is not None and not _stop_time(config.t_end) > 0.0:
        fail("t_end", "must exceed 1e-14, or the run takes no step")
    if config.history_stride < 1:
        fail("history_stride", "must be a positive integer")
    return config


def _resolve(config: RunConfig) -> Scenario:
    """The config's problem: its scenario with each key the config sets in place of the
    default, and `fixed_rank` the start rank (as set, else bug_fixed's default, else 1)."""
    scn = scenario_defaults(config.scenario, config.epsilon)
    given = {key: getattr(config, key) for key in ("nx", "n_moments", "t_end", "theta_rel")}
    start = scn.fixed_rank if config.scheme == "bug_fixed" else 1
    return replace(scn, fixed_rank=start if config.rank is None else config.rank,
                   **{key: value for key, value in given.items() if value is not None})


def _start_problem(config: RunConfig):
    """(key, message) when the scheme cannot start from the resolved sizes, else None."""
    run = _resolve(config)
    if config.scheme == "bug_adaptive" and run.n_moments < 2:
        return "n_moments", "bug_adaptive needs at least 2 (the conserved column plus one)"
    most = min(run.nx + 1, run.n_moments)
    if config.rank is not None or config.scheme in ("bug_fixed", "bug_adaptive"):
        if not 1 <= run.fixed_rank <= most:
            hint = f" (scenario default {run.fixed_rank}; set it)" if config.rank is None else ""
            return "rank", f"must be between 1 and min(nx + 1, n_moments) = {most}{hint}"
    return None


def _write_csv(path: Path, header: str, rows):
    """One line per row; str gives text as is, plain digits for integers and the
    shortest round-trip decimal for floats, numpy's float64 included."""
    lines = [header, *(",".join(map(str, row)) for row in rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(eq=False)
class RunResult:
    """Final profiles plus per-step history of one simulation."""

    grid: StaggeredGrid
    macro: MacroState
    phi: np.ndarray
    history: list
    cfl_dt: float
    dt_used: float


def _stop_time(t_end: float) -> float:
    """Time from which a run counts as finished; absorbs the rounding of summed steps."""
    return t_end - 1e-14 * max(t_end, 1.0)


def simulate(scheme: str, macro: MacroState, ws: FullSchemeWorkspace, dt: float,
             t_end: float, rank: int = 1, theta_rel: float = 0.0):
    """Run one scheme to t_end, yielding (t, dt_step, macro, micro) for every state.

    The first item is the initial state (t = 0, dt_step = 0), then one follows
    each step of size min(dt, t_end - t). The micro moments start at zero, at
    equilibrium with the temperature: `full` from the dense zero state, the
    low-rank schemes from the zero state of `rank` (`bug_adaptive` truncates at
    theta_rel), and `rosseland` carries no micro moments, i.e. a state with
    zero columns. The transport states are nodal: their moments are (g T) T^T
    and X S (T V_basis)^T with T = ws.angular.T_mat. A step that raises
    ValueError, among them every step that would yield a non-finite state,
    aborts the run with a RuntimeError naming the step. The orthogonality
    defects of the `bug_adaptive` bases are measured in the initial state,
    after every _BASIS_CHECK_STEPS-th step and in the last state; above
    _REORTH_TOL both bases are orthonormalized again before the state is
    yielded.
    """
    n_rows = ws.grid.n_cells + 1
    if scheme == "full":
        micro = FullMicroState(np.zeros((n_rows, ws.angular.n_moments + 1)))

        def advance(macro, micro, dt_step):
            return step_full(macro, micro, ws, dt_step)
    elif scheme == "bug_fixed":
        micro = zero_low_rank_state(n_rows, ws.angular.T_mat, rank)

        def advance(macro, micro, dt_step):
            return step_bug_fixed(macro, micro, ws, dt_step)
    elif scheme == "bug_adaptive":
        micro = zero_low_rank_state(n_rows, ws.angular.T_mat, rank)

        def advance(macro, micro, dt_step):
            return step_bug_adaptive(macro, micro, ws, dt_step, theta_rel)
    elif scheme == "rosseland":
        micro = FullMicroState(np.zeros((n_rows, 0)))
        h_zero = np.zeros(ws.grid.n_cells)  # read-only once a MacroState holds it

        def advance(macro, micro, dt_step):
            t_new = rosseland_step(macro.temperature, ws, dt_step)
            return MacroState(t_new, h_zero), micro
    else:
        raise ValueError(f"scheme must be one of {SCHEMES}")

    t, dt_step, step = 0.0, 0.0, 0
    stop = _stop_time(t_end)
    while True:
        if scheme == "bug_adaptive" and (step % _BASIS_CHECK_STEPS == 0 or t >= stop) and max(
                _orth_defect(micro.X_basis), _orth_defect(micro.V_basis)) > _REORTH_TOL:
            micro = micro.reorthonormalized()
        yield t, dt_step, macro, micro
        if t >= stop:
            return
        dt_step = min(dt, t_end - t)
        step += 1
        try:
            macro, micro = advance(macro, micro, dt_step)
        except ValueError as exc:  # MacroState rejects a non-finite temperature too
            raise RuntimeError(f"simulation aborted at step {step}: {exc}") from exc
        t += dt_step


def _run(config: RunConfig) -> RunResult:
    run = _resolve(config)
    ws, macro = build_scenario(run)
    cfl_dt, _ = cfl_report(ws)
    dt = cfl_dt
    if config.scheme == "rosseland":
        # Explicit diffusion solve: respect the parabolic bound too.
        dt = min(dt, _ROSSELAND_SAFETY * rosseland_stable_dt(ws))

    m0 = mass(macro, ws)
    stop, flag_above = _stop_time(run.t_end), cfl_dt * _CFL_FLAG_SLACK
    history = []
    states = simulate(config.scheme, macro, ws, dt, run.t_end, run.fixed_rank, run.theta_rel)
    for step, (t, dt_step, macro, micro) in enumerate(states):
        if step and (step % config.history_stride == 0 or t >= stop):
            m_n = mass(macro, ws)
            history.append((
                t,
                energy(macro, micro.micro_norm_sq(ws.grid.dx), ws),
                m_n,
                relative_mass_error(m_n, m0),
                getattr(micro, "rank", 0),  # the dense and the diffusion scheme report 0
                dt_step,
                int(dt_step > flag_above),
            ))

    return RunResult(
        grid=ws.grid,
        macro=macro,
        phi=scalar_flux(macro, ws.epsilon),
        history=history,
        cfl_dt=cfl_dt,
        dt_used=dt,
    )


def _write_result(result: RunResult, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "history.csv", HISTORY_HEADER, result.history)
    macro = result.macro
    # one tolist() makes the Python floats
    _write_csv(out_dir / "profiles.csv", PROFILES_HEADER, np.column_stack([
        result.grid.centers, macro.temperature, result.phi, macro.h_meso]).tolist())


def run_simulation(config: RunConfig, out=None) -> int:
    """Run one scheme and write history.csv and profiles.csv to output_dir."""
    out = out if out is not None else sys.stdout
    result = _run(config)
    print(f"cfl_dt = {result.cfl_dt}", file=out)
    print(f"dt = {result.dt_used}", file=out)
    _write_result(result, Path(config.output_dir))
    return 0


def _cmd_cfl(config: RunConfig, out) -> int:
    dt, node = cfl_report(build_scenario(_resolve(config))[0])
    print(f"cfl_dt = {dt}", file=out)
    print(f"minimizing_node = {node}", file=out)
    return 0


def _cmd_sweep(config: RunConfig, schemes: str, out) -> int:
    schemes = [s.strip() for s in schemes.split(",") if s.strip()]
    # refuse before any scheme runs or writes
    if not schemes:
        raise ConfigError("--schemes: no scheme given")
    twice = sorted({s for s in schemes if schemes.count(s) > 1})
    if twice:
        raise ConfigError(f"--schemes: {','.join(twice)} named more than once")
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ConfigError(f"--schemes: unknown scheme '{scheme}' (choose from {SCHEMES})")
        problem = _start_problem(replace(config, scheme=scheme))
        if problem:
            raise ConfigError(f"scheme {scheme}: key '{problem[0]}': {problem[1]}")
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = {}
    for scheme in schemes:
        result = _run(replace(config, scheme=scheme))
        _write_result(result, out_dir / scheme)
        results[scheme] = result
        print(f"{scheme}: cfl_dt = {result.cfl_dt}, dt = {result.dt_used}", file=out)

    rows = []
    for i, name_a in enumerate(schemes):
        for name_b in schemes[i + 1:]:
            ra, rb = results[name_a], results[name_b]
            rows.append((
                name_a,
                name_b,
                l2_relative_difference(ra.macro.temperature, rb.macro.temperature, ra.grid),
                l2_relative_difference(ra.phi, rb.phi, ra.grid),
            ))
    _write_csv(out_dir / "comparison.csv", COMPARISON_HEADER, rows)
    return 0


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="slabtrt",
        description="1D gray thermal radiative transfer: moment and low-rank schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scheme and write CSV output")
    p_run.add_argument("config")

    p_cfl = sub.add_parser("cfl", help="print the stable step size and minimizing node")
    p_cfl.add_argument("config")

    p_sweep = sub.add_parser("sweep", help="run several schemes and compare profiles")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--schemes", default=",".join(SCHEMES))

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        config = parse_config(Path(args.config).read_text(encoding="utf-8-sig"))
        if args.command == "run":
            return run_simulation(config, out=out)
        if args.command == "cfl":
            return _cmd_cfl(config, out)
        return _cmd_sweep(config, args.schemes, out)
    except (ConfigError, OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
