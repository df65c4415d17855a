"""Flat-file configuration, simulation driver, and CSV emission."""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .angular import build_angular_operators
from .bug_adaptive import TruncationConfig, step_bug_adaptive
from .bug_fixed import step_bug_fixed
from .full_scheme import FullSchemeWorkspace, step_full
from .limits_diagnostics import (
    DiagnosticsRecord,
    cfl_report,
    energy,
    l2_relative_difference,
    mass,
    relative_mass_error,
    rosseland_stable_dt,
    rosseland_step,
)
from .mesh_state import (
    BC_PERIODIC,
    BC_ZERO_GHOST,
    EMISSION_LINEAR,
    EMISSION_STEFAN_BOLTZMANN,
    MacroState,
    scalar_flux,
    zero_low_rank_state,
)
from .scenarios import SCENARIO_NAMES, build_scenario, scenario_defaults

__all__ = [
    "SCHEMES",
    "RunConfig",
    "ConfigError",
    "parse_config",
    "run_simulation",
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
    dt: float | None = None
    cfl_safety: float = 1.0
    emission: str = EMISSION_LINEAR
    bc: str = BC_ZERO_GHOST
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
    "dt": float,
    "cfl_safety": float,
    "emission": str,
    "bc": str,
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

    def fail(key: str, msg: str):
        where = f"line {key_lines[key]}: " if key in key_lines else ""
        raise ConfigError(f"{where}key '{key}': {msg}")

    if "scenario" not in values:
        fail("scenario", "is required")
    if "scheme" not in values:
        fail("scheme", "is required")
    if values["scenario"] not in SCENARIO_NAMES:
        fail("scenario", f"must be one of {SCENARIO_NAMES}")
    if values["scheme"] not in SCHEMES:
        fail("scheme", f"must be one of {SCHEMES}")

    config = RunConfig(**values)
    if config.nx is not None and config.nx < 1:
        fail("nx", "must be a positive integer")
    if config.n_moments is not None and config.n_moments < 1:
        fail("n_moments", "must be a positive integer")
    if config.epsilon is not None and not config.epsilon > 0.0:
        fail("epsilon", "must be strictly positive")
    if config.rank is not None and config.rank < 1:
        fail("rank", "must be at least 1")
    if config.theta_rel is not None and config.theta_rel < 0.0:
        fail("theta_rel", "must be nonnegative")
    if config.t_end is not None and not config.t_end > 0.0:
        fail("t_end", "must be strictly positive")
    if config.dt is not None and not config.dt > 0.0:
        fail("dt", "must be strictly positive")
    if not config.cfl_safety > 0.0:
        fail("cfl_safety", "must be strictly positive")
    if config.emission not in (EMISSION_LINEAR, EMISSION_STEFAN_BOLTZMANN):
        fail("emission", f"must be '{EMISSION_LINEAR}' or '{EMISSION_STEFAN_BOLTZMANN}'")
    if config.bc not in (BC_ZERO_GHOST, BC_PERIODIC):
        fail("bc", f"must be '{BC_ZERO_GHOST}' or '{BC_PERIODIC}'")
    if config.history_stride < 1:
        fail("history_stride", "must be a positive integer")
    return config


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats, plain digits for integers."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: Path, header: str, rows):
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class RunResult:
    """Final profiles plus per-step history of one simulation."""

    x: np.ndarray
    temperature: np.ndarray
    phi: np.ndarray
    h_meso: np.ndarray
    history: list
    cfl_dt: float
    dt_used: float


def _prepare(config: RunConfig):
    scn = scenario_defaults(config.scenario, config.epsilon)
    overrides = {"emission": config.emission}
    for key in ("nx", "n_moments", "epsilon"):
        value = getattr(config, key)
        if value is not None:
            overrides[key] = value
    built = build_scenario(config.scenario, overrides)
    angular = build_angular_operators(built.micro.n_moments)
    ws = FullSchemeWorkspace(built.grid, built.params, built.sigma, angular, bc=config.bc)
    return scn, built, ws


def _run(config: RunConfig) -> RunResult:
    scn, built, ws = _prepare(config)
    grid, params = built.grid, built.params
    cfl_dt, _ = cfl_report(params, grid, ws.angular, built.sigma)
    dt = config.dt if config.dt is not None else config.cfl_safety * cfl_dt
    if config.scheme == "rosseland":
        # Explicit diffusion solve: respect the parabolic bound regardless.
        parabolic = rosseland_stable_dt(built.macro.temperature, params, grid, built.sigma,
                                        ws.bc)
        dt = min(dt, _ROSSELAND_SAFETY * parabolic)
    t_end = config.t_end if config.t_end is not None else scn.t_end

    macro = built.macro
    dense = built.micro
    low_rank = None
    trunc_cfg = None
    n_mom = built.micro.n_moments
    if config.scheme == "bug_fixed":
        rank = config.rank if config.rank is not None else scn.fixed_rank
        low_rank = zero_low_rank_state(grid.n_cells + 1, n_mom, rank)
    elif config.scheme == "bug_adaptive":
        rank = config.rank if config.rank is not None else scn.adaptive_rank
        theta = config.theta_rel if config.theta_rel is not None else scn.theta_rel
        low_rank = zero_low_rank_state(grid.n_cells + 1, n_mom, rank)
        trunc_cfg = TruncationConfig(theta_rel=theta, max_rank=min(grid.n_cells + 1, n_mom))

    def micro_norm_sq() -> float:
        if config.scheme == "full":
            return float(np.sum(dense.g_matrix**2) * grid.dx)
        if low_rank is not None:
            return low_rank.micro_norm_sq(grid.dx)
        return 0.0

    def current_rank() -> int:
        return low_rank.rank if low_rank is not None else 0

    m0 = mass(macro, params, grid)
    history = []
    t = 0.0
    step = 0
    while t < t_end - 1e-14 * max(t_end, 1.0):
        dt_step = min(dt, t_end - t)
        step += 1
        try:
            if config.scheme == "full":
                macro, dense = step_full(macro, dense, ws, dt_step)
            elif config.scheme == "bug_fixed":
                macro, low_rank, _ = step_bug_fixed(macro, low_rank, ws, dt_step)
            elif config.scheme == "bug_adaptive":
                macro, low_rank, _ = step_bug_adaptive(macro, low_rank, ws, dt_step, trunc_cfg)
            else:
                t_new = rosseland_step(macro.temperature, params, grid, built.sigma,
                                       dt_step, bc=config.bc)
                macro = MacroState(t_new, np.zeros(grid.n_cells))
        except ValueError as exc:
            raise RuntimeError(f"simulation aborted at step {step}: {exc}") from exc
        if not np.all(np.isfinite(macro.temperature)):
            raise RuntimeError(f"simulation aborted at step {step}: non-finite temperature")
        t += dt_step
        if step % config.history_stride == 0 or t >= t_end - 1e-14 * max(t_end, 1.0):
            m_n = mass(macro, params, grid)
            record = DiagnosticsRecord(
                time=t,
                energy=energy(macro, micro_norm_sq(), params, grid),
                mass=m_n,
                rel_mass_error=relative_mass_error(m_n, m0),
                rank=current_rank(),
                dt=dt_step,
            )
            history.append((
                record.time,
                record.energy,
                record.mass,
                record.rel_mass_error,
                record.rank,
                record.dt,
                int(dt_step > cfl_dt * _CFL_FLAG_SLACK),
            ))

    return RunResult(
        x=grid.centers,
        temperature=macro.temperature,
        phi=scalar_flux(macro, params),
        h_meso=macro.h_meso,
        history=history,
        cfl_dt=cfl_dt,
        dt_used=dt,
    )


def run_simulation(config: RunConfig, out=None) -> int:
    """Run one scheme and write history.csv and profiles.csv to output_dir."""
    out = out if out is not None else sys.stdout
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = _run(config)
    print(f"cfl_dt = {_fmt(result.cfl_dt)}", file=out)
    print(f"dt = {_fmt(result.dt_used)}", file=out)
    _write_csv(out_dir / "history.csv", HISTORY_HEADER, result.history)
    profile_rows = zip(result.x, result.temperature, result.phi, result.h_meso)
    _write_csv(out_dir / "profiles.csv", PROFILES_HEADER, profile_rows)
    return 0


def _cmd_run(args, out) -> int:
    config = parse_config(Path(args.config).read_text(encoding="utf-8"))
    return run_simulation(config, out=out)


def _cmd_cfl(args, out) -> int:
    config = parse_config(Path(args.config).read_text(encoding="utf-8"))
    _, built, ws = _prepare(config)
    dt, node = cfl_report(built.params, built.grid, ws.angular, built.sigma)
    print(f"cfl_dt = {_fmt(dt)}", file=out)
    print(f"minimizing_node = {_fmt(node)}", file=out)
    return 0


def _cmd_sweep(args, out) -> int:
    config = parse_config(Path(args.config).read_text(encoding="utf-8"))
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ConfigError(f"key 'scheme': must be one of {SCHEMES}")
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = {}
    for scheme in schemes:
        sub = replace(config, scheme=scheme, output_dir=str(out_dir / scheme))
        Path(sub.output_dir).mkdir(parents=True, exist_ok=True)
        result = _run(sub)
        _write_csv(Path(sub.output_dir) / "history.csv", HISTORY_HEADER, result.history)
        profile_rows = zip(result.x, result.temperature, result.phi, result.h_meso)
        _write_csv(Path(sub.output_dir) / "profiles.csv", PROFILES_HEADER, profile_rows)
        results[scheme] = result
        print(f"{scheme}: cfl_dt = {_fmt(result.cfl_dt)}, dt = {_fmt(result.dt_used)}", file=out)

    _, built, _ = _prepare(config)
    rows = []
    for i, name_a in enumerate(schemes):
        for name_b in schemes[i + 1:]:
            ra, rb = results[name_a], results[name_b]
            rows.append((
                name_a,
                name_b,
                l2_relative_difference(ra.temperature, rb.temperature, built.grid),
                l2_relative_difference(ra.phi, rb.phi, built.grid),
            ))
    lines = [COMPARISON_HEADER]
    lines.extend(f"{a},{b},{_fmt(x)},{_fmt(y)}" for a, b, x, y in rows)
    (out_dir / "comparison.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
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
        if args.command == "run":
            return _cmd_run(args, out)
        if args.command == "cfl":
            return _cmd_cfl(args, out)
        return _cmd_sweep(args, out)
    except (ConfigError, FileNotFoundError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
