"""Canonical test cases: rectangular temperature pulse and the central absorber."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .mesh_state import (
    AbsorptionField,
    MacroState,
    PhysicalParams,
    StaggeredGrid,
    absorption_from_function,
)

__all__ = [
    "Scenario",
    "BuiltScenario",
    "SCENARIO_NAMES",
    "DIFFUSIVE_EPSILON_THRESHOLD",
    "scenario_defaults",
    "build_scenario",
]

SCENARIO_NAMES = ("rectangular_pulse", "absorber")

# Requested epsilon below this switches to the coarser diffusive-regime defaults.
DIFFUSIVE_EPSILON_THRESHOLD = 1e-2


@dataclass(frozen=True)
class Scenario:
    """Problem definition plus regime-dependent solver defaults."""

    name: str
    x_min: float = -10.0
    x_max: float = 10.0
    sigma_background: float = 0.5
    sigma_insert: tuple[float, float, float] | None = None  # (value, x_lo, x_hi), inclusive
    pulse_strength: float = 100.0
    pulse_half_width: float = 0.5
    nx: int = 501
    n_moments: int = 100
    epsilon: float = 1.0
    t_end: float = 1.5
    fixed_rank: int = 15
    theta_rel: float = 5e-2

    def sigma_fn(self):
        """Vectorized cross-section; insert edges are inclusive."""
        background = self.sigma_background
        insert = self.sigma_insert

        def sigma(x):
            x = np.asarray(x, dtype=float)
            out = np.full_like(x, background)
            if insert is not None:
                value, lo, hi = insert
                out[(x >= lo) & (x <= hi)] = value
            return out

        return sigma

    def initial_temperature_fn(self):
        """Pulse amplitude scaled by the local cross-section; edges are inclusive."""
        sigma = self.sigma_fn()
        strength, half_width = self.pulse_strength, self.pulse_half_width

        def t0(x):
            x = np.asarray(x, dtype=float)
            inside = np.abs(x) <= half_width
            return np.where(inside, strength / sigma(x), 0.0)

        return t0


@dataclass(frozen=True)
class BuiltScenario:
    """Realized grid, material data, and initial macro state.

    The run starts at equilibrium: the micro moments are zero, so the start
    state of every scheme is built from its sizes alone (cli_io.simulate).
    """

    grid: StaggeredGrid
    params: PhysicalParams
    sigma: AbsorptionField
    macro: MacroState


_BASE = {
    "rectangular_pulse": Scenario(name="rectangular_pulse"),
    "absorber": Scenario(name="absorber", sigma_insert=(5.0, -0.25, 0.25)),
}

_OVERRIDE_KEYS = ("nx", "epsilon")


def scenario_defaults(name: str, epsilon: float | None = None) -> Scenario:
    """Scenario with regime defaults resolved from the requested epsilon."""
    if name not in _BASE:
        raise ValueError(f"unknown scenario '{name}' (choose from {SCENARIO_NAMES})")
    scn = _BASE[name]
    if epsilon is not None:
        scn = replace(scn, epsilon=float(epsilon))
        if epsilon < DIFFUSIVE_EPSILON_THRESHOLD:
            scn = replace(scn, nx=201, fixed_rank=1)
    return scn


def build_scenario(name: str, overrides: dict | None = None) -> BuiltScenario:
    """Construct grid, material, and equilibrium initial data for a named case.

    The particle density starts at equilibrium with the temperature, so the micro
    moments and the mesoscopic correction vanish identically.
    """
    overrides = dict(overrides or {})
    unknown = set(overrides) - set(_OVERRIDE_KEYS)
    if unknown:
        raise ValueError(f"unknown scenario overrides: {sorted(unknown)}")

    scn = scenario_defaults(name, overrides.get("epsilon"))
    nx = int(overrides.get("nx", scn.nx))
    grid = StaggeredGrid(scn.x_min, scn.x_max, nx)  # refuses nx < 1
    params = PhysicalParams(epsilon=scn.epsilon)
    sigma = absorption_from_function(scn.sigma_fn(), grid)
    t0 = scn.initial_temperature_fn()(grid.centers)
    macro = MacroState(t0, np.zeros(nx))
    return BuiltScenario(grid=grid, params=params, sigma=sigma, macro=macro)
