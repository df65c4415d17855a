"""Canonical test cases: rectangular temperature pulse and the central absorber."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .angular import build_angular_operators
from .full_scheme import FullSchemeWorkspace
from .mesh_state import AbsorptionField, MacroState, StaggeredGrid

__all__ = [
    "Scenario",
    "SCENARIO_NAMES",
    "DIFFUSIVE_EPSILON_THRESHOLD",
    "X_MIN",
    "X_MAX",
    "SIGMA_BACKGROUND",
    "PULSE_STRENGTH",
    "PULSE_HALF_WIDTH",
    "scenario_defaults",
    "build_scenario",
]

SCENARIO_NAMES = ("rectangular_pulse", "absorber")

# Requested epsilon below this switches to the coarser diffusive-regime defaults.
DIFFUSIVE_EPSILON_THRESHOLD = 1e-2

# Both problems: the slab [X_MIN, X_MAX], the cross-section outside the absorber
# insert, and the pulse T = PULSE_STRENGTH / sigma on |x| <= PULSE_HALF_WIDTH.
X_MIN, X_MAX = -10.0, 10.0
SIGMA_BACKGROUND = 0.5
PULSE_STRENGTH = 100.0
PULSE_HALF_WIDTH = 0.5


@dataclass(frozen=True)
class Scenario:
    """Problem definition plus regime-dependent solver defaults."""

    sigma_insert: tuple[float, float, float] | None = None  # (value, x_lo, x_hi), inclusive
    nx: int = 501
    n_moments: int = 100
    epsilon: float = 1.0
    t_end: float = 1.5
    fixed_rank: int = 15
    theta_rel: float = 5e-2

    def absorption(self, x) -> np.ndarray:
        """Vectorized cross-section; insert edges are inclusive."""
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, SIGMA_BACKGROUND)
        if self.sigma_insert is not None:
            value, lo, hi = self.sigma_insert
            out[(x >= lo) & (x <= hi)] = value
        return out

    def initial_temperature(self, x) -> np.ndarray:
        """Pulse amplitude scaled by the local cross-section; edges are inclusive."""
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= PULSE_HALF_WIDTH, PULSE_STRENGTH / self.absorption(x), 0.0)


_BASE = {
    "rectangular_pulse": Scenario(),
    "absorber": Scenario(sigma_insert=(5.0, -0.25, 0.25)),
}


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


def build_scenario(scn: Scenario) -> tuple[FullSchemeWorkspace, MacroState]:
    """The workspace of a resolved scenario and its initial macro state.

    The grid spans [X_MIN, X_MAX] with `nx` cells and the angular operators have
    `n_moments` moments. The particle density starts at equilibrium with the
    temperature, so the micro moments and the mesoscopic correction vanish
    identically: the start state of every scheme is built from its sizes alone
    (cli_io.simulate).
    """
    grid = StaggeredGrid(X_MIN, X_MAX, scn.nx)  # refuses nx < 1
    sigma = AbsorptionField(scn.absorption(grid.centers), scn.absorption(grid.interfaces))
    ws = FullSchemeWorkspace(grid, scn.epsilon, sigma, build_angular_operators(scn.n_moments))
    return ws, MacroState(scn.initial_temperature(grid.centers), np.zeros(grid.n_cells))
