"""Diffusion-limit reference solver, CFL bound, and energy/mass diagnostics."""

from __future__ import annotations

import numpy as np

from .angular import NORM_P0, AngularOperators
from .mesh_state import (
    BC_ZERO_GHOST,
    AbsorptionField,
    MacroState,
    PhysicalParams,
    StaggeredGrid,
    diff_interface,
)

__all__ = [
    "cfl_report",
    "energy",
    "mass",
    "relative_mass_error",
    "rosseland_step",
    "rosseland_stable_dt",
    "l2_relative_difference",
]


def cfl_report(params: PhysicalParams, grid: StaggeredGrid, angular: AngularOperators,
               sigma: AbsorptionField):
    """Largest energy-stable step size, blending hyperbolic and parabolic scalings, and the
    node that attains it; N + 1 >= 2 symmetric Gauss nodes include two nonzero ones."""
    nodes = angular.quad.nodes
    nonzero = nodes[nodes != 0.0]
    dx = grid.dx
    bounds = (2.0 * params.epsilon * dx / np.abs(nonzero)
              + sigma.sigma_min * dx**2 / nonzero**2) / (5.0 * params.c * angular.beta_N)
    idx = int(np.argmin(bounds))
    return float(bounds[idx]), float(nonzero[idx])


def energy(macro: MacroState, micro_norm_sq: float, params: PhysicalParams,
           grid: StaggeredGrid) -> float:
    """Discrete energy of the macro-micro system.

    micro_norm_sq is the squared dx-weighted norm of the micro moments
    (dense: dx * ||g||_F^2; factored: dx * ||S||_F^2).
    """
    if micro_norm_sq < 0.0:
        raise ValueError("micro_norm_sq must be nonnegative")
    p, t = params, macro.temperature
    core = p.a_rad * t + (p.epsilon**2 / p.c) * macro.h_meso
    e = float(core @ core * grid.dx)
    e += (p.epsilon / (NORM_P0 * p.c)) ** 2 * micro_norm_sq
    e += 0.5 * p.a_rad * p.c_nu * float(t @ t) * grid.dx
    return e


def mass(macro: MacroState, params: PhysicalParams, grid: StaggeredGrid) -> float:
    """Conserved total: scalar flux over c plus material heat content."""
    p = params
    return float(((p.a_rad + 0.5 * p.c_nu) * macro.temperature.sum()
                  + (p.epsilon**2 / p.c) * macro.h_meso.sum()) * grid.dx)


def relative_mass_error(m_n: float, m_0: float) -> float:
    """|m_n - m_0| / |m_0|; zero initial mass is only valid when it stays zero."""
    if m_0 == 0.0:
        if m_n == 0.0:
            return 0.0
        raise ValueError("initial mass is zero but current mass is not")
    return abs(m_n - m_0) / abs(m_0)


def rosseland_step(temperature: np.ndarray, params: PhysicalParams, grid: StaggeredGrid,
                   sigma: AbsorptionField, dt: float, bc: str = BC_ZERO_GHOST) -> np.ndarray:
    """Explicit Euler step of the limiting diffusion equation.

    Serves as the small-epsilon oracle for the transport schemes; its parabolic
    stability limit is the caller's responsibility.
    """
    if not dt > 0.0:
        raise ValueError("dt must be strictly positive")
    t = np.asarray(temperature, dtype=float)
    if t.shape != (grid.n_cells,):
        raise ValueError("temperature must have n_cells entries")
    p = params

    # (1/sigma) * delta, not delta / sigma, which can change the last bit of the output
    flux = 1.0 / sigma.at_interfaces * diff_interface(t, grid, bc)
    divergence = np.diff(flux) / grid.dx

    coef = dt * (2.0 * p.a_rad * p.c / (3.0 * p.c_nu)) / (1.0 + 2.0 * p.a_rad / p.c_nu)
    return t + coef * divergence


def rosseland_stable_dt(params: PhysicalParams, grid: StaggeredGrid,
                        sigma: AbsorptionField) -> float:
    """Conservative parabolic bound dx^2 / (2 D_max) for the explicit limit solver."""
    p = params
    diffusivity = (2.0 * p.a_rad * p.c / (3.0 * p.c_nu)) * np.max(1.0 / sigma.at_interfaces)
    if diffusivity <= 0.0:
        return np.inf
    return grid.dx**2 / (2.0 * diffusivity)


def l2_relative_difference(u: np.ndarray, v: np.ndarray, grid: StaggeredGrid) -> float:
    """dx-weighted relative L2 difference ||u - v|| / ||v|| (zero-safe)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError("profiles must have equal length")
    diff = float(np.sqrt(np.sum((u - v) ** 2) * grid.dx))
    ref = float(np.sqrt(np.sum(v**2) * grid.dx))
    if diff == 0.0:
        return 0.0
    return diff / max(ref, np.finfo(float).tiny)
