"""Diffusion-limit reference solver, CFL bound, and energy/mass diagnostics."""

from __future__ import annotations

import numpy as np

from .angular import NORM_P0
from .full_scheme import FullSchemeWorkspace
from .mesh_state import MacroState, StaggeredGrid, diff_center, diff_interface

__all__ = [
    "cfl_report",
    "energy",
    "mass",
    "relative_mass_error",
    "rosseland_step",
    "rosseland_stable_dt",
    "l2_relative_difference",
]


def cfl_report(ws: FullSchemeWorkspace):
    """Largest energy-stable step size, blending hyperbolic and parabolic scalings, and the
    node that attains it; N + 1 >= 2 symmetric Gauss nodes include two nonzero ones."""
    nodes = ws.angular.quad.nodes
    nonzero = nodes[nodes != 0.0]
    dx = ws.grid.dx
    bounds = (2.0 * ws.epsilon * dx / np.abs(nonzero)
              + ws.sigma.sigma_min * dx**2 / nonzero**2) / (5.0 * ws.angular.beta_N)
    idx = int(np.argmin(bounds))
    return float(bounds[idx]), float(nonzero[idx])


def energy(macro: MacroState, micro_norm_sq: float, ws: FullSchemeWorkspace) -> float:
    """Discrete energy of the macro-micro system.

    micro_norm_sq is the squared dx-weighted norm of the micro moments
    (dense: dx * ||g||_F^2; factored: dx * ||S||_F^2).
    """
    if micro_norm_sq < 0.0:
        raise ValueError("micro_norm_sq must be nonnegative")
    eps, dx, t_sq = ws.epsilon, ws.grid.dx, macro.temperature_sq
    if macro.h_meso_sq == 0.0 and not macro.h_meso.any():
        core_sq = t_sq  # T + eps^2 * 0 squares to the bits of T
    else:
        core = macro.h_meso * eps**2
        core += macro.temperature
        # vdot, not @: a matmul ufunc that overflows on finite entries warns
        core_sq = float(np.vdot(core, core))
    e = core_sq * dx
    e += (eps / NORM_P0) ** 2 * micro_norm_sq
    e += 0.5 * t_sq * dx
    return e


def mass(macro: MacroState, ws: FullSchemeWorkspace) -> float:
    """Conserved total: scalar flux T + eps^2 h plus material heat content T / 2."""
    total = np.add.reduce  # the sum of ndarray.sum, without its Python wrapper
    return float((1.5 * total(macro.temperature)
                  + ws.epsilon**2 * total(macro.h_meso)) * ws.grid.dx)


def relative_mass_error(m_n: float, m_0: float) -> float:
    """|m_n - m_0| / |m_0|; zero initial mass is only valid when it stays zero."""
    if m_0 == 0.0:
        if m_n == 0.0:
            return 0.0
        raise ValueError("initial mass is zero but current mass is not")
    return abs(m_n - m_0) / abs(m_0)


def rosseland_step(temperature: np.ndarray, ws: FullSchemeWorkspace, dt: float) -> np.ndarray:
    """Explicit Euler step of the limiting diffusion equation.

    Serves as the small-epsilon oracle for the transport schemes; its parabolic
    stability limit is the caller's responsibility.
    """
    if not dt > 0.0:
        raise ValueError("dt must be strictly positive")
    grid, t = ws.grid, np.asarray(temperature, dtype=float)
    if t.shape != (grid.n_cells,):
        raise ValueError("temperature must have n_cells entries")

    # (1/sigma) * delta, not delta / sigma, which can change the last bit of the output
    flux = ws.sigma.inv_at_interfaces * diff_interface(t, grid)
    divergence = diff_center(flux, grid)

    divergence *= dt * (2.0 / 3.0) / 3.0
    divergence += t
    return divergence


def rosseland_stable_dt(ws: FullSchemeWorkspace) -> float:
    """Conservative parabolic bound dx^2 / (2 D_max) for the explicit limit solver."""
    diffusivity = (2.0 / 3.0) * float(ws.sigma.inv_at_interfaces.max())
    return ws.grid.dx**2 / (2.0 * diffusivity)


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
