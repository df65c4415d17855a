"""Modal macro-micro finite-volume scheme with the dense micro state."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angular import NORM_P1, AngularOperators
from .mesh_state import (
    BC_PERIODIC,
    BC_ZERO_GHOST,
    AbsorptionField,
    FullMicroState,
    MacroState,
    PhysicalParams,
    StaggeredGrid,
    beta_fields,
    diff_center,
    diff_interface,
    padded_difference,
)

__all__ = [
    "FullSchemeWorkspace",
    "emission_gradient_parts",
    "emission_gradient_source",
    "meso_macro_update",
    "micro_update",
    "step_full",
]


@dataclass
class FullSchemeWorkspace:
    """Grid, material, and angular operators shared by one simulation."""

    grid: StaggeredGrid
    params: PhysicalParams
    sigma: AbsorptionField
    angular: AngularOperators
    bc: str = BC_ZERO_GHOST

    def __post_init__(self):
        if self.sigma.at_centers.shape[0] != self.grid.n_cells:
            raise ValueError("absorption field does not match the grid")
        if self.bc not in (BC_ZERO_GHOST, BC_PERIODIC):
            raise ValueError(f"bc must be '{BC_ZERO_GHOST}' or '{BC_PERIODIC}'")

    def check_step(self, macro: MacroState, n_rows: int, n_moments: int, dt: float):
        """Reject a step size, or a macro state and micro shape that do not fit."""
        if not dt > 0.0:
            raise ValueError("dt must be strictly positive")
        if macro.n_cells != self.grid.n_cells:
            raise ValueError("macro state does not match the grid")
        if n_rows != self.grid.n_cells + 1:
            raise ValueError("micro state must live on the n_cells + 1 interfaces")
        if n_moments != self.angular.n_moments:
            raise ValueError("micro state moment count does not match angular operators")


def emission_gradient_parts(macro: MacroState, ws: FullSchemeWorkspace):
    """Thermal gradient beta * delta0(a c T) and the full first-moment source.

    The source adds eps^2 * delta0(h) to the thermal part; the thermal part over
    sigma is the diffusion-limit direction. Returns (thermal, source).
    """
    p = ws.params
    _, beta_if = beta_fields(macro, p.emission, ws.bc)
    thermal = beta_if * diff_interface(p.a_rad * p.c * macro.temperature, ws.grid, ws.bc)
    return thermal, thermal + p.epsilon**2 * diff_interface(macro.h_meso, ws.grid, ws.bc)


def emission_gradient_source(macro: MacroState, ws: FullSchemeWorkspace) -> np.ndarray:
    """Interface source beta * delta0(a c T) + eps^2 * delta0(h) driving the first moment."""
    return emission_gradient_parts(macro, ws)[1]


def micro_update(k: np.ndarray, flux_plus: np.ndarray, flux_minus: np.ndarray,
                 b_proj: np.ndarray, source: np.ndarray, ws: FullSchemeWorkspace,
                 dt: float) -> np.ndarray:
    """One implicit-absorption step of micro moments K held in an angular basis V.

    flux_plus/minus are V^T A+- V and b_proj is V^T b; with V = I this is the
    dense update, and with the K-step's basis it is the K-step. Advection is
    explicit and upwind-split, the interface source enters along the
    first-moment direction, and absorption is a pointwise scalar division.
    """
    p = ws.params
    shift = p.epsilon**2 / (p.c * dt)
    diffs = padded_difference(k, ws.grid, ws.bc)
    advect = diffs[:-1] @ flux_plus + diffs[1:] @ flux_minus
    rhs = shift * k - p.epsilon * advect - np.outer(source, b_proj)
    return rhs / (shift + ws.sigma.at_interfaces)[:, None]


def meso_macro_update(g1_new: np.ndarray, macro: MacroState, ws: FullSchemeWorkspace,
                      dt: float):
    """Implicit mesoscopic update followed by the explicit temperature update."""
    p = ws.params
    beta_c, _ = beta_fields(macro, p.emission, ws.bc)
    shift = p.epsilon**2 / (p.c * dt)
    div_g1 = diff_center(g1_new, ws.grid)
    denom = shift + ws.sigma.at_centers * (1.0 + p.a_rad * p.alpha * beta_c)
    h_new = (shift * macro.h_meso - 0.5 * NORM_P1 * div_g1) / denom
    t_new = macro.temperature + dt * p.alpha * ws.sigma.at_centers * h_new
    return h_new, t_new


def step_full(macro: MacroState, micro: FullMicroState, ws: FullSchemeWorkspace,
              dt: float):
    """Advance the dense macro-micro system by one forward-backward Euler step.

    Order is forced by the implicit couplings: micro moments first, then the
    mesoscopic variable (which sees the new first moment), then temperature.
    """
    ws.check_step(macro, *micro.g_matrix.shape, dt)

    ang = ws.angular
    g_new = micro_update(micro.g_matrix, ang.A_plus, ang.A_minus, ang.b_vec,
                         emission_gradient_source(macro, ws), ws, dt)
    h_new, t_new = meso_macro_update(g_new[:, 0], macro, ws, dt)
    return MacroState(t_new, h_new), FullMicroState(g_new)
