"""Modal macro-micro finite-volume scheme with the dense micro state."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .angular import NORM_P1, AngularOperators, recurrence_coeff
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

_PARITIES = (slice(0, None, 2), slice(1, None, 2))  # columns 0, 2, 4, ... and 1, 3, 5, ...

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

    @cached_property
    def _split_advection(self):
        """A's super-diagonal A[i, i+1] = a_{i+1} at even and odd i, the parity blocks of
        the nodal |A|, both times eps / (2 dx), and per parity the stencil buffers."""
        scale = self.params.epsilon / (2.0 * self.grid.dx)
        upper = scale * recurrence_coeff(np.arange(1.0, self.angular.n_moments))
        t_mat, mu_abs = self.angular.T_mat, np.abs(self.angular.quad.nodes)
        blocks = [scale * (t_mat[par] * mu_abs) @ t_mat[par].T for par in _PARITIES]
        buffers = [[np.empty((self.grid.n_cells + i, len(b))) for i in (2, 1, 1)] for b in blocks]
        return (upper[0::2], upper[1::2]), blocks, buffers

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


def _split_rhs(g: np.ndarray, shift: float, ws: FullSchemeWorkspace) -> np.ndarray:
    """shift g - eps (D- g A+ + D+ g A-), with D- A+ + D+ A- = (C A + J |A|) / (2 dx).

    The stencils C g = g_{j+1} - g_{j-1}, J g = 2 g_j - g_{j-1} - g_{j+1} go into the
    buffers of each parity. A (zero diagonal) maps each parity to the other through
    its super-diagonal; |A| keeps parity and is one GEMM per parity.
    """
    (upper_even, upper_odd), blocks, buffers = ws._split_advection
    rhs = np.multiply(g, shift)
    for par, block, (diff, central, jump) in zip(_PARITIES, blocks, buffers):
        half = g[:, par]
        ghost_l, ghost_r = (half[-1], half[0]) if ws.bc == BC_PERIODIC else (0.0, 0.0)
        np.subtract(half[0], ghost_l, out=diff[0])
        np.subtract(half[1:], half[:-1], out=diff[1:-1])
        np.subtract(ghost_r, half[-1], out=diff[-1])
        np.add(diff[:-1], diff[1:], out=central)
        np.subtract(diff[:-1], diff[1:], out=jump)
        np.matmul(jump, block, out=diff[:-1])  # from here on jump is scratch
    (res_e, cen_e, jump_e), (res_o, cen_o, jump_o) = [(d[:-1], c, j) for d, c, j in buffers]
    n_odd, n_up = len(upper_even), len(upper_odd)
    # column 2m couples to columns 2m -+ 1 through upper[2m - 1] and upper[2m]
    res_e[:, :n_odd] += np.multiply(cen_o, upper_even, out=jump_o)
    res_e[:, 1:] += np.multiply(cen_o[:, :n_up], upper_odd, out=jump_e[:, :n_up])
    res_o += np.multiply(cen_e[:, :n_odd], upper_even, out=jump_o)
    res_o[:, :n_up] += np.multiply(cen_e[:, 1:], upper_odd, out=jump_o[:, :n_up])
    for par, res in zip(_PARITIES, (res_e, res_o)):
        np.subtract(rhs[:, par], res, out=rhs[:, par])
    return rhs


def micro_update(k: np.ndarray, flux, b_proj: np.ndarray, source: np.ndarray,
                 ws: FullSchemeWorkspace, dt: float) -> np.ndarray:
    """One implicit-absorption step of micro moments K held in an angular basis V.

    flux = (V^T A+ V, V^T A- V) and b_proj = V^T b is the K-step; flux None is the
    dense update (V = I, b = |P_1| e_1) in split form. Advection is explicit and
    upwind-split, the interface source enters along the first-moment direction,
    and absorption is a pointwise scalar division.
    """
    p = ws.params
    shift = p.epsilon**2 / (p.c * dt)
    if flux is None:
        rhs = _split_rhs(k, shift, ws)
        rhs[:, 0] -= source * b_proj[0]
    else:
        diffs = padded_difference(k, ws.grid, ws.bc)
        advect = diffs[:-1] @ flux[0] + diffs[1:] @ flux[1]
        rhs = shift * k - p.epsilon * advect - np.outer(source, b_proj)
    rhs /= (shift + ws.sigma.at_interfaces)[:, None]
    return rhs


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

    g_new = micro_update(micro.g_matrix, None, ws.angular.b_vec,
                         emission_gradient_source(macro, ws), ws, dt)
    h_new, t_new = meso_macro_update(g_new[:, 0], macro, ws, dt)
    return MacroState(t_new, h_new), FullMicroState(g_new)
