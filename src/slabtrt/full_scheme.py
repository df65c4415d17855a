"""Macro-micro finite-volume scheme with the dense micro state in nodal coordinates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .angular import NORM_P1, AngularOperators
from .mesh_state import (
    AbsorptionField,
    FullMicroState,
    MacroState,
    StaggeredGrid,
    diff_center,
    diff_interface,
)

__all__ = [
    "EPSILON_MAX",
    "FullSchemeWorkspace",
    "emission_gradient_parts",
    "meso_macro_update",
    "step_full",
]

# Largest accepted epsilon: every step forms eps^2 / dt with dt > 1e-14, and every scheme runs
# clean under -W error to eps = 1e147 there; eps^2 / dt overflows from 1e150 at dt = 1e-13.
EPSILON_MAX = 1e100
_BLOCK_BYTES = 512 * 1024  # g rows per step_full block: with output and differences 1.5 MB of L2


@dataclass(frozen=True)
class FullSchemeWorkspace:
    """The problem every scheme advances: grid, scaling epsilon, absorption and
    angular operators.

    The model is written in units with a = c = c_nu = 1: the emission is
    B(T) = T and the material heat content is T / 2.
    """

    grid: StaggeredGrid
    epsilon: float
    sigma: AbsorptionField
    angular: AngularOperators

    def __post_init__(self):
        if not 0.0 < self.epsilon <= EPSILON_MAX:
            raise ValueError(f"epsilon must be strictly positive and at most {EPSILON_MAX:g}")
        if self.sigma.at_centers.shape[0] != self.grid.n_cells:
            raise ValueError("absorption field does not match the grid")

    @cached_property
    def _flux_buffer(self) -> np.ndarray:
        """Upwind difference rows of one row block of the dense step.

        Blocks hold at most _BLOCK_BYTES of g, in heights of 8 rows, so each starts
        where BLAS groups the rows of the whole state; a lone last row joins the block
        before it, since numpy takes a one-row product as a dot, summed in another
        order.
        """
        n_rows, width = self.grid.n_cells + 1, self.angular.n_moments + 1
        height = 8 * math.ceil(n_rows / math.ceil(n_rows * width * 8 / _BLOCK_BYTES) / 8)
        return np.empty((min(n_rows, height + 1), width))

    def check_step(self, macro: MacroState, n_rows: int, n_nodes: int, dt: float):
        """Reject a step size, or a macro state and nodal micro shape that do not fit."""
        if not dt > 0.0:
            raise ValueError("dt must be strictly positive")
        if macro.n_cells != self.grid.n_cells:
            raise ValueError("macro state does not match the grid")
        if n_rows != self.grid.n_cells + 1:
            raise ValueError("micro state must live on the n_cells + 1 interfaces")
        if n_nodes != self.angular.n_moments + 1:
            raise ValueError("nodal micro state must have n_moments + 1 columns")


def emission_gradient_parts(macro: MacroState, ws: FullSchemeWorkspace):
    """Thermal gradient delta0(T) and the full first-moment source.

    The source adds eps^2 * delta0(h) to the thermal part; the thermal part over
    sigma is the diffusion-limit direction. Returns (thermal, source).
    """
    thermal = diff_interface(macro.temperature, ws.grid)
    return thermal, thermal + ws.epsilon**2 * diff_interface(macro.h_meso, ws.grid)


def meso_macro_update(g1_new: np.ndarray, macro: MacroState, ws: FullSchemeWorkspace,
                      dt: float):
    """Implicit mesoscopic update followed by the explicit temperature update."""
    shift = ws.epsilon**2 / dt
    div_g1 = diff_center(g1_new, ws.grid)
    denom = shift + ws.sigma.at_centers * 3.0
    h_new = (shift * macro.h_meso - 0.5 * NORM_P1 * div_g1) / denom
    t_new = macro.temperature + dt * 2.0 * ws.sigma.at_centers * h_new
    return h_new, t_new


def step_full(macro: MacroState, micro: FullMicroState, ws: FullSchemeWorkspace,
              dt: float):
    """Advance the dense macro-micro system by one forward-backward Euler step.

    The micro state is nodal, g T (T = angular.T_mat; (g T) T^T = g). With
    A+- = T diag(mu+-) T^T the flux of g T is (D- g T diag(mu+) + D+ g T diag(mu-)) P
    with P = T^T T = I - t0 t0^T: per node an upwind difference times mu, forward
    where mu < 0 and backward where mu >= 0, projected off t0. The source enters
    along T^T b and absorption scales row i by 1 / (shift + sigma_i). Row i of the
    new state reads rows i - 1..i + 1 of g only, so the step runs over row blocks
    of g that stay in cache, their differences and rank-one terms in the workspace
    buffer, and sums the squared norm of each new block there; the new micro state
    is the only new n x (N+1) array. Order is forced by the implicit couplings:
    micro moments first, then the mesoscopic variable (which sees the new first
    moment g T pin), then temperature.
    """
    g = micro.g_matrix
    ws.check_step(macro, *g.shape, dt)
    eps, ang = ws.epsilon, ws.angular
    shift = eps**2 / dt
    mu = (eps / ws.grid.dx) * ang.quad.nodes
    neg = ang.n_neg  # the Gauss nodes ascend: mu < 0 on [:neg], mu >= 0 on [neg:]
    buffer = ws._flux_buffer
    n_rows, height = g.shape[0], buffer.shape[0] - 1  # a last block may have height + 1 rows
    # rows [g projection | -source]; the projection column is filled block by block
    rank_two = np.empty((n_rows, 2))
    np.negative(emission_gradient_parts(macro, ws)[1], out=rank_two[:, 1])
    inv = (1.0 / (shift + ws.sigma.at_interfaces))[:, None]
    g_new, g1_new = np.empty_like(g), np.empty(n_rows)
    norm_sq = 0.0
    for top in range(0, n_rows - 1, height):
        end = top + height if n_rows - top > height + 1 else n_rows
        # row i of `up` holds what new row top + i reads: the forward difference where
        # mu < 0 and the backward one where mu >= 0, with zero ghost rows outside the
        # state; 0 - g, not -g, which would turn a +0 difference into -0
        up = buffer[:end - top]
        lo, hi = max(top, 1), min(end, n_rows - 1)
        np.subtract(g[top + 1:hi + 1, :neg], g[top:hi, :neg], out=up[:hi - top, :neg])
        if hi < end:
            np.subtract(0.0, g[-1, :neg], out=up[-1, :neg])
        np.subtract(g[lo:end, neg:], g[lo - 1:end - 1, neg:], out=up[lo - top:, neg:])
        if lo > top:
            up[0, neg:] = g[0, neg:]
        up *= mu
        np.add(up[:, :neg] @ ang.t0[:neg], up[:, neg:] @ ang.t0[neg:], out=rank_two[top:end, 0])
        block = np.multiply(g[top:end], shift, out=g_new[top:end])
        block -= up
        block += np.matmul(rank_two[top:end], ang.t0_b, out=up)
        block *= inv[top:end]
        np.matmul(block, ang.pin, out=g1_new[top:end])
        norm_sq += np.vdot(block, block)  # while the block is in cache

    micro_new = FullMicroState._trusted(g_new, norm_sq)  # refuses a non-finite g first
    h_new, t_new = meso_macro_update(g1_new, macro, ws, dt)
    return MacroState(t_new, h_new), micro_new
