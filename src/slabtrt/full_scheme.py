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
    PhysicalParams,
    StaggeredGrid,
    diff_center,
    diff_interface,
)

__all__ = [
    "FullSchemeWorkspace",
    "emission_gradient_parts",
    "meso_macro_update",
    "step_full",
]

_BLOCK_BYTES = 512 * 1024  # g rows per step_full block: with output and differences 1.5 MB of L2


@dataclass(frozen=True)
class FullSchemeWorkspace:
    """Grid, material, and angular operators shared by one simulation."""

    grid: StaggeredGrid
    params: PhysicalParams
    sigma: AbsorptionField
    angular: AngularOperators

    def __post_init__(self):
        if self.sigma.at_centers.shape[0] != self.grid.n_cells:
            raise ValueError("absorption field does not match the grid")

    @cached_property
    def _flux_buffer(self) -> np.ndarray:
        """Difference rows of one row block of the dense step, plus its ghost row.

        Blocks hold at most _BLOCK_BYTES of g, in heights of 8 rows, so each starts
        where BLAS groups the rows of the whole state; a lone last row joins the block
        before it, since numpy takes a one-row product as a dot, summed in another
        order.
        """
        n_rows, width = self.grid.n_cells + 1, self.angular.n_moments + 1
        height = 8 * math.ceil(n_rows / math.ceil(n_rows * width * 8 / _BLOCK_BYTES) / 8)
        return np.empty((min(n_rows, height + 1) + 1, width))

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
    return thermal, thermal + ws.params.epsilon**2 * diff_interface(macro.h_meso, ws.grid)


def meso_macro_update(g1_new: np.ndarray, macro: MacroState, ws: FullSchemeWorkspace,
                      dt: float):
    """Implicit mesoscopic update followed by the explicit temperature update."""
    shift = ws.params.epsilon**2 / dt
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
    along T^T b and absorption is a pointwise scalar division. Row i of the new
    state reads difference rows i and i + 1 only, so the step runs over row blocks
    of g that stay in cache, their differences and rank-one terms in the workspace
    buffer; the new micro state is the only new n x (N+1) array. Order is forced by
    the implicit couplings: micro moments first, then the mesoscopic variable
    (which sees the new first moment g T pin), then temperature.
    """
    g = micro.g_matrix
    ws.check_step(macro, *g.shape, dt)
    eps, ang = ws.params.epsilon, ws.angular
    shift = eps**2 / dt
    mu = (eps / ws.grid.dx) * ang.quad.nodes
    neg = ang.n_neg  # the Gauss nodes ascend: mu < 0 on [:neg], mu >= 0 on [neg:]
    buffer = ws._flux_buffer
    n_rows, height = g.shape[0], buffer.shape[0] - 2  # a last block may have height + 1 rows
    # rows [g projection | -source]; the projection column is filled block by block
    rank_two = np.empty((n_rows, 2))
    np.negative(emission_gradient_parts(macro, ws)[1], out=rank_two[:, 1])
    denom = (shift + ws.sigma.at_interfaces)[:, None]
    g_new, g1_new = np.empty_like(g), np.empty(n_rows)
    for top in range(0, n_rows - 1, height):
        end = top + height if n_rows - top > height + 1 else n_rows
        # difference rows top..end: zero ghosts first, overwritten inside the state;
        # 0 - g, not -g, which would turn a +0 difference into -0
        diff = buffer[:end - top + 1]
        diff[0] = g[0]
        np.subtract(0.0, g[-1], out=diff[-1])
        lo, hi = max(top, 1), min(end, n_rows - 1)
        np.subtract(g[lo:hi + 1], g[lo - 1:hi], out=diff[lo - top:hi - top + 1])
        diff *= mu  # one full-width pass; the rows diff[0, :neg] and diff[-1, neg:] go unread
        forward, backward = diff[1:, :neg], diff[:-1, neg:]
        np.add(forward @ ang.t0[:neg], backward @ ang.t0[neg:], out=rank_two[top:end, 0])
        block = np.multiply(g[top:end], shift, out=g_new[top:end])
        block[:, :neg] -= forward
        block[:, neg:] -= backward
        block += np.matmul(rank_two[top:end], ang.t0_b, out=diff[:-1])
        block /= denom[top:end]
        np.matmul(block, ang.pin, out=g1_new[top:end])

    h_new, t_new = meso_macro_update(g1_new, macro, ws, dt)
    return MacroState(t_new, h_new), FullMicroState(g_new)
