"""Observed order of convergence of the transport schemes under grid refinement."""

import math

import numpy as np
import pytest

from slabtrt.angular import build_angular_operators
from slabtrt.cli_io import simulate
from slabtrt.full_scheme import FullSchemeWorkspace
from slabtrt.limits_diagnostics import cfl_report
from slabtrt.mesh_state import AbsorptionField, MacroState, StaggeredGrid


def final_temperature(scheme, nx, epsilon, t_end, n_moments=8):
    """T at t_end from a smooth start on [-1, 1] with nx cells, dt at the CFL bound.

    T = cos(pi x / 2)^4 and sigma = 1 + cos(pi x)^2 / 2 are smooth, and T and its
    first derivatives vanish at the ends, where the zero ghost cells sit; the
    micro moments start at zero, at equilibrium with T."""
    grid = StaggeredGrid(-1.0, 1.0, nx)

    def sigma(x):
        return 1.0 + 0.5 * np.cos(np.pi * x) ** 2

    ws = FullSchemeWorkspace(grid, epsilon, AbsorptionField(sigma(grid.centers),
                                                            sigma(grid.interfaces)),
                             build_angular_operators(n_moments))
    macro = MacroState(np.cos(0.5 * np.pi * grid.centers) ** 4, np.zeros(nx))
    for _, _, macro, _ in simulate(scheme, macro, ws, cfl_report(ws)[0], t_end, 1, 5e-2):
        pass
    return macro.temperature


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("epsilon, t_end", [(1.0, 0.5), (1e-5, 0.05)])
@pytest.mark.parametrize("scheme", ["full", "bug_adaptive"])
def test_richardson_order_is_at_least_first(scheme, epsilon, t_end):
    # self-convergence over 20, 40 and 80 cells: each cell of a grid is the union
    # of two cells of the next, whose mean restricts the finer T to it. The order
    # log2(|T_20 - R T_40| / |T_40 - R T_80|) is 1.46 at eps = 1, where the step is
    # upwind in space and Euler in time, and 1.98 at eps = 1e-5, where dt ~ dx^2
    # and the step tends to a centred diffusion scheme; `bug_adaptive` at the
    # shipped truncation tolerance gives the same to 3 digits
    temps = [final_temperature(scheme, nx, epsilon, t_end) for nx in (20, 40, 80)]

    def gap(coarse, fine):
        return np.linalg.norm(coarse - 0.5 * (fine[0::2] + fine[1::2])) / math.sqrt(coarse.size)

    order = math.log2(gap(temps[0], temps[1]) / gap(temps[1], temps[2]))
    assert order >= 0.9, f"observed order {order:.3f}"
