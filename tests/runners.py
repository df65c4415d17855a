"""In-memory simulation driver with per-step traces, for test assertions."""

from dataclasses import dataclass, field, replace

import numpy as np

from slabtrt.cli_io import simulate
from slabtrt.limits_diagnostics import cfl_report, energy, mass
from slabtrt.mesh_state import LowRankMicroState
from slabtrt.scenarios import build_scenario, scenario_defaults


def build_problem(name, nx, n_moments, epsilon=None):
    """Workspace and start state of a named scenario at the given sizes; epsilon None
    keeps the scenario's, and a given one picks the regime defaults as a config does."""
    return build_scenario(replace(scenario_defaults(name, epsilon), nx=nx, n_moments=n_moments))


@dataclass
class Trace:
    """Diagnostics of one run: the initial state, then one entry per step."""

    times: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    masses: list = field(default_factory=list)
    ranks: list = field(default_factory=list)
    support_margins: list = field(default_factory=list)


def _support_margin(temperature, h_meso, row_norms, scale):
    """Distance in cells from the active solution support to the nearest boundary."""
    tol = 1e-12 * scale
    active_c = (np.abs(temperature) > tol) | (np.abs(h_meso) > tol)
    active_i = row_norms > tol
    active = active_c.copy()
    active[:-1] |= active_i[1:-1]
    active[1:] |= active_i[1:-1]
    active[0] |= active_i[0]
    active[-1] |= active_i[-1]
    idx = np.nonzero(active)[0]
    if idx.size == 0:
        return len(temperature)
    return int(min(idx[0], len(temperature) - 1 - idx[-1]))


def _moment_row_norms(micro):
    """Norm of the micro moments at each interface; V is orthonormal, so |X S| rows do."""
    if isinstance(micro, LowRankMicroState):
        return np.linalg.norm(micro.X_basis @ micro.S_coeff, axis=1)
    return np.linalg.norm(micro.g_matrix, axis=1)


def run_desk(scheme, nx=101, n_moments=30, epsilon=1.0, rank=5, t_end=1.5):
    """Drive one transport scheme on the rectangular pulse at the CFL step.

    The trace starts with the initial state, so every step is checked.
    """
    ws, macro0 = build_problem("rectangular_pulse", nx, n_moments, epsilon)
    dt = cfl_report(ws)[0]

    scale = float(np.max(np.abs(macro0.temperature)))
    trace = Trace()
    for t, _, macro, micro in simulate(scheme, macro0, ws, dt, t_end,
                                       rank=rank, theta_rel=5e-2):
        trace.times.append(t)
        trace.energies.append(energy(macro, micro.micro_norm_sq(ws.grid.dx), ws))
        trace.masses.append(mass(macro, ws))
        trace.ranks.append(getattr(micro, "rank", 0))
        trace.support_margins.append(_support_margin(
            macro.temperature, macro.h_meso, _moment_row_norms(micro), scale))
    return trace
