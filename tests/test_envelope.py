"""Invariants of every scheme on the smallest grids the configs accept."""

import math

import pytest

from runners import build_problem
from slabtrt.angular import NORM_P1
from slabtrt.cli_io import SCHEMES, simulate
from slabtrt.limits_diagnostics import cfl_report, energy, mass, rosseland_stable_dt


def boundary_change(scheme, ws, dt_step, macro_old, micro_new):
    """The change of the mass in one step that the fluxes through the two ends make.

    With zero ghosts the interior fluxes cancel in the sum. A transport step moves
    the mass by -(|P1| / 2) dt (g1[n] - g1[0]) of the new first moment; the
    diffusion step by -dt / (3 dx) (T[0] / sigma_0 + T[-1] / sigma_n) of the old
    temperature, the mass being 3/2 dx sum(T) there.
    """
    if scheme == "rosseland":
        t, sigma = macro_old.temperature, ws.sigma.at_interfaces
        return -dt_step / (3.0 * ws.grid.dx) * (t[0] / sigma[0] + t[-1] / sigma[-1])
    pin = ws.angular.pin
    if scheme == "full":
        g1 = micro_new.g_matrix @ pin
    else:
        g1 = micro_new.X_basis @ (micro_new.S_coeff @ (micro_new.V_basis.T @ pin))
    return -0.5 * NORM_P1 * dt_step * (g1[-1] - g1[0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("epsilon", [1.0, 1e-5])
@pytest.mark.parametrize("scenario", ["rectangular_pulse", "absorber"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_tiny_grids_keep_the_invariants(scheme, scenario, epsilon):
    # nx in {1, 2, 3} and N in {2, 3, 4}, the low-rank schemes from every start
    # rank: padding fills nearly every row of these bases. 20 steps at the CFL
    # bound (`rosseland` at 0.9 of its parabolic bound where that is smaller) keep
    # every state finite, the energy never grows by more than 1e-12 of its start,
    # each step's mass changes by what leaves through the two ends to 1e-13 of m0
    # (absolute where m0 = 0, as at nx = 2: no cell centre lies in the pulse or
    # the insert), and the rank stays within min(nx + 1, N)
    low_rank = scheme in ("bug_fixed", "bug_adaptive")
    failed = []
    for nx in (1, 2, 3):
        for n_moments in (2, 3, 4):
            ws, macro0 = build_problem(scenario, nx, n_moments, epsilon)
            dt = cfl_report(ws)[0]
            if scheme == "rosseland":
                dt = min(dt, 0.9 * rosseland_stable_dt(ws))
            max_rank = min(nx + 1, n_moments)
            mass_tol = 1e-13 * (abs(mass(macro0, ws)) or 1.0)
            for rank in range(1, max_rank + 1) if low_rank else (1,):
                energies, ranks, imbalance = [], [], 0.0
                previous = None
                # a non-finite state aborts the run with a RuntimeError
                for _, dt_step, macro, micro in simulate(scheme, macro0, ws, dt, 20 * dt,
                                                         rank, 5e-2):
                    energies.append(energy(macro, micro.micro_norm_sq(ws.grid.dx), ws))
                    if low_rank:
                        ranks.append(micro.rank)
                    if previous is not None:
                        change = boundary_change(scheme, ws, dt_step, previous, micro)
                        imbalance = max(imbalance, abs(
                            mass(macro, ws) - mass(previous, ws) - change))
                    previous = macro
                growth = max(b - a for a, b in zip(energies, energies[1:]))
                if not (len(energies) >= 21 and all(map(math.isfinite, energies))
                        and growth <= 1e-12 * energies[0] and imbalance <= mass_tol
                        and max(ranks, default=0) <= max_rank):
                    failed.append(f"nx={nx} N={n_moments} rank={rank}: energy growth "
                                  f"{growth:.3g} of E0 {energies[0]:.3g}, mass imbalance "
                                  f"{imbalance:.3g} (bound {mass_tol:.3g}), ranks {ranks}")
    assert not failed, "\n".join(failed)
