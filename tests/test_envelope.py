"""Invariants of the low-rank schemes on the smallest grids the configs accept."""

import math

import pytest

from runners import build_problem
from slabtrt.cli_io import simulate
from slabtrt.limits_diagnostics import cfl_report, energy


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("epsilon", [1.0, 1e-5])
@pytest.mark.parametrize("scenario", ["rectangular_pulse", "absorber"])
@pytest.mark.parametrize("scheme", ["bug_fixed", "bug_adaptive"])
def test_tiny_grids_keep_the_invariants(scheme, scenario, epsilon):
    # nx in {1, 2, 3} and N in {2, 3, 4}, from every start rank: padding fills
    # nearly every row of these bases. 20 steps at the CFL bound keep every state
    # finite, the energy never grows by more than 1e-12 of its start, and the
    # rank stays within min(nx + 1, N)
    failed = []
    for nx in (1, 2, 3):
        for n_moments in (2, 3, 4):
            ws, macro0 = build_problem(scenario, nx, n_moments, epsilon)
            dt = cfl_report(ws)[0]
            max_rank = min(nx + 1, n_moments)
            for rank in range(1, max_rank + 1):
                energies, ranks = [], []
                # a non-finite state aborts the run with a RuntimeError
                for _, _, macro, micro in simulate(scheme, macro0, ws, dt, 20 * dt, rank, 5e-2):
                    energies.append(energy(macro, micro.micro_norm_sq(ws.grid.dx), ws))
                    ranks.append(micro.rank)
                growth = max(b - a for a, b in zip(energies, energies[1:]))
                if not (len(energies) >= 21 and all(map(math.isfinite, energies))
                        and growth <= 1e-12 * energies[0] and max(ranks) <= max_rank):
                    failed.append(f"nx={nx} N={n_moments} rank={rank}: energy growth "
                                  f"{growth:.3g} of E0 {energies[0]:.3g}, ranks {ranks}")
    assert not failed, "\n".join(failed)
