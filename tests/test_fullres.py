"""Full-resolution regression runs (the slow counterparts of the desk-scale gate).

Deselected by default; run with `pytest -m slow tests/test_fullres.py -v -s`.
"""

import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from oracles import unblocked_step_full
from runners import build_problem
from slabtrt import cli_io
from slabtrt.cli_io import main
from slabtrt.full_scheme import step_full
from slabtrt.limits_diagnostics import cfl_report
from slabtrt.mesh_state import LowRankMicroState, _orth_defect

pytestmark = pytest.mark.slow

# The `rank` column of bug_adaptive's history (every 20th step) in each sweep
# below. A rounding-level change of the kernels must not flip a truncation
# decision: the ranks are compared entry by entry.
ADAPTIVE_RANKS = {
    ("rectangular_pulse", "1.0"): [7, 8, 8, 9, 9, 9, 10, 10, 10, 10, 10, 10, 10, 10, 10],
    ("absorber", "1.0"): [7, 7, 8, 9, 9, 10, 11, 11, 12, 12, 12, 13, 13, 14, 14],
    ("rectangular_pulse", "1e-5"): [3] * 237,
    ("absorber", "1e-5"): [3] * 237,
}


def read_column(path, header_name):
    lines = path.read_text().strip().splitlines()
    idx = lines[0].split(",").index(header_name)
    return np.array([float(line.split(",")[idx]) for line in lines[1:]])


def comparison_table(path):
    lines = path.read_text().strip().splitlines()[1:]
    table = {}
    for line in lines:
        a, b, t_diff, phi_diff = line.split(",")
        table[(a, b)] = (float(t_diff), float(phi_diff))
    return table


def run_sweep(tmp_path, scenario, epsilon, rank):
    out = tmp_path / f"{scenario}_{epsilon}"
    cfg = tmp_path / f"{scenario}_{epsilon}.cfg"
    cfg.write_text(
        f"scenario = {scenario}\nscheme = full\nepsilon = {epsilon}\nrank = {rank}\n"
        f"history_stride = 20\noutput_dir = {out}\n")
    assert main(["sweep", str(cfg)]) == 0
    return out


def assert_adaptive_ranks(out, scenario, epsilon):
    ranks = read_column(out / "bug_adaptive" / "history.csv", "rank")
    assert ranks.tolist() == ADAPTIVE_RANKS[(scenario, epsilon)]


@pytest.mark.parametrize("scenario", ["rectangular_pulse", "absorber"])
def test_fullres_kinetic(tmp_path, scenario):
    out = run_sweep(tmp_path, scenario, "1.0", rank=15)
    table = comparison_table(out / "comparison.csv")
    # low-rank methods track the dense moment solution
    t_fixed, phi_fixed = table[("full", "bug_fixed")]
    t_adapt, phi_adapt = table[("full", "bug_adaptive")]
    assert t_fixed <= 0.02 and phi_fixed <= 0.02
    assert t_adapt <= 0.02 and phi_adapt <= 0.02
    # nothing reaches the ends before t_end, so every scheme conserves mass to
    # round-off: the largest drift measured on these sweeps is 1.1e-15, and the
    # bound leaves a margin of about 90x over it
    for scheme in ("full", "bug_fixed", "bug_adaptive"):
        energies = read_column(out / scheme / "history.csv", "energy")
        assert np.all(np.diff(energies) <= 1e-12 * energies[0])
        mass_err = read_column(out / scheme / "history.csv", "rel_mass_error")
        assert np.all(mass_err <= 1e-13)
    assert_adaptive_ranks(out, scenario, "1.0")


@pytest.mark.parametrize("scenario", ["rectangular_pulse", "absorber"])
def test_fullres_diffusive(tmp_path, scenario):
    out = run_sweep(tmp_path, scenario, "1e-5", rank=1)
    table = comparison_table(out / "comparison.csv")
    for scheme in ("full", "bug_fixed", "bug_adaptive"):
        t_diff, _ = table[(scheme, "rosseland")]
        assert t_diff <= 1e-3
    ranks = read_column(out / "bug_adaptive" / "history.csv", "rank")
    assert ranks.max() <= 3
    assert_adaptive_ranks(out, scenario, "1e-5")


def pulse_large_full_finals():
    """Step count and final (g, T, h) of `full` on the pulse_large configuration
    (rectangular_pulse, 2001 x 400, eps = 1, t_end 0.1) with the package's step
    over row blocks and with the unblocked reference."""
    ws, macro0 = build_problem("rectangular_pulse", 2001, 400, 1.0)
    dt = cfl_report(ws)[0]
    finals = []
    for step in (step_full, unblocked_step_full):
        with mock.patch.object(cli_io, "step_full", step):
            for n_steps, (_, _, macro, micro) in enumerate(cli_io.simulate(
                    "full", macro0, ws, dt, 0.1)):
                pass
        finals.append((n_steps, micro.g_matrix, macro.temperature, macro.h_meso))
    return finals


def test_pulse_large_full_over_row_blocks_matches_unblocked_bit_for_bit():
    # 2002 interface rows are 13 blocks. With more than one BLAS thread OpenBLAS
    # splits a matrix-vector product at rows that depend on the thread count, and
    # the unblocked step's own bits move with it; so the runs are made in a
    # child process with one BLAS thread, as CI and the benchmark run
    threads = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p), **threads)
    code = ("import numpy as np, test_fullres\n"
            "(n, *a), (m, *b) = test_fullres.pulse_large_full_finals()\n"
            "same = [np.array_equal(x.view(np.uint64), y.view(np.uint64)) for x, y in zip(a, b)]\n"
            "print(n, m, *same)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, cwd=os.path.dirname(__file__))
    assert out.stdout.split() == ["79", "79", "True", "True", "True"]


def test_basis_repair_keeps_a_long_adaptive_run_orthonormal(monkeypatch):
    # the diffusive absorber at 10x the benchmark's horizon: the bases drift by about
    # 1e-13 per thousand steps, and step_bug_adaptive repairs a state whose defect
    # passes 1e-13, so every state stays within the 1e-12 the constructor checks
    ws, macro0 = build_problem("absorber", 201, 100, 1e-5)
    dt = cfl_report(ws)[0]
    repair = LowRankMicroState.reorthonormalized
    repairs = []

    def counted(state):
        repairs.append(state.rank)
        return repair(state)

    monkeypatch.setattr(LowRankMicroState, "reorthonormalized", counted)
    worst = 0.0
    for n_steps, (_, _, _, micro) in enumerate(cli_io.simulate(
            "bug_adaptive", macro0, ws, dt, 1.5, 1, 5e-2)):
        worst = max(worst, _orth_defect(micro.X_basis), _orth_defect(micro.V_basis))
    assert n_steps > 4000
    assert len(repairs) >= 1
    assert worst <= 1e-12
