"""Full-resolution regression runs (the slow counterparts of the desk-scale gate).

Deselected by default; run with `pytest -m slow tests/test_fullres.py -v -s`.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from oracles import nodal_dense, unblocked_step_full
from runners import build_problem
from slabtrt import cli_io
from slabtrt.bug_adaptive import step_bug_adaptive
from slabtrt.bug_fixed import step_bug_fixed
from slabtrt.cli_io import main
from slabtrt.full_scheme import step_full
from slabtrt.limits_diagnostics import cfl_report
from slabtrt.mesh_state import LowRankMicroState, MacroState, _orth_defect

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


THREAD_SCHEMES = {
    "full": step_full,
    "bug_fixed": step_bug_fixed,
    "bug_adaptive": lambda macro, state, ws, dt: step_bug_adaptive(macro, state, ws, dt, 5e-2),
}


def random_start(scheme, ws, rng):
    """A dense macro and micro state with no zero rows: the dense state of N + 1 nodes,
    or rank 15 with V[:, 0] = b/|b| as the adaptive step requires."""
    n = ws.grid.n_cells
    macro = MacroState(rng.uniform(0.5, 1.5, n), rng.standard_normal(n))
    if scheme == "full":
        return macro, nodal_dense(rng.standard_normal((n + 1, ws.angular.n_moments)),
                                  ws.angular)
    modal = np.linalg.qr(np.column_stack([np.eye(ws.angular.n_moments)[:, 0],
                                          rng.standard_normal((ws.angular.n_moments, 14))]))[0]
    modal[:, 0] = np.eye(ws.angular.n_moments)[:, 0]  # QR may flip its sign
    x = np.linalg.qr(rng.standard_normal((n + 1, 15)))[0]
    return macro, LowRankMicroState(x, np.diag(np.logspace(0, -8, 15)),
                                    ws.angular.T_mat.T @ modal)


def thread_fingerprints():
    """SHA-256 of the bits of the state after 5 steps of each scheme on pulse_large
    (2001 x 400, eps = 1), from the pulse and from a random start: (scheme, start)
    -> hex digest; the dense state's summed norm counts too."""
    ws, pulse = build_problem("rectangular_pulse", 2001, 400, 1.0)
    dt = cfl_report(ws)[0]
    prints = {}
    for scheme in THREAD_SCHEMES:
        rank = 15 if scheme == "bug_fixed" else 1
        for start in ("pulse", "random"):
            if start == "pulse":
                states = cli_io.simulate(scheme, pulse, ws, dt, 0.1, rank, 5e-2)
                for n_steps, (_, _, macro, micro) in enumerate(states):
                    if n_steps == 5:
                        break
            else:
                macro, micro = random_start(scheme, ws, np.random.default_rng(28))
                for _ in range(5):
                    macro, micro = THREAD_SCHEMES[scheme](macro, micro, ws, dt)
            if scheme == "full":
                arrays = (micro.g_matrix, np.float64(micro.norm_sq))
            else:
                arrays = (micro.X_basis, micro.S_coeff, micro.V_basis)
            digest = hashlib.sha256()
            for arr in (macro.temperature, macro.h_meso, *arrays):
                digest.update(np.ascontiguousarray(arr).tobytes())
            prints[f"{scheme}-{start}"] = digest.hexdigest()
    return prints


@functools.cache
def fingerprints_at(threads):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p),
               **{name: threads for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                             "MKL_NUM_THREADS")})
    code = "import json, test_fullres\nprint(json.dumps(test_fullres.thread_fingerprints()))\n"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, cwd=os.path.dirname(__file__))
    return json.loads(out.stdout)


SPLIT_BY_THREADS = ("from a random start its bits at 2 OpenBLAS threads differ from those at "
                    "1: OpenBLAS splits matrix products, and dot products of 20,000 entries "
                    "and more, at places that depend on the thread count")


CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.skipif((CORES or 1) < 2, reason="OpenBLAS runs one thread on one core")
@pytest.mark.parametrize("case", [f"{scheme}-pulse" for scheme in THREAD_SCHEMES] + [
    pytest.param(f"{scheme}-random", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=f"{scheme}: {SPLIT_BY_THREADS}"))
    for scheme in THREAD_SCHEMES])
def test_five_pulse_large_steps_have_the_same_bits_at_one_and_two_threads(case):
    assert fingerprints_at("1")[case] == fingerprints_at("2")[case]


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
