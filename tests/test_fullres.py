"""Full-resolution regression runs (the slow counterparts of the desk-scale gate).

Deselected by default; run with `pytest -m slow tests/test_fullres.py -v -s`.
"""

import numpy as np
import pytest

from slabtrt.cli_io import main

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
    # the adaptive basis is global, so a whisper of first moment reaches the
    # boundary interfaces; its drift envelope is an order above the local schemes
    drift_limits = {"full": 1e-10, "bug_fixed": 1e-10, "bug_adaptive": 1e-9}
    for scheme, limit in drift_limits.items():
        energies = read_column(out / scheme / "history.csv", "energy")
        assert np.all(np.diff(energies) <= 1e-12 * energies[0])
        mass_err = read_column(out / scheme / "history.csv", "rel_mass_error")
        assert np.all(mass_err <= limit)
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
