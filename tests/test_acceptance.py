"""Acceptance gate: every criterion printed as one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

import property_suites as suites
from oracles import (
    kernel_galerkin,
    kernel_l,
    modal,
    modal_b,
    nodal_dense,
    oracle_galerkin_dense,
    oracle_l_step,
    oracle_rosseland_step,
    oracle_step_full,
    reconstruct,
    upwind,
)
from runners import build_problem, run_desk
from slabtrt.angular import build_angular_operators
from slabtrt.bug_adaptive import step_bug_adaptive
from slabtrt.bug_fixed import step_bug_fixed
from slabtrt.cli_io import main
from slabtrt.full_scheme import FullSchemeWorkspace, emission_gradient_parts, step_full
from slabtrt.limits_diagnostics import (
    cfl_report,
    l2_relative_difference,
    rosseland_step,
)
from slabtrt.mesh_state import (
    AbsorptionField,
    LowRankMicroState,
    MacroState,
    StaggeredGrid,
    scalar_flux,
    zero_low_rank_state,
)


def report(number, ok, text):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


@pytest.fixture(scope="module")
def desk_runs():
    """Desk-scale pulse traces, from t=0 on, shared by the energy/mass/rank criteria."""
    runs = {}
    for eps_label, eps in (("kinetic", 1.0), ("diffusive", 1e-5)):
        for scheme, kwargs in (("full", {}), ("bug_fixed", {"rank": 5}), ("bug_adaptive", {})):
            runs[(scheme, eps_label)] = run_desk(
                scheme, nx=101, n_moments=30, epsilon=eps, t_end=1.5, **kwargs)
    return runs


def test_criterion_1_cfl_reproduction(tmp_path, capsys):
    cfg = tmp_path / "kinetic.cfg"
    cfg.write_text("scenario = rectangular_pulse\nscheme = full\nepsilon = 1.0\n")
    begin = time.perf_counter()
    code = main(["cfl", str(cfg)])
    elapsed = time.perf_counter() - begin
    out = capsys.readouterr().out
    dt = float(out.split("cfl_dt = ")[1].splitlines()[0])
    node = float(out.split("minimizing_node = ")[1].splitlines()[0])
    ok = (code == 0 and abs(dt - 0.005) <= 0.1 * 0.005
          and abs(node - (-0.999719)) <= 1e-3 and elapsed < 1.0)
    report(1, ok, f"cfl dt={dt:.6f} node={node:.6f} elapsed={elapsed:.2f}s")


def test_criterion_2_energy_dissipation(desk_runs):
    worst = -np.inf
    for (scheme, regime), run in desk_runs.items():
        e = np.array(run.energies)
        e0 = e[0]
        rises = np.diff(e) - 1e-12 * e0
        worst = max(worst, float(rises.max()) / e0)
        ok_here = np.all(rises <= 0.0)
        if not ok_here:
            report(2, False, f"{scheme}/{regime} energy rise {rises.max():.3e}")
    report(2, True, f"energy monotone for 6 runs, worst headroom {worst:.3e}")


def test_criterion_3_mass_conservation(desk_runs):
    worst = 0.0
    for (scheme, regime), run in desk_runs.items():
        m = np.array(run.masses)
        m0 = m[0]
        margins = np.array(run.support_margins)
        guarded = margins >= 5
        rel = np.abs(m - m0) / abs(m0)
        if guarded.any():
            worst = max(worst, float(rel[guarded].max()))
        if not np.all(rel[guarded] <= 1e-10):
            report(3, False, f"{scheme}/{regime} rel mass error {rel[guarded].max():.3e}")
    report(3, True, f"rel mass error <= 1e-10 while support guarded, worst {worst:.3e}")


def test_criterion_4_rosseland_agreement(tmp_path):
    cfg = tmp_path / "diffusive.cfg"
    cfg.write_text(
        "scenario = rectangular_pulse\nscheme = full\nepsilon = 1e-5\nrank = 1\n"
        f"history_stride = 100\noutput_dir = {tmp_path / 'sweep'}\n")
    begin = time.perf_counter()
    code = main(["sweep", str(cfg)])
    elapsed = time.perf_counter() - begin
    lines = (tmp_path / "sweep" / "comparison.csv").read_text().strip().splitlines()[1:]
    diffs = {}
    for line in lines:
        a, b, t_diff, _ = line.split(",")
        diffs[(a, b)] = float(t_diff)
    pairs = [("full", "rosseland"), ("bug_fixed", "rosseland"), ("bug_adaptive", "rosseland")]
    worst = max(diffs[p] for p in pairs)
    ok = code == 0 and worst <= 1e-3 and elapsed < 300.0
    report(4, ok, f"L2(T) vs diffusion reference worst {worst:.3e}, elapsed {elapsed:.0f}s")


def test_criterion_5_one_step_limit():
    nx, n_mom = 101, 30
    ws, macro0 = build_problem("rectangular_pulse", nx, n_mom, 1e-6)
    angular = ws.angular
    dt = cfl_report(ws)[0]
    w_ap = emission_gradient_parts(macro0, ws)[0] / ws.sigma.at_interfaces
    target = -np.outer(w_ap, modal_b(angular))
    scale = float(np.max(np.linalg.norm(target, axis=1)))

    worst = 0.0
    _, dense = step_full(macro0, nodal_dense(np.zeros((nx + 1, n_mom)), angular), ws, dt)
    worst = max(worst, np.max(np.linalg.norm(
        modal(dense, angular.T_mat).g_matrix - target, axis=1)[1:-1]) / scale)

    _, fixed_state = step_bug_fixed(
        macro0, zero_low_rank_state(nx + 1, angular.T_mat, 1), ws, dt)
    worst = max(worst, np.max(np.linalg.norm(
        reconstruct(modal(fixed_state, angular.T_mat)) - target, axis=1)[1:-1]) / scale)

    theta_rel = 5e-2
    _, adaptive_state = step_bug_adaptive(
        macro0, zero_low_rank_state(nx + 1, angular.T_mat, 1), ws, dt, theta_rel)
    worst = max(worst, np.max(np.linalg.norm(
        reconstruct(modal(adaptive_state, angular.T_mat)) - target, axis=1)[1:-1]) / scale)

    report(5, worst <= 1e-6, f"one-step micro limit, worst interior defect {worst:.3e}")


def test_criterion_6_low_rank_fidelity():
    nx, n_mom = 201, 50
    ws, macro0 = build_problem("rectangular_pulse", nx, n_mom)
    angular = ws.angular
    dt = cfl_report(ws)[0]

    macro_d, micro_d = macro0, nodal_dense(np.zeros((nx + 1, n_mom)), angular)
    macro_f = macro0
    state_f = zero_low_rank_state(nx + 1, angular.T_mat, 15)
    macro_a = macro0
    state_a = zero_low_rank_state(nx + 1, angular.T_mat, 1)
    theta_rel = 5e-2

    t = 0.0
    while t < 1.5 - 1e-12:
        step_dt = min(dt, 1.5 - t)
        macro_d, micro_d = step_full(macro_d, micro_d, ws, step_dt)
        macro_f, state_f = step_bug_fixed(macro_f, state_f, ws, step_dt)
        macro_a, state_a = step_bug_adaptive(macro_a, state_a, ws, step_dt, theta_rel)
        t += step_dt

    worst = 0.0
    for macro in (macro_f, macro_a):
        worst = max(worst, l2_relative_difference(
            macro.temperature, macro_d.temperature, ws.grid))
        worst = max(worst, l2_relative_difference(
            scalar_flux(macro, ws.epsilon), scalar_flux(macro_d, ws.epsilon), ws.grid))
    report(6, worst <= 0.02, f"rank-15 fixed and adaptive vs dense, worst L2 {worst:.4f}")


def test_criterion_7_rank_behavior(desk_runs):
    # ranks after each step; entry 0 is the rank of the initial zero state
    diffusive = np.array(desk_runs[("bug_adaptive", "diffusive")].ranks[1:])
    kinetic = np.array(desk_runs[("bug_adaptive", "kinetic")].ranks[1:])
    ok = np.all(diffusive <= 3) and kinetic.max() > diffusive.max()
    report(7, ok, f"diffusive rank max {diffusive.max()}, kinetic rank max {kinetic.max()}")


def test_criterion_8_property_suites():
    begin = time.perf_counter()
    results = {
        "summation_by_parts": suites.summation_by_parts_suite(500) <= 1e-12,
        "forward_difference_bound": suites.forward_difference_bound_suite(500) <= 1e-12,
        "moment_transfer": suites.moment_transfer_suite(200) <= 1e-10,
        "advection_positivity": all(
            (lambda d, s: d <= 1e-11 and s >= -1e-12)(*suites.advection_positivity_suite(200))
            for _ in (0,)),
        "advection_boundedness": suites.advection_boundedness_suite(200) <= 1e-12,
        "truncation_factor_identity": suites.truncation_factor_identity_suite(200) <= 1e-9,
        "gauge_invariance": suites.gauge_invariance_suite(200) <= 1e-11,
    }
    elapsed = time.perf_counter() - begin
    failed = [k for k, v in results.items() if not v]
    ok = not failed and elapsed < 60.0
    report(8, ok, f"7 randomized suites in {elapsed:.1f}s" +
           (f", failed: {failed}" if failed else ""))


def test_criterion_9_oracle_equivalence():
    worst = 0.0

    # dense step on the 3-cell hand instance
    grid = StaggeredGrid(0.0, 3.0, 3)
    epsilon = 1.0
    sigma = AbsorptionField(np.ones(3), np.ones(4))
    ws = FullSchemeWorkspace(grid, epsilon, sigma, build_angular_operators(2))
    T = np.array([0.0, 1.0, 0.0])
    macro = MacroState(T, np.zeros(3))
    m1, g1 = step_full(macro, nodal_dense(np.zeros((4, 2)), ws.angular), ws, 0.1)
    t_o, h_o, g_o = oracle_step_full(T, np.zeros(3), np.zeros((4, 2)), epsilon, 1.0, 0.1,
                                     np.ones(3), np.ones(4),
                                     *upwind(ws.angular))
    worst = max(worst, np.max(np.abs(modal(g1, ws.angular.T_mat).g_matrix - g_o)),
                np.max(np.abs(m1.h_meso - h_o)), np.max(np.abs(m1.temperature - t_o)))

    # angular-basis update on a 3-interface rank-1 instance
    rng = np.random.default_rng(50)
    grid2 = StaggeredGrid(0.0, 1.0, 2)
    eps2 = 0.6
    sig_c, sig_i = rng.uniform(0.5, 1.5, 2), rng.uniform(0.5, 1.5, 3)
    ws2 = FullSchemeWorkspace(grid2, eps2, AbsorptionField(sig_c, sig_i),
                              build_angular_operators(3))
    x, _ = np.linalg.qr(rng.standard_normal((3, 1)))
    v, _ = np.linalg.qr(rng.standard_normal((3, 1)))
    t_mat2 = ws2.angular.T_mat
    state = LowRankMicroState(x, rng.standard_normal((1, 1)), t_mat2.T @ v)
    macro2 = MacroState(rng.uniform(0, 2, 2), rng.standard_normal(2))
    l_new = t_mat2 @ kernel_l(state, emission_gradient_parts(macro2, ws2)[1], ws2, 0.05)
    l_oracle = oracle_l_step(x, state.S_coeff, v, macro2.temperature, macro2.h_meso,
                             eps2, grid2.dx, 0.05, sig_i,
                             *upwind(ws2.angular))
    worst = max(worst, np.max(np.abs(l_new - l_oracle)))

    # Galerkin coefficient update against the dense projection oracle
    rng = np.random.default_rng(51)
    grid3 = StaggeredGrid(-1.0, 1.0, 5)
    eps3 = 0.8
    sig_c, sig_i = rng.uniform(0.4, 1.5, 5), rng.uniform(0.4, 1.5, 6)
    ws3 = FullSchemeWorkspace(grid3, eps3, AbsorptionField(sig_c, sig_i),
                              build_angular_operators(4))
    x_old, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    v_old, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    state3 = LowRankMicroState(x_old, rng.standard_normal((2, 2)), v_old)
    macro3 = MacroState(rng.uniform(0, 2, 5), rng.standard_normal(5))
    x_new, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    v_new, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    s_tilde = (x_new.T @ x_old) @ state3.S_coeff @ (v_old.T @ v_new)
    s_new = kernel_galerkin(x_new, ws3.angular.T_mat.T @ v_new, s_tilde,
                            emission_gradient_parts(macro3, ws3)[1], ws3, 0.04)
    s_oracle = oracle_galerkin_dense(x_new, v_new, s_tilde, macro3.temperature,
                                     macro3.h_meso, eps3, grid3.dx, 0.04, sig_i,
                                     *upwind(ws3.angular))
    worst = max(worst, np.max(np.abs(s_new - s_oracle)))

    # diffusion-limit reference step, 3-cell hand instance
    out = rosseland_step(T, ws, 0.1)
    out_oracle = oracle_rosseland_step(T, 1.0, 0.1, np.ones(4))
    worst = max(worst, np.max(np.abs(out - out_oracle)))

    report(9, worst <= 1e-12, f"all four oracles agree, worst defect {worst:.3e}")
