import dataclasses

import numpy as np
import pytest

from oracles import (
    modal,
    modal_b,
    nodal_dense,
    nodal_state,
    oracle_galerkin_dense,
    oracle_galerkin_rhs,
    oracle_l_step,
    oracle_step_full,
    reconstruct,
    upwind,
)
from slabtrt.angular import build_angular_operators
from slabtrt.bug_adaptive import TruncationConfig, step_bug_adaptive
from slabtrt.bug_fixed import (
    _flux_projections,
    _galerkin_update,
    _k_update,
    _l_update,
    step_bug_fixed,
)
from slabtrt.cli_io import simulate
from slabtrt.full_scheme import FullSchemeWorkspace, emission_gradient_parts, step_full
from slabtrt.limits_diagnostics import (
    cfl_report,
    energy,
    l2_relative_difference,
    mass,
    rosseland_step,
)
from slabtrt.mesh_state import (
    AbsorptionField,
    LowRankMicroState,
    MacroState,
    PhysicalParams,
    StaggeredGrid,
    _orth_defect,
    extend_orthonormal_columns,
    padded_difference,
    scalar_flux,
    zero_low_rank_state,
)
from slabtrt.scenarios import build_scenario


def make_workspace(nx=6, n_moments=4, epsilon=0.8, sigma=0.7, bc="zero_ghost", seed=None):
    grid = StaggeredGrid(-1.0, 1.0, nx)
    params = PhysicalParams(epsilon=epsilon)
    if seed is None:
        field = AbsorptionField(np.full(nx, sigma), np.full(nx + 1, sigma))
    else:
        rng = np.random.default_rng(seed)
        field = AbsorptionField(rng.uniform(0.4, 1.5, nx), rng.uniform(0.4, 1.5, nx + 1))
    angular = build_angular_operators(n_moments)
    return FullSchemeWorkspace(grid, params, field, angular, bc=bc)


def random_state(rng, n_interfaces, n_moments, rank, pinned=False):
    """Random factors with a nodal angular factor; `pinned` fixes the first modal
    angular column to b/|b| = e_0, as the adaptive step requires."""
    x, _ = np.linalg.qr(rng.standard_normal((n_interfaces, rank)))
    if pinned:
        v = np.zeros((n_moments, rank))
        v[0, 0] = 1.0
        v[1:, 1:], _ = np.linalg.qr(rng.standard_normal((n_moments - 1, rank - 1)))
    else:
        v, _ = np.linalg.qr(rng.standard_normal((n_moments, rank)))
    s = rng.standard_normal((rank, rank))
    return nodal_state(x, s, v)


def stencil(x, ws):
    return padded_difference(x, ws.grid, ws.bc)


def k_update(state, macro, ws, dt):
    return _k_update(state, emission_gradient_parts(macro, ws)[1], ws, dt,
                     stencil(state.X_basis, ws))


def l_update(state, macro, ws, dt):
    """T^T L of the L-step."""
    return _l_update(state, emission_gradient_parts(macro, ws)[1], ws, dt,
                     stencil(state.X_basis, ws))


def galerkin_update(x_new, v_new, state_old, macro, ws, dt):
    """Coefficient update in new bases, starting from the projected old solution."""
    s_tilde = (x_new.T @ state_old.X_basis) @ state_old.S_coeff @ (state_old.V_basis.T @ v_new)
    return _galerkin_update(x_new, v_new, s_tilde, emission_gradient_parts(macro, ws)[1], ws, dt,
                            stencil(x_new, ws))


def orthonormalized(mat, rank):
    """The fixed-rank step's basis of the columns of mat, padded to rank."""
    return extend_orthonormal_columns(np.empty((mat.shape[0], 0)), mat, rank)


class TestKStep:
    def test_zero_coefficients_uniform_periodic(self):
        ws = make_workspace(bc="periodic")
        macro = MacroState(np.full(6, 2.0), np.zeros(6))
        state = zero_low_rank_state(7, ws.angular.T_mat, rank=2)
        k_new = k_update(state, macro, ws, 0.01)
        x_new = orthonormalized(k_new, 2)
        np.testing.assert_allclose(k_new, 0.0, atol=1e-15)
        np.testing.assert_allclose(x_new.T @ x_new, np.eye(2), atol=1e-13)

    def test_full_rank_identity_basis_matches_dense_update(self):
        # with V = I the K-step is the dense update: checked against the loop
        # oracle of the dense step and against step_full
        rng = np.random.default_rng(11)
        ws = make_workspace(n_moments=4, seed=12)
        macro = MacroState(rng.standard_normal(6), rng.standard_normal(6))
        g = rng.standard_normal((7, 4))
        # encode g into the factors: X arbitrary orthonormal, S = X^T g (works
        # only when g lies in the span, so build g from X)
        x = np.linalg.qr(rng.standard_normal((7, 4)))[0]
        s = x.T @ g
        g_in_span = x @ s
        state = nodal_state(x, s, np.eye(4))
        k_new = k_update(state, macro, ws, 0.02)
        _, _, oracle = oracle_step_full(macro.temperature, macro.h_meso, g_in_span, ws.params,
                                        ws.grid.dx, 0.02, ws.sigma.at_centers,
                                        ws.sigma.at_interfaces, *upwind(ws.angular))
        np.testing.assert_allclose(k_new, oracle, atol=1e-12)
        _, dense = step_full(macro, nodal_dense(g_in_span, ws.angular), ws, 0.02)
        np.testing.assert_allclose(k_new, modal(dense, ws.angular.T_mat).g_matrix, atol=1e-12)

    def test_gauge_sanity_of_reconstruction(self):
        rng = np.random.default_rng(13)
        ws = make_workspace(seed=14)
        macro = MacroState(rng.standard_normal(6), rng.standard_normal(6))
        state = random_state(rng, 7, 4, 2)
        q1, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        q2, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        rotated = LowRankMicroState(state.X_basis @ q1, q1.T @ state.S_coeff @ q2,
                                    state.V_basis @ q2)
        k_a = k_update(state, macro, ws, 0.02)
        k_b = k_update(rotated, macro, ws, 0.02)
        recon_a = k_a @ state.V_basis.T
        recon_b = k_b @ rotated.V_basis.T
        assert np.all(np.isfinite(recon_a))
        np.testing.assert_allclose(recon_a, recon_b, atol=1e-12)


class TestLStep:
    def test_zero_coefficients_uniform_periodic(self):
        ws = make_workspace(bc="periodic")
        macro = MacroState(np.full(6, 2.0), np.zeros(6))
        state = zero_low_rank_state(7, ws.angular.T_mat, rank=2)
        l_new = l_update(state, macro, ws, 0.01)
        v_new = orthonormalized(l_new, 2)
        np.testing.assert_allclose(l_new, 0.0, atol=1e-15)
        np.testing.assert_allclose(v_new.T @ v_new, np.eye(2), atol=1e-13)

    def test_constant_absorption_projects_to_identity(self):
        ws = make_workspace(sigma=0.9)
        rng = np.random.default_rng(15)
        x, _ = np.linalg.qr(rng.standard_normal((7, 3)))
        c_mat = x.T @ (ws.sigma.at_interfaces[:, None] * x)
        np.testing.assert_allclose(c_mat, 0.9 * np.eye(3), atol=1e-13)

    def test_three_interface_rank_one_oracle(self):
        rng = np.random.default_rng(16)
        nx, n_mom = 2, 3
        grid = StaggeredGrid(0.0, 1.0, nx)
        params = PhysicalParams(epsilon=0.6)
        sig_c = rng.uniform(0.5, 1.5, nx)
        sig_i = rng.uniform(0.5, 1.5, nx + 1)
        ws = FullSchemeWorkspace(grid, params, AbsorptionField(sig_c, sig_i),
                                 build_angular_operators(n_mom))
        state = random_state(rng, nx + 1, n_mom, 1)
        T = rng.uniform(0.0, 2.0, nx)
        h = rng.standard_normal(nx)
        macro = MacroState(T, h)
        dt = 0.05
        l_new = ws.angular.T_mat @ l_update(state, macro, ws, dt)
        v_modal = ws.angular.T_mat @ state.V_basis
        oracle = oracle_l_step(state.X_basis, state.S_coeff, v_modal, T, h,
                               params, grid.dx, dt, sig_i,
                               *upwind(ws.angular))
        np.testing.assert_allclose(l_new, oracle, atol=1e-12)

    def test_random_rank_two_oracle(self):
        rng = np.random.default_rng(17)
        ws = make_workspace(nx=5, n_moments=4, seed=18)
        state = random_state(rng, 6, 4, 2)
        T = rng.uniform(0.0, 2.0, 5)
        h = rng.standard_normal(5)
        macro = MacroState(T, h)
        l_new = ws.angular.T_mat @ l_update(state, macro, ws, 0.04)
        v_modal = ws.angular.T_mat @ state.V_basis
        oracle = oracle_l_step(state.X_basis, state.S_coeff, v_modal, T, h,
                               ws.params, ws.grid.dx, 0.04, ws.sigma.at_interfaces,
                               *upwind(ws.angular))
        np.testing.assert_allclose(l_new, oracle, atol=1e-12)


class TestSStep:
    def test_zero_data_stays_zero(self):
        ws = make_workspace(bc="periodic")
        macro = MacroState(np.full(6, 1.0), np.zeros(6))
        state = zero_low_rank_state(7, ws.angular.T_mat, rank=2)
        s_new = galerkin_update(state.X_basis, state.V_basis, state, macro, ws, 0.01)
        np.testing.assert_allclose(s_new, 0.0, atol=1e-15)

    def test_constant_absorption_explicit_solution(self):
        # with sigma constant the implicit operator is (shift + sigma) * identity,
        # so the update is an explicit division by that scalar
        rng = np.random.default_rng(19)
        ws = make_workspace(sigma=0.9, bc="periodic")
        macro = MacroState(rng.standard_normal(6), rng.standard_normal(6))
        state = random_state(rng, 7, 4, 2)
        dt = 0.03
        s_new = galerkin_update(state.X_basis, state.V_basis, state, macro, ws, dt)

        p = ws.params
        shift = p.epsilon**2 / (p.c * dt)
        rhs = oracle_galerkin_rhs(state.X_basis, ws.angular.T_mat @ state.V_basis, state.S_coeff,
                                  macro.temperature, macro.h_meso, p, ws.grid.dx, dt,
                                  ws.sigma.at_interfaces, *upwind(ws.angular), bc="periodic")
        np.testing.assert_allclose(s_new, rhs / (shift + 0.9), atol=1e-12)

    def test_dense_projection_oracle(self):
        rng = np.random.default_rng(20)
        ws = make_workspace(nx=5, n_moments=4, seed=21)
        state = random_state(rng, 6, 4, 2)
        T = rng.uniform(0.0, 2.0, 5)
        h = rng.standard_normal(5)
        macro = MacroState(T, h)
        dt = 0.04
        x_new, v_new = random_state(rng, 6, 4, 2).X_basis, random_state(rng, 6, 4, 2).V_basis
        s_new = galerkin_update(x_new, v_new, state, macro, ws, dt)
        s_tilde = (x_new.T @ state.X_basis) @ state.S_coeff @ (state.V_basis.T @ v_new)
        oracle = oracle_galerkin_dense(x_new, ws.angular.T_mat @ v_new, s_tilde, T, h, ws.params,
                                       ws.grid.dx, dt, ws.sigma.at_interfaces,
                                       *upwind(ws.angular))
        np.testing.assert_allclose(s_new, oracle, atol=1e-12)


class TestStepBugFixed:
    def test_equilibrium_uniform_periodic_fixed_point(self):
        ws = make_workspace(bc="periodic")
        macro = MacroState(np.full(6, 3.0), np.zeros(6))
        state = zero_low_rank_state(7, ws.angular.T_mat, rank=2)
        m1, s1 = step_bug_fixed(macro, state, ws, 0.02)
        np.testing.assert_allclose(m1.temperature, 3.0, atol=1e-14)
        np.testing.assert_allclose(m1.h_meso, 0.0, atol=1e-14)
        np.testing.assert_allclose(reconstruct(s1), 0.0, atol=1e-14)
        assert s1.rank == 2
        assert s1.x_orth_defect <= 1e-12
        assert s1.v_orth_defect <= 1e-12

    def test_diffusive_temperature_tracks_reference(self):
        nx, n_mom = 50, 10
        grid = StaggeredGrid(-5.0, 5.0, nx)
        params = PhysicalParams(epsilon=1e-6)
        sigma = AbsorptionField(np.full(nx, 0.5), np.full(nx + 1, 0.5))
        angular = build_angular_operators(n_mom)
        ws = FullSchemeWorkspace(grid, params, sigma, angular)
        dt = cfl_report(params, grid, angular, sigma)[0]
        macro = MacroState(np.exp(-grid.centers**2), np.zeros(nx))
        state = zero_low_rank_state(nx + 1, angular.T_mat, rank=1)
        t_ref = macro.temperature.copy()
        for _ in range(10):
            macro, state = step_bug_fixed(macro, state, ws, dt)
            t_ref = rosseland_step(t_ref, params, grid, sigma, dt)
            err = np.linalg.norm(macro.temperature - t_ref) / np.linalg.norm(t_ref)
            assert err <= 1e-4

    def test_kinetic_pulse_matches_dense_scheme(self):
        # moderate desk case: rank 15 against the dense scheme with the same moments
        nx, n_mom, rank = 101, 30, 15
        built = build_scenario("rectangular_pulse", {"nx": nx, "n_moments": n_mom})
        angular = build_angular_operators(n_mom)
        ws = FullSchemeWorkspace(built.grid, built.params, built.sigma, angular)
        dt = cfl_report(built.params, built.grid, angular, built.sigma)[0]

        macro_d, micro_d = built.macro, nodal_dense(built.micro.g_matrix, angular)
        macro_l = built.macro
        state = zero_low_rank_state(nx + 1, angular.T_mat, rank)
        t = 0.0
        while t < 1.5 - 1e-12:
            dt_step = min(dt, 1.5 - t)
            macro_d, micro_d = step_full(macro_d, micro_d, ws, dt_step)
            macro_l, state = step_bug_fixed(macro_l, state, ws, dt_step)
            t += dt_step
        err_t = l2_relative_difference(macro_l.temperature, macro_d.temperature, built.grid)
        err_phi = l2_relative_difference(scalar_flux(macro_l, built.params),
                                         scalar_flux(macro_d, built.params), built.grid)
        assert err_t <= 0.02
        assert err_phi <= 0.02

    def test_energy_dissipation_and_mass(self):
        nx, n_mom, rank = 60, 8, 4
        built = build_scenario("rectangular_pulse", {"nx": nx, "n_moments": n_mom})
        angular = build_angular_operators(n_mom)
        ws = FullSchemeWorkspace(built.grid, built.params, built.sigma, angular)
        dt = cfl_report(built.params, built.grid, angular, built.sigma)[0]
        macro = built.macro
        state = zero_low_rank_state(nx + 1, angular.T_mat, rank)
        e_prev = energy(macro, 0.0, built.params, built.grid)
        e0 = e_prev
        m0 = mass(macro, built.params, built.grid)
        for _ in range(60):
            macro, state = step_bug_fixed(macro, state, ws, dt)
            e = energy(macro, state.micro_norm_sq(built.grid.dx), built.params, built.grid)
            assert e <= e_prev + 1e-12 * e0
            e_prev = e
            assert abs(mass(macro, built.params, built.grid) - m0) <= 1e-12 * abs(m0)

    def test_dt_validation(self):
        ws = make_workspace()
        macro = MacroState(np.zeros(6), np.zeros(6))
        state = zero_low_rank_state(7, ws.angular.T_mat, rank=1)
        with pytest.raises(ValueError):
            step_bug_fixed(macro, state, ws, -1.0)


class TestNodalKernels:
    """The BUG kernels hold V as W = T^T V and reach A+- only through it."""

    def one_sided(self, mat, ws):
        diffs = padded_difference(mat, ws.grid, ws.bc)
        return diffs[:-1], diffs[1:]

    def dense_k_update(self, state, source, ws, dt):
        p, ang = ws.params, ws.angular
        x, s, v = state.X_basis, state.S_coeff, ang.T_mat @ state.V_basis
        shift = p.epsilon**2 / (p.c * dt)
        k = x @ s
        k_minus, k_plus = self.one_sided(k, ws)
        a_plus, a_minus = upwind(ang)
        advect = k_minus @ (v.T @ a_plus @ v) + k_plus @ (v.T @ a_minus @ v)
        rhs = shift * k - p.epsilon * advect - np.outer(source, v.T @ modal_b(ang))
        return rhs / (shift + ws.sigma.at_interfaces)[:, None]

    def dense_l_update(self, state, source, ws, dt):
        p, ang = ws.params, ws.angular
        x, s, v = state.X_basis, state.S_coeff, ang.T_mat @ state.V_basis
        shift = p.epsilon**2 / (p.c * dt)
        l_mat = v @ s.T
        x_minus, x_plus = self.one_sided(x, ws)
        a_plus, a_minus = upwind(ang)
        advect = a_plus @ l_mat @ (x_minus.T @ x) + a_minus @ l_mat @ (x_plus.T @ x)
        rhs = shift * l_mat - p.epsilon * advect - np.outer(modal_b(ang), x.T @ source)
        absorb = x.T @ (ws.sigma.at_interfaces[:, None] * x)
        return np.linalg.solve(shift * np.eye(state.rank) + absorb, rhs.T).T

    def dense_galerkin_update(self, x, v, s_tilde, source, ws, dt):
        p, ang = ws.params, ws.angular
        shift = p.epsilon**2 / (p.c * dt)
        x_minus, x_plus = self.one_sided(x, ws)
        a_plus, a_minus = upwind(ang)
        advect = (x.T @ x_minus @ s_tilde @ (v.T @ a_plus @ v)
                  + x.T @ x_plus @ s_tilde @ (v.T @ a_minus @ v))
        absorb = x.T @ (ws.sigma.at_interfaces[:, None] * x)
        rhs = shift * s_tilde - p.epsilon * advect - np.outer(x.T @ source, v.T @ modal_b(ang))
        return np.linalg.solve(shift * np.eye(x.shape[1]) + absorb, rhs)

    @pytest.mark.parametrize("n_moments", [1, 4, 9, 24])
    def test_projections_match_dense_flux_matrices(self, n_moments):
        rng = np.random.default_rng(80 + n_moments)
        ws = make_workspace(n_moments=n_moments)
        ang = ws.angular
        rank = min(n_moments, 5)
        v, _ = np.linalg.qr(rng.standard_normal((n_moments, rank)))
        proj_plus, proj_minus = _flux_projections(ang.T_mat.T @ v, ws)
        a_plus, a_minus = upwind(ang)
        np.testing.assert_allclose(proj_plus, v.T @ a_plus @ v, rtol=0, atol=1e-13)
        np.testing.assert_allclose(proj_minus, v.T @ a_minus @ v, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("bc", ["zero_ghost", "periodic"])
    def test_updates_match_dense_flux_matrices(self, bc):
        # the L-step's nodal T^T (A+ L F- + A- L F+) is (I - t0 t0^T)(mu+- o (W S^T F))
        rng = np.random.default_rng(90)
        ws = make_workspace(nx=9, n_moments=12, bc=bc, seed=91)
        state = random_state(rng, 10, 12, 4)
        source = rng.standard_normal(10)
        dt = 0.03
        t_mat = ws.angular.T_mat
        diffs = stencil(state.X_basis, ws)
        for got, want in (
            (_k_update(state, source, ws, dt, diffs),
             self.dense_k_update(state, source, ws, dt)),
            (_l_update(state, source, ws, dt, diffs),
             t_mat.T @ self.dense_l_update(state, source, ws, dt)),
        ):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
        s_tilde = rng.standard_normal((4, 4))
        got = _galerkin_update(state.X_basis, state.V_basis, s_tilde, source, ws, dt, diffs)
        want = self.dense_galerkin_update(state.X_basis, t_mat @ state.V_basis, s_tilde,
                                          source, ws, dt)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("bc", ["zero_ghost", "periodic"])
    def test_shared_stencil_k_step_matches_stencil_of_k(self, bc):
        # D+-(X S) = (D+- X) S: the K-step from the stencil of X against the
        # same update from the stencil of K = X S
        rng = np.random.default_rng(92)
        ws = make_workspace(nx=30, n_moments=12, bc=bc, seed=93)
        state = random_state(rng, 31, 12, 4)
        source = rng.standard_normal(31)
        p, w, dt = ws.params, state.V_basis, 0.03
        shift = p.epsilon**2 / (p.c * dt)
        k = state.X_basis @ state.S_coeff
        k_minus, k_plus = self.one_sided(k, ws)
        flux_plus, flux_minus = _flux_projections(w, ws)
        rhs = (shift * k - p.epsilon * (k_minus @ flux_plus + k_plus @ flux_minus)
               - np.outer(source, w.T @ ws.angular.b))
        want = rhs / (shift + ws.sigma.at_interfaces)[:, None]
        got = _k_update(state, source, ws, dt, stencil(state.X_basis, ws))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("scheme", ["bug_fixed", "bug_adaptive"])
    def test_steps_read_no_transformation_matrix(self, scheme):
        # a step reads the nodal constants of ws.angular and multiplies by T
        # nowhere, nor by A = T diag(mu) T^T: with T_mat set to NaN it returns
        # the same state, bit for bit
        nx, n_mom = 41, 16
        built = build_scenario("rectangular_pulse", {"nx": nx, "n_moments": n_mom})
        angular = build_angular_operators(n_mom)
        dt = cfl_report(built.params, built.grid, angular, built.sigma)[0]
        cfg = TruncationConfig(theta_rel=5e-2, max_rank=n_mom)

        def run(poisoned):
            ws = FullSchemeWorkspace(built.grid, built.params, built.sigma, angular)
            if poisoned:
                ws.angular = dataclasses.replace(angular, T_mat=np.full((n_mom, n_mom + 1),
                                                                        np.nan))
            macro = built.macro
            # from the zero state both schemes pad angular directions in the first step
            state = zero_low_rank_state(nx + 1, angular.T_mat,
                                        rank=1 if scheme == "bug_adaptive" else 4)
            ranks = set()
            for _ in range(6):
                if scheme == "bug_fixed":
                    macro, state = step_bug_fixed(macro, state, ws, dt)
                else:
                    macro, state = step_bug_adaptive(macro, state, ws, dt, cfg)
                ranks.add(state.rank)
            # the adaptive run changes rank, so steps of several widths are covered
            assert len(ranks) > 1 or scheme == "bug_fixed"
            return macro, state

        (macro_a, state_a), (macro_b, state_b) = run(False), run(True)
        assert state_a.rank == state_b.rank
        for got, want in ((state_b.X_basis, state_a.X_basis), (state_b.S_coeff, state_a.S_coeff),
                          (state_b.V_basis, state_a.V_basis),
                          (macro_b.temperature, macro_a.temperature),
                          (macro_b.h_meso, macro_a.h_meso)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("scheme", ["bug_fixed", "bug_adaptive"])
    def test_angular_factor_stays_orthogonal_to_t0(self, scheme):
        # t0 = sqrt(w) P_0(mu) is outside range(T^T); every angular extension
        # projects against it, else rounding amplified by QR leaks into it
        # (to 4e-4 in the adaptive and 9e-13 in the fixed-rank scheme here)
        nx, n_mom = 41, 16
        built = build_scenario("absorber", {"nx": nx, "n_moments": n_mom, "epsilon": 1e-5})
        angular = build_angular_operators(n_mom)
        ws = FullSchemeWorkspace(built.grid, built.params, built.sigma, angular)
        dt = cfl_report(built.params, built.grid, angular, built.sigma)[0]
        worst = max(np.max(np.abs(ws.angular.t0 @ state.V_basis)) for _, _, _, state in simulate(
            scheme, built.macro, built.micro, ws, dt, 1000 * dt, rank=3, theta_rel=5e-2))
        assert worst <= 1e-14

    def test_padded_directions_are_rows_of_t(self):
        # at equilibrium L = 0, so every angular direction of the fixed-rank step
        # is padded: the nodal images of the first moments, the rows of T
        ws = make_workspace(nx=10, n_moments=9, bc="periodic")
        macro = MacroState(np.full(10, 2.0), np.zeros(10))
        state = zero_low_rank_state(11, ws.angular.T_mat, rank=4)
        _, new = step_bug_fixed(macro, state, ws, 0.02)
        np.testing.assert_allclose(new.V_basis, ws.angular.T_mat[:4].T, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("scheme", ["bug_fixed", "bug_adaptive"])
    def test_modal_view_of_every_state_is_orthonormal_and_pinned(self, scheme):
        nx, n_mom = 61, 12
        built = build_scenario("rectangular_pulse", {"nx": nx, "n_moments": n_mom})
        angular = build_angular_operators(n_mom)
        ws = FullSchemeWorkspace(built.grid, built.params, built.sigma, angular)
        dt = cfl_report(built.params, built.grid, angular, built.sigma)[0]
        for step, (_, _, _, state) in enumerate(simulate(scheme, built.macro, built.micro, ws,
                                                         dt, 40 * dt, rank=5, theta_rel=5e-2)):
            moments = modal(state, angular.T_mat)  # validates orthonormality to 1e-12
            assert moments.v_orth_defect <= 1e-12
            if scheme == "bug_adaptive":
                np.testing.assert_allclose(moments.V_basis[:, 0], np.eye(n_mom)[0], rtol=0,
                                           atol=1e-12, err_msg=f"step {step}")

    @pytest.mark.parametrize("scheme", ["bug_fixed", "bug_adaptive"])
    def test_report_defects_are_those_of_the_returned_factors(self, scheme):
        rng = np.random.default_rng(95)
        ws = make_workspace(nx=20, n_moments=8, seed=96)
        macro = MacroState(1.0 + rng.uniform(0.0, 1.0, 20), rng.standard_normal(20))
        state = random_state(rng, 21, 8, 3, pinned=scheme == "bug_adaptive")
        if scheme == "bug_fixed":
            _, new = step_bug_fixed(macro, state, ws, 0.02)
        else:
            cfg = TruncationConfig(theta_rel=1e-3, max_rank=8)
            _, new = step_bug_adaptive(macro, state, ws, 0.02, cfg)
        assert new.x_orth_defect == _orth_defect(new.X_basis)
        assert new.v_orth_defect == _orth_defect(new.V_basis)
