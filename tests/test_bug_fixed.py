import dataclasses

import numpy as np
import pytest

from oracles import (
    all_node_flux_projections,
    all_node_l_update,
    kernel_galerkin,
    kernel_k,
    kernel_l,
    modal,
    modal_b,
    nodal_dense,
    nodal_state,
    oracle_galerkin_dense,
    oracle_galerkin_rhs,
    oracle_l_step,
    oracle_step_full,
    reconstruct,
    three_temporary_l_update,
    upwind,
)
from runners import build_problem
from slabtrt import bug_fixed
from slabtrt.angular import build_angular_operators
from slabtrt.bug_adaptive import step_bug_adaptive
from slabtrt.bug_fixed import _flux_projections, step_bug_fixed
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
    FullMicroState,
    LowRankMicroState,
    MacroState,
    StaggeredGrid,
    _orth_defect,
    extend_orthonormal_columns,
    padded_difference,
    scalar_flux,
    zero_low_rank_state,
)


def make_workspace(nx=6, n_moments=4, epsilon=0.8, sigma=0.7, seed=None):
    grid = StaggeredGrid(-1.0, 1.0, nx)
    if seed is None:
        field = AbsorptionField(np.full(nx, sigma), np.full(nx + 1, sigma))
    else:
        rng = np.random.default_rng(seed)
        field = AbsorptionField(rng.uniform(0.4, 1.5, nx), rng.uniform(0.4, 1.5, nx + 1))
    angular = build_angular_operators(n_moments)
    return FullSchemeWorkspace(grid, epsilon, field, angular)


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


def k_update(state, macro, ws, dt):
    return kernel_k(state, emission_gradient_parts(macro, ws)[1], ws, dt)


def l_update(state, macro, ws, dt):
    """T^T L of the L-step."""
    return kernel_l(state, emission_gradient_parts(macro, ws)[1], ws, dt)


def galerkin_update(x_new, v_new, state_old, macro, ws, dt):
    """Coefficient update in new bases, starting from the projected old solution."""
    s_tilde = (x_new.T @ state_old.X_basis) @ state_old.S_coeff @ (state_old.V_basis.T @ v_new)
    return kernel_galerkin(x_new, v_new, s_tilde, emission_gradient_parts(macro, ws)[1], ws, dt)


def orthonormalized(mat, rank):
    """The fixed-rank step's basis of the columns of mat, padded to rank."""
    return extend_orthonormal_columns(np.empty((mat.shape[0], 0)), mat, rank)


class TestKStep:
    def test_zero_coefficients_at_equilibrium(self):
        # with zero ghosts the equilibrium is T = 0
        ws = make_workspace()
        macro = MacroState(np.zeros(6), np.zeros(6))
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
        _, _, oracle = oracle_step_full(macro.temperature, macro.h_meso, g_in_span, ws.epsilon,
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
    def test_zero_coefficients_at_equilibrium(self):
        ws = make_workspace()
        macro = MacroState(np.zeros(6), np.zeros(6))
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
        epsilon = 0.6
        sig_c = rng.uniform(0.5, 1.5, nx)
        sig_i = rng.uniform(0.5, 1.5, nx + 1)
        ws = FullSchemeWorkspace(grid, epsilon, AbsorptionField(sig_c, sig_i),
                                 build_angular_operators(n_mom))
        state = random_state(rng, nx + 1, n_mom, 1)
        T = rng.uniform(0.0, 2.0, nx)
        h = rng.standard_normal(nx)
        macro = MacroState(T, h)
        dt = 0.05
        l_new = ws.angular.T_mat @ l_update(state, macro, ws, dt)
        v_modal = ws.angular.T_mat @ state.V_basis
        oracle = oracle_l_step(state.X_basis, state.S_coeff, v_modal, T, h,
                               epsilon, grid.dx, dt, sig_i,
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
                               ws.epsilon, ws.grid.dx, 0.04, ws.sigma.at_interfaces,
                               *upwind(ws.angular))
        np.testing.assert_allclose(l_new, oracle, atol=1e-12)


class TestSStep:
    def test_zero_data_stays_zero(self):
        ws = make_workspace()
        macro = MacroState(np.zeros(6), np.zeros(6))
        state = zero_low_rank_state(7, ws.angular.T_mat, rank=2)
        s_new = galerkin_update(state.X_basis, state.V_basis, state, macro, ws, 0.01)
        np.testing.assert_allclose(s_new, 0.0, atol=1e-15)

    def test_constant_absorption_explicit_solution(self):
        # with sigma constant the implicit operator is (shift + sigma) * identity,
        # so the update is an explicit division by that scalar
        rng = np.random.default_rng(19)
        ws = make_workspace(sigma=0.9)
        macro = MacroState(rng.standard_normal(6), rng.standard_normal(6))
        state = random_state(rng, 7, 4, 2)
        dt = 0.03
        s_new = galerkin_update(state.X_basis, state.V_basis, state, macro, ws, dt)

        eps = ws.epsilon
        shift = eps**2 / dt
        rhs = oracle_galerkin_rhs(state.X_basis, ws.angular.T_mat @ state.V_basis, state.S_coeff,
                                  macro.temperature, macro.h_meso, eps, ws.grid.dx, dt,
                                  ws.sigma.at_interfaces, *upwind(ws.angular))
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
        oracle = oracle_galerkin_dense(x_new, ws.angular.T_mat @ v_new, s_tilde, T, h, ws.epsilon,
                                       ws.grid.dx, dt, ws.sigma.at_interfaces,
                                       *upwind(ws.angular))
        np.testing.assert_allclose(s_new, oracle, atol=1e-12)


class TestStepBugFixed:
    def test_equilibrium_fixed_point(self):
        ws = make_workspace()
        macro = MacroState(np.zeros(6), np.zeros(6))
        state = zero_low_rank_state(7, ws.angular.T_mat, rank=2)
        m1, s1 = step_bug_fixed(macro, state, ws, 0.02)
        np.testing.assert_allclose(m1.temperature, 0.0, atol=1e-14)
        np.testing.assert_allclose(m1.h_meso, 0.0, atol=1e-14)
        np.testing.assert_allclose(reconstruct(s1), 0.0, atol=1e-14)
        assert s1.rank == 2
        assert _orth_defect(s1.X_basis) <= 1e-12
        assert _orth_defect(s1.V_basis) <= 1e-12

    def test_diffusive_temperature_tracks_reference(self):
        nx, n_mom = 50, 10
        grid = StaggeredGrid(-5.0, 5.0, nx)
        epsilon = 1e-6
        sigma = AbsorptionField(np.full(nx, 0.5), np.full(nx + 1, 0.5))
        angular = build_angular_operators(n_mom)
        ws = FullSchemeWorkspace(grid, epsilon, sigma, angular)
        dt = cfl_report(ws)[0]
        macro = MacroState(np.exp(-grid.centers**2), np.zeros(nx))
        state = zero_low_rank_state(nx + 1, angular.T_mat, rank=1)
        t_ref = macro.temperature.copy()
        for _ in range(10):
            macro, state = step_bug_fixed(macro, state, ws, dt)
            t_ref = rosseland_step(t_ref, ws, dt)
            err = np.linalg.norm(macro.temperature - t_ref) / np.linalg.norm(t_ref)
            assert err <= 1e-4

    def test_kinetic_pulse_matches_dense_scheme(self):
        # moderate desk case: rank 15 against the dense scheme with the same moments
        nx, n_mom, rank = 101, 30, 15
        ws, macro0 = build_problem("rectangular_pulse", nx, n_mom)
        angular = ws.angular
        dt = cfl_report(ws)[0]

        macro_d, micro_d = macro0, nodal_dense(np.zeros((nx + 1, n_mom)), angular)
        macro_l = macro0
        state = zero_low_rank_state(nx + 1, angular.T_mat, rank)
        t = 0.0
        while t < 1.5 - 1e-12:
            dt_step = min(dt, 1.5 - t)
            macro_d, micro_d = step_full(macro_d, micro_d, ws, dt_step)
            macro_l, state = step_bug_fixed(macro_l, state, ws, dt_step)
            t += dt_step
        err_t = l2_relative_difference(macro_l.temperature, macro_d.temperature, ws.grid)
        err_phi = l2_relative_difference(scalar_flux(macro_l, ws.epsilon),
                                         scalar_flux(macro_d, ws.epsilon), ws.grid)
        assert err_t <= 0.02
        assert err_phi <= 0.02

    def test_energy_dissipation_and_mass(self):
        nx, n_mom, rank = 60, 8, 4
        ws, macro = build_problem("rectangular_pulse", nx, n_mom)
        angular = ws.angular
        dt = cfl_report(ws)[0]
        state = zero_low_rank_state(nx + 1, angular.T_mat, rank)
        e_prev = energy(macro, 0.0, ws)
        e0 = e_prev
        m0 = mass(macro, ws)
        for _ in range(60):
            macro, state = step_bug_fixed(macro, state, ws, dt)
            e = energy(macro, state.micro_norm_sq(ws.grid.dx), ws)
            assert e <= e_prev + 1e-12 * e0
            e_prev = e
            assert abs(mass(macro, ws) - m0) <= 1e-12 * abs(m0)

    def test_dt_validation(self):
        ws = make_workspace()
        macro = MacroState(np.zeros(6), np.zeros(6))
        state = zero_low_rank_state(7, ws.angular.T_mat, rank=1)
        with pytest.raises(ValueError):
            step_bug_fixed(macro, state, ws, -1.0)


class TestCarriedBlocks:
    """The blocks the S-step forms for the new bases travel with the state it
    returns and serve the K- and L-step of every step of that state in the same
    workspace; any other state or workspace gets them formed again, and every
    result is bit-identical."""

    SCHEMES = ("bug_fixed", "bug_adaptive")

    @staticmethod
    def problem():
        nx, n_mom = 40, 8
        ws, macro0 = build_problem("rectangular_pulse", nx, n_mom)
        state = random_state(np.random.default_rng(60), nx + 1, n_mom, 3, pinned=True)
        return ws, macro0, state

    @staticmethod
    def step(scheme, macro, state, ws):
        if scheme == "bug_adaptive":
            return step_bug_adaptive(macro, state, ws, 0.02, 1e-3)
        return step_bug_fixed(macro, state, ws, 0.02)

    @staticmethod
    def fresh(ws, **members):
        fields = {"grid": ws.grid, "epsilon": ws.epsilon, "sigma": ws.sigma,
                  "angular": ws.angular}
        return FullSchemeWorkspace(**{**fields, **members})

    @staticmethod
    def assert_identical(a, b):
        (ma, sa), (mb, sb) = a, b
        for x, y in ((ma.temperature, mb.temperature), (ma.h_meso, mb.h_meso),
                     (sa.X_basis, sb.X_basis), (sa.S_coeff, sb.S_coeff),
                     (sa.V_basis, sb.V_basis)):
            assert np.array_equal(x.view(np.uint64), y.view(np.uint64))

    @staticmethod
    def count_blocks(monkeypatch):
        calls = []
        blocks = bug_fixed._spatial_blocks

        def counted(x, diffs, ws):
            calls.append(x)
            return blocks(x, diffs, ws)

        monkeypatch.setattr(bug_fixed, "_spatial_blocks", counted)
        return calls

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_fresh_workspace_every_step_is_bit_identical(self, scheme):
        ws, macro, state = self.problem()
        shared = fresh = (macro, state)
        for _ in range(6):
            shared = self.step(scheme, *shared, ws)
            fresh = self.step(scheme, *fresh, self.fresh(ws))
            self.assert_identical(shared, fresh)

    def test_state_built_outside_a_step_forms_the_blocks(self, monkeypatch):
        ws, macro, state = self.problem()
        macro, state = step_bug_fixed(macro, state, ws, 0.02)
        copy = LowRankMicroState(state.X_basis.copy(), state.S_coeff, state.V_basis.copy())
        calls = self.count_blocks(monkeypatch)
        from_step = step_bug_fixed(macro, state, ws, 0.02)
        assert len(calls) == 1  # only the new bases': the old ones came from the step
        from_copy = step_bug_fixed(macro, copy, ws, 0.02)
        assert len(calls) == 3  # the copy's blocks and the new bases'
        self.assert_identical(from_copy, from_step)

    def test_state_stepped_twice_reads_its_blocks_both_times(self, monkeypatch):
        ws, macro, state = self.problem()
        macro, state = step_bug_fixed(macro, state, ws, 0.02)
        calls = self.count_blocks(monkeypatch)
        first = step_bug_fixed(macro, state, ws, 0.02)
        second = step_bug_fixed(macro, state, ws, 0.02)
        assert len(calls) == 2  # the new bases' of each step
        assert all(x is not state.X_basis for x in calls)
        self.assert_identical(second, first)

    def test_state_stepped_under_another_workspace_forms_the_blocks(self, monkeypatch):
        ws, macro, state = self.problem()
        macro, state = step_bug_fixed(macro, state, ws, 0.02)
        calls = self.count_blocks(monkeypatch)
        other = step_bug_fixed(macro, state, self.fresh(ws), 0.02)
        assert len(calls) == 2  # the state's blocks and the new bases'
        assert calls[0] is state.X_basis
        self.assert_identical(other, step_bug_fixed(macro, state, ws, 0.02))


class TestStepMadeStates:
    """States a step makes skip the constructor's checks; what it checks holds anyway."""

    @pytest.mark.parametrize("scheme", ["bug_fixed", "bug_adaptive"])
    @pytest.mark.parametrize("scenario, epsilon", [("rectangular_pulse", 1.0),
                                                   ("absorber", 1e-5)])
    def test_every_state_passes_the_public_checks(self, scheme, scenario, epsilon):
        ws, macro0 = build_problem(scenario, 30, 10, epsilon)
        dt = cfl_report(ws)[0]
        states = [state for _, _, _, state in simulate(scheme, macro0, ws, dt, 24 * dt,
                                                      rank=3, theta_rel=5e-2)]
        assert len(states) == 25  # the zero state and 24 steps
        for step, state in enumerate(states):
            # read-only first: the public constructor freezes the arrays it is given
            for arr in (state.X_basis, state.S_coeff, state.V_basis):
                assert not arr.flags.writeable, f"step {step}"
            LowRankMicroState(state.X_basis, state.S_coeff, state.V_basis)


class TestNodalKernels:
    """The BUG kernels hold V as W = T^T V and reach A+- only through it."""

    def one_sided(self, mat, ws):
        diffs = padded_difference(mat, ws.grid)
        return diffs[:-1], diffs[1:]

    def dense_k_update(self, state, source, ws, dt):
        eps, ang = ws.epsilon, ws.angular
        x, s, v = state.X_basis, state.S_coeff, ang.T_mat @ state.V_basis
        shift = eps**2 / dt
        k = x @ s
        k_minus, k_plus = self.one_sided(k, ws)
        a_plus, a_minus = upwind(ang)
        advect = k_minus @ (v.T @ a_plus @ v) + k_plus @ (v.T @ a_minus @ v)
        rhs = shift * k - eps * advect - np.outer(source, v.T @ modal_b(ang))
        return rhs / (shift + ws.sigma.at_interfaces)[:, None]

    def dense_l_update(self, state, source, ws, dt):
        eps, ang = ws.epsilon, ws.angular
        x, s, v = state.X_basis, state.S_coeff, ang.T_mat @ state.V_basis
        shift = eps**2 / dt
        l_mat = v @ s.T
        x_minus, x_plus = self.one_sided(x, ws)
        a_plus, a_minus = upwind(ang)
        advect = a_plus @ l_mat @ (x_minus.T @ x) + a_minus @ l_mat @ (x_plus.T @ x)
        rhs = shift * l_mat - eps * advect - np.outer(modal_b(ang), x.T @ source)
        absorb = x.T @ (ws.sigma.at_interfaces[:, None] * x)
        return np.linalg.solve(shift * np.eye(state.rank) + absorb, rhs.T).T

    def dense_galerkin_update(self, x, v, s_tilde, source, ws, dt):
        eps, ang = ws.epsilon, ws.angular
        shift = eps**2 / dt
        x_minus, x_plus = self.one_sided(x, ws)
        a_plus, a_minus = upwind(ang)
        advect = (x.T @ x_minus @ s_tilde @ (v.T @ a_plus @ v)
                  + x.T @ x_plus @ s_tilde @ (v.T @ a_minus @ v))
        absorb = x.T @ (ws.sigma.at_interfaces[:, None] * x)
        rhs = shift * s_tilde - eps * advect - np.outer(x.T @ source, v.T @ modal_b(ang))
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

    @pytest.mark.parametrize(("nx", "rank"), [(9, 4), (1, 2)])
    def test_updates_match_dense_flux_matrices(self, nx, rank):
        # the L-step's nodal T^T (A+ L F- + A- L F+) is (I - t0 t0^T)(mu+- o (W S^T F));
        # on one cell both interfaces difference a zero ghost
        rng = np.random.default_rng(90)
        ws = make_workspace(nx=nx, n_moments=12, seed=91)
        state = random_state(rng, nx + 1, 12, rank)
        source = rng.standard_normal(nx + 1)
        dt = 0.03
        t_mat = ws.angular.T_mat
        for got, want in (
            (kernel_k(state, source, ws, dt), self.dense_k_update(state, source, ws, dt)),
            (kernel_l(state, source, ws, dt),
             t_mat.T @ self.dense_l_update(state, source, ws, dt)),
        ):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
        s_tilde = rng.standard_normal((rank, rank))
        got = kernel_galerkin(state.X_basis, state.V_basis, s_tilde, source, ws, dt)
        want = self.dense_galerkin_update(state.X_basis, t_mat @ state.V_basis, s_tilde,
                                          source, ws, dt)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize(("nx", "rank"), [(30, 4), (1, 2)])
    def test_shared_stencil_k_step_matches_stencil_of_k(self, nx, rank):
        # D+-(X S) = (D+- X) S: the K-step from the stencil of X against the
        # same update from the stencil of K = X S
        rng = np.random.default_rng(92)
        ws = make_workspace(nx=nx, n_moments=12, seed=93)
        state = random_state(rng, nx + 1, 12, rank)
        source = rng.standard_normal(nx + 1)
        eps, w, dt = ws.epsilon, state.V_basis, 0.03
        shift = eps**2 / dt
        k = state.X_basis @ state.S_coeff
        k_minus, k_plus = self.one_sided(k, ws)
        flux_plus, flux_minus = _flux_projections(w, ws)
        rhs = (shift * k - eps * (k_minus @ flux_plus + k_plus @ flux_minus)
               - np.outer(source, w.T @ ws.angular.b))
        want = rhs / (shift + ws.sigma.at_interfaces)[:, None]
        got = kernel_k(state, source, ws, dt)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("n_moments", [1, 2, 7, 8, 24, 25])
    def test_half_node_products_match_all_node_formulas(self, n_moments):
        # mu+ on the nodes mu >= 0 and mu- on the nodes mu < 0 only: with an odd
        # N + 1 the node mu = 0 is in the mu+ half, where both factors vanish
        rng = np.random.default_rng(94 + n_moments)
        nx, rank = 9, min(n_moments, 4)
        ws = make_workspace(nx=nx, n_moments=n_moments, seed=95)
        ang = ws.angular
        assert ang.n_neg == int(np.searchsorted(ang.quad.nodes, 0.0))
        assert np.all(ang.quad.nodes[:ang.n_neg] < 0.0)
        assert np.all(ang.quad.nodes[ang.n_neg:] >= 0.0)
        state = random_state(rng, nx + 1, n_moments, rank)
        x = state.X_basis
        blocks = bug_fixed._spatial_blocks(x, padded_difference(x, ws.grid), ws)
        x_source = x.T @ rng.standard_normal(nx + 1)
        pairs = list(zip(_flux_projections(state.V_basis, ws),
                         all_node_flux_projections(state.V_basis, ang)))
        pairs.append((bug_fixed._l_update(state, ws, 0.03, blocks, x_source),
                      all_node_l_update(state, ws, 0.03, blocks, x_source)))
        for got, want in pairs:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max())

    @pytest.mark.parametrize("rank", [1, 5])
    @pytest.mark.parametrize("n_moments", [7, 8, 100])
    def test_in_place_l_step_matches_three_temporary_form_bit_for_bit(self, n_moments, rank):
        rng = np.random.default_rng(19 * n_moments + rank)
        nx = 9
        ws = make_workspace(nx=nx, n_moments=n_moments, seed=rank)
        for _ in range(3):
            state = random_state(rng, nx + 1, n_moments, rank)
            x = state.X_basis
            blocks = bug_fixed._spatial_blocks(x, padded_difference(x, ws.grid), ws)
            x_source = x.T @ rng.standard_normal(nx + 1)
            got = bug_fixed._l_update(state, ws, 0.03, blocks, x_source)
            want = three_temporary_l_update(state, ws, 0.03, blocks, x_source)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("scheme", ["bug_fixed", "bug_adaptive"])
    def test_steps_read_no_transformation_matrix(self, scheme):
        # a step reads the nodal constants of ws.angular and multiplies by T
        # nowhere, nor by A = T diag(mu) T^T: with T_mat set to NaN it returns
        # the same state, bit for bit
        nx, n_mom = 41, 16
        clean, macro0 = build_problem("rectangular_pulse", nx, n_mom)
        angular = clean.angular
        dt = cfl_report(clean)[0]
        theta_rel = 5e-2

        def run(poisoned):
            ws = clean
            if poisoned:
                ws = dataclasses.replace(ws, angular=dataclasses.replace(
                    angular, T_mat=np.full((n_mom, n_mom + 1), np.nan)))
            macro = macro0
            # from the zero state both schemes pad angular directions in the first step
            state = zero_low_rank_state(nx + 1, angular.T_mat,
                                        rank=1 if scheme == "bug_adaptive" else 4)
            ranks = set()
            for _ in range(6):
                if scheme == "bug_fixed":
                    macro, state = step_bug_fixed(macro, state, ws, dt)
                else:
                    macro, state = step_bug_adaptive(macro, state, ws, dt, theta_rel)
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
        ws, macro0 = build_problem("absorber", nx, n_mom, 1e-5)
        dt = cfl_report(ws)[0]
        worst = max(np.max(np.abs(ws.angular.t0 @ state.V_basis)) for _, _, _, state in simulate(
            scheme, macro0, ws, dt, 1000 * dt, rank=3, theta_rel=5e-2))
        assert worst <= 1e-14

    def test_padded_directions_are_rows_of_t(self):
        # at equilibrium (T = 0 with zero ghosts) L = 0, so every angular direction
        # of the fixed-rank step is padded: the nodal images of the first moments,
        # the rows of T
        ws = make_workspace(nx=10, n_moments=9)
        macro = MacroState(np.zeros(10), np.zeros(10))
        state = zero_low_rank_state(11, ws.angular.T_mat, rank=4)
        _, new = step_bug_fixed(macro, state, ws, 0.02)
        np.testing.assert_allclose(new.V_basis, ws.angular.T_mat[:4].T, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("scheme", ["bug_fixed", "bug_adaptive"])
    def test_modal_view_of_every_state_is_orthonormal_and_pinned(self, scheme):
        nx, n_mom = 61, 12
        ws, macro0 = build_problem("rectangular_pulse", nx, n_mom)
        angular = ws.angular
        dt = cfl_report(ws)[0]
        for step, (_, _, _, state) in enumerate(simulate(scheme, macro0, ws,
                                                         dt, 40 * dt, rank=5, theta_rel=5e-2)):
            moments = modal(state, angular.T_mat)  # validates orthonormality to 1e-12
            assert _orth_defect(moments.V_basis) <= 1e-12
            if scheme == "bug_adaptive":
                np.testing.assert_allclose(moments.V_basis[:, 0], np.eye(n_mom)[0], rtol=0,
                                           atol=1e-12, err_msg=f"step {step}")


class TestMirrorSymmetry:
    """Zero ghosts close both ends of the slab alike, so each step commutes with the
    mirror x -> -x, mu -> -mu: cells, interfaces and the sorted Gauss nodes are
    reversed, and T and h, both even in mu, keep their sign."""

    @staticmethod
    def mirror_low_rank(state):
        # W[::-1] turns the pin T^T e_1 into -pin; negating the first columns of
        # S and W keeps X S W^T and the pin of the adaptive step
        flip = np.ones(state.rank)
        flip[0] = -1.0
        return LowRankMicroState(state.X_basis[::-1], state.S_coeff * flip,
                                 state.V_basis[::-1] * flip)

    @pytest.mark.parametrize("scheme", ["full", "bug_fixed", "bug_adaptive"])
    def test_steps_commute_with_the_mirror(self, scheme):
        rng = np.random.default_rng(97)
        nx, n_mom, dt = 10, 7, 0.02
        sig_c, sig_i = rng.uniform(0.4, 1.5, nx), rng.uniform(0.4, 1.5, nx + 1)
        ws = FullSchemeWorkspace(StaggeredGrid(-1.0, 1.0, nx), 0.6,
                                 AbsorptionField(sig_c + sig_c[::-1], sig_i + sig_i[::-1]),
                                 build_angular_operators(n_mom))
        macro = MacroState(rng.uniform(0.5, 2.0, nx), rng.standard_normal(nx))
        mirrored = MacroState(macro.temperature[::-1], macro.h_meso[::-1])
        if scheme == "full":
            micro = nodal_dense(rng.standard_normal((nx + 1, n_mom)), ws.angular)
            mirrored_micro = FullMicroState(micro.g_matrix[::-1, ::-1])

            def advance(macro, micro):
                return step_full(macro, micro, ws, dt)

            def nodal(micro):
                return micro.g_matrix
        else:
            micro = random_state(rng, nx + 1, n_mom, 3, pinned=scheme == "bug_adaptive")
            mirrored_micro = self.mirror_low_rank(micro)
            theta_rel = 1e-3

            def advance(macro, micro):
                if scheme == "bug_fixed":
                    return step_bug_fixed(macro, micro, ws, dt)
                return step_bug_adaptive(macro, micro, ws, dt, theta_rel)

            def nodal(micro):
                return micro.X_basis @ micro.S_coeff @ micro.V_basis.T
        for _ in range(5):
            macro, micro = advance(macro, micro)
            mirrored, mirrored_micro = advance(mirrored, mirrored_micro)
        for got, want in ((mirrored.temperature, macro.temperature[::-1]),
                          (mirrored.h_meso, macro.h_meso[::-1]),
                          (nodal(mirrored_micro), nodal(micro)[::-1, ::-1])):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
