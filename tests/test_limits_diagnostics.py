import warnings

import numpy as np
import pytest

from oracles import oracle_rosseland_step, reconstruct
from slabtrt.angular import NORM_P0, build_angular_operators
from slabtrt.full_scheme import FullSchemeWorkspace
from slabtrt.limits_diagnostics import (
    cfl_report,
    energy,
    l2_relative_difference,
    mass,
    relative_mass_error,
    rosseland_stable_dt,
    rosseland_step,
)
from slabtrt.mesh_state import (
    AbsorptionField,
    MacroState,
    StaggeredGrid,
    diff_center,
    diff_interface,
)


def uniform_absorption(nx, value):
    return AbsorptionField(np.full(nx, value), np.full(nx + 1, value))


def workspace(grid, sigma=1.0, epsilon=1.0, angular=None):
    """Workspace on `grid`, uniform when sigma is a number; only cfl_report reads the
    angular operators, so the others get the smallest set."""
    if not isinstance(sigma, AbsorptionField):
        sigma = uniform_absorption(grid.n_cells, sigma)
    return FullSchemeWorkspace(grid, epsilon, sigma, angular or build_angular_operators(1))


class TestCfl:
    def test_reference_kinetic_configuration(self):
        # domain [-10, 10], 501 cells, 100 moments, eps = 1, sigma_min = 0.5
        grid = StaggeredGrid(-10.0, 10.0, 501)
        dt, node = cfl_report(workspace(grid, 0.5, 1.0, build_angular_operators(100)))
        assert abs(dt - 0.005) <= 0.1 * 0.005
        assert abs(node - (-0.999719)) <= 1e-3

    def test_parabolic_specialization(self):
        # without the hyperbolic part the bound reduces to the sigma dx^2 term
        grid = StaggeredGrid(0.0, 1.0, 20)
        angular = build_angular_operators(6)
        dt = cfl_report(workspace(grid, 0.7, 1e-300, angular))[0]
        nodes = angular.nodes[angular.nodes != 0.0]
        expected = np.min(0.7 * grid.dx**2 / nodes**2) / (5.0 * angular.beta_N)
        assert dt == pytest.approx(expected, rel=1e-12)

    def test_two_node_closed_form(self):
        # N=1: nodes +-1/sqrt(3), beta_N = 2
        grid = StaggeredGrid(0.0, 2.0, 10)
        angular = build_angular_operators(1)
        assert angular.beta_N == pytest.approx(2.0, abs=1e-14)
        dt = cfl_report(workspace(grid, 0.4, 0.3, angular))[0]
        expected = (2.0 * np.sqrt(3.0) * 0.3 * grid.dx
                    + 3.0 * 0.4 * grid.dx**2) / 10.0
        assert dt == pytest.approx(expected, rel=1e-13)

    def test_monotonicity(self):
        grid_points = [StaggeredGrid(0.0, 1.0, n) for n in (40, 20, 10)]
        angular = build_angular_operators(8)
        sigma_values = [0.2, 0.5, 1.0]
        eps_values = [1e-4, 1e-2, 1.0]
        for grid_a, grid_b in zip(grid_points, grid_points[1:]):
            for s in sigma_values:
                for e in eps_values:
                    dt_a = cfl_report(workspace(grid_a, s, e, angular))[0]
                    dt_b = cfl_report(workspace(grid_b, s, e, angular))[0]
                    assert dt_a <= dt_b  # finer grid, smaller step
        grid = grid_points[0]
        for s_a, s_b in zip(sigma_values, sigma_values[1:]):
            assert cfl_report(workspace(grid, s_a, 0.1, angular))[0] <= \
                cfl_report(workspace(grid, s_b, 0.1, angular))[0]
        for e_a, e_b in zip(eps_values, eps_values[1:]):
            assert cfl_report(workspace(grid, 0.5, e_a, angular))[0] <= \
                cfl_report(workspace(grid, 0.5, e_b, angular))[0]


class TestEnergyMass:
    def test_zero_state(self):
        ws = workspace(StaggeredGrid(-10.0, 10.0, 20))
        macro = MacroState(np.zeros(20), np.zeros(20))
        assert energy(macro, 0.0, ws) == 0.0

    def test_constant_fields(self):
        ws = workspace(StaggeredGrid(-10.0, 10.0, 40))
        macro = MacroState(np.ones(40), np.zeros(40))
        assert energy(macro, 0.0, ws) == pytest.approx(30.0, rel=1e-13)
        assert mass(macro, ws) == pytest.approx(30.0, rel=1e-13)

    def test_finite_state_too_large_to_square_overflows_to_inf_without_warning(self):
        # 1e200 squared overflows; the energy is +inf, with no overflow warning
        # from the matrix product, which -W error would turn into a failure
        ws = workspace(StaggeredGrid(0.0, 3.0, 3))
        macro = MacroState(np.full(3, 1e200), np.zeros(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert energy(macro, 0.0, ws) == np.inf
            assert mass(macro, ws) == pytest.approx(4.5e200)

    @pytest.mark.parametrize("h_kind", ["random", "zeros", "negative_zeros", "underflowing"])
    @pytest.mark.parametrize("epsilon", [1.0, 1e-5, 1e50])
    def test_energy_and_mass_keep_the_bits_of_their_direct_forms(self, h_kind, epsilon):
        # the energy reads vdot(T, T) from the state and skips T + eps^2 h when h is
        # zero; h = 1e-170 squares to zero but moves T at eps = 1e50, so the skip
        # also asks for zero entries
        rng = np.random.default_rng(12)
        grid = StaggeredGrid(0.0, 1.0, 30)
        t = rng.uniform(0.5, 1.5, 30)
        h = {"random": rng.standard_normal(30), "zeros": np.zeros(30),
             "negative_zeros": np.full(30, -0.0), "underflowing": np.full(30, 1e-170)}[h_kind]
        ws = workspace(grid, epsilon=epsilon)
        macro = MacroState(t.copy(), h.copy())
        core = t + epsilon**2 * h
        e = float(np.vdot(core, core) * grid.dx)
        e += (epsilon / NORM_P0) ** 2 * 0.3
        e += 0.5 * float(np.vdot(t, t)) * grid.dx
        assert energy(macro, 0.3, ws) == e
        assert mass(macro, ws) == float((1.5 * t.sum() + epsilon**2 * h.sum()) * grid.dx)

    def test_dense_and_factored_micro_norms_agree(self):
        rng = np.random.default_rng(3)
        grid = StaggeredGrid(0.0, 1.0, 12)
        q1, _ = np.linalg.qr(rng.standard_normal((13, 3)))
        q2, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        s = rng.standard_normal((3, 3))
        from slabtrt.mesh_state import LowRankMicroState

        state = LowRankMicroState(q1, s, q2)
        dense = float(np.sum(reconstruct(state) ** 2) * grid.dx)
        assert abs(dense - state.micro_norm_sq(grid.dx)) <= 1e-12 * max(dense, 1.0)

    def test_meso_contribution_scales_with_epsilon(self):
        tiny = workspace(StaggeredGrid(0.0, 1.0, 4), epsilon=1e-300)
        macro = MacroState(np.zeros(4), np.full(4, 5.0))
        assert mass(macro, tiny) == pytest.approx(0.0, abs=1e-280)

    def test_relative_mass_error_edge_cases(self):
        assert relative_mass_error(0.0, 0.0) == 0.0
        assert relative_mass_error(1.05, 1.0) == pytest.approx(0.05)
        with pytest.raises(ValueError):
            relative_mass_error(1.0, 0.0)


class TestRosseland:
    def test_uniform_interior_unchanged(self):
        ws = workspace(StaggeredGrid(0.0, 1.0, 10))
        t1 = rosseland_step(np.full(10, 2.0), ws, 0.001)
        np.testing.assert_allclose(t1[1:-1], 2.0, atol=1e-14)

    def test_linear_constant_sigma_is_heat_equation(self):
        # diffusivity 2 / (3 sigma (1 + 2)) against a direct stencil
        nx = 16
        grid = StaggeredGrid(0.0, 2.0, nx)
        sigma_val = 0.8
        rng = np.random.default_rng(4)
        T = rng.uniform(0.0, 1.0, nx)
        dt = 1e-4
        out = rosseland_step(T, workspace(grid, sigma_val), dt)
        diffusivity = 2.0 / (3.0 * sigma_val * (1.0 + 2.0))
        padded = np.concatenate([[0.0], T, [0.0]])
        lap = (padded[2:] - 2 * padded[1:-1] + padded[:-2]) / grid.dx**2
        np.testing.assert_allclose(out, T + dt * diffusivity * lap, atol=1e-14)

    def test_three_cell_hand_instance(self):
        ws = workspace(StaggeredGrid(0.0, 3.0, 3))
        T = np.array([0.0, 1.0, 0.0])
        out = rosseland_step(T, ws, 0.1)
        oracle = oracle_rosseland_step(T, 1.0, 0.1, np.ones(4))
        np.testing.assert_allclose(out, oracle, atol=1e-14)
        coef = 0.1 * (2.0 / 3.0) / 3.0
        np.testing.assert_allclose(out, [coef, 1.0 - 2 * coef, coef], atol=1e-14)

    def test_variable_sigma_against_oracle(self):
        nx = 9
        grid = StaggeredGrid(-1.0, 1.0, nx)
        rng = np.random.default_rng(5)
        sig_c = rng.uniform(0.5, 2.0, nx)
        sig_i = rng.uniform(0.5, 2.0, nx + 1)
        ws = workspace(grid, AbsorptionField(sig_c, sig_i))
        T = rng.uniform(0.1, 1.5, nx)
        dt = 1e-4
        out = rosseland_step(T, ws, dt)
        oracle = oracle_rosseland_step(T, grid.dx, dt, sig_i)
        np.testing.assert_allclose(out, oracle, atol=1e-13)

    def test_stable_dt_is_set_by_the_smallest_interface_sigma(self):
        nx = 6
        grid = StaggeredGrid(0.0, 1.0, nx)
        sig_i = np.array([0.9, 1.3, 0.45, 2.0, 0.9, 1.1, 0.7])
        sigma = AbsorptionField(np.full(nx, 0.3), sig_i)  # centers play no part
        dt = rosseland_stable_dt(workspace(grid, sigma))
        assert dt == pytest.approx(grid.dx**2 / (2.0 * (2.0 / 3.0) / 0.45), rel=1e-14)

    def test_kept_reciprocal_matches_the_one_of_each_step_bit_for_bit(self):
        # 1 / sigma is computed once per field, not once per step; the step and
        # its bound read back the same bits as the form that divided every time
        rng = np.random.default_rng(20)
        for nx in (1, 2, 9, 64):
            grid = StaggeredGrid(-1.0, 2.0, nx)
            sig_i = rng.uniform(1e-3, 1e3, nx + 1)
            sigma = AbsorptionField(rng.uniform(0.5, 2.0, nx), sig_i)
            assert not sigma.inv_at_interfaces.flags.writeable
            T = rng.uniform(-1.0, 2.0, nx)
            dt = float(rng.uniform(1e-5, 1e-3))
            ws = workspace(grid, sigma)
            got = rosseland_step(T, ws, dt)
            want = T + dt * (2.0 / 3.0) / 3.0 * diff_center(
                1.0 / sig_i * diff_interface(T, grid), grid)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            bound = rosseland_stable_dt(ws)
            assert type(bound) is float
            assert bound == grid.dx**2 / (2.0 * ((2.0 / 3.0) * np.max(1.0 / sig_i)))

    def test_mass_changes_by_the_boundary_fluxes(self):
        # with zero ghosts the interior fluxes cancel in the sum, and the end
        # fluxes are -T[0] / (sigma dx) and -T[-1] / (sigma dx) out of the slab
        nx = 14
        grid = StaggeredGrid(0.0, 1.0, nx)
        rng = np.random.default_rng(6)
        T = rng.uniform(0.0, 1.0, nx)
        dt = 1e-4
        weight = (1.0 + 2.0) * grid.dx
        total0 = float(np.sum(T) * weight)
        out = rosseland_step(T, workspace(grid, 0.6), dt)
        outflow = dt * (2.0 / 3.0) * (T[0] + T[-1]) / (0.6 * grid.dx)
        assert abs(np.sum(out) * weight - (total0 - outflow)) <= 1e-12 * abs(total0)

    def test_dt_validation(self):
        ws = workspace(StaggeredGrid(0.0, 1.0, 4))
        with pytest.raises(ValueError):
            rosseland_step(np.zeros(4), ws, 0.0)


class TestProfileComparison:
    def setup_method(self):
        self.grid = StaggeredGrid(0.0, 1.0, 10)

    def test_identical(self):
        u = np.arange(10.0)
        assert l2_relative_difference(u, u, self.grid) == 0.0

    def test_both_zero(self):
        z = np.zeros(10)
        assert l2_relative_difference(z, z, self.grid) == 0.0

    def test_scaling(self):
        v = np.linspace(1.0, 2.0, 10)
        assert l2_relative_difference(2 * v, v, self.grid) == pytest.approx(1.0, rel=1e-13)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            l2_relative_difference(np.zeros(3), np.zeros(4), self.grid)
