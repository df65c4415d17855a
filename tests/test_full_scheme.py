import dataclasses

import numpy as np
import pytest

from oracles import oracle_step_full
from slabtrt.angular import NORM_P1, build_angular_operators
from slabtrt.full_scheme import FullSchemeWorkspace, _split_rhs, step_full
from slabtrt.limits_diagnostics import compute_cfl_dt, energy, mass, rosseland_step
from slabtrt.mesh_state import (
    AbsorptionField,
    FullMicroState,
    MacroState,
    PhysicalParams,
    StaggeredGrid,
    padded_difference,
)


def make_workspace(nx=3, n_moments=2, epsilon=1.0, sigma=1.0, x_max=None, bc="zero_ghost",
                   emission="linear"):
    grid = StaggeredGrid(0.0, float(nx if x_max is None else x_max), nx)
    params = PhysicalParams(epsilon=epsilon, emission=emission)
    field = AbsorptionField(np.full(nx, sigma), np.full(nx + 1, sigma))
    angular = build_angular_operators(n_moments)
    return FullSchemeWorkspace(grid, params, field, angular, bc=bc)


def smooth_profile(x, x_min, x_max, seed, modes=4):
    """Random smooth field vanishing at the domain ends."""
    rng = np.random.default_rng(seed)
    s = (x - x_min) / (x_max - x_min)
    out = np.zeros_like(x)
    for k in range(1, modes + 1):
        out += rng.standard_normal() / k * np.sin(np.pi * k * s)
    return out


class TestStepFull:
    def test_zero_state_is_fixed_point(self):
        ws = make_workspace()
        macro = MacroState(np.zeros(3), np.zeros(3))
        micro = FullMicroState(np.zeros((4, 2)))
        m1, g1 = step_full(macro, micro, ws, 0.1)
        np.testing.assert_allclose(m1.temperature, 0.0, atol=1e-16)
        np.testing.assert_allclose(m1.h_meso, 0.0, atol=1e-16)
        np.testing.assert_allclose(g1.g_matrix, 0.0, atol=1e-16)

    @pytest.mark.parametrize("emission", ["linear", "stefan_boltzmann"])
    def test_uniform_periodic_is_fixed_point(self, emission):
        ws = make_workspace(nx=6, n_moments=3, bc="periodic", emission=emission)
        macro = MacroState(np.full(6, 1.7), np.zeros(6))
        micro = FullMicroState(np.zeros((7, 3)))
        m1, g1 = step_full(macro, micro, ws, 0.05)
        np.testing.assert_allclose(m1.temperature, 1.7, atol=1e-14)
        np.testing.assert_allclose(m1.h_meso, 0.0, atol=1e-14)
        np.testing.assert_allclose(g1.g_matrix, 0.0, atol=1e-14)

    def test_hand_instance_against_oracle(self):
        # Nx=3, N=2, eps=1, sigma=1, dx=1, dt=0.1, T=(0,1,0), linear, zero ghosts
        ws = make_workspace(nx=3, n_moments=2)
        T = np.array([0.0, 1.0, 0.0])
        macro = MacroState(T, np.zeros(3))
        micro = FullMicroState(np.zeros((4, 2)))
        dt = 0.1
        m1, g1 = step_full(macro, micro, ws, dt)

        t_o, h_o, g_o = oracle_step_full(
            T, np.zeros(3), np.zeros((4, 2)), ws.params, 1.0, dt,
            np.ones(3), np.ones(4), ws.angular.A_plus, ws.angular.A_minus)
        np.testing.assert_allclose(g1.g_matrix, g_o, atol=1e-13)
        np.testing.assert_allclose(m1.h_meso, h_o, atol=1e-13)
        np.testing.assert_allclose(m1.temperature, t_o, atol=1e-13)

        # closed forms: the first moment reacts to the temperature jumps only
        s = NORM_P1 / 11.0
        np.testing.assert_allclose(g1.g_matrix[:, 0], [0.0, -s, s, 0.0], atol=1e-14)
        np.testing.assert_allclose(g1.g_matrix[:, 1], 0.0, atol=1e-16)
        h_scale = (2.0 / 3.0) / (2.0 * 11.0 * 13.0)
        np.testing.assert_allclose(m1.h_meso, h_scale * np.array([1.0, -2.0, 1.0]), atol=1e-15)
        np.testing.assert_allclose(m1.temperature, T + 0.2 * m1.h_meso, atol=1e-15)

    def test_random_instances_against_oracle(self):
        rng = np.random.default_rng(8)
        for bc in ("zero_ghost", "periodic"):
            for emission in ("linear", "stefan_boltzmann"):
                nx, n_mom = 5, 3
                grid = StaggeredGrid(-1.0, 1.0, nx)
                params = PhysicalParams(epsilon=0.7, emission=emission)
                sig_c = rng.uniform(0.5, 2.0, nx)
                sig_i = rng.uniform(0.5, 2.0, nx + 1)
                field = AbsorptionField(sig_c, sig_i)
                ws = FullSchemeWorkspace(grid, params, field, build_angular_operators(n_mom), bc=bc)
                T = rng.uniform(0.1, 2.0, nx)
                h = rng.standard_normal(nx)
                G = rng.standard_normal((nx + 1, n_mom))
                dt = 0.02
                m1, g1 = step_full(MacroState(T, h), FullMicroState(G), ws, dt)
                t_o, h_o, g_o = oracle_step_full(
                    T, h, G, params, grid.dx, dt, sig_c, sig_i,
                    ws.angular.A_plus, ws.angular.A_minus, bc=bc)
                np.testing.assert_allclose(g1.g_matrix, g_o, atol=1e-13)
                np.testing.assert_allclose(m1.h_meso, h_o, atol=1e-13)
                np.testing.assert_allclose(m1.temperature, t_o, atol=1e-13)

    def test_input_validation(self):
        ws = make_workspace()
        macro = MacroState(np.zeros(3), np.zeros(3))
        micro = FullMicroState(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            step_full(macro, micro, ws, 0.0)
        with pytest.raises(ValueError):
            step_full(macro, FullMicroState(np.zeros((4, 5))), ws, 0.1)


class TestSplitAdvection:
    @pytest.mark.parametrize("bc", ["zero_ghost", "periodic"])
    @pytest.mark.parametrize("n_mom", [1, 2, 3, 8, 101, 400])
    def test_matches_upwind_products(self, n_mom, bc):
        # N = 1 leaves the odd block empty; odd N gives blocks of unequal width
        ws = make_workspace(nx=9, n_moments=n_mom, epsilon=0.7, x_max=2.0, bc=bc)
        g = np.random.default_rng(n_mom).standard_normal((10, n_mom))
        got = -_split_rhs(g, 0.0, ws)
        diffs = padded_difference(g, ws.grid, bc)
        want = 0.7 * (diffs[:-1] @ ws.angular.A_plus + diffs[1:] @ ws.angular.A_minus)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_step_never_touches_dense_flux_matrices(self):
        ws = make_workspace(nx=12, n_moments=7, epsilon=0.5, bc="periodic")
        nan = np.full((7, 7), np.nan)
        poisoned = dataclasses.replace(
            ws, angular=dataclasses.replace(ws.angular, A=nan, A_plus=nan, A_minus=nan, A_abs=nan))
        rng = np.random.default_rng(3)
        macro = MacroState(rng.uniform(0.5, 1.5, 12), rng.standard_normal(12))
        micro = FullMicroState(rng.standard_normal((13, 7)))
        for a, b in zip(step_full(macro, micro, ws, 0.01), step_full(macro, micro, poisoned, 0.01)):
            for name, value in vars(a).items():
                np.testing.assert_array_equal(getattr(b, name), value)

    def test_returned_state_is_not_a_workspace_buffer(self):
        ws = make_workspace(nx=10, n_moments=5)
        rng = np.random.default_rng(4)
        macro = MacroState(rng.uniform(0.5, 1.5, 10), np.zeros(10))
        macro, first = step_full(macro, FullMicroState(rng.standard_normal((11, 5))), ws, 0.05)
        kept = first.g_matrix.copy()
        micro = first
        for _ in range(2):
            macro, micro = step_full(macro, micro, ws, 0.05)
        np.testing.assert_array_equal(first.g_matrix, kept)


class TestEnergyAndMass:
    def test_energy_dissipation_300_steps(self):
        nx, n_mom = 40, 8
        grid = StaggeredGrid(-2.0, 2.0, nx)
        params = PhysicalParams(epsilon=0.8)
        field = AbsorptionField(np.full(nx, 0.6), np.full(nx + 1, 0.6))
        angular = build_angular_operators(n_mom)
        ws = FullSchemeWorkspace(grid, params, field, angular)
        dt = compute_cfl_dt(params, grid, angular, field)

        T = smooth_profile(grid.centers, -2.0, 2.0, seed=10)
        h = 0.3 * smooth_profile(grid.centers, -2.0, 2.0, seed=11)
        G = np.column_stack([
            0.2 * smooth_profile(grid.interfaces, -2.0, 2.0, seed=20 + k)
            for k in range(n_mom)])
        macro, micro = MacroState(T, h), FullMicroState(G)

        e_prev = energy(macro, float(np.sum(G**2) * grid.dx), params, grid)
        e0 = e_prev
        for _ in range(300):
            macro, micro = step_full(macro, micro, ws, dt)
            e = energy(macro, float(np.sum(micro.g_matrix**2) * grid.dx), params, grid)
            assert e <= e_prev + 1e-12 * e0
            e_prev = e

    def test_mass_conservation_compact_pulse(self):
        # domain wide enough that the numerical tail never reaches the boundary
        nx, n_mom = 120, 6
        grid = StaggeredGrid(-12.0, 12.0, nx)
        params = PhysicalParams(epsilon=1.0)
        field = AbsorptionField(np.full(nx, 0.5), np.full(nx + 1, 0.5))
        angular = build_angular_operators(n_mom)
        ws = FullSchemeWorkspace(grid, params, field, angular)
        dt = compute_cfl_dt(params, grid, angular, field)

        T = np.where(np.abs(grid.centers) <= 0.5, 1.0, 0.0)
        macro, micro = MacroState(T, np.zeros(nx)), FullMicroState(np.zeros((nx + 1, n_mom)))
        m0 = mass(macro, params, grid)
        for _ in range(100):
            macro, micro = step_full(macro, micro, ws, dt)
            assert abs(mass(macro, params, grid) - m0) <= 1e-12 * abs(m0)


class TestDiffusionLimit:
    def make_diffusive(self, epsilon=1e-6):
        nx, n_mom = 50, 10
        grid = StaggeredGrid(-5.0, 5.0, nx)
        params = PhysicalParams(epsilon=epsilon)
        field = AbsorptionField(np.full(nx, 0.5), np.full(nx + 1, 0.5))
        angular = build_angular_operators(n_mom)
        ws = FullSchemeWorkspace(grid, params, field, angular)
        T = np.exp(-grid.centers**2)
        return ws, MacroState(T, np.zeros(nx)), FullMicroState(np.zeros((nx + 1, n_mom)))

    def test_first_moment_limit_after_one_step(self):
        ws, macro, micro = self.make_diffusive()
        params, grid = ws.params, ws.grid
        dt = compute_cfl_dt(params, grid, ws.angular, ws.sigma)
        m1, g1 = step_full(macro, micro, ws, dt)

        grad = np.diff(np.concatenate([[0.0], macro.temperature, [0.0]])) / grid.dx
        target = -NORM_P1 * params.a_rad * params.c / ws.sigma.at_interfaces * grad
        scale = np.max(np.abs(target))
        np.testing.assert_allclose(g1.g_matrix[:, 0], target, atol=1e-8 * scale)
        assert np.max(np.abs(g1.g_matrix[:, 1:])) <= 1e-8 * scale

    def test_temperature_tracks_diffusion_reference(self):
        ws, macro, micro = self.make_diffusive()
        params, grid = ws.params, ws.grid
        dt = compute_cfl_dt(params, grid, ws.angular, ws.sigma)
        t_ref = macro.temperature.copy()
        for _ in range(10):
            macro, micro = step_full(macro, micro, ws, dt)
            t_ref = rosseland_step(t_ref, params, grid, ws.sigma, dt)
            err = np.linalg.norm(macro.temperature - t_ref) / np.linalg.norm(t_ref)
            assert err <= 1e-4
