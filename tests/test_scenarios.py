import numpy as np
import pytest

from oracles import init_from_kinetic
from slabtrt.angular import gauss_legendre
from slabtrt.scenarios import build_scenario, scenario_defaults


class TestDefaults:
    def test_kinetic_defaults(self):
        scn = scenario_defaults("rectangular_pulse", epsilon=1.0)
        assert scn.nx == 501
        assert scn.n_moments == 100
        assert scn.t_end == 1.5
        assert scn.theta_rel == 5e-2
        assert scn.fixed_rank == 15

    def test_diffusive_preset(self):
        scn = scenario_defaults("rectangular_pulse", epsilon=1e-5)
        assert scn.nx == 201
        assert scn.fixed_rank == 1
        assert scn.n_moments == 100

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            scenario_defaults("square_pulse")


class TestRectangularPulse:
    def test_temperature_profile(self):
        built = build_scenario("rectangular_pulse", {"nx": 501, "epsilon": 1.0})
        T = built.macro.temperature
        inside = np.abs(built.grid.centers) <= 0.5
        np.testing.assert_allclose(T[inside], 200.0, atol=1e-12)
        np.testing.assert_allclose(T[~inside], 0.0, atol=1e-15)
        # the fixed slab [-10, 10] with sigma = 0.5 throughout
        assert (built.grid.x_min, built.grid.x_max) == (-10.0, 10.0)
        assert built.grid.n_cells * built.grid.dx == 20.0
        assert np.all(built.sigma.at_centers == 0.5)
        assert np.all(built.sigma.at_interfaces == 0.5)
        # T0 = 100 / sigma on |x| <= 0.5, edges inclusive
        t0 = scenario_defaults("rectangular_pulse").initial_temperature
        assert t0(np.array([-0.5, 0.5])).tolist() == [200.0, 200.0]
        assert t0(np.array([-0.5000001, 0.5000001])).tolist() == [0.0, 0.0]

    def test_equilibrium_micro_state(self):
        built = build_scenario("rectangular_pulse", {"nx": 64})
        np.testing.assert_allclose(built.macro.h_meso, 0.0, atol=1e-16)

    def test_equilibrium_matches_kinetic_initialization(self):
        built = build_scenario("rectangular_pulse", {"nx": 32})
        quad = gauss_legendre(7)
        scn = scenario_defaults("rectangular_pulse")
        t0_fn = scn.initial_temperature

        def f(x, mu):
            return t0_fn(x) + 0.0 * mu  # the emission B(T) = T

        macro, micro = init_from_kinetic(f, t0_fn, built.grid, built.params, quad)
        np.testing.assert_allclose(macro.temperature, built.macro.temperature, atol=1e-12)
        np.testing.assert_allclose(macro.h_meso, 0.0, atol=1e-10)
        np.testing.assert_allclose(micro.g_matrix, 0.0, atol=1e-10)

    def test_deterministic_construction(self):
        a = build_scenario("rectangular_pulse", {"nx": 100})
        b = build_scenario("rectangular_pulse", {"nx": 100})
        assert np.array_equal(a.macro.temperature, b.macro.temperature)
        assert np.array_equal(a.sigma.at_interfaces, b.sigma.at_interfaces)
        assert np.array_equal(a.grid.centers, b.grid.centers)


class TestAbsorber:
    def test_cross_section_values(self):
        scn = scenario_defaults("absorber")
        sigma = scn.absorption
        assert sigma(np.array([0.0]))[0] == 5.0
        assert sigma(np.array([1.0]))[0] == 0.5
        # inclusive edges
        assert sigma(np.array([-0.25]))[0] == 5.0
        assert sigma(np.array([0.25]))[0] == 5.0
        assert sigma(np.array([0.2500001]))[0] == 0.5

    def test_temperature_scales_with_local_absorption(self):
        scn = scenario_defaults("absorber")
        t0 = scn.initial_temperature
        assert t0(np.array([0.0]))[0] == pytest.approx(20.0)
        assert t0(np.array([0.4]))[0] == pytest.approx(200.0)
        assert t0(np.array([0.6]))[0] == 0.0
        # T0 = 100 / sigma on |x| <= 0.5, edges of the pulse and the insert inclusive
        assert t0(np.array([-0.5, 0.5])).tolist() == [200.0, 200.0]
        assert t0(np.array([-0.25, 0.25])).tolist() == [20.0, 20.0]
        assert t0(np.array([0.5000001]))[0] == 0.0

    def test_built_fields(self):
        built = build_scenario("absorber", {"nx": 201})
        mid = np.abs(built.grid.centers) <= 0.25
        np.testing.assert_allclose(built.sigma.at_centers[mid], 5.0)
        np.testing.assert_allclose(built.sigma.at_centers[~mid], 0.5)
        assert built.sigma.sigma_min == 0.5
        # the same slab as the pulse, and sigma = 0.5 outside the insert
        assert (built.grid.x_min, built.grid.x_max) == (-10.0, 10.0)
        assert built.grid.n_cells * built.grid.dx == 20.0
        outside = np.abs(built.grid.interfaces) > 0.25
        assert np.all(built.sigma.at_interfaces[outside] == 0.5)


class TestValidation:
    def test_unknown_override(self):
        with pytest.raises(ValueError, match="unknown scenario overrides: \\['cells'\\]"):
            build_scenario("rectangular_pulse", {"cells": 10})

    def test_n_moments_override_refused(self):
        # the scenario holds no micro state, so the moment count is not its to set
        with pytest.raises(ValueError, match="unknown scenario overrides: \\['n_moments'\\]"):
            build_scenario("rectangular_pulse", {"nx": 10, "n_moments": 8})

    @pytest.mark.parametrize("value", ["linear", "stefan_boltzmann"])
    def test_emission_override_refused(self, value):
        with pytest.raises(ValueError, match="unknown scenario overrides: \\['emission'\\]"):
            build_scenario("rectangular_pulse", {"nx": 10, "emission": value})

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            build_scenario("rectangular_pulse", {"nx": 0})
