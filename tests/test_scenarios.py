import numpy as np
import pytest

from oracles import init_from_kinetic
from slabtrt.angular import gauss_legendre
from slabtrt.mesh_state import emission_intensity
from slabtrt.scenarios import build_scenario, scenario_defaults


class TestDefaults:
    def test_kinetic_defaults(self):
        scn = scenario_defaults("rectangular_pulse", epsilon=1.0)
        assert scn.nx == 501
        assert scn.n_moments == 100
        assert scn.t_end == 1.5
        assert scn.theta_rel == 5e-2
        assert scn.fixed_rank == 15
        assert scn.adaptive_rank == 1

    def test_diffusive_preset(self):
        scn = scenario_defaults("rectangular_pulse", epsilon=1e-5)
        assert scn.nx == 201
        assert scn.fixed_rank == 1
        assert scn.adaptive_rank == 1
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

    def test_equilibrium_micro_state(self):
        built = build_scenario("rectangular_pulse", {"nx": 64, "n_moments": 8})
        np.testing.assert_allclose(built.micro.g_matrix, 0.0, atol=1e-16)
        np.testing.assert_allclose(built.macro.h_meso, 0.0, atol=1e-16)

    def test_equilibrium_matches_kinetic_initialization(self):
        built = build_scenario("rectangular_pulse", {"nx": 32, "n_moments": 6})
        quad = gauss_legendre(7)
        scn = scenario_defaults("rectangular_pulse")
        t0_fn = scn.initial_temperature_fn()

        def f(x, mu):
            return emission_intensity(t0_fn(x), built.params) + 0.0 * mu

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
        sigma = scn.sigma_fn()
        assert sigma(np.array([0.0]))[0] == 5.0
        assert sigma(np.array([1.0]))[0] == 0.5
        # inclusive edges
        assert sigma(np.array([-0.25]))[0] == 5.0
        assert sigma(np.array([0.25]))[0] == 5.0
        assert sigma(np.array([0.2500001]))[0] == 0.5

    def test_temperature_scales_with_local_absorption(self):
        scn = scenario_defaults("absorber")
        t0 = scn.initial_temperature_fn()
        assert t0(np.array([0.0]))[0] == pytest.approx(20.0)
        assert t0(np.array([0.4]))[0] == pytest.approx(200.0)
        assert t0(np.array([0.6]))[0] == 0.0

    def test_built_fields(self):
        built = build_scenario("absorber", {"nx": 201})
        mid = np.abs(built.grid.centers) <= 0.25
        np.testing.assert_allclose(built.sigma.at_centers[mid], 5.0)
        np.testing.assert_allclose(built.sigma.at_centers[~mid], 0.5)
        assert built.sigma.sigma_min == 0.5


class TestValidation:
    def test_unknown_override(self):
        with pytest.raises(ValueError, match="unknown scenario overrides: \\['cells'\\]"):
            build_scenario("rectangular_pulse", {"cells": 10})

    @pytest.mark.parametrize("value", ["linear", "stefan_boltzmann"])
    def test_emission_override_refused(self, value):
        with pytest.raises(ValueError, match="unknown scenario overrides: \\['emission'\\]"):
            build_scenario("rectangular_pulse", {"nx": 10, "emission": value})

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            build_scenario("rectangular_pulse", {"nx": 0})
