from dataclasses import replace

import numpy as np
import pytest

from oracles import init_from_kinetic
from runners import build_problem
from slabtrt.angular import gauss_legendre
from slabtrt.scenarios import Scenario, build_scenario, scenario_defaults


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
        ws, macro = build_problem("rectangular_pulse", 501, 4, 1.0)
        T = macro.temperature
        inside = np.abs(ws.grid.centers) <= 0.5
        np.testing.assert_allclose(T[inside], 200.0, atol=1e-12)
        np.testing.assert_allclose(T[~inside], 0.0, atol=1e-15)
        # the fixed slab [-10, 10] with sigma = 0.5 throughout
        assert (ws.grid.x_min, ws.grid.x_max) == (-10.0, 10.0)
        assert ws.grid.n_cells * ws.grid.dx == 20.0
        assert np.all(ws.sigma.at_centers == 0.5)
        assert np.all(ws.sigma.at_interfaces == 0.5)
        # T0 = 100 / sigma on |x| <= 0.5, edges inclusive
        t0 = scenario_defaults("rectangular_pulse").initial_temperature
        assert t0(np.array([-0.5, 0.5])).tolist() == [200.0, 200.0]
        assert t0(np.array([-0.5000001, 0.5000001])).tolist() == [0.0, 0.0]

    def test_equilibrium_micro_state(self):
        _, macro = build_problem("rectangular_pulse", 64, 4)
        np.testing.assert_allclose(macro.h_meso, 0.0, atol=1e-16)

    def test_equilibrium_matches_kinetic_initialization(self):
        ws, start = build_problem("rectangular_pulse", 32, 4)
        quad = gauss_legendre(7)
        scn = scenario_defaults("rectangular_pulse")
        t0_fn = scn.initial_temperature

        def f(x, mu):
            return t0_fn(x) + 0.0 * mu  # the emission B(T) = T

        macro, micro = init_from_kinetic(f, t0_fn, ws.grid, ws.epsilon, quad)
        np.testing.assert_allclose(macro.temperature, start.temperature, atol=1e-12)
        np.testing.assert_allclose(macro.h_meso, 0.0, atol=1e-10)
        np.testing.assert_allclose(micro.g_matrix, 0.0, atol=1e-10)

    def test_deterministic_construction(self):
        (ws_a, macro_a), (ws_b, macro_b) = (build_problem("rectangular_pulse", 100, 4)
                                            for _ in range(2))
        assert np.array_equal(macro_a.temperature, macro_b.temperature)
        assert np.array_equal(ws_a.sigma.at_interfaces, ws_b.sigma.at_interfaces)
        assert np.array_equal(ws_a.grid.centers, ws_b.grid.centers)


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
        ws, _ = build_problem("absorber", 201, 4)
        mid = np.abs(ws.grid.centers) <= 0.25
        np.testing.assert_allclose(ws.sigma.at_centers[mid], 5.0)
        np.testing.assert_allclose(ws.sigma.at_centers[~mid], 0.5)
        assert ws.sigma.sigma_min == 0.5
        # the same slab as the pulse, and sigma = 0.5 outside the insert
        assert (ws.grid.x_min, ws.grid.x_max) == (-10.0, 10.0)
        assert ws.grid.n_cells * ws.grid.dx == 20.0
        outside = np.abs(ws.grid.interfaces) > 0.25
        assert np.all(ws.sigma.at_interfaces[outside] == 0.5)


class TestBuild:
    def test_workspace_holds_the_resolved_problem(self):
        # the grid has nx cells, the angular operators n_moments moments, and the
        # workspace the scenario's epsilon; every scheme starts from the same macro state
        scn = replace(scenario_defaults("absorber", 1e-3), nx=30, n_moments=6)
        ws, macro = build_scenario(scn)
        assert (ws.grid.n_cells, ws.angular.n_moments, ws.epsilon) == (30, 6, 1e-3)
        np.testing.assert_array_equal(ws.sigma.at_centers, scn.absorption(ws.grid.centers))
        np.testing.assert_array_equal(macro.temperature,
                                      scn.initial_temperature(ws.grid.centers))
        assert not macro.h_meso.any()

    def test_unknown_field(self):
        with pytest.raises(TypeError):
            replace(scenario_defaults("rectangular_pulse"), cells=10)

    @pytest.mark.parametrize("value", ["linear", "stefan_boltzmann"])
    def test_no_emission_field(self, value):
        # the schemes implement the linear closure B = T only
        with pytest.raises(TypeError):
            Scenario(emission=value)

    @pytest.mark.parametrize("field, value, message", [
        ("nx", 0, "n_cells must be a positive integer"),
        ("nx", 2.5, "n_cells must be a positive integer"),
        ("n_moments", 0, "n_moments must be a positive integer"),
        ("epsilon", 0.0, "epsilon must be strictly positive"),
    ])
    def test_invalid_sizes(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            build_scenario(replace(scenario_defaults("rectangular_pulse"), **{field: value}))
