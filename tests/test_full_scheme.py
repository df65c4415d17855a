import dataclasses
import functools

import numpy as np
import pytest

from oracles import (
    half_width_step_full,
    modal,
    nodal_dense,
    oracle_step_full,
    unblocked_step_full,
    upwind,
)
from runners import build_problem
from slabtrt import full_scheme
from slabtrt.angular import NORM_P1, build_angular_operators
from slabtrt.cli_io import simulate
from slabtrt.full_scheme import EPSILON_MAX, FullSchemeWorkspace, step_full
from slabtrt.limits_diagnostics import (
    cfl_report,
    energy,
    l2_relative_difference,
    mass,
    rosseland_stable_dt,
    rosseland_step,
)
from slabtrt.mesh_state import (
    AbsorptionField,
    FullMicroState,
    MacroState,
    StaggeredGrid,
)


def make_workspace(nx=3, n_moments=2, epsilon=1.0, sigma=1.0):
    grid = StaggeredGrid(0.0, float(nx), nx)
    field = AbsorptionField(np.full(nx, sigma), np.full(nx + 1, sigma))
    angular = build_angular_operators(n_moments)
    return FullSchemeWorkspace(grid, epsilon, field, angular)


def moments(micro, ws):
    return modal(micro, ws.angular.T_mat).g_matrix


def smooth_profile(x, x_min, x_max, seed, modes=4):
    """Random smooth field vanishing at the domain ends."""
    rng = np.random.default_rng(seed)
    s = (x - x_min) / (x_max - x_min)
    out = np.zeros_like(x)
    for k in range(1, modes + 1):
        out += rng.standard_normal() / k * np.sin(np.pi * k * s)
    return out


def same_bits(got, want):
    """Equal shapes and equal float64 bit patterns, the sign of zero included."""
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestStepFull:
    def test_zero_state_is_fixed_point(self):
        ws = make_workspace()
        macro = MacroState(np.zeros(3), np.zeros(3))
        micro = FullMicroState(np.zeros((4, 3)))
        m1, g1 = step_full(macro, micro, ws, 0.1)
        np.testing.assert_allclose(m1.temperature, 0.0, atol=1e-16)
        np.testing.assert_allclose(m1.h_meso, 0.0, atol=1e-16)
        np.testing.assert_allclose(g1.g_matrix, 0.0, atol=1e-16)

    def test_hand_instance_against_oracle(self):
        # Nx=3, N=2, eps=1, sigma=1, dx=1, dt=0.1, T=(0,1,0), linear, zero ghosts
        ws = make_workspace(nx=3, n_moments=2)
        T = np.array([0.0, 1.0, 0.0])
        macro = MacroState(T, np.zeros(3))
        micro = nodal_dense(np.zeros((4, 2)), ws.angular)
        dt = 0.1
        m1, g1 = step_full(macro, micro, ws, dt)
        g1 = moments(g1, ws)

        t_o, h_o, g_o = oracle_step_full(
            T, np.zeros(3), np.zeros((4, 2)), ws.epsilon, 1.0, dt,
            np.ones(3), np.ones(4), *upwind(ws.angular))
        np.testing.assert_allclose(g1, g_o, atol=1e-13)
        np.testing.assert_allclose(m1.h_meso, h_o, atol=1e-13)
        np.testing.assert_allclose(m1.temperature, t_o, atol=1e-13)

        # closed forms: the first moment reacts to the temperature jumps only
        s = NORM_P1 / 11.0
        np.testing.assert_allclose(g1[:, 0], [0.0, -s, s, 0.0], atol=1e-14)
        np.testing.assert_allclose(g1[:, 1], 0.0, atol=1e-16)
        h_scale = (2.0 / 3.0) / (2.0 * 11.0 * 13.0)
        np.testing.assert_allclose(m1.h_meso, h_scale * np.array([1.0, -2.0, 1.0]), atol=1e-15)
        np.testing.assert_allclose(m1.temperature, T + 0.2 * m1.h_meso, atol=1e-15)

    def test_random_instances_against_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(4):
            nx, n_mom = 5, 3
            grid = StaggeredGrid(-1.0, 1.0, nx)
            epsilon = 0.7
            sig_c = rng.uniform(0.5, 2.0, nx)
            sig_i = rng.uniform(0.5, 2.0, nx + 1)
            field = AbsorptionField(sig_c, sig_i)
            ws = FullSchemeWorkspace(grid, epsilon, field, build_angular_operators(n_mom))
            T = rng.uniform(0.1, 2.0, nx)
            h = rng.standard_normal(nx)
            G = rng.standard_normal((nx + 1, n_mom))
            dt = 0.02
            m1, g1 = step_full(MacroState(T, h), nodal_dense(G, ws.angular), ws, dt)
            t_o, h_o, g_o = oracle_step_full(
                T, h, G, epsilon, grid.dx, dt, sig_c, sig_i, *upwind(ws.angular))
            np.testing.assert_allclose(moments(g1, ws), g_o, atol=1e-13)
            np.testing.assert_allclose(m1.h_meso, h_o, atol=1e-13)
            np.testing.assert_allclose(m1.temperature, t_o, atol=1e-13)

    def test_input_validation(self):
        ws = make_workspace()
        macro = MacroState(np.zeros(3), np.zeros(3))
        micro = FullMicroState(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            step_full(macro, micro, ws, 0.0)
        # a state in moments has one column less than the nodal one
        for cols in (2, 5):
            with pytest.raises(ValueError, match="n_moments \\+ 1 columns"):
                step_full(macro, FullMicroState(np.zeros((4, cols))), ws, 0.1)

    def test_buffer_is_sized_by_its_workspace(self):
        # N = 4 and 6 on 10 cells, and 2001 and 300 cells at N = 400, whose row
        # blocks are 160 and 152 rows high: each workspace makes its buffer once
        # and its steps keep it
        rng = np.random.default_rng(19)
        for nx, n_mom, rows in [(10, 4, 11), (10, 6, 11), (2001, 400, 161), (300, 400, 153)]:
            ws = make_workspace(nx=nx, n_moments=n_mom, epsilon=0.5)
            macro = MacroState(rng.uniform(0.5, 1.5, nx), rng.standard_normal(nx))
            micro = nodal_dense(rng.standard_normal((nx + 1, n_mom)), ws.angular)
            buffer = ws._flux_buffer
            for _ in range(2):
                macro, micro = step_full(macro, micro, ws, 0.02)
            assert ws._flux_buffer is buffer
            # at 2001 x 400: one 160-row block and a row for a lone last row to join
            # the block before it; not the n = 2002 rows of the whole state
            assert buffer.shape == (rows, n_mom + 1)

    @pytest.mark.parametrize("member", ["grid", "sigma", "angular", "epsilon"])
    def test_members_are_fixed(self, member):
        ws = make_workspace(nx=10, n_moments=4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ws, member, getattr(ws, member))

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan")])
    def test_nonpositive_epsilon_is_refused(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be strictly positive"):
            make_workspace(epsilon=epsilon)

    @pytest.mark.parametrize("epsilon", [1.3e154, 1e200, float("inf")])
    def test_epsilon_whose_square_overflows_is_refused(self, epsilon):
        # eps^2 / dt overflows from eps = 1e150 at dt = 1e-13, and eps^2 itself from 1.4e154
        with pytest.raises(ValueError, match=r"at most 1e\+100"):
            make_workspace(epsilon=epsilon)
        assert make_workspace(epsilon=EPSILON_MAX).epsilon == EPSILON_MAX

    def test_takes_no_emission_law(self):
        # the schemes implement the linear closure B = T only
        ws = make_workspace()
        with pytest.raises(TypeError):
            FullSchemeWorkspace(ws.grid, 1.0, ws.sigma, ws.angular, emission="stefan_boltzmann")
        assert not hasattr(ws, "emission")

    @pytest.mark.parametrize("name", ["c", "a_rad", "c_nu"])
    def test_takes_no_unit_constants(self, name):
        # the model is written in units with a = c = c_nu = 1
        ws = make_workspace()
        with pytest.raises(TypeError):
            FullSchemeWorkspace(ws.grid, 1.0, ws.sigma, ws.angular, **{name: 2.0})

    def test_sigma_of_another_grid_is_refused(self):
        # sigma on 10 cells with a 12-cell grid: refused before any step can
        # fail on a broadcast inside numpy
        ws = make_workspace(nx=10, n_moments=4)
        with pytest.raises(ValueError, match="absorption field does not match the grid"):
            FullSchemeWorkspace(StaggeredGrid(0.0, 12.0, 12), ws.epsilon, ws.sigma, ws.angular)


class TestSplitAdvection:
    """The nodal step against the upwind split A = A+ + A- of the moment flux."""

    @pytest.mark.parametrize("n_mom", [1, 2, 3, 8, 101, 400])
    def test_matches_upwind_products(self, n_mom):
        # random states against the loop oracle with the modal A+-: N + 1 nodes
        # even (N = 1, 3, 101) and odd (N = 2, 8, 400, with a zero node)
        nx = 3 if n_mom > 100 else 9
        rng = np.random.default_rng(n_mom)
        angular = build_angular_operators(n_mom)
        for epsilon in (1.0, 1e-3):
            sig_c, sig_i = rng.uniform(0.5, 2.0, nx), rng.uniform(0.5, 2.0, nx + 1)
            ws = FullSchemeWorkspace(StaggeredGrid(0.0, 2.0, nx), epsilon,
                                     AbsorptionField(sig_c, sig_i), angular)
            T, h = rng.uniform(0.1, 2.0, nx), rng.standard_normal(nx)
            G = rng.standard_normal((nx + 1, n_mom))
            m1, g1 = step_full(MacroState(T, h), nodal_dense(G, ws.angular), ws, 0.02)
            t_o, h_o, g_o = oracle_step_full(T, h, G, ws.epsilon, ws.grid.dx, 0.02, sig_c, sig_i,
                                             *upwind(ws.angular))
            for got, want in ((moments(g1, ws), g_o), (m1.h_meso, h_o), (m1.temperature, t_o)):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            assert np.max(np.abs(g1.g_matrix @ ws.angular.t0)) <= 1e-14 * np.max(np.abs(g_o))

    def test_step_reads_no_transformation_matrix(self):
        # the step reads the nodal constants of ws.angular and multiplies by T
        # nowhere, nor by A = T diag(mu) T^T: with T_mat set to NaN it returns
        # the same state, bit for bit
        rng = np.random.default_rng(3)
        first_macro = MacroState(rng.uniform(0.5, 1.5, 12), rng.standard_normal(12))
        first_micro = nodal_dense(rng.standard_normal((13, 7)), build_angular_operators(7))

        def run(poisoned):
            ws = make_workspace(nx=12, n_moments=7, epsilon=0.5)
            if poisoned:
                ws = dataclasses.replace(ws, angular=dataclasses.replace(
                    ws.angular, T_mat=np.full((7, 8), np.nan)))
            macro, micro = first_macro, first_micro
            for _ in range(3):
                macro, micro = step_full(macro, micro, ws, 0.01)
            return macro, micro

        (macro_a, micro_a), (macro_b, micro_b) = run(False), run(True)
        for got, want in ((micro_b.g_matrix, micro_a.g_matrix),
                          (macro_b.temperature, macro_a.temperature),
                          (macro_b.h_meso, macro_a.h_meso)):
            np.testing.assert_array_equal(got, want)

    def test_rank_one_rows_are_built_once(self):
        # the (2, N + 1) block [t0; b] of the rank-one update is an angular constant,
        # built with the operators, read-only and left untouched by the steps
        ws = make_workspace(nx=8, n_moments=6)
        ang = ws.angular
        np.testing.assert_array_equal(ang.t0_b, np.stack([ang.t0, ang.b]))
        assert not ang.t0_b.flags.writeable
        kept = ang.t0_b.copy()
        rng = np.random.default_rng(6)
        macro = MacroState(rng.uniform(0.5, 1.5, 8), rng.standard_normal(8))
        micro = nodal_dense(rng.standard_normal((9, 6)), ws.angular)
        for _ in range(3):
            macro, micro = step_full(macro, micro, ws, 0.02)
        assert ws.angular is ang
        np.testing.assert_array_equal(ang.t0_b, kept)

    def test_returned_state_is_not_a_workspace_buffer(self):
        ws = make_workspace(nx=10, n_moments=5)
        rng = np.random.default_rng(4)
        macro = MacroState(rng.uniform(0.5, 1.5, 10), np.zeros(10))
        first_micro = nodal_dense(rng.standard_normal((11, 5)), ws.angular)
        macro, first = step_full(macro, first_micro, ws, 0.05)
        kept = first.g_matrix.copy()
        micro = first
        for _ in range(2):
            macro, micro = step_full(macro, micro, ws, 0.05)
        np.testing.assert_array_equal(first.g_matrix, kept)


def chained_step_pairs(reference, nx, n_mom, start, seed):
    """Three chained steps of step_full and of `reference` from one start, for eps = 1
    and 1e-3 on nx cells: (workspace, step_full state, reference state) after each."""
    rng = np.random.default_rng(seed)
    for epsilon in (1.0, 1e-3):
        ws = FullSchemeWorkspace(StaggeredGrid(0.0, 2.0, nx), epsilon,
                                 AbsorptionField(rng.uniform(0.5, 2.0, nx),
                                                 rng.uniform(0.5, 2.0, nx + 1)),
                                 build_angular_operators(n_mom))
        temperature = rng.uniform(0.1, 2.0, nx)
        if start == "zero_micro":
            macro = MacroState(temperature, np.zeros(nx))
            micro = FullMicroState(np.zeros((nx + 1, n_mom + 1)))
        else:
            macro = MacroState(temperature, rng.standard_normal(nx))
            micro = nodal_dense(rng.standard_normal((nx + 1, n_mom)), ws.angular)
        got, want = (macro, micro), (macro, micro)
        for _ in range(3):
            got, want = step_full(*got, ws, 0.02), reference(*want, ws, 0.02)
            yield ws, got, want


def assert_same_states(got, want):
    assert same_bits(got[1].g_matrix, want[1].g_matrix)
    assert same_bits(got[0].temperature, want[0].temperature)
    assert same_bits(got[0].h_meso, want[0].h_meso)


class TestFullWidthScaling:
    """The step against its earlier form, which scaled each half of the nodes on its own view."""

    @pytest.mark.parametrize("start", ["zero_micro", "random"])
    @pytest.mark.parametrize("n_mom", [1, 2, 7, 8, 100])
    def test_chained_steps_match_half_width_scaling_bit_for_bit(self, n_mom, start):
        # N + 1 = 2, 3, 8, 9, 101 nodes; the odd counts carry the node mu = 0
        for _, got, want in chained_step_pairs(half_width_step_full, 7, n_mom, start,
                                               190 + n_mom):
            assert_same_states(got, want)


class TestRowBlocks:
    """The step over row blocks against the step over the whole state at once."""

    @pytest.mark.parametrize("start", ["zero_micro", "random"])
    @pytest.mark.parametrize("n_mom", [1, 2, 7, 8, 100])
    @pytest.mark.parametrize("nx", [23, 24, 25])
    def test_chained_steps_over_8_row_blocks_match_unblocked_step_bit_for_bit(
            self, nx, n_mom, start, monkeypatch):
        # one byte per block makes every block 8 rows high: 24 rows are three
        # blocks, a 25th row joins the last of them, and 26 rows end in a block
        # of 2; N + 1 = 2, 3, 8, 9, 101 nodes, the odd counts with mu = 0
        monkeypatch.setattr(full_scheme, "_BLOCK_BYTES", 1)
        for ws, got, want in chained_step_pairs(unblocked_step_full, nx, n_mom, start,
                                                210 + 7 * nx + n_mom):
            assert ws._flux_buffer.shape == (9, n_mom + 1)
            assert_same_states(got, want)


class TestReciprocalAbsorption:
    """The step, which multiplies by 1 / (shift + sigma), against the division it replaced."""

    @pytest.mark.parametrize("start", ["zero_micro", "random"])
    @pytest.mark.parametrize("n_mom", [1, 2, 7, 8, 100])
    @pytest.mark.parametrize("nx", [7, 24])
    def test_chained_steps_match_division_within_rounding(self, nx, n_mom, start):
        # each entry of g moves by about an ulp per step. Over 40 seeds of these cases
        # g, T and h stayed within 1.2e-15, 1.3e-15 and 1.4e-15 of their largest
        # entries; h, whose update divides a difference of g by shift + 3 sigma, is
        # also allowed 5e-14 absolute (it needed 2.4e-14 over 1e-15 relative, at
        # eps = 1e-3 with |h| up to 40)
        divide = functools.partial(unblocked_step_full, divide=True)
        for _, got, want in chained_step_pairs(divide, nx, n_mom, start, 230 + 7 * nx + n_mom):
            for a, b, floor in ((got[1].g_matrix, want[1].g_matrix, 0.0),
                                (got[0].temperature, want[0].temperature, 0.0),
                                (got[0].h_meso, want[0].h_meso, 5e-14)):
                assert np.max(np.abs(a - b)) <= 2e-15 * np.max(np.abs(b)) + floor


class TestNormInCache:
    """The squared norm the step sums block by block while each block is in cache."""

    @pytest.mark.parametrize("block_bytes", [full_scheme._BLOCK_BYTES, 1])
    @pytest.mark.parametrize("nx", [24, 25, 501])
    def test_step_norm_is_the_norm_of_the_state(self, nx, block_bytes, monkeypatch):
        # one block, and blocks of 8 rows (three, four and 63 of them)
        monkeypatch.setattr(full_scheme, "_BLOCK_BYTES", block_bytes)
        ws = make_workspace(nx=nx, n_moments=100, epsilon=0.5)
        rng = np.random.default_rng(nx)
        macro = MacroState(rng.uniform(0.5, 1.5, nx), rng.standard_normal(nx))
        micro = nodal_dense(rng.standard_normal((nx + 1, 100)), ws.angular)
        for _ in range(3):
            macro, micro = step_full(macro, micro, ws, 0.02)
            g = micro.g_matrix
            assert abs(micro.norm_sq - np.vdot(g, g)) <= 1e-15 * np.vdot(g, g)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_new_state_is_refused(self):
        # temperatures of -1.6e308 next to 1.6e308 overflow the gradient, so the new
        # g is not finite: the step refuses it before it makes the macro state
        ws = make_workspace(nx=12, n_moments=6)
        rng = np.random.default_rng(5)
        macro = MacroState(np.where(np.arange(12) < 6, -1.6e308, 1.6e308), np.zeros(12))
        micro = nodal_dense(rng.standard_normal((13, 6)), ws.angular)
        with pytest.raises(ValueError, match="micro state contains non-finite entries"):
            step_full(macro, micro, ws, 0.02)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_trusted_state_keeps_the_finiteness_rule(self, bad):
        g = np.random.default_rng(8).standard_normal((9, 4))
        g[3, 2] = bad
        with pytest.raises(ValueError, match="non-finite entries"):
            FullMicroState._trusted(g, np.vdot(g, g))

    def test_entries_whose_squares_overflow_make_a_valid_state(self):
        # entries of about 1e160 are finite, their squares are not: the summed norm
        # is inf, the entrywise check passes, and the state is valid
        ws = make_workspace(nx=10, n_moments=4)
        rng = np.random.default_rng(9)
        macro = MacroState(rng.uniform(0.5, 1.5, 10), np.zeros(10))
        micro = nodal_dense(1e160 * rng.standard_normal((11, 4)), ws.angular)
        macro, micro = step_full(macro, micro, ws, 0.02)
        assert np.isfinite(micro.g_matrix).all()
        assert micro.norm_sq == np.inf


class TestEnergyAndMass:
    def test_energy_dissipation_300_steps(self):
        nx, n_mom = 40, 8
        grid = StaggeredGrid(-2.0, 2.0, nx)
        epsilon = 0.8
        field = AbsorptionField(np.full(nx, 0.6), np.full(nx + 1, 0.6))
        angular = build_angular_operators(n_mom)
        ws = FullSchemeWorkspace(grid, epsilon, field, angular)
        dt = cfl_report(ws)[0]

        T = smooth_profile(grid.centers, -2.0, 2.0, seed=10)
        h = 0.3 * smooth_profile(grid.centers, -2.0, 2.0, seed=11)
        G = np.column_stack([
            0.2 * smooth_profile(grid.interfaces, -2.0, 2.0, seed=20 + k)
            for k in range(n_mom)])
        macro, micro = MacroState(T, h), nodal_dense(G, ws.angular)

        e_prev = energy(macro, float(np.sum(G**2) * grid.dx), ws)
        e0 = e_prev
        for _ in range(300):
            macro, micro = step_full(macro, micro, ws, dt)
            e = energy(macro, float(np.sum(moments(micro, ws)**2) * grid.dx), ws)
            assert e <= e_prev + 1e-12 * e0
            e_prev = e

    def test_mass_conservation_compact_pulse(self):
        # domain wide enough that the numerical tail never reaches the boundary
        nx, n_mom = 120, 6
        grid = StaggeredGrid(-12.0, 12.0, nx)
        epsilon = 1.0
        field = AbsorptionField(np.full(nx, 0.5), np.full(nx + 1, 0.5))
        angular = build_angular_operators(n_mom)
        ws = FullSchemeWorkspace(grid, epsilon, field, angular)
        dt = cfl_report(ws)[0]

        T = np.where(np.abs(grid.centers) <= 0.5, 1.0, 0.0)
        macro, micro = MacroState(T, np.zeros(nx)), FullMicroState(np.zeros((nx + 1, n_mom + 1)))
        m0 = mass(macro, ws)
        for _ in range(100):
            macro, micro = step_full(macro, micro, ws, dt)
            assert abs(mass(macro, ws) - m0) <= 1e-12 * abs(m0)


class TestDiffusionLimit:
    def make_diffusive(self, epsilon=1e-6):
        nx, n_mom = 50, 10
        grid = StaggeredGrid(-5.0, 5.0, nx)
        field = AbsorptionField(np.full(nx, 0.5), np.full(nx + 1, 0.5))
        angular = build_angular_operators(n_mom)
        ws = FullSchemeWorkspace(grid, epsilon, field, angular)
        T = np.exp(-grid.centers**2)
        return ws, MacroState(T, np.zeros(nx)), FullMicroState(np.zeros((nx + 1, n_mom + 1)))

    def test_first_moment_limit_after_one_step(self):
        ws, macro, micro = self.make_diffusive()
        grid = ws.grid
        dt = cfl_report(ws)[0]
        m1, g1 = step_full(macro, micro, ws, dt)
        g1 = moments(g1, ws)

        grad = np.diff(np.concatenate([[0.0], macro.temperature, [0.0]])) / grid.dx
        target = -NORM_P1 / ws.sigma.at_interfaces * grad
        scale = np.max(np.abs(target))
        np.testing.assert_allclose(g1[:, 0], target, atol=1e-8 * scale)
        assert np.max(np.abs(g1[:, 1:])) <= 1e-8 * scale

    def test_temperature_tracks_diffusion_reference(self):
        ws, macro, micro = self.make_diffusive()
        dt = cfl_report(ws)[0]
        t_ref = macro.temperature.copy()
        for _ in range(10):
            macro, micro = step_full(macro, micro, ws, dt)
            t_ref = rosseland_step(t_ref, ws, dt)
            err = np.linalg.norm(macro.temperature - t_ref) / np.linalg.norm(t_ref)
            assert err <= 1e-4

    def test_distance_to_the_diffusion_limit_is_first_order_in_epsilon(self):
        # absorber, 101 cells, N = 16, to t = 0.15 at the step bound: the dense
        # scheme's temperature is eps * (0.81 +- 0.01) from the Rosseland one for
        # eps from 1e-3 to 1e-6, and the adaptive scheme stays on the dense one
        rates = []
        for epsilon in (1e-3, 1e-4, 1e-5, 1e-6):
            ws, macro0 = build_problem("absorber", 101, 16, epsilon)
            dt = cfl_report(ws)[0]
            limit_dt = min(dt, 0.9 * rosseland_stable_dt(ws))
            final = {}
            for scheme, step_dt in (("full", dt), ("bug_adaptive", dt), ("rosseland", limit_dt)):
                *_, (t, _, macro, _) = simulate(scheme, macro0, ws, step_dt, 0.15,
                                                rank=1, theta_rel=5e-2)
                assert t == pytest.approx(0.15, abs=1e-14)
                final[scheme] = macro.temperature
            rates.append(l2_relative_difference(final["full"], final["rosseland"],
                                                ws.grid) / epsilon)
            assert l2_relative_difference(final["bug_adaptive"], final["full"],
                                          ws.grid) <= 1e-10
        assert max(rates) <= 2.0 * min(rates)

    @pytest.mark.parametrize("epsilon", [1.0, 1e-1, 1e-2])
    def test_adaptive_scheme_stays_on_the_dense_one_at_intermediate_epsilon(self, epsilon):
        # the set-up above, between the kinetic and the diffusive regime: measured
        # 4.0e-8, 1.9e-6 and 8.7e-10 for eps = 1, 1e-1 and 1e-2
        ws, macro0 = build_problem("absorber", 101, 16, epsilon)
        dt = cfl_report(ws)[0]
        final = {}
        for scheme in ("full", "bug_adaptive"):
            *_, (t, _, macro, _) = simulate(scheme, macro0, ws, dt, 0.15,
                                            rank=1, theta_rel=5e-2)
            assert t == pytest.approx(0.15, abs=1e-14)
            final[scheme] = macro.temperature
        assert l2_relative_difference(final["bug_adaptive"], final["full"],
                                      ws.grid) <= 1e-5


def step_map_energy_norm(scenario, epsilon, nx=41, n_mom=8):
    """||M||_E of the linear-emission step map M(dt) at the CFL bound.

    E(T, h, g) = ||y||^2 in the energy coordinates y = (sqrt(dx) (T + eps^2 h),
    sqrt(dx / 2) T, sqrt(dx) eps / sqrt(2) g), so ||M||_E is the 2-norm of the step
    map in y; it is built column by column from unit vectors of y.
    """
    ws, _ = build_problem(scenario, nx, n_mom, epsilon)
    grid, eps = ws.grid, ws.epsilon
    dt = cfl_report(ws)[0]
    w_core, w_heat = np.sqrt(grid.dx), np.sqrt(0.5 * grid.dx)
    w_micro = np.sqrt(grid.dx) * eps / np.sqrt(2.0)

    def energy_coordinates(macro, micro):
        core = macro.temperature + eps**2 * macro.h_meso
        return np.concatenate([w_core * core, w_heat * macro.temperature,
                               w_micro * moments(micro, ws).ravel()])

    def state_of(y):
        temperature = y[nx:2 * nx] / w_heat
        h = (y[:nx] / w_core - temperature) / eps**2
        g = (y[2 * nx:] / w_micro).reshape(nx + 1, n_mom)
        return MacroState(temperature, h), nodal_dense(g, ws.angular)

    # the coordinates are those of the energy the diagnostics report
    y = np.random.default_rng(5).standard_normal(2 * nx + (nx + 1) * n_mom)
    macro, micro = state_of(y)
    assert np.isclose(y @ y, energy(macro, micro.micro_norm_sq(grid.dx), ws), rtol=1e-10)
    columns = [energy_coordinates(*step_full(*state_of(y), ws, dt))
               for y in np.eye(y.size)]
    return np.linalg.norm(np.column_stack(columns), 2)


class TestStepMapEnergy:
    """Energy dissipation for every state, not only along trajectories: ||M(dt)||_E <= 1."""

    @pytest.mark.parametrize("epsilon", [1.0, 1e-2, 1e-5])
    @pytest.mark.parametrize("scenario", ["rectangular_pulse", "absorber"])
    def test_zero_ghost_step_map_does_not_gain_energy(self, scenario, epsilon):
        # measured: at most 0.999985 on these cases
        assert step_map_energy_norm(scenario, epsilon) <= 1.0 + 1e-12
