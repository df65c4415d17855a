import sys

import numpy as np
import pytest

from oracles import (
    array_choose_kept_rank,
    kernel_k,
    modal,
    modal_b,
    nodal_dense,
    nodal_state,
    oracle_galerkin_dense,
    oracle_step_full,
    reconstruct,
    reference_ap_truncate,
    reference_augment_bases,
    reference_choose_kept_rank,
    upwind,
)
from runners import build_problem
from slabtrt import bug_adaptive, bug_fixed, cli_io, full_scheme, mesh_state
from slabtrt.angular import build_angular_operators
from slabtrt.bug_adaptive import (
    ap_truncate,
    augment_bases,
    galerkin_s_hat,
    step_bug_adaptive,
)
from slabtrt.bug_fixed import step_bug_fixed
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
    StaggeredGrid,
    _orth_defect,
    padded_difference,
    scalar_flux,
    zero_low_rank_state,
)


def make_workspace(nx=6, n_moments=5, epsilon=0.8, sigma=0.7, seed=None):
    grid = StaggeredGrid(-1.0, 1.0, nx)
    if seed is None:
        field = AbsorptionField(np.full(nx, sigma), np.full(nx + 1, sigma))
    else:
        rng = np.random.default_rng(seed)
        field = AbsorptionField(rng.uniform(0.4, 1.5, nx), rng.uniform(0.4, 1.5, nx + 1))
    angular = build_angular_operators(n_moments)
    return FullSchemeWorkspace(grid, epsilon, field, angular)


def old_coefficients(aug, state):
    """The old coefficients in the augmented bases, whose leading columns are the old bases."""
    np.testing.assert_array_equal(aug.X_hat[:, :state.rank], state.X_basis)
    np.testing.assert_array_equal(aug.V_hat[:, :state.rank], state.V_basis)
    s_tilde = np.zeros((aug.X_hat.shape[1], aug.V_hat.shape[1]))
    s_tilde[:state.rank, :state.rank] = state.S_coeff
    return s_tilde


def diffusion_direction(macro, ws):
    """w_ap = delta0(a c T) / sigma at the interfaces, the first direction augment_bases adds."""
    return emission_gradient_parts(macro, ws)[0] / ws.sigma.at_interfaces


def random_state(rng, n_interfaces, n_moments, rank):
    """Random factors whose first modal angular column is pinned to b/|b| = e_0,
    with the angular factor in nodal coordinates."""
    x, _ = np.linalg.qr(rng.standard_normal((n_interfaces, rank)))
    v = np.zeros((n_moments, rank))
    v[0, 0] = 1.0
    v[1:, 1:], _ = np.linalg.qr(rng.standard_normal((n_moments - 1, rank - 1)))
    return nodal_state(x, rng.standard_normal((rank, rank)), v)


class TestAugmentBases:
    def test_uniform_state_pins_moment_direction(self):
        # with zero ghosts the equilibrium is T = 0
        ws = make_workspace()
        macro = MacroState(np.zeros(6), np.zeros(6))
        state = zero_low_rank_state(7, ws.angular.T_mat, rank=1)
        aug = augment_bases(state, macro, ws, 0.01)
        np.testing.assert_allclose(diffusion_direction(macro, ws), 0.0, atol=1e-15)
        b = modal_b(ws.angular)
        np.testing.assert_allclose(ws.angular.T_mat @ aug.V_hat[:, 0], b / np.linalg.norm(b),
                                   atol=1e-14)
        # nothing new in either stack: both bases are padded to the rank floor of 2,
        # the angular one with the next row of T
        np.testing.assert_allclose(aug.X_hat.T @ aug.X_hat, np.eye(2), atol=1e-13)
        np.testing.assert_allclose(aug.V_hat, ws.angular.T_mat[:2].T, rtol=0, atol=1e-15)

    def test_limit_directions_lie_in_ranges(self):
        rng = np.random.default_rng(30)
        ws = make_workspace(seed=31)
        macro = MacroState(np.sin(np.pi * ws.grid.centers) + 1.5, rng.standard_normal(6))
        state = random_state(rng, 7, 5, 2)
        aug = augment_bases(state, macro, ws, 0.02)

        b = ws.angular.b
        res_b = b - aug.V_hat @ (aug.V_hat.T @ b)
        assert np.linalg.norm(res_b) <= 1e-12

        w = diffusion_direction(macro, ws)
        res_w = w - aug.X_hat @ (aug.X_hat.T @ w)
        assert np.linalg.norm(res_w) <= 1e-12 * np.linalg.norm(w)

    def test_old_bases_lead_the_augmented_ones(self):
        rng = np.random.default_rng(130)
        ws = make_workspace(nx=20, n_moments=12, seed=131)
        macro = MacroState(rng.uniform(0.5, 2.0, 20), rng.standard_normal(20))
        state = random_state(rng, 21, 12, 3)
        aug = augment_bases(state, macro, ws, 0.02)
        np.testing.assert_array_equal(aug.X_hat[:, :3], state.X_basis)
        np.testing.assert_array_equal(aug.V_hat[:, :3], state.V_basis)
        assert np.max(np.abs(ws.angular.t0 @ aug.V_hat)) <= 1e-15
        for basis in (aug.X_hat, aug.V_hat):
            np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]),
                                       rtol=0, atol=1e-13)

    def test_angular_extension_takes_l_alone(self, monkeypatch):
        # V[:, 0] is b/|b|, so the extension receives only the r columns of L, and
        # the pinned column leads V_hat and every truncated basis bit for bit
        rng = np.random.default_rng(133)
        ws = make_workspace(nx=20, n_moments=12, seed=134)
        pin = ws.angular.pin
        macro = MacroState(rng.uniform(0.5, 2.0, 20), rng.standard_normal(20))
        state = zero_low_rank_state(21, ws.angular.T_mat, rank=1)
        widths = []
        extend = bug_adaptive.extend_orthonormal_columns

        def spied(basis, cols, *args):
            if basis.shape[0] == ws.angular.n_moments + 1:  # the angular extension
                widths.append(cols.shape[1])
            return extend(basis, cols, *args)

        monkeypatch.setattr(bug_adaptive, "extend_orthonormal_columns", spied)
        for _ in range(6):
            np.testing.assert_array_equal(state.V_basis[:, 0], pin)
            np.testing.assert_array_equal(augment_bases(state, macro, ws, 0.02).V_hat[:, 0], pin)
            assert widths[-1] == state.rank
            macro, state = step_bug_adaptive(macro, state, ws, 0.02, 1e-3)
        np.testing.assert_array_equal(state.V_basis[:, 0], pin)
        assert state.rank > 1

    def test_first_angular_column_must_be_pinned(self):
        rng = np.random.default_rng(132)
        ws = make_workspace(seed=133)
        macro = MacroState(rng.uniform(0.5, 2.0, 6), rng.standard_normal(6))
        theta_rel = 5e-2
        pinned = random_state(rng, 7, 5, 2)
        x, s_coeff, v = pinned.X_basis, pinned.S_coeff, pinned.V_basis
        v_free = ws.angular.T_mat.T @ np.linalg.qr(rng.standard_normal((5, 2)))[0]
        v_near = v.copy()
        v_near[:, 1] = v_near[:, 1] * np.sqrt(1.0 - 1e-26) + 1e-13 * v[:, 0]
        v_near[:, 0] = v_near[:, 0] - 1e-13 * v[:, 1]
        for bad in (v_free, v * np.array([-1.0, 1.0]), v[:, ::-1]):
            state = LowRankMicroState(x, s_coeff, bad)
            with pytest.raises(ValueError):
                augment_bases(state, macro, ws, 0.02)
            with pytest.raises(ValueError):
                step_bug_adaptive(macro, state, ws, 0.02, theta_rel)
        # within 1e-12 of b/|b| is accepted
        step_bug_adaptive(macro, LowRankMicroState(x, s_coeff, v_near), ws, 0.02, theta_rel)

    @pytest.mark.parametrize("nx, n_mom, rank", [(12, 5, 3), (12, 5, 4), (12, 5, 5),
                                                 (30, 6, 4), (8, 4, 2)])
    def test_old_solution_is_exactly_representable(self, nx, n_mom, rank):
        # 2r+1 > N: the new block is capped, never the old bases
        rng = np.random.default_rng(134 + nx + n_mom + rank)
        ws = make_workspace(nx=nx, n_moments=n_mom, seed=135)
        macro = MacroState(rng.uniform(0.5, 2.0, nx), rng.standard_normal(nx))
        state = random_state(rng, nx + 1, n_mom, rank)
        aug = augment_bases(state, macro, ws, 0.02)
        assert aug.V_hat.shape[1] <= n_mom
        s_tilde = old_coefficients(aug, state)
        recon = aug.X_hat @ s_tilde @ aug.V_hat.T
        old = reconstruct(state)
        assert np.linalg.norm(recon - old) <= 1e-12 * np.linalg.norm(old)

    def test_spans_match_full_stack_reference(self):
        # for stacks that drop nothing the block extension spans what one QR of
        # the whole stack spans
        rng = np.random.default_rng(136)
        for trial in range(20):
            nx, n_mom = int(rng.integers(12, 40)), int(rng.integers(9, 16))
            rank = int(rng.integers(1, 5))
            ws = make_workspace(nx=nx, n_moments=n_mom, epsilon=float(rng.uniform(0.1, 1.0)),
                                seed=137 + trial)
            macro = MacroState(rng.uniform(0.5, 2.0, nx), rng.standard_normal(nx))
            state = random_state(rng, nx + 1, n_mom, rank)
            dt = float(rng.uniform(0.005, 0.05))
            aug = augment_bases(state, macro, ws, dt)
            x_ref, v_ref = reference_augment_bases(state, macro, ws, dt)
            assert aug.X_hat.shape == x_ref.shape == (nx + 1, 2 * rank + 1)
            assert aug.V_hat.shape == v_ref.shape == (n_mom + 1, 2 * rank)
            for got, ref in ((aug.X_hat, x_ref), (aug.V_hat, v_ref)):
                np.testing.assert_allclose(got @ got.T, ref @ ref.T, rtol=0, atol=1e-12)
            np.testing.assert_allclose(aug.V_hat[:, 0], v_ref[:, 0], rtol=0, atol=1e-14)

    def test_projection_factors_shapes(self):
        rng = np.random.default_rng(32)
        ws = make_workspace(seed=33)
        macro = MacroState(rng.uniform(0.5, 2.0, 6), rng.standard_normal(6))
        state = random_state(rng, 7, 5, 2)
        aug = augment_bases(state, macro, ws, 0.02)
        # [X | w_ap, K] keeps all 2r+1 columns; [V | L, b] drops b, inside span V
        assert aug.X_hat.shape == (7, 5)
        assert aug.V_hat.shape == (6, 4)


class TestGalerkinSHat:
    def test_projection_consistency(self):
        # the old solution is exactly representable in the augmented bases
        rng = np.random.default_rng(34)
        ws = make_workspace(seed=35)
        macro = MacroState(rng.uniform(0.5, 2.0, 6), rng.standard_normal(6))
        state = random_state(rng, 7, 5, 2)
        aug = augment_bases(state, macro, ws, 0.02)
        s_tilde = old_coefficients(aug, state)
        recon = aug.X_hat @ s_tilde @ aug.V_hat.T
        np.testing.assert_allclose(recon, reconstruct(state), atol=1e-12)

    @pytest.mark.parametrize(("nx", "rank"), [(30, 4), (2, 1)])
    def test_assembled_blocks_are_the_blocks_of_x_hat(self, nx, rank):
        # the blocks formed from [stencil of X | stencil of X1] are those of
        # padded_difference([X | X1]), and the source is projected on all of X_hat
        rng = np.random.default_rng(38)
        ws = make_workspace(nx=nx, n_moments=12, seed=39)
        macro = MacroState(1.0 + rng.uniform(0.0, 1.0, nx), rng.standard_normal(nx))
        state = random_state(rng, nx + 1, 12, rank)
        aug = augment_bases(state, macro, ws, 0.02)
        x_hat = aug.X_hat
        for got, want in (
            (aug.flow_minus, x_hat.T @ padded_difference(x_hat, ws.grid)[:-1]),
            (aug.gram, x_hat.T @ np.diag(ws.sigma.at_interfaces) @ x_hat),
            (aug.x_source, x_hat.T @ emission_gradient_parts(macro, ws)[1]),
        ):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    def test_zero_dynamics_keeps_zero_coefficients(self):
        ws = make_workspace()
        macro = MacroState(np.zeros(6), np.zeros(6))
        state = zero_low_rank_state(7, ws.angular.T_mat, rank=2)
        aug = augment_bases(state, macro, ws, 0.01)
        s_hat = galerkin_s_hat(aug, state, ws, 0.01)
        np.testing.assert_allclose(s_hat, 0.0, atol=1e-15)

    def test_dense_projection_oracle(self):
        rng = np.random.default_rng(36)
        nx, n_mom = 3, 3
        grid = StaggeredGrid(0.0, 1.0, nx)
        epsilon = 0.6
        ws = FullSchemeWorkspace(grid, epsilon,
                                 AbsorptionField(rng.uniform(0.5, 1.5, nx),
                                                 rng.uniform(0.5, 1.5, nx + 1)),
                                 build_angular_operators(n_mom))
        macro = MacroState(rng.uniform(0.0, 2.0, nx), rng.standard_normal(nx))
        state = random_state(rng, nx + 1, n_mom, 1)
        dt = 0.05
        aug = augment_bases(state, macro, ws, dt)
        s_hat = galerkin_s_hat(aug, state, ws, dt)
        s_tilde = old_coefficients(aug, state)
        oracle = oracle_galerkin_dense(aug.X_hat, ws.angular.T_mat @ aug.V_hat, s_tilde,
                                       macro.temperature, macro.h_meso, epsilon,
                                       grid.dx, dt, ws.sigma.at_interfaces,
                                       *upwind(ws.angular))
        np.testing.assert_allclose(s_hat, oracle, atol=1e-12)


class TestApTruncate:
    def make_factors(self, rng, m=9, n_mom=7, r=2):
        n_aug = 2 * r + 1
        x_hat, _ = np.linalg.qr(rng.standard_normal((m, n_aug)))
        v_hat, _ = np.linalg.qr(rng.standard_normal((n_mom, n_aug)))
        s_hat = rng.standard_normal((n_aug, n_aug))
        return x_hat, v_hat, s_hat

    def test_zero_tolerance_keeps_everything(self):
        rng = np.random.default_rng(37)
        factors = self.make_factors(rng)
        state = ap_truncate(*factors, 0.0)
        assert state.rank == 5

    def test_huge_tolerance_collapses_to_two(self):
        rng = np.random.default_rng(38)
        factors = self.make_factors(rng)
        state = ap_truncate(*factors, 1e9)
        assert state.rank == 2

    def test_conserved_column_is_exact(self):
        rng = np.random.default_rng(39)
        x_hat, v_hat, s_hat = self.make_factors(rng)
        state = ap_truncate(x_hat, v_hat, s_hat, 0.3)
        k_ap = (x_hat @ s_hat)[:, 0]
        recon_dir = reconstruct(state) @ v_hat[:, 0]
        np.testing.assert_allclose(recon_dir, k_ap, atol=1e-12 * max(1.0, np.abs(k_ap).max()))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 3])
    def test_non_finite_coefficients_are_refused(self, bad, column):
        # the norm from the SVD is the check: numpy's SVD turns an infinite entry
        # into NaN singular values and, in some versions, fails on a NaN one
        x_hat, v_hat, s_hat = self.make_factors(np.random.default_rng(41))
        s_hat[2, column] = bad
        with pytest.raises(ValueError, match="low-rank state contains non-finite entries"):
            ap_truncate(x_hat, v_hat, s_hat, 5e-2)

    def test_truncation_does_not_increase_norm(self):
        rng = np.random.default_rng(40)
        for theta in (0.0, 0.05, 0.3, 2.0):
            x_hat, v_hat, s_hat = self.make_factors(rng)
            state = ap_truncate(x_hat, v_hat, s_hat, theta)
            assert np.linalg.norm(state.S_coeff) <= np.linalg.norm(s_hat) + 1e-12


class TestChooseKeptRank:
    def test_matches_loop_on_random_spectra(self):
        rng = np.random.default_rng(140)
        spectra = [np.zeros(0), np.zeros(5), np.ones(6), np.array([2.5]), np.array([0.0]),
                   np.array([3.0, 0.0, 0.0]), np.full(4, 1e-300)]
        for _ in range(500):
            n = int(rng.integers(1, 25))
            kind = rng.integers(3)
            if kind == 0:
                svals = np.sort(np.exp(rng.uniform(np.log(1e-12), 0.0, n)))[::-1]
            elif kind == 1:
                svals = np.sort(rng.uniform(0.0, 1.0, n))[::-1]
            else:
                svals = np.sort(np.exp(-rng.uniform(0.0, 3.0) * np.arange(n)))[::-1]
            spectra.append(svals * 10.0 ** rng.uniform(-8, 8))
        thetas = [0.0, 1e-8, 1e-3, 0.01, 0.05, 0.3, 1.0, 2.0, 1e9, float("nan")]
        for svals in spectra:
            for theta in thetas:
                got = bug_adaptive._choose_kept_rank(svals, theta)
                assert got == reference_choose_kept_rank(svals, theta), (svals, theta)

    def test_matches_the_array_form_on_many_spectra(self):
        # the float loop divides by sigma_1, sums the tail from the smallest value
        # up and takes square roots as the array form's cumsum and sqrt do, so no
        # rounding tie can split them: they agree on every spectrum
        rng = np.random.default_rng(141)
        spectra = [np.zeros(0), np.zeros(1), np.zeros(4), np.array([0.0, 0.0, 1.0]),
                   np.array([7.0]), np.full(5, 0.3), np.array([1.0, 1e-3, 1e-3, 0.0])]
        while len(spectra) < 12000:
            n = int(rng.integers(1, 16))
            svals = np.sort(np.exp(rng.uniform(np.log(1e-10), 0.0, n)))[::-1]
            svals[rng.random(n) < 0.2] = 0.0  # zeros; all of them in some short spectra
            if n > 1 and rng.random() < 0.3:  # repeated values
                svals[1:] = svals[rng.integers(n)]
            spectra.append(np.sort(svals)[::-1] * 10.0 ** rng.uniform(-6, 6))
        spectra.append(np.array([0.0, 1.0]))  # unsorted, with a zero sigma_1
        for svals in spectra:
            for theta in (1e-3, 5e-2, 0.5):
                assert (bug_adaptive._choose_kept_rank(svals, theta)
                        == array_choose_kept_rank(svals, theta)), (svals, theta)


class TestApTruncateMatchesGridSpace:
    """The coefficient-space truncation against the grid-space reference."""

    def make_factors(self, rng, r, extra_rows, extra_moments, zero_conserved=False):
        n_aug = 2 * r + 1
        x_hat, _ = np.linalg.qr(rng.standard_normal((n_aug + extra_rows, n_aug)))
        v_hat, _ = np.linalg.qr(rng.standard_normal((n_aug + extra_moments, n_aug)))
        spectrum = np.exp(rng.uniform(np.log(1e-4), 0.0, size=n_aug))
        left, _ = np.linalg.qr(rng.standard_normal((n_aug, n_aug)))
        right, _ = np.linalg.qr(rng.standard_normal((n_aug, n_aug)))
        s_hat = (left * spectrum) @ right.T
        if zero_conserved:
            s_hat[:, 0] = 0.0
        return x_hat, v_hat, s_hat

    def compare(self, x_hat, v_hat, s_hat, theta_rel):
        state = ap_truncate(x_hat, v_hat, s_hat, theta_rel)
        ref = reference_ap_truncate(x_hat, v_hat, s_hat, theta_rel)
        assert state.rank == ref.r_star + 1
        recon_ref = ref.X_new @ ref.S_new @ ref.V_new.T
        scale = np.linalg.norm(recon_ref)
        assert np.linalg.norm(reconstruct(state) - recon_ref) <= 1e-12 * scale
        np.testing.assert_array_equal(state.V_basis[:, 0], v_hat[:, 0])
        np.testing.assert_array_equal(ref.V_new[:, 0], v_hat[:, 0])
        # the first refolding column is c_ap / |c_ap|, so S_new[0, 0] is +-|S_ap|
        assert abs(abs(state.S_coeff[0, 0]) - abs(ref.S_ap[0, 0])) <= 1e-12 * scale
        return state, ref.X_new, ref.S_new

    def test_random_factors(self):
        rng = np.random.default_rng(60)
        for _ in range(200):
            r = int(rng.integers(1, 6))
            x_hat, v_hat, s_hat = self.make_factors(rng, r, int(rng.integers(0, 30)),
                                                    int(rng.integers(0, 10)))
            n_aug = s_hat.shape[0]
            theta_rel = float(rng.choice([0.0, 0.01, 0.05, 0.3, 2.0]))
            self.compare(x_hat, v_hat, s_hat, theta_rel)

    def test_unequal_widths(self):
        # the augmented bases may differ in width; r* is capped by both
        rng = np.random.default_rng(63)
        for _ in range(100):
            width_x, width_v = (int(w) for w in rng.integers(2, 9, size=2))
            m, n_mom = width_x + int(rng.integers(0, 20)), width_v + int(rng.integers(0, 6))
            x_hat, _ = np.linalg.qr(rng.standard_normal((m, width_x)))
            v_hat, _ = np.linalg.qr(rng.standard_normal((n_mom, width_v)))
            s_hat = rng.standard_normal((width_x, width_v))
            theta_rel = float(rng.choice([0.0, 0.05, 0.3]))
            state, _, _ = self.compare(x_hat, v_hat, s_hat, theta_rel)
            assert state.rank <= min(width_x, width_v)

    def test_degenerate_conserved_column(self):
        rng = np.random.default_rng(61)
        for r in (1, 2, 4):
            x_hat, v_hat, s_hat = self.make_factors(rng, r, 5, 3, zero_conserved=True)
            state, x_ref, s_ref = self.compare(x_hat, v_hat, s_hat, 0.05)
            # the conserved slot has no weight but an orthonormal direction
            np.testing.assert_allclose(state.S_coeff[:, 0], 0.0, atol=0.0)
            np.testing.assert_allclose(s_ref[:, 0], 0.0, atol=0.0)
            rank = state.rank
            np.testing.assert_allclose(state.X_basis.T @ state.X_basis, np.eye(rank),
                                       atol=1e-13)
            np.testing.assert_allclose(x_ref.T @ x_ref, np.eye(rank), atol=1e-13)
            # that direction stays inside the augmented basis
            x0 = state.X_basis[:, 0]
            np.testing.assert_allclose(x_hat @ (x_hat.T @ x0), x0, atol=1e-13)

    def test_refold_contract(self):
        # one QR of [S_hat[:, :1] | U_r Sigma_r] refolds, for any weights: random
        # coefficients, a zero conserved column, a zero remainder, both, and
        # weights at or below 1e-14 ||S_hat||_F, which are kept, not zeroed
        rng = np.random.default_rng(62)
        for case in range(400):
            kind = case % 6
            r = int(rng.integers(1, 5))
            x_hat, v_hat, s_hat = self.make_factors(rng, r, int(rng.integers(0, 20)),
                                                    int(rng.integers(0, 6)))
            tiny = 10.0 ** rng.uniform(-20.0, -14.0) * np.linalg.norm(s_hat)
            if kind == 1:
                s_hat[:, 0] = 0.0
            elif kind == 2:
                s_hat[:, 1:] = 0.0
            elif kind == 3:
                s_hat[:] = 0.0
            elif kind == 4:
                column = s_hat[:, 0] if case % 12 == 4 else s_hat[:, 1:]
                column *= tiny / np.linalg.norm(column)
            elif kind == 5:  # a remainder spectrum with weights far below the others
                n_aug = s_hat.shape[0]
                spectrum = np.where(rng.random(n_aug - 1) < 0.5, tiny, 1.0)
                left, _ = np.linalg.qr(rng.standard_normal((n_aug, n_aug - 1)))
                right, _ = np.linalg.qr(rng.standard_normal((n_aug - 1, n_aug - 1)))
                s_hat[:, 1:] = (left * spectrum) @ right.T
            theta_rel = float(rng.choice([0.0, 0.05, 0.3]))
            state = ap_truncate(x_hat, v_hat, s_hat, theta_rel)
            x, s, v, kept = state.X_basis, state.S_coeff, state.V_basis, state.rank - 1
            assert kept == reference_ap_truncate(x_hat, v_hat, s_hat, theta_rel).r_star
            np.testing.assert_allclose(x.T @ x, np.eye(kept + 1), rtol=0, atol=1e-13)
            np.testing.assert_array_equal(v[:, 0], v_hat[:, 0])
            k_ap = x_hat @ s_hat[:, 0]
            assert np.linalg.norm(x @ s[:, 0] - k_ap) <= 1e-14 * np.linalg.norm(k_ap)
            u_mat, svals, wt_mat = np.linalg.svd(s_hat[:, 1:], full_matrices=False)
            slots = np.column_stack([s_hat[:, 0], u_mat[:, :kept] * svals[:kept]])
            truncated = x_hat @ slots @ np.column_stack(
                [v_hat[:, 0], v_hat[:, 1:] @ wt_mat[:kept].T]).T
            assert np.linalg.norm(x @ s @ v.T - truncated) <= 1e-13 * np.linalg.norm(truncated)
            # every slot is refolded to its own accuracy, however small its weight
            refolded = x_hat.T @ x @ s
            for j in range(kept + 1):
                assert (np.linalg.norm(refolded[:, j] - slots[:, j])
                        <= 1e-13 * np.linalg.norm(slots[:, j])), (case, j)
            if kind in (2, 3):
                np.testing.assert_array_equal(s[:, 1:], 0.0)


def full_rank_cases():
    """(scenario, epsilon, nx, n_moments, start rank) of the full-rank oracle test.

    The cell centres of these grids reach the pulse and the insert. Every start
    at rank N = 4 on 101 x 4 is known not to track the dense step, and is a
    strict expected failure.
    """
    stuck = pytest.mark.xfail(strict=True, reason=(
        "from the zero state of rank N = 4 the rank falls to 2 in the first step and "
        "never grows again"))
    cases = []
    for scenario in ("rectangular_pulse", "absorber"):
        for epsilon in (1.0, 1e-2, 1e-5):
            for nx, n_mom in ((41, 8), (30, 6), (101, 4)):
                for start_rank in (1, n_mom):
                    marks = stuck if start_rank == n_mom == 4 else ()
                    cases.append(pytest.param(scenario, epsilon, nx, n_mom, start_rank,
                                              marks=marks))
    return cases


def _count_calls(monkeypatch, module, name):
    """Wrap `module.name` at every slabtrt binding; returns the list of call args."""
    fn = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("slabtrt") and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    return calls


class TestStepOperationCounts:
    """Each O(n) operation of a low-rank step runs once: no discarded QRs, one source,
    and one stencil of X shared by the K- and L-step plus one of the new spatial
    directions. The Galerkin blocks (X^T D- X and the sigma-weighted Gram X^T sigma X)
    are formed once per basis: the fixed-rank step carries those of its new
    bases to the next step, and the adaptive step forms those of X_hat once."""

    def setup_problem(self):
        nx, n_mom = 40, 16
        rng = np.random.default_rng(70)
        ws = make_workspace(nx=nx, n_moments=n_mom, epsilon=0.5, seed=71)
        macro = MacroState(1.0 + np.exp(-4.0 * ws.grid.centers**2), 0.1 * rng.standard_normal(nx))
        state = random_state(rng, nx + 1, n_mom, 3)
        return ws, macro, state

    def install_counters(self, monkeypatch, tall_rows):
        qr_rows = []
        qr = np.linalg.qr

        def counted_qr(a, *args, **kwargs):
            qr_rows.append(np.shape(a)[0])
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        source = _count_calls(monkeypatch, full_scheme, "emission_gradient_parts")
        stencils = _count_calls(monkeypatch, mesh_state, "padded_difference")
        self.grams = _count_calls(monkeypatch, bug_fixed, "_spatial_blocks")
        return lambda: (sum(rows in tall_rows for rows in qr_rows), len(source), len(stencils),
                        len(self.grams))

    @staticmethod
    def step(scheme, ws, macro, state):
        if scheme == "bug_adaptive":
            return step_bug_adaptive(macro, state, ws, 0.02, 5e-2)
        return step_bug_fixed(macro, state, ws, 0.02)

    def check_linear_steps(self, monkeypatch, scheme, n_steps=4):
        """Per-step counts (tall QRs, sources, stencils, Galerkin block pairs) of n_steps."""
        ws, macro, state = self.setup_problem()
        counts = self.install_counters(monkeypatch, {41, 17})
        per_step, before = [], (0, 0, 0, 0)
        for _ in range(n_steps):
            x_old = state.X_basis
            macro, state = self.step(scheme, ws, macro, state)
            now = counts()
            per_step.append(tuple(b - a for a, b in zip(before, now)))
            before = now
            assert per_step[-1][1] == 1
        # (later adaptive steps may reach the full angular rank, which takes no QR)
        assert per_step[0][0] == 2
        return per_step, x_old

    def test_adaptive_step(self, monkeypatch):
        per_step, x_old = self.check_linear_steps(monkeypatch, "bug_adaptive")
        assert all(counts[2:] == (2, 1) for counts in per_step)
        # the one sigma-weighted Gram of the last step is that of X_hat = [X | X1]
        x_hat = self.grams[-1][0]
        assert x_hat.shape[1] > x_old.shape[1]
        assert np.array_equal(x_hat[:, :x_old.shape[1]], x_old)

    def test_adaptive_step_linalg_calls_on_a_diffusive_problem(self, monkeypatch):
        # the diffusive absorber leaks above rounding in almost every extension;
        # the series renormalizes it without a Cholesky factor or an inverse, so a
        # step makes two extension QRs and the refolding QR, the truncation SVD
        # and the two inverses of the K/L and S absorption matrices. The first
        # step left a zero-weight slot whose direction the refolding QR chose, and
        # the next spatial extension drops a column ahead of a kept one once:
        # `_kept_in_order` factors the kept columns again, one more QR
        ws, macro = build_problem("absorber", 41, 16, 1e-5)
        dt = cfl_report(ws)[0]
        state = zero_low_rank_state(42, ws.angular.T_mat)
        macro, state = step_bug_adaptive(macro, state, ws, dt, 5e-2)  # pads the rank floor
        names = ("qr", "svd", "inv", "cholesky")
        calls = dict.fromkeys(names, 0)

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        for name in names:
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        series = _count_calls(monkeypatch, mesh_state, "_inverse_sqrt_series")
        n_steps = 10
        for _ in range(n_steps):
            macro, state = step_bug_adaptive(macro, state, ws, dt, 5e-2)
        assert [calls[name] for name in names] == [3 * n_steps + 1, n_steps, 2 * n_steps, 0]
        assert len(series) >= n_steps

    def test_fixed_rank_step(self, monkeypatch):
        per_step, _ = self.check_linear_steps(monkeypatch, "bug_fixed")
        # the first step forms the blocks of the state it is given; from then on
        # only those of the new bases: one stencil and one sigma-weighted Gram
        assert per_step[0][2:] == (2, 2)
        assert all(counts[2:] == (1, 1) for counts in per_step[1:])
        assert all(counts[0] == 2 for counts in per_step)

    def test_pulse_pads_once_and_qrs_only_new_directions(self, monkeypatch):
        # 30 steps of the 101 x 8 pulse from the rank-1 zero state: only the first
        # step pads (the rank floor of the angular basis; truncation pads nothing),
        # and its completion factors one candidate block of n_new + k / 0.99 + 1
        # columns against the k basis columns. The first candidate, row 0 of T,
        # is b/|b| and lies in the basis: it is dropped, so `_kept_in_order`
        # factors the R columns of the kept ones behind it again, one more QR on
        # the block's rows of R. Every other augmentation QR takes
        # at most r + 1 columns and truncation QRs act on coefficient blocks of at
        # most 2r + 1 rows
        nx, n_mom = 101, 8
        ws, macro0 = build_problem("rectangular_pulse", nx, n_mom)
        angular = ws.angular
        dt = cfl_report(ws)[0]
        theta_rel = 5e-2
        step = {"index": 0, "rank": 1, "augmenting": False, "completing": False}
        qr_log, completions = [], []
        qr = np.linalg.qr

        def counted_qr(a, *args, **kwargs):
            qr_log.append((step["index"], step["rank"], step["augmenting"], step["completing"],
                           np.shape(a)))
            return qr(a, *args, **kwargs)

        complete = mesh_state.complete_orthonormal_columns

        def counted_complete(basis, n_new, *args):
            rows, k = basis.shape
            completions.append((step["index"], rows, min(rows, n_new + int(k / 0.99) + 1)))
            step["completing"] = True
            try:
                return complete(basis, n_new, *args)
            finally:
                step["completing"] = False

        augment = bug_adaptive.augment_bases

        def marked_augment(*args):
            step["augmenting"] = True
            try:
                return augment(*args)
            finally:
                step["augmenting"] = False

        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        monkeypatch.setattr(mesh_state, "complete_orthonormal_columns", counted_complete)
        monkeypatch.setattr(bug_adaptive, "augment_bases", marked_augment)

        macro = macro0
        state = zero_low_rank_state(nx + 1, angular.T_mat, rank=1)
        for index in range(1, 31):
            step.update(index=index, rank=state.rank)
            macro, state = step_bug_adaptive(macro, state, ws, dt, theta_rel)
        assert max(r for _, r, _, _, _ in qr_log) >= 5
        tall = [(i, shape) for i, _, _, _, shape in qr_log if shape[0] in (nx + 1, n_mom + 1)]
        assert [c[0] for c in completions] == [1]
        (_, rows, width), = completions
        assert rows == n_mom + 1
        assert [shape for _, _, _, completing, shape in qr_log if completing] == [
            (rows, width), (width, width - 1)]
        for _, rank, augmenting, completing, (rows, cols) in qr_log:
            if completing:
                continue
            if augmenting:
                assert cols <= rank + 1
            else:
                assert rows <= 2 * rank + 1
        assert len([1 for _, _, augmenting, completing, _ in qr_log
                    if augmenting and not completing]) >= 2 * 30
        assert len(tall) >= 2 * 30 + 1


class TestGridOrder:
    """The tall blocks of a low-rank step reach LAPACK in column (Fortran) order,
    which `np.linalg.qr` copies contiguously, and the K-step builds K^T, whose
    passes run along the grid, so K comes back in column order. The values are
    those of the dense update."""

    nx, n_mom = 40, 30  # 41 and 31 rows; truncation's coefficient blocks have fewer

    def tall_qr_layouts(self, monkeypatch):
        """(shape, F-contiguous) of every QR input with nx + 1 or N + 1 rows."""
        layouts = []
        qr = np.linalg.qr

        def recorded_qr(a, *args, **kwargs):
            if np.shape(a)[0] in (self.nx + 1, self.n_mom + 1):
                layouts.append((np.shape(a), a.flags.f_contiguous))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recorded_qr)
        return layouts

    @pytest.mark.parametrize("scheme", ["bug_fixed", "bug_adaptive"])
    def test_tall_qr_inputs_are_in_column_order(self, monkeypatch, scheme):
        # three steps from a random rank-3 state (the adaptive rank grows to 12,
        # so truncation's blocks keep fewer than 31 rows), then two from the
        # rank-3 zero state at T = 0, whose K is zero: the fixed-rank step then
        # pads its whole spatial basis from an empty one
        nx, n_mom = self.nx, self.n_mom
        rng = np.random.default_rng(72)
        ws = make_workspace(nx=nx, n_moments=n_mom, epsilon=0.5, seed=73)
        starts = [(MacroState(1.0 + np.exp(-4.0 * ws.grid.centers**2),
                              0.1 * rng.standard_normal(nx)),
                   random_state(rng, nx + 1, n_mom, 3), 3),
                  (MacroState(np.zeros(nx), np.zeros(nx)),
                   zero_low_rank_state(nx + 1, ws.angular.T_mat, rank=3), 2)]
        layouts = self.tall_qr_layouts(monkeypatch)
        for macro, state, n_steps in starts:
            for _ in range(n_steps):
                if scheme == "bug_adaptive":
                    macro, state = step_bug_adaptive(macro, state, ws, 0.02, 5e-2)
                else:
                    macro, state = step_bug_fixed(macro, state, ws, 0.02)
        assert {rows for (rows, _), _ in layouts} == {nx + 1, n_mom + 1}
        assert len(layouts) >= 2 * 5
        assert [shape for shape, f_order in layouts if not f_order] == []

    def test_k_update_is_in_column_order_and_is_the_dense_update(self):
        # K = X S advanced in the frozen basis V is the dense update of g = X S V^T
        # (the loop oracle of the dense step) times V
        rng = np.random.default_rng(74)
        nx, n_mom, dt = 12, 7, 0.02
        ws = make_workspace(nx=nx, n_moments=n_mom, epsilon=0.6, seed=75)
        macro = MacroState(rng.standard_normal(nx), rng.standard_normal(nx))
        state = random_state(rng, nx + 1, n_mom, 4)
        k_new = kernel_k(state, emission_gradient_parts(macro, ws)[1], ws, dt)
        assert k_new.flags.f_contiguous
        moments = modal(state, ws.angular.T_mat)
        _, _, g_new = oracle_step_full(macro.temperature, macro.h_meso, reconstruct(moments),
                                       ws.epsilon, ws.grid.dx, dt, ws.sigma.at_centers,
                                       ws.sigma.at_interfaces, *upwind(ws.angular))
        np.testing.assert_allclose(k_new, g_new @ moments.V_basis, rtol=0, atol=1e-13)


class TestStepBugAdaptive:
    def test_equilibrium_collapses_to_minimum_rank(self):
        ws = make_workspace()
        macro = MacroState(np.zeros(6), np.zeros(6))
        state = zero_low_rank_state(7, ws.angular.T_mat, rank=2)
        theta_rel = 5e-2
        m1, s1 = step_bug_adaptive(macro, state, ws, 0.02, theta_rel)
        np.testing.assert_allclose(m1.temperature, 0.0, atol=1e-14)
        np.testing.assert_allclose(reconstruct(s1), 0.0, atol=1e-13)
        assert s1.rank == 2

    def test_one_moment_is_refused(self):
        # the conserved column plus one truncated direction need N >= 2
        ws = make_workspace(n_moments=1)
        macro = MacroState(np.ones(6), np.zeros(6))
        state = zero_low_rank_state(7, ws.angular.T_mat)
        with pytest.raises(ValueError, match="at least 2 moments"):
            step_bug_adaptive(macro, state, ws, 0.02, 5e-2)

    def test_drifted_bases_are_orthonormalized_again(self, monkeypatch):
        # the step carries the old bases into the new ones as they are, and
        # simulate repairs them: in the start state, after every k-th step and in
        # the last state, bases whose defect passes 1e-13 are orthonormalized
        # again with the product X S V^T kept. Here the start and every step's
        # state drift by 1e-13 noise, so exactly those states come out repaired
        rng = np.random.default_rng(44)
        ws = make_workspace(nx=20, n_moments=8, seed=45)
        macro = MacroState(rng.uniform(0.5, 2.0, 20), 0.1 * rng.standard_normal(20))

        def drifted(state):
            x = state.X_basis + 1e-13 * rng.standard_normal(state.X_basis.shape)
            v = ws.angular.T_mat @ state.V_basis  # modal; column 0 stays b/|b|
            v[1:, 1:] += 1e-13 * rng.standard_normal((v.shape[0] - 1, v.shape[1] - 1))
            return LowRankMicroState._trusted(x, state.S_coeff, ws.angular.T_mat.T @ v)

        handed = [drifted(random_state(rng, 21, 8, 3))]
        monkeypatch.setattr(cli_io, "zero_low_rank_state", lambda *args: handed[0])
        step = cli_io.step_bug_adaptive

        def drifting_step(*args):
            macro, state = step(*args)
            handed.append(drifted(state))
            return macro, handed[-1]

        monkeypatch.setattr(cli_io, "step_bug_adaptive", drifting_step)
        k = cli_io._BASIS_CHECK_STEPS
        n_steps, dt = 2 * k + 3, 0.02
        states = [micro for _, _, _, micro in cli_io.simulate(
            "bug_adaptive", macro, ws, dt, n_steps * dt, 3, 1e-3)]
        assert len(states) == len(handed) == n_steps + 1
        for index, (got, given) in enumerate(zip(states, handed)):
            assert max(_orth_defect(given.X_basis), _orth_defect(given.V_basis)) > 1e-13
            if index % k and index < n_steps:
                assert got is given
                continue
            assert max(_orth_defect(got.X_basis), _orth_defect(got.V_basis)) <= 1e-15
            np.testing.assert_allclose(reconstruct(got), reconstruct(given), rtol=0,
                                       atol=1e-14 * np.abs(reconstruct(given)).max())

    def test_small_epsilon_limit_after_one_step(self):
        nx, n_mom = 40, 8
        grid = StaggeredGrid(-4.0, 4.0, nx)
        epsilon = 1e-6
        sigma = AbsorptionField(np.full(nx, 0.5), np.full(nx + 1, 0.5))
        angular = build_angular_operators(n_mom)
        ws = FullSchemeWorkspace(grid, epsilon, sigma, angular)
        dt = cfl_report(ws)[0]
        macro = MacroState(np.exp(-grid.centers**2), np.zeros(nx))
        state = zero_low_rank_state(nx + 1, angular.T_mat, rank=1)
        theta_rel = 5e-2

        w_before = emission_gradient_parts(macro, ws)[0] / ws.sigma.at_interfaces
        _, s1 = step_bug_adaptive(macro, state, ws, dt, theta_rel)
        target = -np.outer(w_before, modal_b(ws.angular))
        scale = np.max(np.linalg.norm(target, axis=1))
        defects = np.linalg.norm(reconstruct(modal(s1, angular.T_mat)) - target, axis=1)
        assert np.max(defects[1:-1]) <= 1e-6 * scale

    def test_diffusive_rank_stays_small(self):
        nx, n_mom = 60, 12
        ws, macro = build_problem("rectangular_pulse", nx, n_mom, 1e-5)
        angular = ws.angular
        dt = cfl_report(ws)[0]
        state = zero_low_rank_state(nx + 1, angular.T_mat, rank=1)
        theta_rel = 5e-2
        for _ in range(200):
            macro, state = step_bug_adaptive(macro, state, ws, dt, theta_rel)
            assert state.rank <= 3

    def test_kinetic_pulse_matches_dense_scheme(self):
        nx, n_mom = 101, 30
        ws, macro0 = build_problem("rectangular_pulse", nx, n_mom)
        angular = ws.angular
        dt = cfl_report(ws)[0]
        macro_d, micro_d = macro0, nodal_dense(np.zeros((nx + 1, n_mom)), angular)
        macro_a = macro0
        state = zero_low_rank_state(nx + 1, angular.T_mat, rank=1)
        theta_rel = 5e-2
        t = 0.0
        while t < 1.5 - 1e-12:
            dt_step = min(dt, 1.5 - t)
            macro_d, micro_d = step_full(macro_d, micro_d, ws, dt_step)
            macro_a, state = step_bug_adaptive(macro_a, state, ws, dt_step, theta_rel)
            t += dt_step
        err_t = l2_relative_difference(macro_a.temperature, macro_d.temperature, ws.grid)
        err_phi = l2_relative_difference(scalar_flux(macro_a, ws.epsilon),
                                         scalar_flux(macro_d, ws.epsilon), ws.grid)
        assert err_t <= 0.02
        assert err_phi <= 0.02

    @pytest.mark.parametrize("scenario, epsilon, nx, n_mom, start_rank", full_rank_cases())
    def test_full_rank_step_is_the_dense_step(self, scenario, epsilon, nx, n_mom, start_rank):
        # at theta = 0 nothing is truncated and the augmented bases hold the old
        # ones, so once the rank reaches N the Galerkin step is the dense step in
        # a basis that holds it. In the diffusive regime the new directions of
        # some steps fall below the augmentation's drop threshold, so from rank 1
        # the rank may stay below N there while T still tracks the dense step
        ws, macro_d = build_problem(scenario, nx, n_mom, epsilon)
        dt = cfl_report(ws)[0]
        micro_d = nodal_dense(np.zeros((nx + 1, n_mom)), ws.angular)
        macro_a = macro_d
        state = zero_low_rank_state(nx + 1, ws.angular.T_mat, rank=start_rank)
        ranks, worst = [], 0.0
        for _ in range(200):
            macro_d, micro_d = step_full(macro_d, micro_d, ws, dt)
            macro_a, state = step_bug_adaptive(macro_a, state, ws, dt, 0.0)
            ranks.append(state.rank)
            t_full = macro_d.temperature
            worst = max(worst, np.max(np.abs(macro_a.temperature - t_full))
                        / np.max(np.abs(t_full)))
        bound = 1e-12
        if start_rank == 1 and scenario == "absorber" and epsilon >= 1e-2:
            # the low-rank error of the first steps: before the rank reaches N the
            # dense solution leaves the span of the augmented bases, and T keeps that
            # error (worst 5.7e-6 to 9.2e-6 at eps = 1, 7.4e-11 to 8.1e-9 at 1e-2)
            bound = 2e-5 if epsilon == 1.0 else 2e-8
        assert worst <= bound
        if epsilon >= 1e-2 or start_rank == n_mom:
            assert max(ranks) == n_mom

    @staticmethod
    def fixed_rank_gap_to_dense(scenario, epsilon, nx, n_mom):
        """Largest max|T - T_full| / max|T_full| over 200 steps at the bound of
        `bug_fixed` at rank min(nx + 1, N) against `full`, from zero micro moments."""
        ws, macro_d = build_problem(scenario, nx, n_mom, epsilon)
        assert np.ptp(macro_d.temperature) > 0.0  # the grid reaches the pulse or insert
        dt = cfl_report(ws)[0]
        micro_d = nodal_dense(np.zeros((nx + 1, n_mom)), ws.angular)
        macro_f = macro_d
        state = zero_low_rank_state(nx + 1, ws.angular.T_mat, rank=min(nx + 1, n_mom))
        worst = 0.0
        for _ in range(200):
            macro_d, micro_d = step_full(macro_d, micro_d, ws, dt)
            macro_f, state = step_bug_fixed(macro_f, state, ws, dt)
            t_full = macro_d.temperature
            worst = max(worst, np.max(np.abs(macro_f.temperature - t_full))
                        / np.max(np.abs(t_full)))
        return worst

    @pytest.mark.parametrize("epsilon", [1.0, 1e-2, 1e-5])
    @pytest.mark.parametrize("scenario", ["rectangular_pulse", "absorber"])
    def test_fixed_rank_step_filling_both_sides_is_the_dense_step(self, scenario, epsilon):
        # at rank nx + 1 = N both bases span their whole space, so the S-step's
        # projection of the old solution onto the new spatial basis loses nothing
        # and the fixed-rank step is the dense step
        assert self.fixed_rank_gap_to_dense(scenario, epsilon, 7, 8) <= 1e-12

    @pytest.mark.parametrize("scenario", ["rectangular_pulse", "absorber"])
    @pytest.mark.parametrize("nx, n_mom", [(15, 8), (7, 16)], ids=["N<nx+1", "nx+1<N"])
    def test_fixed_rank_step_with_one_side_short_is_not_the_dense_step(self, scenario, nx,
                                                                         n_mom):
        # with either side below full, the fixed-rank step is a low-rank step: at
        # eps = 1 it is 3.0e-4 to 3.5e-4 off (15 x 8) and 4.3e-9 to 5.1e-9 (7 x 16)
        assert 1e-10 < self.fixed_rank_gap_to_dense(scenario, 1.0, nx, n_mom) < 1e-3

    def test_moment_direction_survives_every_step(self):
        rng = np.random.default_rng(42)
        ws = make_workspace(seed=43)
        macro = MacroState(rng.uniform(0.5, 2.0, 6), 0.1 * rng.standard_normal(6))
        state = zero_low_rank_state(7, ws.angular.T_mat, rank=1)
        theta_rel = 0.1
        b = ws.angular.b
        for _ in range(20):
            aug = augment_bases(state, macro, ws, 0.02)
            w = diffusion_direction(macro, ws)
            res_w = w - aug.X_hat @ (aug.X_hat.T @ w)
            assert np.linalg.norm(res_w) <= 1e-12 * max(np.linalg.norm(w), 1e-300)
            macro, state = step_bug_adaptive(macro, state, ws, 0.02, theta_rel)
            res_b = b - state.V_basis @ (state.V_basis.T @ b)
            assert np.linalg.norm(res_b) <= 1e-12

    def test_energy_and_mass_bookkeeping(self):
        # support must stay clear of the boundary for the conservation property
        nx, n_mom = 101, 8
        ws, macro = build_problem("rectangular_pulse", nx, n_mom)
        angular = ws.angular
        dt = cfl_report(ws)[0]
        state = zero_low_rank_state(nx + 1, angular.T_mat, rank=1)
        theta_rel = 5e-2
        e_prev = energy(macro, 0.0, ws)
        e0 = e_prev
        m0 = mass(macro, ws)
        m_prev = m0
        for _ in range(55):
            macro, state = step_bug_adaptive(macro, state, ws, dt, theta_rel)
            e = energy(macro, state.micro_norm_sq(ws.grid.dx), ws)
            assert e <= e_prev + 1e-12 * e0
            e_prev = e
            m_now = mass(macro, ws)
            assert abs(m_now - m_prev) <= 1e-11 * abs(m0)  # per-step change
            assert abs(m_now - m0) <= 1e-10 * abs(m0)      # accumulated drift
            m_prev = m_now

    @pytest.mark.parametrize("nx, n_mom, steps, bound", [(101, 8, 55, 1e-10), (41, 16, 7, 1e-9)])
    def test_mass_drift_is_not_set_by_rounding(self, monkeypatch, nx, n_mom, steps, bound):
        # a relative 1e-15 perturbation of S_hat in every step stands for any
        # reassociation of the kernels; the drift must stay inside the bound
        # for every such perturbation, not only for the unperturbed arithmetic
        ws, macro0 = build_problem("rectangular_pulse", nx, n_mom)
        angular = ws.angular
        dt = cfl_report(ws)[0]
        theta_rel = 5e-2
        m0 = mass(macro0, ws)
        galerkin = bug_adaptive.galerkin_s_hat
        for seed in range(10):
            rng = np.random.default_rng(seed)

            def perturbed(*args, rng=rng):
                s_hat = galerkin(*args)
                return s_hat * (1.0 + 1e-15 * rng.standard_normal(s_hat.shape))

            monkeypatch.setattr(bug_adaptive, "galerkin_s_hat", perturbed)
            macro = macro0
            state = zero_low_rank_state(nx + 1, angular.T_mat, rank=1)
            worst = 0.0
            for _ in range(steps):
                macro, state = step_bug_adaptive(macro, state, ws, dt, theta_rel)
                worst = max(worst, abs(mass(macro, ws) - m0))
            assert worst <= bound * abs(m0), f"seed {seed}: drift {worst / abs(m0):.2e}"

    def test_diffusive_rank_trace_regression(self):
        # frozen baseline from the validated build: the diffusive desk pulse
        # settles at rank 3 immediately after the first augmented step
        nx, n_mom = 101, 30
        ws, macro = build_problem("rectangular_pulse", nx, n_mom, 1e-5)
        angular = ws.angular
        dt = cfl_report(ws)[0]
        state = zero_low_rank_state(nx + 1, angular.T_mat, rank=1)
        theta_rel = 5e-2
        ranks = []
        for _ in range(25):
            macro, state = step_bug_adaptive(macro, state, ws, dt, theta_rel)
            ranks.append(state.rank)
        assert ranks == [2] + [3] * 24

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
        theta_rel = 5e-2
        t_ref = macro.temperature.copy()
        for _ in range(10):
            macro, state = step_bug_adaptive(macro, state, ws, dt, theta_rel)
            t_ref = rosseland_step(t_ref, ws, dt)
            err = np.linalg.norm(macro.temperature - t_ref) / np.linalg.norm(t_ref)
            assert err <= 1e-4
