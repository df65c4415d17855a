import warnings

import numpy as np
import pytest

from oracles import (
    init_from_kinetic,
    modal,
    reconstruct,
    reference_complete_orthonormal_columns,
    reference_orthonormal_columns,
)
from slabtrt import mesh_state
from slabtrt.angular import (
    build_angular_operators,
    gauss_legendre,
    orthonormal_legendre_table,
)
from slabtrt.bug_adaptive import AugmentedFactors
from slabtrt.cli_io import RunResult
from slabtrt.full_scheme import FullSchemeWorkspace
from slabtrt.mesh_state import (
    AbsorptionField,
    FullMicroState,
    LowRankMicroState,
    MacroState,
    StaggeredGrid,
    _orth_defect,
    complete_orthonormal_columns,
    diff_center,
    diff_interface,
    extend_orthonormal_columns,
    padded_difference,
    scalar_flux,
    zero_low_rank_state,
)


@pytest.fixture
def grid():
    return StaggeredGrid(-1.0, 1.0, 8)


def orthonormal(rng, m, k):
    return np.linalg.qr(rng.standard_normal((m, k)))[0]


# The staggered stencils: backward and forward differences of interface data
# are the two row slices of one padded difference.
STENCILS = {
    "d_plus": lambda values, grid: padded_difference(values, grid)[1:],
    "d_minus": lambda values, grid: padded_difference(values, grid)[:-1],
    "d_zero_centers": diff_center,
    "delta_zero_interfaces": diff_interface,
}
# rows of each stencil that difference a zero ghost: (first, last)
GHOST_ROWS = {
    "d_plus": (False, True),
    "d_minus": (True, False),
    "d_zero_centers": (False, False),
    "delta_zero_interfaces": (True, True),
}


class TestGrid:
    def test_geometry(self, grid):
        assert grid.dx == pytest.approx(0.25)
        assert len(grid.centers) == 8
        assert len(grid.interfaces) == 9
        np.testing.assert_allclose(
            grid.centers, 0.5 * (grid.interfaces[:-1] + grid.interfaces[1:]), atol=1e-15)
        np.testing.assert_allclose(np.diff(grid.interfaces), grid.dx, atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            StaggeredGrid(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            StaggeredGrid(1.0, 0.0, 4)

    # these built NaN or infinite centres with only a RuntimeWarning
    @pytest.mark.parametrize("x_min, x_max", [(-np.inf, 0.0), (0.0, np.inf),
                                              (-1.7e308, 1.7e308), (0.0, 1.7e308)])
    def test_bounds_width_and_centres_must_be_finite(self, x_min, x_max):
        with pytest.raises(ValueError, match="x_min, x_max and the cell centres must be finite"):
            StaggeredGrid(x_min, x_max, 4)

    def test_widest_finite_grid_is_built(self):
        grid = StaggeredGrid(-8e307, 8e307, 4)
        assert grid.dx == 4e307
        np.testing.assert_allclose(grid.centers, [-6e307, -2e307, 2e307, 6e307], rtol=1e-15)

    # a fractional count was accepted once: 2.5 cells gave dx = 0.8 and 3 centers
    @pytest.mark.parametrize("n_cells", [2.5, 3.0, "4", None])
    def test_cell_count_must_be_an_integer(self, n_cells):
        with pytest.raises(ValueError, match="n_cells must be a positive integer"):
            StaggeredGrid(-1.0, 1.0, n_cells)

    def test_numpy_integer_cell_count(self):
        grid = StaggeredGrid(-1.0, 1.0, np.int64(8))
        assert type(grid.n_cells) is int and grid.n_cells == 8
        np.testing.assert_array_equal(grid.centers, StaggeredGrid(-1.0, 1.0, 8).centers)


class TestAbsorption:
    def test_sigma_min(self, grid):
        field = AbsorptionField(np.full(8, 0.5), np.full(9, 0.7))
        assert field.sigma_min == 0.5

    def test_positivity_required(self, grid):
        with pytest.raises(ValueError):
            AbsorptionField(np.zeros(8), np.full(9, 1.0))

    def test_interface_count_checked(self):
        with pytest.raises(ValueError):
            AbsorptionField(np.full(8, 1.0), np.full(8, 1.0))

    # (5, 1) centers with 6 interfaces were accepted once; the first step then
    # failed on "temperature and h_meso must be 1-d arrays"
    @pytest.mark.parametrize("centers, interfaces", [
        (np.full((5, 1), 0.5), np.full(6, 0.5)),
        (np.full(5, 0.5), np.full((6, 1), 0.5)),
        (np.float64(0.5), np.full(1, 0.5)),
    ])
    def test_samples_must_be_1d(self, centers, interfaces):
        with pytest.raises(ValueError, match="absorption samples must be 1-d arrays"):
            AbsorptionField(centers, interfaces)

    # +inf sigma was accepted once; a step on it then failed on a non-finite
    # macro state, naming no absorption
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("where", ["centers", "interfaces"])
    def test_non_finite_entries_refused(self, bad, where):
        centers, interfaces = np.ones(4), np.ones(5)
        (centers if where == "centers" else interfaces)[1] = bad
        with pytest.raises(ValueError, match="strictly positive"):
            AbsorptionField(centers, interfaces)

    # a subnormal sigma was accepted once: 1 / sigma overflowed with a warning,
    # and the Rosseland step size came out 0
    @pytest.mark.parametrize("where", ["centers", "interfaces", "both"])
    def test_subnormal_entries_refused(self, where):
        centers, interfaces = np.ones(4), np.ones(5)
        if where != "interfaces":
            centers[:] = 1e-320
        if where != "centers":
            interfaces[:] = 1e-320
        with pytest.raises(ValueError, match="absorption must be finite and strictly positive"):
            AbsorptionField(centers, interfaces)
        tiny = np.finfo(float).smallest_normal  # the smallest accepted entry
        assert AbsorptionField(np.full(4, tiny), np.full(5, tiny)).sigma_min == tiny


class TestDifferences:
    @pytest.mark.parametrize("kind", sorted(STENCILS))
    def test_constant_is_zero_away_from_the_ghosts(self, grid, kind):
        n = 8 if kind == "delta_zero_interfaces" else 9
        out = STENCILS[kind](np.full(n, 3.7), grid)
        want = np.zeros_like(out)
        first, last = GHOST_ROWS[kind]
        if first:
            want[0] = 3.7 / grid.dx
        if last:
            want[-1] = -3.7 / grid.dx
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-14)

    def test_forward_stencil_zero_ghost(self):
        grid = StaggeredGrid(0.0, 3.0, 3)
        out = padded_difference(np.array([0.0, 1.0, 2.0, 3.0]), grid)[1:]
        np.testing.assert_allclose(out, [1.0, 1.0, 1.0, -3.0], atol=1e-15)

    def test_shape_mismatch(self, grid):
        with pytest.raises(ValueError):
            padded_difference(np.zeros(5), grid)
        with pytest.raises(ValueError):
            diff_interface(np.zeros(9), grid)

    def test_summation_by_parts(self, grid):
        # with zero ghosts at both ends, <zeta, D+ phi> = -<D- zeta, phi> exactly
        rng = np.random.default_rng(5)
        zeta = rng.standard_normal((9, 3))
        phi = rng.standard_normal((9, 3))
        lhs = np.sum(zeta * padded_difference(phi, grid)[1:])
        rhs = -np.sum(padded_difference(zeta, grid)[:-1] * phi)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("n_cells", [1, 2, 8])
    def test_padded_difference_slices_are_the_one_sided_differences(self, n_cells):
        # neighbours across the ends are zero ghosts; with one or two cells
        # every row but at most one differences a ghost
        grid = StaggeredGrid(-1.0, 1.0, n_cells)
        rng = np.random.default_rng(7)
        n = n_cells + 1
        for values in (rng.standard_normal(n), rng.standard_normal((n, 4))):
            prev, nxt = np.roll(values, 1, axis=0), np.roll(values, -1, axis=0)
            prev[0] = nxt[-1] = 0.0
            diffs = padded_difference(values, grid)
            assert diffs.shape[0] == n + 1
            assert np.array_equal(diffs[:-1], (values - prev) / grid.dx)
            assert np.array_equal(diffs[1:], (nxt - values) / grid.dx)

    def test_padded_difference_validation(self, grid):
        with pytest.raises(ValueError):
            padded_difference(np.zeros(8), grid)

    def test_gradient_then_divergence_is_second_difference(self, grid):
        rng = np.random.default_rng(6)
        u = rng.standard_normal(8)
        out = diff_center(diff_interface(u, grid), grid)
        padded = np.concatenate([[0.0], u, [0.0]])
        expected = (padded[2:] - 2 * padded[1:-1] + padded[:-2]) / grid.dx**2
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestStates:
    def test_macro_validation(self):
        with pytest.raises(ValueError):
            MacroState(np.array([1.0, np.nan]), np.zeros(2))
        with pytest.raises(ValueError):
            MacroState(np.zeros(3), np.zeros(2))

    def test_macro_finiteness_is_checked_without_warnings(self):
        # the squares of 1e200 overflow, yet the entries are finite; a non-finite
        # entry, or the pair inf, -inf whose sum is nan, is refused by ValueError
        # and never reported as a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = np.array([1e200, -1e200, 1.0])
            for t, h in ((big, np.zeros(3)), (np.zeros(3), big), (big, big)):
                state = MacroState(t, h)
                assert np.array_equal(state.temperature, t) and np.array_equal(state.h_meso, h)
            for bad in ([np.nan, 1.0], [np.inf, 1.0], [-np.inf, 1.0], [np.inf, -np.inf],
                        [1e200, np.nan]):
                for t, h in ((np.array(bad), np.zeros(2)), (np.zeros(2), np.array(bad))):
                    with pytest.raises(ValueError, match="non-finite entries"):
                        MacroState(t, h)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_low_rank_orthonormality_enforced(self):
        x = np.ones((6, 2))
        with pytest.raises(ValueError):
            LowRankMicroState(x, np.zeros((2, 2)), np.eye(4)[:, :2])
        with pytest.raises(ValueError, match="not orthonormal"):
            LowRankMicroState(np.eye(6)[:, :2] * 1e200, np.zeros((2, 2)), np.eye(4)[:, :2])

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("factor", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_low_rank_non_finite_entries_are_named(self, factor, bad):
        # the orthogonality defect of X or V is non-finite when an entry is
        factors = [np.eye(6)[:, :2], np.ones((2, 2)), np.eye(4)[:, :2]]
        factors[factor] = factors[factor].copy()
        factors[factor][1, 1] = bad
        with pytest.raises(ValueError, match="non-finite entries"):
            LowRankMicroState(*factors)

    def test_dense_norm_is_read_once_on_construction(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((9, 4))
        state = FullMicroState(g)
        assert state.micro_norm_sq(0.25) == float(np.einsum("ij,ij->", g, g) * 0.25)
        assert FullMicroState(np.zeros((9, 0))).micro_norm_sq(0.25) == 0.0
        for bad in (np.nan, np.inf):
            g_bad = g.copy()
            g_bad[3, 2] = bad
            with pytest.raises(ValueError, match="non-finite entries"):
                FullMicroState(g_bad)
        # finite entries whose sum of squares overflows are still a valid state
        assert FullMicroState(np.full((3, 2), 1e200)).micro_norm_sq(1.0) == np.inf

    def test_low_rank_reconstruction_rank(self):
        rng = np.random.default_rng(7)
        x = orthonormal(rng, 10, 3)
        v = orthonormal(rng, 6, 3)
        s = rng.standard_normal((3, 3))
        state = LowRankMicroState(x, s, v)
        svals = np.linalg.svd(reconstruct(state), compute_uv=False)
        assert np.sum(svals > 1e-10 * svals[0]) <= 3

    def test_rank_is_the_width_of_the_factors(self):
        rng = np.random.default_rng(10)
        x, v = orthonormal(rng, 10, 3), orthonormal(rng, 6, 3)
        assert LowRankMicroState(x, rng.standard_normal((3, 3)), v).rank == 3
        with pytest.raises(ValueError, match="inconsistent"):
            LowRankMicroState(x, rng.standard_normal((2, 2)), v)
        with pytest.raises(ValueError, match="inconsistent"):
            LowRankMicroState(x, rng.standard_normal((3, 3)), v[:, :2])
        with pytest.raises(ValueError, match="rank must satisfy"):
            LowRankMicroState(x[:, :0], np.zeros((0, 0)), v[:, :0])
        with pytest.raises(ValueError, match="rank must satisfy"):
            LowRankMicroState(orthonormal(rng, 10, 4), np.zeros((4, 4)), np.eye(3))

    @pytest.mark.parametrize("cls, fields, shapes", [
        (LowRankMicroState, ("X_basis", "S_coeff", "V_basis"), None),
        (AbsorptionField, ("at_centers", "at_interfaces"), [(8,), (9,)]),
    ], ids=["LowRankMicroState", "AbsorptionField"])
    def test_constructor_copies_the_callers_arrays(self, cls, fields, shapes):
        # built once per run, so they hold read-only copies and the caller keeps its arrays
        rng = np.random.default_rng(12)
        if shapes is None:
            given = [orthonormal(rng, 10, 3), rng.standard_normal((3, 3)), orthonormal(rng, 6, 3)]
        else:
            given = [rng.uniform(0.5, 2.0, shape) for shape in shapes]
        obj = cls(*given)
        kept = [arr.copy() for arr in given]
        for arr in given:
            arr += 1.0
        for name, want in zip(fields, kept):
            held = getattr(obj, name)
            assert np.array_equal(held, want) and not held.flags.writeable

    def test_step_states_take_ownership(self):
        # every step builds these from arrays it has just made, so they are frozen, not copied
        t, h, g = np.ones(4), np.zeros(4), np.zeros((5, 3))
        macro, micro = MacroState(t, h), FullMicroState(g)
        assert macro.temperature is t and macro.h_meso is h and micro.g_matrix is g
        assert not (t.flags.writeable or h.flags.writeable or g.flags.writeable)

    def test_records_compare_and_hash_by_identity(self):
        # a record that holds arrays equals only itself: comparing equal arrays field
        # by field would raise, as would hashing them, so neither is done
        def records():
            grid, sigma, ang = (StaggeredGrid(-1.0, 1.0, 4),
                                AbsorptionField(np.ones(4), np.ones(5)), build_angular_operators(3))
            macro = MacroState(np.ones(4), np.zeros(4))
            return [grid, sigma, ang, macro, FullMicroState(np.zeros((5, 3))),
                    zero_low_rank_state(5, ang.T_mat, 2),
                    FullSchemeWorkspace(grid, 1.0, sigma, ang),
                    AugmentedFactors(np.eye(5, 3), np.eye(4, 3), np.eye(3), np.eye(3), np.ones(3)),
                    RunResult(grid, macro, np.ones(4), [], 1.0, 1.0)]

        for record, twin in zip(records(), records()):
            assert record == record and not record == twin and record != twin
            assert hash(record) == hash(record) and len({record, twin}) == 2

    def test_reorthonormalized_keeps_product_and_first_columns(self):
        rng = np.random.default_rng(9)
        x = orthonormal(rng, 30, 4)
        v = np.zeros((8, 4))
        v[0, 0] = 1.0
        v[1:, 1:] = orthonormal(rng, 7, 3)
        x = x + 1e-13 * rng.standard_normal(x.shape)
        v[1:] += 1e-13 * rng.standard_normal((7, 4))
        state = LowRankMicroState(x, rng.standard_normal((4, 4)), v)
        assert min(_orth_defect(state.X_basis), _orth_defect(state.V_basis)) > 1e-13
        fresh = state.reorthonormalized()
        assert max(_orth_defect(fresh.X_basis), _orth_defect(fresh.V_basis)) <= 1e-15
        np.testing.assert_allclose(reconstruct(fresh), reconstruct(state), rtol=0,
                                   atol=1e-14 * np.abs(reconstruct(state)).max())
        np.testing.assert_array_equal(fresh.V_basis[:, 0], v[:, 0])
        np.testing.assert_allclose(fresh.X_basis[:, 0],
                                   x[:, 0] / np.linalg.norm(x[:, 0]), rtol=0, atol=1e-15)

    def test_zero_state_factors(self):
        t_mat = build_angular_operators(5).T_mat
        state = zero_low_rank_state(12, t_mat, rank=3)
        assert state.rank == 3
        np.testing.assert_allclose(reconstruct(state), 0.0, atol=1e-15)
        np.testing.assert_allclose(state.X_basis[:, 0], 1 / np.sqrt(12), atol=1e-15)
        np.testing.assert_allclose(state.V_basis.T @ state.V_basis, np.eye(3), atol=1e-14)
        # nodal images of the first three moments: the modal factor is [e_1 e_2 e_3]
        np.testing.assert_array_equal(state.V_basis, t_mat[:3].T)
        np.testing.assert_allclose(modal(state, t_mat).V_basis, np.eye(5)[:, :3], atol=1e-14)

    def test_zero_state_rank_range(self):
        t_mat = build_angular_operators(5).T_mat
        with pytest.raises(ValueError):
            zero_low_rank_state(12, t_mat, rank=6)
        with pytest.raises(ValueError):
            zero_low_rank_state(12, t_mat, rank=0)


def assert_extends_orthonormally(basis, new, atol=1e-13):
    both = np.column_stack([basis, new])
    np.testing.assert_allclose(both.T @ both, np.eye(both.shape[1]), rtol=0, atol=atol)


class TestExtendOrthonormalColumns:
    def random_basis(self, rng, m, k):
        return orthonormal(rng, m, k)

    @pytest.mark.parametrize("basis_rows", [None, slice(70, 91)], ids=["empty", "off_support"])
    def test_dropped_columns_do_not_mix_into_kept_ones(self, basis_rows):
        # u and w live on rows 40..60 (the basis, if any, on rows 70..90); the
        # repeated columns are dropped and the width is padded at the end
        rng = np.random.default_rng(3)
        m = 101
        u, w = np.zeros(m), np.zeros(m)
        u[40:61] = rng.standard_normal(21)
        w[40:61] = rng.standard_normal(21)
        basis = np.empty((m, 0))
        if basis_rows is not None:
            basis = np.zeros((m, 1))
            basis[basis_rows, 0] = rng.standard_normal(21)
            basis /= np.linalg.norm(basis)
        k = basis.shape[1]
        new = extend_orthonormal_columns(basis, np.column_stack([u, 3.0 * u, w, 1e-3 * u + w]),
                                         min_total=k + 4)
        assert new.shape == (m, 4)
        assert_extends_orthonormally(basis, new, atol=1e-14)
        outside = np.r_[0:40, 61:m]
        assert np.abs(new[outside][:, :2]).max() <= 1e-15
        # the padding is two canonical directions off the supports
        np.testing.assert_allclose(np.abs(new[:, 2:]), np.eye(m)[:, :2], atol=1e-15)
        np.testing.assert_allclose(new[:, :2] @ (new[:, :2].T @ np.column_stack([u, w])),
                                   np.column_stack([u, w]), atol=1e-13)

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("min_total", [0, 3])
    def test_zero_width_cols_give_the_padding_alone(self, k, min_total):
        # no column to extend by: the drop tolerance of an empty block is 0, and the
        # result is the completion to min_total (nothing at min_total 0)
        basis = self.random_basis(np.random.default_rng(7), 6, k)
        new = extend_orthonormal_columns(basis, np.empty((6, 0)), min_total=min_total)
        assert new.shape == (6, max(min_total - k, 0))
        if new.shape[1]:
            np.testing.assert_array_equal(
                new, complete_orthonormal_columns(basis, min_total - k))
            assert_extends_orthonormally(basis, new, atol=1e-15)

    @pytest.mark.parametrize("m,r", [(502, 15), (41, 8), (8, 8), (100, 1)])
    def test_empty_basis_is_householder_qr(self, m, r):
        # with nothing dropped, extending the empty basis is the plain QR of the
        # reference, bit for bit; the fixed-rank step relies on it
        rng = np.random.default_rng(125 + m + r)
        cols = rng.standard_normal((m, r)) * np.logspace(0, -8, r)
        new = extend_orthonormal_columns(np.empty((m, 0)), cols, min_total=r)
        np.testing.assert_array_equal(new, reference_orthonormal_columns(cols))

    def test_spans_basis_and_columns(self):
        rng = np.random.default_rng(120)
        basis = self.random_basis(rng, 60, 5)
        cols = rng.standard_normal((60, 4))
        new = extend_orthonormal_columns(basis, cols)
        assert new.shape == (60, 4)
        assert_extends_orthonormally(basis, new)
        both = np.column_stack([basis, new])
        np.testing.assert_allclose(both @ (both.T @ cols), cols, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("m", [60, 2001])
    def test_near_dependent_columns_come_out_orthonormal(self, m):
        # unit columns with residual 1e-11 against the basis, or against the
        # basis and another new column
        rng = np.random.default_rng(121)
        basis = self.random_basis(rng, m, 6)

        def unit(vec):
            return vec / np.linalg.norm(vec)

        def off_span(vec, span):
            return unit(vec - span @ np.linalg.lstsq(span, vec, rcond=None)[0])

        inside = unit(basis @ rng.standard_normal(6))
        near_basis = inside + 1e-11 * off_span(rng.standard_normal(m), basis)
        fresh = unit(rng.standard_normal(m))
        near_fresh = fresh + 1e-11 * off_span(rng.standard_normal(m),
                                              np.column_stack([basis, fresh]))
        for cols in (np.column_stack([near_basis, fresh]),
                     np.column_stack([fresh, near_fresh]),
                     np.column_stack([fresh, near_basis, near_fresh])):
            new = extend_orthonormal_columns(basis, cols)
            assert new.shape[1] == cols.shape[1]
            assert_extends_orthonormally(basis, new)

    def test_columns_inside_the_span_are_dropped_not_padded(self):
        rng = np.random.default_rng(122)
        basis = self.random_basis(rng, 40, 5)
        inside = basis @ rng.standard_normal((5, 3))
        assert extend_orthonormal_columns(basis, inside).shape == (40, 0)
        fresh = rng.standard_normal(40)
        new = extend_orthonormal_columns(basis, np.column_stack([fresh, inside, 2.0 * fresh]))
        assert new.shape == (40, 1)
        residual = fresh - basis @ (basis.T @ fresh)
        np.testing.assert_allclose(np.abs(new[:, 0]), np.abs(residual) / np.linalg.norm(residual),
                                   rtol=0, atol=1e-14)
        assert extend_orthonormal_columns(basis, np.zeros((40, 2))).shape == (40, 0)

    def test_dropped_column_ahead_of_kept_one_does_not_mix_into_it(self):
        # u spans the basis and w is new, both on rows 40..60: the dropped 3u
        # ahead of w must leave no weight outside the support
        rng = np.random.default_rng(3)
        m = 101
        u, w = np.zeros(m), np.zeros(m)
        u[40:61] = rng.standard_normal(21)
        w[40:61] = rng.standard_normal(21)
        basis = (u / np.linalg.norm(u))[:, None]
        new = extend_orthonormal_columns(basis, np.column_stack([3.0 * u, w, 1e-3 * u + w]))
        assert new.shape == (m, 1)
        assert_extends_orthonormally(basis, new, atol=1e-14)
        outside = np.r_[0:40, 61:m]
        assert np.abs(new[outside]).max() <= 1e-15
        both = np.column_stack([basis, new])
        np.testing.assert_allclose(both @ (both.T @ w), w, rtol=0, atol=1e-13)

    @pytest.mark.parametrize(("k", "min_total"), [(0, 3), (6, 0)])
    def test_tiny_leading_column_does_not_hide_its_direction(self, k, min_total):
        # 1e-13 d is at or below the drop threshold (1e-12 of the largest column)
        # but not zero: it is left out, so it cannot become QR's first direction
        # and leave d, behind it, without a diagonal entry
        rng = np.random.default_rng(127)
        m = 9
        frame = orthonormal(rng, m, k + 2)
        basis = frame[:, :k]
        d, e = (frame[:, k:] @ rng.standard_normal((2, 2))).T
        new = extend_orthonormal_columns(basis, np.column_stack([1e-13 * d, d, e]), min_total)
        assert new.shape == (m, max(2, min_total - k))
        assert_extends_orthonormally(basis, new, atol=1e-14)
        both = np.column_stack([basis, new[:, :2]])
        for vec in (d, e):
            np.testing.assert_allclose(both @ (both.T @ vec), vec, rtol=0, atol=1e-14)

    def test_nearly_spanned_column_does_not_hide_a_later_one(self):
        # a + 1e-13 d is inside span(a) up to the drop threshold, so it is dropped;
        # d, behind it, is measured against a alone and kept, and 2d after d is
        # dropped in turn. The supports are disjoint (basis, a, d and e on rows
        # 0..3, 4..7, 8..11 and 12..15), so the sums and the projection are exact
        # and the residual of a + 1e-13 d is along d
        rng = np.random.default_rng(128)
        m = 16
        basis = np.zeros((m, 4))
        basis[:4] = orthonormal(rng, 4, 4)
        a, d, e = np.zeros((3, m))
        for vec, top in ((a, 4), (d, 8), (e, 12)):
            vec[top:top + 4] = orthonormal(rng, 4, 1)[:, 0]
        for cols, spans in (([a, a + 1e-13 * d, d], [a, d]),
                            ([a, a + 1e-13 * d, 2.0 * a, d], [a, d]),
                            ([a, a + 1e-13 * d, d, 2.0 * d, e], [a, d, e])):
            new = extend_orthonormal_columns(basis, np.column_stack(cols))
            assert new.shape == (m, len(spans))
            assert_extends_orthonormally(basis, new, atol=1e-14)
            np.testing.assert_allclose(np.abs(new.T @ np.column_stack(spans)),
                                       np.eye(len(spans)), rtol=0, atol=1e-14)

    def test_leak_is_renormalized_by_the_series(self, monkeypatch):
        # a basis 1e-13 off orthonormal and columns 1e-6 outside its span: the
        # QR amplifies the projection's rounding into a leak of about 1e-7, and
        # the series for (I - leak^T leak)^(-1/2) makes the new columns
        # orthonormal within rounding, with the span of the Cholesky QR's
        series = []
        inverse_sqrt = mesh_state._inverse_sqrt_series
        monkeypatch.setattr(mesh_state, "_inverse_sqrt_series",
                            lambda defect: series.append(defect) or inverse_sqrt(defect))
        rng = np.random.default_rng(129)
        m = 40
        basis = orthonormal(rng, m, 6) + 1e-13 * rng.standard_normal((m, 6))
        cols = basis @ rng.standard_normal((6, 3)) + 1e-6 * rng.standard_normal((m, 3))
        new = extend_orthonormal_columns(basis, cols)
        assert len(series) == 1 and 1e-16 < np.trace(series[0]) <= 1e-6
        assert new.shape == (m, 3)
        np.testing.assert_allclose(new.T @ new, np.eye(3), rtol=0, atol=1e-15)
        assert np.abs(basis.T @ new).max() <= 1e-12
        monkeypatch.setattr(mesh_state, "_LEAK_SERIES_SQ", 0.0)
        by_cholesky = extend_orthonormal_columns(basis, cols)
        np.testing.assert_allclose(new @ new.T, by_cholesky @ by_cholesky.T, rtol=0, atol=1e-14)

    def test_rank_floor_padding(self):
        rng = np.random.default_rng(123)
        m = 9
        basis = np.full((m, 1), 1.0 / np.sqrt(m))
        new = extend_orthonormal_columns(basis, np.zeros((m, 2)), min_total=2)
        assert new.shape == (m, 1)
        assert_extends_orthonormally(basis, new)
        np.testing.assert_allclose(new, complete_orthonormal_columns(basis, 1), rtol=0, atol=0)
        # a new direction that already reaches the floor is not padded
        fresh = rng.standard_normal((m, 1))
        assert extend_orthonormal_columns(basis, fresh, min_total=2).shape == (m, 1)
        # the floor never asks for more columns than there are rows
        full = orthonormal(rng, 3, 2)
        assert extend_orthonormal_columns(full, np.zeros((3, 1)), min_total=5).shape == (3, 1)

    def test_new_block_is_capped_at_the_free_rows(self):
        rng = np.random.default_rng(124)
        basis = self.random_basis(rng, 8, 6)
        new = extend_orthonormal_columns(basis, rng.standard_normal((8, 5)))
        assert new.shape == (8, 2)
        assert_extends_orthonormally(basis, new)
        with pytest.raises(ValueError):
            extend_orthonormal_columns(basis, rng.standard_normal((8, 9)))
        # a basis of the whole space takes nothing more
        full = self.random_basis(rng, 8, 8)
        assert extend_orthonormal_columns(full, rng.standard_normal((8, 9)), 2).shape == (8, 0)


class TestCompleteOrthonormalColumns:
    def check_against_reference(self, basis, n_new):
        out = complete_orthonormal_columns(basis, n_new)
        ref, picked = reference_complete_orthonormal_columns(basis, n_new)
        # the same candidates as the vector-at-a-time reference, in the same order:
        # the columns match to 1e-12, and the one kept for e_i points along it
        assert out.shape == ref.shape == (basis.shape[0], n_new)
        np.testing.assert_allclose(out, ref, rtol=0.0, atol=1e-12)
        # the column kept for e_i holds its residual norm, > 0.1, at index i
        assert np.all(np.abs(out[picked, np.arange(n_new)]) > 0.1)
        np.testing.assert_allclose(basis.T @ out, 0.0, atol=1e-13)
        np.testing.assert_allclose(out.T @ out, np.eye(n_new), atol=1e-13)
        return picked

    @pytest.mark.parametrize("m,k,n_new", [(7, 3, 1), (40, 9, 1), (40, 9, 4), (101, 20, 1),
                                           (12, 0, 5), (30, 25, 5), (7, 3, 0)])
    def test_random_bases_match_reference(self, m, k, n_new):
        rng = np.random.default_rng(100 + m + k + n_new)
        basis = orthonormal(rng, m, k) if k else np.zeros((m, 0))
        self.check_against_reference(basis, n_new)

    @pytest.mark.parametrize("n_new", [1, 3])
    def test_canonical_span_rejects_leading_candidates(self, n_new):
        # a rotated basis of span(e_0..e_29): the first 30 candidates are rejected
        rng = np.random.default_rng(110)
        m = 60
        rotation = orthonormal(rng, 30, 30)
        basis = np.zeros((m, 30))
        basis[:30] = rotation
        picked = self.check_against_reference(basis, n_new)
        assert picked == list(range(30, 30 + n_new))
        np.testing.assert_allclose(np.abs(complete_orthonormal_columns(basis, n_new)),
                                   np.eye(m)[:, 30:30 + n_new], atol=1e-13)

    def test_rejected_candidate_between_kept_ones(self):
        # e_1 lies in the basis and e_0 does not: e_0 is kept, e_1 dropped, and the
        # candidates behind it are measured against the basis and e_0 alone
        rng = np.random.default_rng(113)
        m = 20
        basis = np.linalg.qr(np.column_stack([np.eye(m)[:, 1], rng.standard_normal((m, 3))]))[0]
        picked = self.check_against_reference(basis, 3)
        assert picked == [0, 2, 3]

    @pytest.mark.parametrize(("first", "second", "expected"),
                             [(0.1 + 1e-9, 0.1 - 1e-9, [0, 2, 3]),
                              (0.1 - 1e-9, 0.1 + 1e-9, [1, 2, 3])])
    def test_residuals_just_above_and_below_the_threshold(self, first, second, expected):
        # basis columns sqrt(1 - a^2) e_0 + a u and sqrt(1 - c^2) e_1 + c w, with u
        # and w orthonormal on rows 4.., leave e_0 and e_1 the residuals a and c
        rng = np.random.default_rng(114)
        m = 12
        u, w = orthonormal(rng, m - 4, 2).T
        basis = np.zeros((m, 2))
        basis[0, 0], basis[4:, 0] = np.sqrt(1.0 - first**2), first * u
        basis[1, 1], basis[4:, 1] = np.sqrt(1.0 - second**2), second * w
        assert self.check_against_reference(basis, 3) == expected

    @pytest.mark.parametrize("n_new", [1, 2])
    def test_smooth_angular_basis_matches_reference(self, n_new):
        # low Legendre modes on a quadrature-like grid, with e_0 inside the span,
        # as in the augmented angular stack of the adaptive scheme
        nodes = np.linspace(-0.95, 0.95, 40)
        smooth = orthonormal_legendre_table(12, nodes)[1:].T
        basis = np.linalg.qr(np.column_stack([np.eye(40)[:, 0], smooth]))[0]
        picked = self.check_against_reference(basis, n_new)
        assert picked[0] > 0

    def test_candidates_replace_canonical_vectors(self):
        # the rows of T as candidates: against t0 and the nodal images of the
        # first moments, the next rows are kept as they are
        ang = build_angular_operators(9)
        t0 = np.sqrt(ang.weights / 2.0)
        basis = np.column_stack([t0, ang.T_mat[:3].T])
        out = complete_orthonormal_columns(basis, 4, ang.T_mat.T)
        np.testing.assert_allclose(out, ang.T_mat[3:7].T, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n_new", [5, 6])
    def test_candidate_block_narrower_than_its_size(self, n_new):
        # 10 nodes, basis [t0 | T[:3]^T]: the block size n_new + 4 / 0.99 + 1 = 10
        # exceeds the 9 rows of T, and the last completion takes the last row
        ang = build_angular_operators(9)
        basis = np.column_stack([ang.t0, ang.T_mat[:3].T])
        out = complete_orthonormal_columns(basis, n_new, ang.rows)
        np.testing.assert_allclose(out, ang.T_mat[3:3 + n_new].T, rtol=0, atol=1e-14)

    def test_orthonormal_against_nearly_orthonormal_basis(self):
        rng = np.random.default_rng(111)
        basis = orthonormal(rng, 50, 10)
        basis = basis + 1e-15 * rng.standard_normal(basis.shape)
        self.check_against_reference(basis, 3)

    def test_too_few_directions_raise(self):
        rng = np.random.default_rng(112)
        full = orthonormal(rng, 8, 8)
        with pytest.raises(ValueError):
            complete_orthonormal_columns(full, 1)
        with pytest.raises(ValueError):
            complete_orthonormal_columns(full[:, :6], 3)
        with pytest.raises(ValueError):
            reference_complete_orthonormal_columns(full[:, :6], 3)

    def test_zero_new_columns(self):
        out = complete_orthonormal_columns(np.eye(5)[:, :2], 0)
        assert out.shape == (5, 0)


class TestEmission:
    def test_scalar_flux_linear(self):
        macro = MacroState(np.full(4, 2.0), np.zeros(4))
        np.testing.assert_allclose(scalar_flux(macro, 1.0), 2.0, atol=1e-15)

    def test_scalar_flux_with_meso(self):
        macro = MacroState(np.ones(4), np.full(4, 3.0))
        np.testing.assert_allclose(scalar_flux(macro, 0.1), 1.03, atol=1e-15)

    def test_beta_linear_is_one(self):
        # beta = dB/dT is one under the linear closure B = T: raising T by a step
        # raises the scalar flux by exactly that step
        macro = MacroState(np.linspace(0.0, 5.0, 6), np.zeros(6))
        raised = MacroState(macro.temperature + 0.25, macro.h_meso)
        np.testing.assert_array_equal(scalar_flux(raised, 0.5) - scalar_flux(macro, 0.5), 0.25)


class TestInitFromKinetic:
    def setup_method(self):
        self.grid = StaggeredGrid(-1.0, 1.0, 10)
        self.quad = gauss_legendre(9)  # 8 moments

    def test_equilibrium_gives_zero_micro(self):
        epsilon = 0.5

        def t0(x):
            return 1.0 + 0.2 * np.sin(np.pi * x)

        def f(x, mu):
            return t0(x) + 0.0 * mu

        macro, micro = init_from_kinetic(f, t0, self.grid, epsilon, self.quad)
        np.testing.assert_allclose(macro.temperature, t0(self.grid.centers), atol=1e-15)
        np.testing.assert_allclose(macro.h_meso, 0.0, atol=1e-12)
        np.testing.assert_allclose(micro.g_matrix, 0.0, atol=1e-12)

    def test_pure_first_moment(self):
        # a perturbation along the orthonormal linear polynomial lands entirely
        # in the first moment column with unit coefficient
        epsilon = 0.3

        def t0(x):
            return np.ones_like(np.asarray(x))

        def phi(x):
            return np.cos(0.5 * np.pi * x)

        def f(x, mu):
            return t0(x) + epsilon * np.sqrt(1.5) * mu * phi(x)

        macro, micro = init_from_kinetic(f, t0, self.grid, epsilon, self.quad)
        np.testing.assert_allclose(micro.g_matrix[:, 0], phi(self.grid.interfaces), atol=1e-12)
        np.testing.assert_allclose(micro.g_matrix[:, 1:], 0.0, atol=1e-12)
        np.testing.assert_allclose(macro.h_meso, 0.0, atol=1e-12)

    def test_first_moment_coefficient_scaling(self):
        # the same perturbation written against mu itself picks up the norm of
        # the linear polynomial squared, i.e. a factor 2/3
        epsilon = 0.3

        def t0(x):
            return np.ones_like(np.asarray(x))

        def f(x, mu):
            return t0(x) + epsilon * np.sqrt(2 / 3) * mu

        _, micro = init_from_kinetic(f, t0, self.grid, epsilon, self.quad)
        np.testing.assert_allclose(micro.g_matrix[:, 0], 2.0 / 3.0, atol=1e-12)

    def test_isotropic_off_equilibrium(self):
        epsilon = 0.5

        def t0(x):
            return np.full_like(np.asarray(x), 2.0)

        def f(x, mu):
            return 3.0 + 0.0 * mu + 0.0 * x

        macro, micro = init_from_kinetic(f, t0, self.grid, epsilon, self.quad)
        np.testing.assert_allclose(micro.g_matrix, 0.0, atol=1e-12)
        expected_h = (3.0 - 2.0) / epsilon**2
        np.testing.assert_allclose(macro.h_meso, expected_h, atol=1e-12)
