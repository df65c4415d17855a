import dataclasses

import numpy as np
import pytest

from oracles import flux_matrices, modal_b
from slabtrt import angular
from slabtrt.angular import (
    NORM_P1,
    AngularOperators,
    build_angular_operators,
    gauss_legendre,
    orthonormal_legendre_table,
    recurrence_coeff,
)


def reference_orthonormal_legendre(k, x):
    """Independent evaluation: standard recurrence, then divide by the L2 norm."""
    p_prev, p = 1.0, x
    if k == 0:
        return 1.0 / np.sqrt(2.0)
    for j in range(2, k + 1):
        p, p_prev = ((2 * j - 1) * x * p - (j - 1) * p_prev) / j, p
    return p / np.sqrt(2.0 / (2 * k + 1))


def legendre(k, x):
    """Row k of the package's table at the single point x."""
    return float(orthonormal_legendre_table(k, np.array([x]))[k, 0])


class TestGaussLegendre:
    def test_one_point_rule(self):
        nodes, weights = gauss_legendre(1)
        assert nodes.tolist() == [0.0]
        assert weights.tolist() == [2.0]

    def test_two_point_rule(self):
        nodes, weights = gauss_legendre(2)
        np.testing.assert_allclose(nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
        np.testing.assert_allclose(weights, [1.0, 1.0], atol=1e-15)

    def test_three_point_rule(self):
        nodes, weights = gauss_legendre(3)
        np.testing.assert_allclose(nodes, [-np.sqrt(0.6), 0.0, np.sqrt(0.6)], atol=1e-15)
        np.testing.assert_allclose(weights, [5 / 9, 8 / 9, 5 / 9], atol=1e-15)

    @pytest.mark.parametrize("count", [2, 3, 5, 8, 16, 51, 101, 401])
    def test_weight_sum_and_symmetry(self, count):
        nodes, weights = gauss_legendre(count)
        assert abs(weights.sum() - 2.0) <= 1e-13
        assert np.all(np.diff(nodes) > 0)
        np.testing.assert_allclose(nodes, -nodes[::-1], atol=1e-13)
        np.testing.assert_allclose(weights, weights[::-1], atol=1e-13)

    @pytest.mark.parametrize("count", [*range(1, 41), 101, 401, 1001])
    def test_monomial_exactness(self, count):
        nodes, weights = gauss_legendre(count)
        for p in range(2 * count):
            exact = 0.0 if p % 2 == 1 else 2.0 / (p + 1)
            approx = float(weights @ nodes**p)
            assert abs(approx - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_weights_match_the_derivative_formula(self):
        # the Christoffel sums of the table against the classical 2 / ((1 - x^2) P_n'(x)^2),
        # with P_n' evaluated independently, by numpy's Legendre series
        count = 401
        nodes, weights = gauss_legendre(count)
        dp = np.polynomial.Legendre.basis(count).deriv()(nodes)
        np.testing.assert_allclose(weights, 2.0 / ((1.0 - nodes**2) * dp**2),
                                   rtol=1e-11, atol=0.0)

    def test_newton_sweeps_are_the_table_and_the_last_gives_the_weights(self, monkeypatch):
        # each Newton sweep is one table of rows 0..count, and the sweep whose step
        # is within the tolerance gives the weights too. Olver's start is close
        # enough from count 23 on that one sweep steps and the second stops
        table = angular.orthonormal_legendre_table
        calls = []

        def counted(k_max, x):
            calls.append(k_max)
            return table(k_max, x)

        monkeypatch.setattr(angular, "orthonormal_legendre_table", counted)
        for count in [*range(2, 200), 401, 801, 1001]:
            calls.clear()
            gauss_legendre(count)
            assert set(calls) == {count}, count
            assert len(calls) <= (2 if count >= 23 else 3), count

    def test_deterministic(self):
        (a_nodes, a_weights), (b_nodes, b_weights) = gauss_legendre(33), gauss_legendre(33)
        assert np.array_equal(a_nodes, b_nodes)
        assert np.array_equal(a_weights, b_weights)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)

    @pytest.mark.parametrize("count", [1, 3])
    def test_middle_node_is_exact_zero(self, count):
        # mirroring the half-axis must not turn the middle node into -0.0
        mid = gauss_legendre(count)[0][count // 2]
        assert mid == 0.0 and not np.signbit(mid)

    def test_unconverged_newton_raises(self, monkeypatch):
        monkeypatch.setattr(angular, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(ValueError, match="did not converge in 1 Newton sweeps"):
            gauss_legendre(20)


class TestOrthonormalLegendre:
    def test_constant(self):
        assert legendre(0, 0.37) == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_linear_at_one(self):
        # reference recurrence gives P~_1(1)/||P~_1|| = 1/sqrt(2/3)
        assert reference_orthonormal_legendre(1, 1.0) == pytest.approx(np.sqrt(1.5), abs=1e-15)
        assert legendre(1, 1.0) == pytest.approx(np.sqrt(1.5), abs=1e-15)

    def test_quadratic_at_zero(self):
        expected = reference_orthonormal_legendre(2, 0.0)
        assert expected == pytest.approx(-np.sqrt(5.0 / 8.0), abs=1e-15)
        assert legendre(2, 0.0) == pytest.approx(expected, abs=1e-15)

    def test_matches_reference_recurrence(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(0, 25))
            x = float(rng.uniform(-1, 1))
            assert legendre(k, x) == pytest.approx(
                reference_orthonormal_legendre(k, x), abs=1e-12, rel=1e-12)

    def test_table_rows_at_many_points(self):
        x = np.linspace(-1.0, 1.0, 41)
        table = orthonormal_legendre_table(12, x)
        assert table.shape == (13, 41)
        for k in range(13):
            want = [reference_orthonormal_legendre(k, xi) for xi in x]
            np.testing.assert_allclose(table[k], want, rtol=1e-12, atol=1e-12)

    def test_recurrence_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            k = int(rng.integers(0, 31))
            x = float(rng.uniform(-1, 1))
            row = orthonormal_legendre_table(k + 1, np.array([x]))[:, 0]
            lhs = x * row[k]
            rhs = recurrence_coeff(k) * row[k + 1]
            if k > 0:
                rhs += recurrence_coeff(k - 1) * row[k - 1]
            assert abs(lhs - rhs) <= 1e-12

    def test_a0_value(self):
        assert recurrence_coeff(0) == pytest.approx(1 / np.sqrt(3), abs=1e-16)


class TestAngularOperators:
    def test_flux_matrix_n2(self):
        fm = flux_matrices(build_angular_operators(2))
        a1 = 2 / np.sqrt(15)
        np.testing.assert_allclose(fm.A, [[0.0, a1], [a1, 0.0]], atol=1e-14)

    def test_stabilization_matrix_n2_against_direct_summation(self):
        # direct summation over the 3-point rule with independently evaluated
        # polynomials; off-diagonals vanish by parity
        nodes, weights = gauss_legendre(3)
        direct = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                direct[i, j] = sum(
                    w * abs(mu) * reference_orthonormal_legendre(i + 1, mu)
                    * reference_orthonormal_legendre(j + 1, mu)
                    for w, mu in zip(weights, nodes))
        a_abs = flux_matrices(build_angular_operators(2)).A_abs
        np.testing.assert_allclose(a_abs, direct, atol=1e-14)
        np.testing.assert_allclose(
            np.diag(a_abs), [0.7745966692414834, 0.34426518632954817], atol=1e-13)
        assert abs(a_abs[0, 1]) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_split_consistency(self, n):
        fm = flux_matrices(build_angular_operators(n))
        assert np.max(np.abs(fm.A_plus + fm.A_minus - fm.A)) <= 1e-14
        assert np.max(np.abs(fm.A_plus - fm.A_minus - fm.A_abs)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 50, 101, 400])
    def test_tridiagonal_structure(self, n):
        a_mat = flux_matrices(build_angular_operators(n)).A
        expected = np.zeros((n, n))
        for k in range(1, n):
            expected[k - 1, k] = expected[k, k - 1] = recurrence_coeff(k)
        assert np.max(np.abs(a_mat - expected)) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 101, 400])
    def test_stabilization_matrix_couples_equal_parity_only(self, n):
        ops = build_angular_operators(n)
        odd = np.add.outer(np.arange(n), np.arange(n)) % 2 == 1
        nodal_abs = (ops.T_mat * np.abs(ops.nodes)) @ ops.T_mat.T
        assert np.max(np.abs(nodal_abs[odd]), initial=0.0) <= 1e-15
        assert np.max(np.abs(flux_matrices(ops).A_abs[odd]), initial=0.0) <= 1e-15

    def test_factorization_consistency(self):
        ops = build_angular_operators(7)
        fm, mu = flux_matrices(ops), ops.nodes
        np.testing.assert_allclose(fm.A, (ops.T_mat * mu) @ ops.T_mat.T, atol=1e-13)
        np.testing.assert_allclose(fm.A_abs, (ops.T_mat * np.abs(mu)) @ ops.T_mat.T, atol=1e-13)
        np.testing.assert_allclose(
            fm.A_plus, 0.5 * (ops.T_mat * (mu + np.abs(mu))) @ ops.T_mat.T, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 6, 15])
    def test_split_definiteness(self, n):
        fm = flux_matrices(build_angular_operators(n))
        assert np.linalg.eigvalsh(fm.A_plus).min() >= -1e-12
        assert np.linalg.eigvalsh(fm.A_minus).max() <= 1e-12

    def test_source_vectors(self):
        # b~ = T^T b with b = |P_1| e_1, and T b~ gives b back (T has orthonormal rows)
        ops = build_angular_operators(4)
        b = modal_b(ops)
        assert b[0] == pytest.approx(NORM_P1, abs=1e-16)
        assert np.all(b[1:] == 0.0)
        np.testing.assert_array_equal(ops.b, NORM_P1 * ops.T_mat[0])
        np.testing.assert_array_equal(ops.pin, ops.T_mat[0])
        np.testing.assert_allclose(ops.T_mat @ ops.b, b, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_nodal_constants(self, n):
        ops = build_angular_operators(n)
        t_mat = ops.T_mat
        np.testing.assert_array_equal(ops.t0, np.sqrt(ops.weights) / np.sqrt(2.0))
        # T^T T = I - t0 t0^T: range(T^T) is the complement of t0
        np.testing.assert_allclose(t_mat.T @ t_mat, np.eye(n + 1) - np.outer(ops.t0, ops.t0),
                                   rtol=0, atol=1e-14)
        np.testing.assert_array_equal(ops.t0_b, np.stack([ops.t0, ops.b]))
        np.testing.assert_array_equal(ops.rows, t_mat.T)
        for name in ("nodes", "weights", "T_mat", "t0", "pin", "b", "t0_b", "rows"):
            assert not getattr(ops, name).flags.writeable, name

    def test_upwind_halves_are_the_nodes(self):
        # the BUG kernels scale by the nodes [n_neg:] for mu+ = (mu + |mu|) / 2 and
        # by the nodes [:n_neg] for mu- = (mu - |mu|) / 2: bit for bit the same
        for n in [*range(1, 130), 200, 400, 800]:
            ops = build_angular_operators(n)
            mu, neg = ops.nodes, ops.n_neg
            mu_plus, mu_minus = (0.5 * (mu + np.abs(mu)))[neg:], (0.5 * (mu - np.abs(mu)))[:neg]
            assert np.array_equal(mu_plus.view(np.uint64), mu[neg:].view(np.uint64)), n
            assert np.array_equal(mu_minus.view(np.uint64), mu[:neg].view(np.uint64)), n

    @pytest.mark.parametrize("n", [*range(1, 41), 50, 99, 100, 101, 200, 399, 400, 401])
    def test_mirrored_table_is_the_table_on_every_node(self, n):
        # the table is evaluated on the non-negative nodes and mirrored with signs
        # (-1)^i: bit for bit, sign of zero included, the table on all nodes
        ops = build_angular_operators(n)
        want = np.sqrt(ops.weights) * orthonormal_legendre_table(n, ops.nodes)[1:]
        assert np.array_equal(ops.T_mat.view(np.uint64), want.view(np.uint64))

    def test_rows_orthonormal_at_pulse_large_size(self):
        # N = 400 is the moment count of the largest benchmark workload
        ops = build_angular_operators(400)
        gram = ops.T_mat @ ops.T_mat.T
        assert np.max(np.abs(gram - np.eye(400))) <= 1e-13
        assert np.max(np.abs(ops.T_mat @ ops.t0)) <= 1e-13

    def test_beta_constant(self):
        ops = build_angular_operators(4)
        assert ops.beta_N == pytest.approx(np.max(ops.weights) * 5, abs=1e-16)

    def test_invalid_moment_count(self):
        with pytest.raises(ValueError, match="n_moments must be a positive integer"):
            build_angular_operators(0)

    def test_inputs_checked(self):
        # the moment count is the row count of T_mat; nothing else states it
        ops = build_angular_operators(3)
        nodes, weights, t_mat = ops.nodes, ops.weights, ops.T_mat
        assert AngularOperators(list(nodes), list(weights), t_mat.tolist()).n_moments == 3
        # float arrays are taken, not copied, and frozen: the record is built once per run
        given = [np.array(nodes), np.array(weights), np.array(t_mat)]
        held = AngularOperators(*given)
        assert all(a is b for a, b in zip((held.nodes, held.weights, held.T_mat), given))
        assert not any(arr.flags.writeable for arr in given)
        for bad in (t_mat[:, :3], t_mat[:0, :1], t_mat[0], t_mat.T, t_mat[None]):
            with pytest.raises(ValueError, match="T_mat must be n_moments x"):
                AngularOperators(nodes, weights, bad)
        for bad_nodes, bad_weights in ((nodes[:3], weights), (nodes, weights[:, None]),
                                       (nodes, np.ones(5))):
            with pytest.raises(ValueError, match="nodes and weights must be 1-d"):
                AngularOperators(bad_nodes, bad_weights, t_mat)
        for bad in (0.0, -0.5, np.nan):
            bad_weights = weights.copy()
            bad_weights[1] = bad
            with pytest.raises(ValueError, match="weights must be positive"):
                AngularOperators(nodes, bad_weights, t_mat)

    def test_replace_derives_every_constant_again(self):
        # nodes, weights and T_mat are the only inputs: replaced by those of another
        # moment count, they give the record built for that count, field by field
        small, large = build_angular_operators(5), build_angular_operators(8)
        inputs = [f.name for f in dataclasses.fields(small) if f.init]
        assert inputs == ["nodes", "weights", "T_mat"]
        moved = dataclasses.replace(small, nodes=large.nodes, weights=large.weights,
                                    T_mat=large.T_mat)
        for f in dataclasses.fields(large):
            got, want = getattr(moved, f.name), getattr(large, f.name)
            assert type(got) is type(want) and np.array_equal(got, want), f.name
        # a NaN T_mat reaches every constant read from it, and no other
        poisoned = dataclasses.replace(small, T_mat=np.full((5, 6), np.nan))
        for name in ("pin", "b", "rows"):
            assert np.isnan(getattr(poisoned, name)).all(), name
        assert np.isnan(poisoned.t0_b[1]).all()
        np.testing.assert_array_equal(poisoned.t0_b[0], small.t0)
        for name in ("nodes", "weights", "t0", "n_moments", "beta_N", "n_neg"):
            assert np.array_equal(getattr(poisoned, name), getattr(small, name)), name
