import numpy as np
import pytest

from slabtrt.angular import (
    NORM_P0,
    NORM_P1,
    build_angular_operators,
    gauss_legendre,
    orthonormal_legendre,
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


class TestGaussLegendre:
    def test_one_point_rule(self):
        q = gauss_legendre(1)
        assert q.nodes.tolist() == [0.0]
        assert q.weights.tolist() == [2.0]

    def test_two_point_rule(self):
        q = gauss_legendre(2)
        np.testing.assert_allclose(q.nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
        np.testing.assert_allclose(q.weights, [1.0, 1.0], atol=1e-15)

    def test_three_point_rule(self):
        q = gauss_legendre(3)
        np.testing.assert_allclose(q.nodes, [-np.sqrt(0.6), 0.0, np.sqrt(0.6)], atol=1e-15)
        np.testing.assert_allclose(q.weights, [5 / 9, 8 / 9, 5 / 9], atol=1e-15)

    @pytest.mark.parametrize("count", [2, 3, 5, 8, 16, 51, 101])
    def test_weight_sum_and_symmetry(self, count):
        q = gauss_legendre(count)
        assert abs(q.weights.sum() - 2.0) <= 1e-13
        assert np.all(np.diff(q.nodes) > 0)
        np.testing.assert_allclose(q.nodes, -q.nodes[::-1], atol=1e-13)
        np.testing.assert_allclose(q.weights, q.weights[::-1], atol=1e-13)

    @pytest.mark.parametrize("count", [1, 2, 3, 7, 20, 101])
    def test_monomial_exactness(self, count):
        q = gauss_legendre(count)
        for p in range(2 * count):
            exact = 0.0 if p % 2 == 1 else 2.0 / (p + 1)
            approx = q.integrate(q.nodes**p)
            assert abs(approx - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_deterministic(self):
        a, b = gauss_legendre(33), gauss_legendre(33)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.weights, b.weights)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)


class TestOrthonormalLegendre:
    def test_constant(self):
        assert orthonormal_legendre(0, 0.37) == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_linear_at_one(self):
        # reference recurrence gives P~_1(1)/||P~_1|| = 1/sqrt(2/3)
        assert reference_orthonormal_legendre(1, 1.0) == pytest.approx(np.sqrt(1.5), abs=1e-15)
        assert orthonormal_legendre(1, 1.0) == pytest.approx(np.sqrt(1.5), abs=1e-15)

    def test_quadratic_at_zero(self):
        expected = reference_orthonormal_legendre(2, 0.0)
        assert expected == pytest.approx(-np.sqrt(5.0 / 8.0), abs=1e-15)
        assert orthonormal_legendre(2, 0.0) == pytest.approx(expected, abs=1e-15)

    def test_matches_reference_recurrence(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(0, 25))
            x = float(rng.uniform(-1, 1))
            assert orthonormal_legendre(k, x) == pytest.approx(
                reference_orthonormal_legendre(k, x), abs=1e-12, rel=1e-12)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            orthonormal_legendre(3, 1.0001)

    def test_recurrence_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            k = int(rng.integers(0, 31))
            x = float(rng.uniform(-1, 1))
            lhs = x * orthonormal_legendre(k, x)
            rhs = recurrence_coeff(k) * orthonormal_legendre(k + 1, x)
            if k > 0:
                rhs += recurrence_coeff(k - 1) * orthonormal_legendre(k - 1, x)
            assert abs(lhs - rhs) <= 1e-12

    def test_a0_value(self):
        assert recurrence_coeff(0) == pytest.approx(1 / np.sqrt(3), abs=1e-16)


class TestAngularOperators:
    def test_flux_matrix_n2(self):
        ops = build_angular_operators(2)
        a1 = 2 / np.sqrt(15)
        np.testing.assert_allclose(ops.A, [[0.0, a1], [a1, 0.0]], atol=1e-14)

    def test_stabilization_matrix_n2_against_direct_summation(self):
        # direct summation over the 3-point rule with independently evaluated
        # polynomials; off-diagonals vanish by parity
        q = gauss_legendre(3)
        direct = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                direct[i, j] = sum(
                    w * abs(mu) * reference_orthonormal_legendre(i + 1, mu)
                    * reference_orthonormal_legendre(j + 1, mu)
                    for w, mu in zip(q.weights, q.nodes))
        ops = build_angular_operators(2)
        np.testing.assert_allclose(ops.A_abs, direct, atol=1e-14)
        np.testing.assert_allclose(
            np.diag(ops.A_abs), [0.7745966692414834, 0.34426518632954817], atol=1e-13)
        assert abs(ops.A_abs[0, 1]) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_split_consistency(self, n):
        ops = build_angular_operators(n)
        assert np.max(np.abs(ops.A_plus + ops.A_minus - ops.A)) <= 1e-14
        assert np.max(np.abs(ops.A_plus - ops.A_minus - ops.A_abs)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 50, 101, 400])
    def test_tridiagonal_structure(self, n):
        ops = build_angular_operators(n)
        expected = np.zeros((n, n))
        for k in range(1, n):
            expected[k - 1, k] = expected[k, k - 1] = recurrence_coeff(k)
        assert np.max(np.abs(ops.A - expected)) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 101, 400])
    def test_stabilization_matrix_couples_equal_parity_only(self, n):
        # the dense step applies the nodal |A| as one block per parity of moments
        ops = build_angular_operators(n)
        odd = np.add.outer(np.arange(n), np.arange(n)) % 2 == 1
        nodal_abs = (ops.T_mat * np.abs(ops.quad.nodes)) @ ops.T_mat.T
        assert np.max(np.abs(nodal_abs[odd]), initial=0.0) <= 1e-15
        assert np.max(np.abs(ops.A_abs[odd]), initial=0.0) <= 1e-15

    def test_factorization_consistency(self):
        ops = build_angular_operators(7)
        mu = ops.quad.nodes
        np.testing.assert_allclose(ops.A, (ops.T_mat * mu) @ ops.T_mat.T, atol=1e-13)
        np.testing.assert_allclose(ops.A_abs, (ops.T_mat * np.abs(mu)) @ ops.T_mat.T, atol=1e-13)
        np.testing.assert_allclose(
            ops.A_plus, 0.5 * (ops.T_mat * (mu + np.abs(mu))) @ ops.T_mat.T, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 6, 15])
    def test_split_definiteness(self, n):
        ops = build_angular_operators(n)
        assert np.linalg.eigvalsh(ops.A_plus).min() >= -1e-12
        assert np.linalg.eigvalsh(ops.A_minus).max() <= 1e-12

    def test_source_vectors(self):
        ops = build_angular_operators(4)
        assert ops.b_vec[0] == pytest.approx(NORM_P1, abs=1e-16)
        assert np.all(ops.b_vec[1:] == 0.0)
        np.testing.assert_allclose(ops.a_vec, ops.b_vec / NORM_P0, atol=1e-16)
        assert ops.a_vec[0] == pytest.approx(1 / np.sqrt(3), abs=1e-15)

    def test_beta_constant(self):
        ops = build_angular_operators(4)
        assert ops.beta_N == pytest.approx(np.max(ops.quad.weights) * 5, abs=1e-16)

    def test_invalid_moment_count(self):
        with pytest.raises(ValueError):
            build_angular_operators(0)
