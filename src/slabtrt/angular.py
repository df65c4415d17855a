"""Legendre polynomials, Gauss-Legendre quadrature, and the angular operators."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "NORM_P0",
    "NORM_P1",
    "QuadratureRule",
    "AngularOperators",
    "recurrence_coeff",
    "gauss_legendre",
    "orthonormal_legendre",
    "orthonormal_legendre_table",
    "build_angular_operators",
]

# L2([-1,1]) norms of the constant and linear Legendre polynomials.
NORM_P0 = float(np.sqrt(2.0))
NORM_P1 = float(np.sqrt(2.0 / 3.0))

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


def recurrence_coeff(k: int) -> float:
    """Coupling coefficient of the orthonormal three-term recurrence.

    mu * P_k = a_{k-1} P_{k-1} + a_k P_{k+1} with a_k = (k+1)/sqrt((2k+1)(2k+3)).
    """
    return (k + 1.0) / np.sqrt((2.0 * k + 1.0) * (2.0 * k + 3.0))


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray
    count: int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if self.count < 1:
            raise ValueError("quadrature count must be a positive integer")
        if nodes.shape != (self.count,) or weights.shape != (self.count,):
            raise ValueError("nodes/weights length must equal count")
        if not np.all(weights > 0.0):
            raise ValueError("quadrature weights must be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def integrate(self, values: np.ndarray) -> float:
        """Integrate samples taken at the nodes over [-1, 1]."""
        return float(np.dot(self.weights, values))


def _legendre_with_derivative(n: int, x: np.ndarray):
    """Standard-normalization Legendre P_n and its derivative at points x with |x| < 1."""
    p_prev = np.ones_like(x)
    p = np.array(x, dtype=float, copy=True)
    for k in range(2, n + 1):
        p, p_prev = ((2.0 * k - 1.0) * x * p - (k - 1.0) * p_prev) / k, p
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_legendre(count: int) -> QuadratureRule:
    """Gauss-Legendre rule with `count` nodes, exact for polynomials of degree 2*count - 1.

    Nodes are Newton-refined from Chebyshev-type initial guesses; one half-axis is
    computed and mirrored so that the rule is symmetric to the last bit.
    """
    if count < 1:
        raise ValueError("count must be a positive integer")
    if count == 1:
        return QuadratureRule(np.array([0.0]), np.array([2.0]), 1)

    n_half = count // 2
    i = np.arange(1, n_half + 1, dtype=float)
    x = np.cos(np.pi * (i - 0.25) / (count + 0.5))  # positive half, descending
    for _ in range(_NEWTON_MAX_ITER):
        p, dp = _legendre_with_derivative(count, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= _NEWTON_TOL:
            break
    _, dp = _legendre_with_derivative(count, x)
    w_half = 2.0 / ((1.0 - x * x) * dp * dp)

    if count % 2 == 1:
        zero = np.zeros(1)
        _, dp0 = _legendre_with_derivative(count, zero)
        w_mid = 2.0 / (dp0 * dp0)
        nodes = np.concatenate([-x, zero, x[::-1]])
        weights = np.concatenate([w_half, w_mid, w_half[::-1]])
    else:
        nodes = np.concatenate([-x, x[::-1]])
        weights = np.concatenate([w_half, w_half[::-1]])
    return QuadratureRule(nodes, weights, count)


def orthonormal_legendre(k: int, x):
    """Evaluate the k-th orthonormal Legendre polynomial on [-1, 1].

    Uses the orthonormal three-term recurrence; P_0 = 1/sqrt(2).
    """
    if k < 0:
        raise ValueError("polynomial degree must be nonnegative")
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > 1.0):
        raise ValueError("orthonormal_legendre requires |x| <= 1")
    p_prev = np.zeros_like(arr)
    p = np.full_like(arr, 1.0 / NORM_P0)
    for j in range(k):
        a_prev = recurrence_coeff(j - 1) if j > 0 else 0.0
        p, p_prev = (arr * p - a_prev * p_prev) / recurrence_coeff(j), p
    if np.isscalar(x) or arr.ndim == 0:
        return float(p)
    return p


def orthonormal_legendre_table(k_max: int, x: np.ndarray) -> np.ndarray:
    """Rows k = 0..k_max of the orthonormal Legendre polynomials at points x."""
    x = np.asarray(x, dtype=float)
    table = np.empty((k_max + 1, x.size))
    table[0] = 1.0 / NORM_P0
    if k_max >= 1:
        table[1] = x * np.sqrt(1.5)
    for k in range(1, k_max):
        table[k + 1] = (x * table[k] - recurrence_coeff(k - 1) * table[k - 1]) / recurrence_coeff(k)
    return table


@dataclass(frozen=True)
class AngularOperators:
    """Nodal transformation and source vectors of the moment system.

    The transformation T_mat holds sqrt(w_k) P_i(mu_k) for moments i = 1..N; its
    rows are orthonormal. The flux matrix A = T M T^T with M = diag(mu_k), its
    upwind parts with (M +- |M|)/2 and the stabilization matrix with |M| are
    computed on first access: no step reads them, they are test references.
    """

    n_moments: int
    quad: QuadratureRule
    T_mat: np.ndarray
    b_vec: np.ndarray
    a_vec: np.ndarray
    beta_N: float

    def __post_init__(self):
        n = self.n_moments
        if n < 1:
            raise ValueError("n_moments must be a positive integer")
        if self.T_mat.shape != (n, n + 1):
            raise ValueError("T_mat must be n_moments x (n_moments + 1)")
        for name in ("T_mat", "b_vec", "a_vec"):
            getattr(self, name).setflags(write=False)

    def _read_only(self, mat: np.ndarray) -> np.ndarray:
        mat.setflags(write=False)
        return mat

    A_plus = cached_property(lambda self: self._read_only(0.5 * (
        self.T_mat * (self.quad.nodes + np.abs(self.quad.nodes))) @ self.T_mat.T))
    A_minus = cached_property(lambda self: self._read_only(0.5 * (
        self.T_mat * (self.quad.nodes - np.abs(self.quad.nodes))) @ self.T_mat.T))
    A = cached_property(lambda self: self._read_only(self.A_plus + self.A_minus))
    A_abs = cached_property(lambda self: self._read_only(self.A_plus - self.A_minus))


def build_angular_operators(n_moments: int) -> AngularOperators:
    """Assemble the angular operators for a moment system with moments 1..n_moments."""
    if n_moments < 1:
        raise ValueError("n_moments must be a positive integer")
    quad = gauss_legendre(n_moments + 1)
    table = orthonormal_legendre_table(n_moments, quad.nodes)
    t_mat = np.sqrt(quad.weights)[None, :] * table[1:, :]

    b_vec = np.zeros(n_moments)
    b_vec[0] = NORM_P1
    a_vec = b_vec / NORM_P0
    beta_n = float(np.max(quad.weights) * (n_moments + 1))
    return AngularOperators(
        n_moments=n_moments,
        quad=quad,
        T_mat=t_mat,
        b_vec=b_vec,
        a_vec=a_vec,
        beta_N=beta_n,
    )
