"""Legendre polynomials, Gauss-Legendre quadrature, and the angular operators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NORM_P0",
    "NORM_P1",
    "QuadratureRule",
    "AngularOperators",
    "recurrence_coeff",
    "gauss_legendre",
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

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.size < 1 or weights.shape != nodes.shape:
            raise ValueError("nodes and weights must be nonempty 1-d arrays of equal length")
        if not np.all(weights > 0.0):
            raise ValueError("quadrature weights must be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


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
        return QuadratureRule(np.array([0.0]), np.array([2.0]))

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
    return QuadratureRule(nodes, weights)


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
    """Nodal transformation of the moment system and the angular constants of the steps.

    The transformation T_mat holds sqrt(w_k) P_i(mu_k) for moments i = 1..N; its
    rows are orthonormal. The steps hold the micro moments as g T (dense) and
    the angular factor as W = T^T V (low rank): in nodal coordinates. T^T T =
    I - t0 t0^T, so range(T^T) is the complement of t0 and W has the inner
    products of V; the flux projections V^T A+- V = W^T diag(mu+-) W of
    A+- = T diag(mu+-) T^T need no T. Every array is read-only.
    """

    n_moments: int
    quad: QuadratureRule
    T_mat: np.ndarray
    beta_N: float
    t0: np.ndarray  # sqrt(w) P_0(mu), the nodal constant moment
    pin: np.ndarray  # T^T e_1, the nodal b/|b| that W[:, 0] must equal
    b: np.ndarray  # T^T b = |P_1| pin, the nodal source direction
    t0_b: np.ndarray  # the rows t0 and b: the two rank-one directions of the dense step
    mu_plus: np.ndarray  # (mu + |mu|) / 2
    mu_minus: np.ndarray  # (mu - |mu|) / 2
    rows: np.ndarray  # T^T: its columns, the rows of T, are the padding candidates

    def __post_init__(self):
        n = self.n_moments
        if n < 1:
            raise ValueError("n_moments must be a positive integer")
        if self.T_mat.shape != (n, n + 1):
            raise ValueError("T_mat must be n_moments x (n_moments + 1)")
        for name in ("T_mat", "t0", "pin", "b", "t0_b", "mu_plus", "mu_minus", "rows"):
            getattr(self, name).setflags(write=False)


def build_angular_operators(n_moments: int) -> AngularOperators:
    """Assemble the angular operators for a moment system with moments 1..n_moments."""
    if n_moments < 1:
        raise ValueError("n_moments must be a positive integer")
    quad = gauss_legendre(n_moments + 1)
    table = orthonormal_legendre_table(n_moments, quad.nodes)
    t_mat = np.sqrt(quad.weights)[None, :] * table[1:, :]

    mu, mu_abs = quad.nodes, np.abs(quad.nodes)
    t0, pin = np.sqrt(quad.weights) / NORM_P0, t_mat[0].copy()
    b = NORM_P1 * pin
    return AngularOperators(
        n_moments=n_moments,
        quad=quad,
        T_mat=t_mat,
        beta_N=float(np.max(quad.weights) * (n_moments + 1)),
        t0=t0,
        pin=pin,
        b=b,
        t0_b=np.stack([t0, b]),
        mu_plus=0.5 * (mu + mu_abs),
        mu_minus=0.5 * (mu - mu_abs),
        rows=t_mat.T.copy(),
    )
