"""Fixed-rank basis-update & Galerkin integrator for the micro moments."""

from __future__ import annotations

import numpy as np

from .full_scheme import FullSchemeWorkspace, emission_gradient_parts, meso_macro_update
from .mesh_state import (
    LowRankMicroState,
    MacroState,
    extend_orthonormal_columns,
    padded_difference,
)

__all__ = ["step_bug_fixed"]

# The angular factor is held in nodal coordinates, W = T^T V with T = angular.T_mat.
# The flux matrices are nodal too, A+- = T diag(mu+-) T^T with mu+- = (mu +- |mu|) / 2,
# so V^T A+- V = W^T diag(mu+-) W and T^T A+- = (I - t0 t0^T) diag(mu+-) T^T: no
# step multiplies by T. The constants live in `ws.angular`. The K-step takes the
# stencil of X, diffs = padded_difference(X) (rows [:-1] are D- X, rows [1:] D+ X),
# and the L- and S-step the blocks X^T D- X and X^T sigma X of their spatial basis;
# X^T D+ X = -(X^T D- X)^T by summation by parts. Layout: a tall block that goes to
# a QR is in column (Fortran) order, the order LAPACK reads, so `np.linalg.qr` copies
# it contiguously; the K-step builds K^T, whose passes run along the grid.


def _flux_projections(w: np.ndarray, ws: FullSchemeWorkspace):
    """V^T A+ V and V^T A- V from the nodal factor W = T^T V.

    mu+ is zero on the nodes mu < 0 and mu- on the nodes mu >= 0, so each
    projection sums over its own half of the rows of W, where mu+- is mu.
    """
    mu, n = ws.angular.nodes, ws.angular.n_neg
    lower, upper = w[:n], w[n:]
    return (upper.T * mu[n:]) @ upper, (lower.T * mu[:n]) @ lower


def _spatial_blocks(x: np.ndarray, diffs: np.ndarray, ws: FullSchemeWorkspace):
    """The Galerkin blocks of a spatial basis X from its stencil: X^T D- X and X^T sigma X.

    X^T sigma X = sum_i sigma_{i+1/2} X_i X_i^T is taken before the shift of
    the implicit absorption is added, so it holds for every step size.
    """
    return x.T @ diffs[:-1], x.T @ (ws.sigma.at_interfaces[:, None] * x)


def _absorb_inverse(gram: np.ndarray, shift: float) -> np.ndarray:
    """(shift I + X^T sigma X)^-1 from gram = X^T sigma X, which is left as it is.

    The matrix is small and symmetric positive definite; one inverse and a
    product cost far less than a solve with many right-hand sides.
    """
    mat = gram.copy()
    mat.flat[::mat.shape[0] + 1] += shift
    return np.linalg.inv(mat)


def _k_update(state: LowRankMicroState, source: np.ndarray, ws: FullSchemeWorkspace,
              dt: float, diffs: np.ndarray, flux) -> np.ndarray:
    """K = X S advanced in the frozen angular basis, before orthonormalization.

    This is the modal dense update in the basis V, with flux = (V^T A+ V, V^T A- V)
    in place of A+- and V^T b = W^T T^T b in place of b; absorption is a
    pointwise division. The stencil of K is that of X times S: D+-K = (D+-X) S.
    The shift and eps scale the r x r factors, and the tall terms are accumulated
    in place into K^T (r x n), so the source and the division run along the grid
    and K, its transpose, is in column order.
    """
    eps, w, s = ws.epsilon, state.V_basis, state.S_coeff
    shift = eps**2 / dt
    flux_plus, flux_minus = flux
    rhs = (shift * s).T @ state.X_basis.T
    rhs -= (eps * (s @ flux_plus)).T @ diffs[:-1].T
    rhs -= (eps * (s @ flux_minus)).T @ diffs[1:].T
    rhs -= np.multiply.outer(w.T @ ws.angular.b, source)
    rhs /= shift + ws.sigma.at_interfaces
    return rhs.T


def _l_update(state: LowRankMicroState, ws: FullSchemeWorkspace, dt: float, blocks,
              x_source: np.ndarray) -> np.ndarray:
    """T^T L for L = V S^T advanced in the frozen spatial basis, before orthonormalization.

    blocks = (X^T D- X, X^T sigma X) and x_source = X^T source. A+ L F- + A- L F+
    with F- = (D- X)^T X and F+ = -F-^T is, in nodal coordinates,
    P (mu+ o (W S^T F-) - mu- o (W S^T F-^T)) with P = I - t0 t0^T.
    The absorption makes the implicit solve an r x r SPD system. mu+ is zero
    on the nodes mu < 0 and mu- on the nodes mu >= 0, so each product is
    taken on its own half of the rows, where mu+- is mu.
    """
    eps, ang, n = ws.epsilon, ws.angular, ws.angular.n_neg
    shift = eps**2 / dt
    flow_minus, gram = blocks
    l_nodal = state.V_basis @ state.S_coeff.T
    advect = np.empty_like(l_nodal)
    np.matmul(l_nodal[n:], flow_minus.T, out=advect[n:])
    advect[n:] *= ang.nodes[n:, None]
    np.matmul(l_nodal[:n], flow_minus, out=advect[:n])
    advect[:n] *= -ang.nodes[:n, None]
    advect -= ang.t0[:, None] * (ang.t0 @ advect)
    advect *= eps
    rhs = np.multiply(l_nodal, shift, out=l_nodal)
    rhs -= advect
    rhs -= np.multiply.outer(ang.b, x_source)
    return rhs @ _absorb_inverse(gram, shift)


def _galerkin_update(w_new: np.ndarray, s_tilde: np.ndarray, ws: FullSchemeWorkspace,
                     dt: float, blocks, x_source: np.ndarray, flux) -> np.ndarray:
    """Coefficient update in the bases X_new, W_new from the projected S and the source.

    blocks = (X_new^T D- X_new, X_new^T sigma X_new), x_source = X_new^T source
    and flux = the projections of W_new.
    """
    eps = ws.epsilon
    shift = eps**2 / dt
    flow_minus, gram = blocks
    proj_plus, proj_minus = flux
    advect = flow_minus @ s_tilde @ proj_plus - flow_minus.T @ s_tilde @ proj_minus
    rhs = (shift * s_tilde - eps * advect
           - x_source[:, None] * (w_new.T @ ws.angular.b))
    return _absorb_inverse(gram, shift) @ rhs


def _finish_step(new_state: LowRankMicroState, macro: MacroState, ws: FullSchemeWorkspace,
                 dt: float):
    """Meso/macro update from the new first moment; the step's (macro, micro)."""
    g1_new = new_state.X_basis @ (new_state.S_coeff @ (ws.angular.pin @ new_state.V_basis))
    h_new, t_new = meso_macro_update(g1_new, macro, ws, dt)
    return MacroState(t_new, h_new), new_state


def _formed_blocks(x: np.ndarray, w: np.ndarray, ws: FullSchemeWorkspace):
    """What a step reads of its bases: the stencil of X, (X^T D- X, X^T sigma X)
    and the flux projections of W."""
    diffs = padded_difference(x, ws.grid)
    return diffs, _spatial_blocks(x, diffs, ws), _flux_projections(w, ws)


def _blocks_of(state: LowRankMicroState, ws: FullSchemeWorkspace):
    """`_formed_blocks` of the state's bases: those the state carries from the
    S-step that made it, when `ws` is the workspace they were formed for, else
    formed again, with the same operations."""
    if state._blocks is not None and state._blocks[0] is ws:
        return state._blocks[1]
    return _formed_blocks(state.X_basis, state.V_basis, ws)


def step_bug_fixed(macro: MacroState, state: LowRankMicroState, ws: FullSchemeWorkspace,
                   dt: float):
    """One fixed-rank step: K- and L-step from time-n data, S-step, then meso/macro.

    The rank is preserved: directions missing from a rank-deficient K or L are
    padded by the orthonormalization, the angular ones with rows of T. The new
    angular basis is orthogonalized against t0, which lies outside range(T^T).
    The emission source is evaluated once and shared by the three substeps.
    The K- and L-step read the stencil and Galerkin blocks of the old bases,
    which the previous step's S-step formed (`_blocks_of`), and the new state
    carries the blocks its S-step forms for the new bases to the next step.
    """
    ws.check_step(macro, state.X_basis.shape[0], state.V_basis.shape[0], dt)

    r, ang, x = state.rank, ws.angular, state.X_basis
    source = emission_gradient_parts(macro, ws)[1]
    diffs, blocks, flux = _blocks_of(state, ws)
    x_new = extend_orthonormal_columns(np.empty((x.shape[0], 0)),
                                       _k_update(state, source, ws, dt, diffs, flux), r)
    w_new = extend_orthonormal_columns(ang.t0[:, None],
                                       _l_update(state, ws, dt, blocks, x.T @ source),
                                       r + 1, ang.rows)
    s_tilde = (x_new.T @ x) @ state.S_coeff @ (state.V_basis.T @ w_new)
    formed = _formed_blocks(x_new, w_new, ws)
    s_new = _galerkin_update(w_new, s_tilde, ws, dt, formed[1], x_new.T @ source, formed[2])
    return _finish_step(LowRankMicroState._trusted(x_new, s_new, w_new, (ws, formed)),
                        macro, ws, dt)
