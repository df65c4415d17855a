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
# step multiplies by T. The constants live in `ws.angular`. Each substep takes the
# stencil of its spatial basis, diffs = padded_difference(X) (rows [:-1] are D- X,
# rows [1:] D+ X); X^T D+ X = -(X^T D- X)^T by summation by parts for both bcs.


def _flux_projections(w: np.ndarray, ws: FullSchemeWorkspace):
    """V^T A+ V and V^T A- V from the nodal factor W = T^T V."""
    ang = ws.angular
    return (w.T * ang.mu_plus) @ w, (w.T * ang.mu_minus) @ w


def _absorb_inverse(x: np.ndarray, shift: float, ws: FullSchemeWorkspace) -> np.ndarray:
    """(shift I + X^T sigma X)^-1, with C = X^T sigma X = sum_i sigma_{i+1/2} X_i X_i^T.

    The matrix is small and symmetric positive definite; one inverse and a
    product cost far less than a solve with many right-hand sides.
    """
    mat = x.T @ (ws.sigma.at_interfaces[:, None] * x)
    mat.flat[::mat.shape[0] + 1] += shift
    return np.linalg.inv(mat)


def _k_update(state: LowRankMicroState, source: np.ndarray, ws: FullSchemeWorkspace,
              dt: float, diffs: np.ndarray) -> np.ndarray:
    """K = X S advanced in the frozen angular basis, before orthonormalization.

    This is the modal dense update in the basis V, with V^T A+- V in place of A+-
    and V^T b = W^T T^T b in place of b; absorption is a pointwise division. The
    stencil of K is that of X times S: D+-K = (D+-X) S.
    """
    p, w, s = ws.params, state.V_basis, state.S_coeff
    shift = p.epsilon**2 / (p.c * dt)
    flux_plus, flux_minus = _flux_projections(w, ws)
    advect = diffs[:-1] @ (s @ flux_plus) + diffs[1:] @ (s @ flux_minus)
    rhs = (shift * (state.X_basis @ s) - p.epsilon * advect
           - source[:, None] * (w.T @ ws.angular.b))
    rhs /= (shift + ws.sigma.at_interfaces)[:, None]
    return rhs


def _l_update(state: LowRankMicroState, source: np.ndarray, ws: FullSchemeWorkspace,
              dt: float, diffs: np.ndarray) -> np.ndarray:
    """T^T L for L = V S^T advanced in the frozen spatial basis, before orthonormalization.

    A+ L F- + A- L F+ with F-+ = (D-+ X)^T X and F+ = -F-^T is, in nodal
    coordinates, P (mu+ o (W S^T F-) - mu- o (W S^T F-^T)) with P = I - t0 t0^T.
    The absorption makes the implicit solve an r x r SPD system.
    """
    p, ang, x = ws.params, ws.angular, state.X_basis
    shift = p.epsilon**2 / (p.c * dt)
    f_minus = (x.T @ diffs[:-1]).T
    l_nodal = state.V_basis @ state.S_coeff.T
    advect = (ang.mu_plus[:, None] * (l_nodal @ f_minus)
              - ang.mu_minus[:, None] * (l_nodal @ f_minus.T))
    advect -= ang.t0[:, None] * (ang.t0 @ advect)
    rhs = shift * l_nodal - p.epsilon * advect - ang.b[:, None] * (x.T @ source)
    return rhs @ _absorb_inverse(x, shift, ws)


def _galerkin_update(x_new: np.ndarray, w_new: np.ndarray, s_tilde: np.ndarray,
                     source: np.ndarray, ws: FullSchemeWorkspace, dt: float,
                     diffs: np.ndarray) -> np.ndarray:
    """Coefficient update in the bases X_new, W_new from the projected S and the source."""
    p = ws.params
    shift = p.epsilon**2 / (p.c * dt)

    flow_minus = x_new.T @ diffs[:-1]
    proj_plus, proj_minus = _flux_projections(w_new, ws)
    advect = flow_minus @ s_tilde @ proj_plus - flow_minus.T @ s_tilde @ proj_minus
    rhs = (shift * s_tilde - p.epsilon * advect
           - (x_new.T @ source)[:, None] * (w_new.T @ ws.angular.b))
    return _absorb_inverse(x_new, shift, ws) @ rhs


def _finish_step(new_state: LowRankMicroState, macro: MacroState, ws: FullSchemeWorkspace,
                 dt: float):
    """Meso/macro update from the new first moment; the step's (macro, micro)."""
    g1_new = new_state.X_basis @ (new_state.S_coeff @ (ws.angular.pin @ new_state.V_basis))
    h_new, t_new = meso_macro_update(g1_new, macro, ws, dt)
    return MacroState(t_new, h_new), new_state


def step_bug_fixed(macro: MacroState, state: LowRankMicroState, ws: FullSchemeWorkspace,
                   dt: float):
    """One fixed-rank step: K- and L-step from time-n data, S-step, then meso/macro.

    The rank is preserved: directions missing from a rank-deficient K or L are
    padded by the orthonormalization, the angular ones with rows of T. The new
    angular basis is orthogonalized against t0, which lies outside range(T^T).
    The emission source is evaluated once and shared by the three substeps, and
    the stencil of X by the K- and L-step.
    """
    ws.check_step(macro, state.X_basis.shape[0], state.V_basis.shape[0], dt)

    r, ang = state.rank, ws.angular
    source = emission_gradient_parts(macro, ws)[1]
    diffs = padded_difference(state.X_basis, ws.grid)
    x_new = extend_orthonormal_columns(np.empty((state.X_basis.shape[0], 0)),
                                       _k_update(state, source, ws, dt, diffs), r)
    w_new = extend_orthonormal_columns(ang.t0[:, None], _l_update(state, source, ws, dt, diffs),
                                       r + 1, ang.rows)
    s_tilde = (x_new.T @ state.X_basis) @ state.S_coeff @ (state.V_basis.T @ w_new)
    s_new = _galerkin_update(x_new, w_new, s_tilde, source, ws, dt,
                             padded_difference(x_new, ws.grid))
    return _finish_step(LowRankMicroState(x_new, s_new, w_new), macro, ws, dt)
