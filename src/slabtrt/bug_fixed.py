"""Fixed-rank basis-update & Galerkin integrator for the micro moments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .full_scheme import (
    FullSchemeWorkspace,
    emission_gradient_source,
    meso_macro_update,
    micro_update,
)
from .mesh_state import (
    LowRankMicroState,
    MacroState,
    extend_orthonormal_columns,
    padded_difference,
)

__all__ = [
    "BugStepReport",
    "step_bug_fixed",
]


@dataclass(frozen=True)
class BugStepReport:
    """Per-step diagnostics of a low-rank update."""

    rank: int
    x_orth_defect: float
    v_orth_defect: float
    dt: float

    @classmethod
    def of(cls, state: LowRankMicroState, dt: float) -> "BugStepReport":
        """Report of a new state, reusing the defects computed on its construction."""
        return cls(rank=state.rank, x_orth_defect=state.x_orth_defect,
                   v_orth_defect=state.v_orth_defect, dt=dt)


# The angular factor is held in nodal coordinates, W = T^T V with T = angular.T_mat.
# The flux matrices are nodal too, A+- = T diag(mu+-) T^T with mu+- = (mu +- |mu|) / 2,
# so V^T A+- V = W^T diag(mu+-) W and T^T A+- = (I - t0 t0^T) diag(mu+-) T^T: no
# step multiplies by T. The constants live in `ws.nodal`.


def _flux_projections(w: np.ndarray, ws: FullSchemeWorkspace):
    """V^T A+ V and V^T A- V from the nodal factor W = T^T V."""
    nod = ws.nodal
    return (w.T * nod.mu_plus) @ w, (w.T * nod.mu_minus) @ w


def _flow_minus(x: np.ndarray, ws: FullSchemeWorkspace) -> np.ndarray:
    """X^T D- X; summation by parts gives X^T D+ X = -(X^T D- X)^T for both bcs."""
    return x.T @ padded_difference(x, ws.grid, ws.bc)[:-1]


def _absorb_inverse(x: np.ndarray, shift: float, ws: FullSchemeWorkspace) -> np.ndarray:
    """(shift I + X^T sigma X)^-1, with C = X^T sigma X = sum_i sigma_{i+1/2} X_i X_i^T.

    The matrix is small and symmetric positive definite; one inverse and a
    product cost far less than a solve with many right-hand sides.
    """
    absorb = x.T @ (ws.sigma.at_interfaces[:, None] * x)
    return np.linalg.inv(shift * np.eye(x.shape[1]) + absorb)


def _k_update(state: LowRankMicroState, source: np.ndarray, ws: FullSchemeWorkspace,
              dt: float) -> np.ndarray:
    """K = X S advanced in the frozen angular basis, before orthonormalization.

    This is the dense micro update in the basis V, with V^T b = W^T T^T b.
    """
    w = state.V_basis
    return micro_update(state.X_basis @ state.S_coeff, _flux_projections(w, ws),
                        w.T @ ws.nodal.b, source, ws, dt)


def _l_update(state: LowRankMicroState, source: np.ndarray, ws: FullSchemeWorkspace,
              dt: float) -> np.ndarray:
    """T^T L for L = V S^T advanced in the frozen spatial basis, before orthonormalization.

    A+ L F- + A- L F+ with F-+ = (D-+ X)^T X and F+ = -F-^T is, in nodal
    coordinates, P (mu+ o (W S^T F-) - mu- o (W S^T F-^T)) with P = I - t0 t0^T.
    The absorption makes the implicit solve an r x r SPD system.
    """
    p, nod = ws.params, ws.nodal
    x = state.X_basis
    shift = p.epsilon**2 / (p.c * dt)

    f_minus = _flow_minus(x, ws).T
    l_nodal = state.V_basis @ state.S_coeff.T
    advect = (nod.mu_plus[:, None] * (l_nodal @ f_minus)
              - nod.mu_minus[:, None] * (l_nodal @ f_minus.T))
    advect -= np.outer(nod.t0, nod.t0 @ advect)
    rhs = shift * l_nodal - p.epsilon * advect - np.outer(nod.b, x.T @ source)
    return rhs @ _absorb_inverse(x, shift, ws)


def _galerkin_update(x_new: np.ndarray, w_new: np.ndarray, s_tilde: np.ndarray,
                     source: np.ndarray, ws: FullSchemeWorkspace, dt: float) -> np.ndarray:
    """Coefficient update in the bases X_new, W_new from the projected S and the source."""
    p = ws.params
    shift = p.epsilon**2 / (p.c * dt)

    flow_minus = _flow_minus(x_new, ws)
    proj_plus, proj_minus = _flux_projections(w_new, ws)
    advect = flow_minus @ s_tilde @ proj_plus - flow_minus.T @ s_tilde @ proj_minus
    rhs = (shift * s_tilde - p.epsilon * advect
           - np.outer(x_new.T @ source, w_new.T @ ws.nodal.b))
    return _absorb_inverse(x_new, shift, ws) @ rhs


def _finish_step(new_state: LowRankMicroState, macro: MacroState, ws: FullSchemeWorkspace,
                 dt: float):
    """Meso/macro update from the new first moment; the step's (macro, micro, report)."""
    g1_new = new_state.X_basis @ (new_state.S_coeff @ (ws.nodal.pin @ new_state.V_basis))
    h_new, t_new = meso_macro_update(g1_new, macro, ws, dt)
    return MacroState(t_new, h_new), new_state, BugStepReport.of(new_state, dt)


def step_bug_fixed(macro: MacroState, state: LowRankMicroState, ws: FullSchemeWorkspace,
                   dt: float):
    """One fixed-rank step: K- and L-step from time-n data, S-step, then meso/macro.

    The rank is preserved: directions missing from a rank-deficient K or L are
    padded by the orthonormalization, the angular ones with rows of T. The new
    angular basis is orthogonalized against t0, which lies outside range(T^T).
    The emission source is evaluated once and shared by the three substeps.
    """
    ws.check_step(macro, state.X_basis.shape[0], state.V_basis.shape[0] - 1, dt)

    r = state.rank
    nod = ws.nodal
    source = emission_gradient_source(macro, ws)
    x_new = extend_orthonormal_columns(np.empty((state.X_basis.shape[0], 0)),
                                       _k_update(state, source, ws, dt), r)
    w_new = extend_orthonormal_columns(nod.t0[:, None], _l_update(state, source, ws, dt),
                                       r + 1, nod.rows)
    s_tilde = (x_new.T @ state.X_basis) @ state.S_coeff @ (state.V_basis.T @ w_new)
    s_new = _galerkin_update(x_new, w_new, s_tilde, source, ws, dt)
    return _finish_step(LowRankMicroState(x_new, s_new, w_new, r), macro, ws, dt)
