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


# The flux matrices are nodal: A+- = T diag(mu+-) T^T with T = angular.T_mat and
# mu+- = (mu +- |mu|) / 2 on the quadrature nodes. An angular basis V enters every
# kernel through its nodal values T^T V alone, so no N x N matrix is multiplied.


def _nodal(v: np.ndarray, ws: FullSchemeWorkspace) -> np.ndarray:
    """Nodal values T^T V of an angular basis."""
    return ws.angular.T_mat.T @ v


def _node_speeds(ws: FullSchemeWorkspace):
    mu = ws.angular.quad.nodes
    mu_abs = np.abs(mu)
    return 0.5 * (mu + mu_abs), 0.5 * (mu - mu_abs)


def _flux_projections(v_nodal: np.ndarray, ws: FullSchemeWorkspace):
    """V^T A+ V and V^T A- V from the nodal values T^T V."""
    mu_plus, mu_minus = _node_speeds(ws)
    return (v_nodal.T * mu_plus) @ v_nodal, (v_nodal.T * mu_minus) @ v_nodal


def _flow_minus(x: np.ndarray, ws: FullSchemeWorkspace) -> np.ndarray:
    """X^T D- X; summation by parts gives X^T D+ X = -(X^T D- X)^T for both bcs."""
    return x.T @ padded_difference(x, ws.grid, ws.bc)[:-1]


def _k_update(state: LowRankMicroState, source: np.ndarray, ws: FullSchemeWorkspace,
              dt: float, v_nodal: np.ndarray) -> np.ndarray:
    """K = X S advanced in the frozen angular basis, before orthonormalization.

    This is the dense micro update in the basis V; v_nodal = T^T V is shared
    with the L-step of the same basis.
    """
    proj_plus, proj_minus = _flux_projections(v_nodal, ws)
    return micro_update(state.X_basis @ state.S_coeff, (proj_plus, proj_minus),
                        state.V_basis.T @ ws.angular.b_vec, source, ws, dt)


def _l_update(state: LowRankMicroState, source: np.ndarray, ws: FullSchemeWorkspace,
              dt: float, v_nodal: np.ndarray) -> np.ndarray:
    """L = V S^T advanced in the frozen spatial basis, before orthonormalization.

    A+ L F- + A- L F+ with F-+ = (D-+ X)^T X is one nodal product
    T (mu+ o (T^T L F-) + mu- o (T^T L F+)), and T^T L = (T^T V) S^T.
    The absorption couples through C = sum_i sigma_{i+1/2} X_i X_i^T, making the
    implicit solve an r x r symmetric positive definite system.
    """
    p = ws.params
    x, s, v = state.X_basis, state.S_coeff, state.V_basis
    r = state.rank
    shift = p.epsilon**2 / (p.c * dt)

    l_mat = v @ s.T
    f_minus = _flow_minus(x, ws).T  # F- = (D- X)^T X, and F+ = -F-^T
    l_nodal = v_nodal @ s.T
    mu_plus, mu_minus = _node_speeds(ws)
    advect = ws.angular.T_mat @ (mu_plus[:, None] * (l_nodal @ f_minus)
                                 - mu_minus[:, None] * (l_nodal @ f_minus.T))
    rhs = shift * l_mat - p.epsilon * advect - np.outer(ws.angular.b_vec, x.T @ source)

    absorb = x.T @ (ws.sigma.at_interfaces[:, None] * x)
    return np.linalg.solve(shift * np.eye(r) + absorb, rhs.T).T


def _galerkin_update(x_new: np.ndarray, v_new: np.ndarray, s_tilde: np.ndarray,
                     source: np.ndarray, ws: FullSchemeWorkspace, dt: float,
                     v_nodal: np.ndarray | None = None) -> np.ndarray:
    """Coefficient update in the given bases from the projected S and the interface source.

    v_nodal = T^T v_new is computed here unless the caller already has it.
    """
    p = ws.params
    shift = p.epsilon**2 / (p.c * dt)

    flow_minus = _flow_minus(x_new, ws)
    if v_nodal is None:
        v_nodal = _nodal(v_new, ws)
    proj_plus, proj_minus = _flux_projections(v_nodal, ws)
    advect = flow_minus @ s_tilde @ proj_plus - flow_minus.T @ s_tilde @ proj_minus

    absorb = x_new.T @ (ws.sigma.at_interfaces[:, None] * x_new)
    rhs = (shift * s_tilde - p.epsilon * advect
           - np.outer(x_new.T @ source, v_new.T @ ws.angular.b_vec))
    shape = absorb.shape[0]
    return np.linalg.solve(shift * np.eye(shape) + absorb, rhs)


def _finish_step(new_state: LowRankMicroState, macro: MacroState, ws: FullSchemeWorkspace,
                 dt: float):
    """Meso/macro update from the new first moment; the step's (macro, micro, report)."""
    g1_new = new_state.X_basis @ (new_state.S_coeff @ new_state.V_basis[0, :])
    h_new, t_new = meso_macro_update(g1_new, macro, ws, dt)
    return MacroState(t_new, h_new), new_state, BugStepReport.of(new_state, dt)


def step_bug_fixed(macro: MacroState, state: LowRankMicroState, ws: FullSchemeWorkspace,
                   dt: float):
    """One fixed-rank step: K- and L-step from time-n data, S-step, then meso/macro.

    The rank is preserved: directions missing from a rank-deficient K or L are
    padded with canonical ones by the orthonormalization. The emission source
    is evaluated once and shared by the three substeps.
    """
    ws.check_step(macro, state.X_basis.shape[0], state.V_basis.shape[0], dt)

    r = state.rank
    source = emission_gradient_source(macro, ws)
    v_nodal = _nodal(state.V_basis, ws)
    x_new = extend_orthonormal_columns(np.empty((state.X_basis.shape[0], 0)),
                                       _k_update(state, source, ws, dt, v_nodal), r)
    v_new = extend_orthonormal_columns(np.empty((state.V_basis.shape[0], 0)),
                                       _l_update(state, source, ws, dt, v_nodal), r)
    s_tilde = (x_new.T @ state.X_basis) @ state.S_coeff @ (state.V_basis.T @ v_new)
    s_new = _galerkin_update(x_new, v_new, s_tilde, source, ws, dt)
    return _finish_step(LowRankMicroState(x_new, s_new, v_new, r), macro, ws, dt)
