"""Fixed-rank basis-update & Galerkin integrator for the micro moments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .full_scheme import FullSchemeWorkspace, emission_gradient_source, meso_macro_update
from .mesh_state import (
    LowRankMicroState,
    MacroState,
    diff_minus,
    diff_plus,
    orthonormal_columns,
)

__all__ = [
    "BugStepReport",
    "k_step",
    "l_step",
    "galerkin_coefficient_update",
    "s_step",
    "step_bug_fixed",
]


@dataclass(frozen=True)
class BugStepReport:
    """Per-step diagnostics of a low-rank update."""

    rank: int
    x_orth_defect: float
    v_orth_defect: float
    dt: float


def _orth_defect(mat: np.ndarray) -> float:
    r = mat.shape[1]
    return float(np.max(np.abs(mat.T @ mat - np.eye(r))))


def _k_update(state: LowRankMicroState, source: np.ndarray, ws: FullSchemeWorkspace,
              dt: float) -> np.ndarray:
    """K = X S advanced in the frozen angular basis, before orthonormalization."""
    p = ws.params
    ang = ws.angular
    x, s, v = state.X_basis, state.S_coeff, state.V_basis
    shift = p.epsilon**2 / (p.c * dt)

    k = x @ s
    proj_plus = v.T @ ang.A_plus @ v
    proj_minus = v.T @ ang.A_minus @ v
    advect = diff_minus(k, ws.grid, ws.bc) @ proj_plus + diff_plus(k, ws.grid, ws.bc) @ proj_minus
    rhs = shift * k - p.epsilon * advect - np.outer(source, v.T @ ang.b_vec)
    return rhs / (shift + ws.sigma.at_interfaces)[:, None]


def _l_update(state: LowRankMicroState, source: np.ndarray, ws: FullSchemeWorkspace,
              dt: float) -> np.ndarray:
    """L = V S^T advanced in the frozen spatial basis, before orthonormalization.

    The absorption couples through C = sum_i sigma_{i+1/2} X_i X_i^T, making the
    implicit solve an r x r symmetric positive definite system.
    """
    p = ws.params
    ang = ws.angular
    x, s, v = state.X_basis, state.S_coeff, state.V_basis
    r = state.rank
    shift = p.epsilon**2 / (p.c * dt)

    l_mat = v @ s.T
    dm_x = diff_minus(x, ws.grid, ws.bc)
    dp_x = diff_plus(x, ws.grid, ws.bc)
    advect = ang.A_plus @ l_mat @ (dm_x.T @ x) + ang.A_minus @ l_mat @ (dp_x.T @ x)
    rhs = shift * l_mat - p.epsilon * advect - np.outer(ang.b_vec, x.T @ source)

    absorb = x.T @ (ws.sigma.at_interfaces[:, None] * x)
    return np.linalg.solve(shift * np.eye(r) + absorb, rhs.T).T


def _galerkin_update(x_new: np.ndarray, v_new: np.ndarray, s_tilde: np.ndarray,
                     source: np.ndarray, ws: FullSchemeWorkspace, dt: float) -> np.ndarray:
    """Coefficient update in the given bases from the projected S and the interface source."""
    p = ws.params
    ang = ws.angular
    shift = p.epsilon**2 / (p.c * dt)

    flow_minus = x_new.T @ diff_minus(x_new, ws.grid, ws.bc)
    flow_plus = x_new.T @ diff_plus(x_new, ws.grid, ws.bc)
    proj_plus = v_new.T @ ang.A_plus @ v_new
    proj_minus = v_new.T @ ang.A_minus @ v_new
    advect = flow_minus @ s_tilde @ proj_plus + flow_plus @ s_tilde @ proj_minus

    absorb = x_new.T @ (ws.sigma.at_interfaces[:, None] * x_new)
    rhs = shift * s_tilde - p.epsilon * advect - np.outer(x_new.T @ source, v_new.T @ ang.b_vec)
    shape = absorb.shape[0]
    return np.linalg.solve(shift * np.eye(shape) + absorb, rhs)


def _projected_coefficients(x_new: np.ndarray, v_new: np.ndarray,
                            state_old: LowRankMicroState) -> np.ndarray:
    return (x_new.T @ state_old.X_basis) @ state_old.S_coeff @ (state_old.V_basis.T @ v_new)


def k_step(state: LowRankMicroState, macro: MacroState, ws: FullSchemeWorkspace, dt: float):
    """Advance K = X S in the frozen angular basis; returns (K_new, X_new)."""
    k_new = _k_update(state, emission_gradient_source(macro, ws), ws, dt)
    return k_new, orthonormal_columns(k_new)


def l_step(state: LowRankMicroState, macro: MacroState, ws: FullSchemeWorkspace, dt: float):
    """Advance L = V S^T in the frozen spatial basis; returns (L_new, V_new)."""
    l_new = _l_update(state, emission_gradient_source(macro, ws), ws, dt)
    return l_new, orthonormal_columns(l_new)


def galerkin_coefficient_update(x_new: np.ndarray, v_new: np.ndarray, s_tilde: np.ndarray,
                                macro: MacroState, ws: FullSchemeWorkspace,
                                dt: float) -> np.ndarray:
    """Coefficient update in the given bases starting from the projected S."""
    return _galerkin_update(x_new, v_new, s_tilde, emission_gradient_source(macro, ws), ws, dt)


def s_step(x_new: np.ndarray, v_new: np.ndarray, state_old: LowRankMicroState,
           macro: MacroState, ws: FullSchemeWorkspace, dt: float) -> np.ndarray:
    """Galerkin step in the updated bases; the old solution is projected in first."""
    return galerkin_coefficient_update(x_new, v_new,
                                       _projected_coefficients(x_new, v_new, state_old),
                                       macro, ws, dt)


def step_bug_fixed(macro: MacroState, state: LowRankMicroState, ws: FullSchemeWorkspace,
                   dt: float):
    """One fixed-rank step: K- and L-step from time-n data, S-step, then meso/macro.

    The rank is preserved; rank-deficient intermediate factors are padded with
    canonical directions inside the orthonormalization. The emission source is
    evaluated once and shared by the three substeps.
    """
    if not dt > 0.0:
        raise ValueError("dt must be strictly positive")
    ws.check_macro(macro)
    ws.check_micro_shape(state.X_basis.shape[0], state.V_basis.shape[0])

    source = emission_gradient_source(macro, ws)
    x_new = orthonormal_columns(_k_update(state, source, ws, dt))
    v_new = orthonormal_columns(_l_update(state, source, ws, dt))
    s_new = _galerkin_update(x_new, v_new, _projected_coefficients(x_new, v_new, state),
                             source, ws, dt)

    g1_new = x_new @ (s_new @ v_new[0, :])
    h_new, t_new = meso_macro_update(g1_new, macro, ws, dt)

    new_state = LowRankMicroState(x_new, s_new, v_new, state.rank)
    report = BugStepReport(
        rank=state.rank,
        x_orth_defect=_orth_defect(x_new),
        v_orth_defect=_orth_defect(v_new),
        dt=dt,
    )
    return MacroState(t_new, h_new), new_state, report
