"""Rank-adaptive integrator: diffusion-limit basis augmentation plus conservative truncation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bug_fixed import (
    _finish_step,
    _flux_projections,
    _galerkin_update,
    _k_update,
    _l_update,
    _spatial_blocks,
)
from .full_scheme import FullSchemeWorkspace, emission_gradient_parts
from .mesh_state import (
    LowRankMicroState,
    MacroState,
    extend_orthonormal_columns,
    padded_difference,
)

__all__ = [
    "AugmentedFactors",
    "augment_bases",
    "galerkin_s_hat",
    "ap_truncate",
    "step_bug_adaptive",
]

# The first angular basis vector must be b/|b| (nodal: row 0 of T) to this accuracy.
_PIN_TOL = 1e-12
# Smallest augmented width: the conserved column plus one truncated direction.
_RANK_FLOOR = 2


@dataclass(eq=False)
class AugmentedFactors:
    """Augmented orthonormal bases of one step and the Galerkin blocks of X_hat.

    The old bases are the leading columns, X_hat = [X | X1] and V_hat = [V | V1],
    so the old factors project onto them as [I; 0]. V_hat is nodal, like the
    angular factor of the state. The spatial directions added span the
    diffusion-limit direction (when it is new) and the first angular column is
    the unit first-moment direction b/|b|. `flow_minus` = X_hat^T D- X_hat,
    `gram` = X_hat^T sigma X_hat and `x_source` = X_hat^T source, with the
    interface emission source of the step; their leading blocks are those of X,
    which the L-step reads.
    """

    X_hat: np.ndarray
    V_hat: np.ndarray
    flow_minus: np.ndarray
    gram: np.ndarray
    x_source: np.ndarray


def augment_bases(state: LowRankMicroState, macro: MacroState, ws: FullSchemeWorkspace,
                  dt: float) -> AugmentedFactors:
    """Extend both bases by the directions of the step: X_hat = [X | X1], V_hat = [V | V1].

    X1 is an orthonormal basis of the part of [w_ap, K] outside span X, and V1
    of the part of L outside span [t0 | V], in nodal coordinates. The K and
    L updates enter as they are ([w_ap, K] is stacked as rows, so it stays in
    column order), and each new block gets one projection and one QR of at most
    r + 1 columns (`extend_orthonormal_columns`). Directions
    already spanned are dropped, so the widths may differ; padding (canonical
    in space, rows of T in angle) only lifts a width to the rank floor of 2.
    V[:, 0] must be b/|b|, so b is already in span V and V_hat[:, 0] stays the
    conserved-moment direction. X1 needs only w_ap and K, so X_hat is built
    first and its Galerkin blocks are formed once: the L-step reads their
    leading r x r blocks and the S-step all of them.
    """
    ang, r, x = ws.angular, state.rank, state.X_basis
    if np.max(np.abs(state.V_basis[:, 0] - ang.pin)) > _PIN_TOL:
        raise ValueError("the first angular basis vector must be b/|b|")
    thermal, source = emission_gradient_parts(macro, ws)
    w_ap = thermal / ws.sigma.at_interfaces
    diffs = padded_difference(x, ws.grid)
    k_new = _k_update(state, source, ws, dt, diffs, _flux_projections(state.V_basis, ws))
    x_new = extend_orthonormal_columns(x, np.concatenate([w_ap[None], k_new.T]).T,
                                       _RANK_FLOOR)
    x_hat = np.concatenate([x, x_new], axis=1)
    flow_minus, gram = _spatial_blocks(
        x_hat, np.concatenate([diffs, padded_difference(x_new, ws.grid)], axis=1), ws)
    x_source = x_hat.T @ source
    l_new = _l_update(state, ws, dt, (flow_minus[:r, :r], gram[:r, :r]), x_source[:r])
    # t0 is outside range(T^T): without it in the basis, rounding that QR
    # amplifies would leak into that direction
    v_new = extend_orthonormal_columns(np.concatenate([ang.t0[:, None], state.V_basis], axis=1),
                                       l_new, _RANK_FLOOR + 1, ang.rows)
    return AugmentedFactors(X_hat=x_hat, V_hat=np.concatenate([state.V_basis, v_new], axis=1),
                            flow_minus=flow_minus, gram=gram, x_source=x_source)


def galerkin_s_hat(aug: AugmentedFactors, state_old: LowRankMicroState,
                   ws: FullSchemeWorkspace, dt: float) -> np.ndarray:
    """Coefficient update in the augmented bases from the projected old solution.

    The old bases lead the augmented ones, so the projected old coefficients
    are S in the leading block and zero elsewhere.
    """
    r = state_old.rank
    s_tilde = np.zeros((aug.X_hat.shape[1], aug.V_hat.shape[1]))
    s_tilde[:r, :r] = state_old.S_coeff
    return _galerkin_update(aug.V_hat, s_tilde, ws, dt, (aug.flow_minus, aug.gram),
                            aug.x_source, _flux_projections(aug.V_hat, ws))


def _choose_kept_rank(svals: np.ndarray, theta_rel: float) -> int:
    """Smallest kept count whose discarded tail passes the relative tolerance.

    The tail test is sqrt(sum_{i>r*} sigma_i / sigma_1) <= theta_rel on the
    spectrum normalized by its largest value; the square-root-of-sum form
    retains weak freshly injected directions long enough for the rank to track
    the kinetic regime, while clean spectra still collapse.
    """
    values = svals.tolist()
    if not values or values[0] <= 0.0:
        return 1
    # the tail of the normalized values, summed from the smallest up, does not
    # decrease as the kept count falls: the first failing count ends the search
    first, tail, kept = values[0], 0.0, len(values)
    for count in range(kept - 1, 0, -1):
        tail += values[count] / first
        if not math.sqrt(tail) <= theta_rel:
            break
        kept = count
    return kept


def ap_truncate(x_hat: np.ndarray, v_hat: np.ndarray, s_hat: np.ndarray, theta_rel: float):
    """Split off the conserved column, truncate the remainder by SVD, and refold.

    The column paired with the first angular basis vector is kept exactly, so the
    first micro moment survives truncation; the remaining directions are cut at
    the normalized singular-value tail tolerance theta_rel.

    X_hat is orthonormal, so K_hat = X_hat S_hat is factored through S_hat: the
    thin SVD of the remainder and the refolding QR act on coefficient blocks
    with |X_hat| rows. One Householder QR of [S_hat[:, :1] | U_r Sigma_r] = Q R
    refolds, X_new = X_hat Q and S_new = R, so X_new S_new e_1 = X_hat S_hat e_1
    and X_new S_new V_new^T is the truncated product. Zero columns need no care:
    Q is orthonormal and R zero in them. The kept rank is capped by both
    augmented widths.
    """
    width_x, width_v = x_hat.shape[1], v_hat.shape[1]
    c_ap = s_hat[:, 0]
    try:
        c_rem, svals, wt_mat = np.linalg.svd(s_hat[:, 1:], full_matrices=False)
        norm_s_hat = math.sqrt(c_ap @ c_ap + svals @ svals)  # ||S_hat||_F
    except np.linalg.LinAlgError:
        if np.isfinite(s_hat).all():
            raise
        norm_s_hat = math.nan
    # The norm is not finite when an entry is not: the SVD turns an infinite entry
    # into NaN singular values and, on some numpy versions, fails on a NaN one.
    # Finite entries above ~1e154 overflow it too, so only then are they checked.
    if not math.isfinite(norm_s_hat) and not np.isfinite(s_hat).all():
        raise ValueError("low-rank state contains non-finite entries")

    r_star = max(min(_choose_kept_rank(svals, theta_rel), width_x - 1, width_v - 1), 1)
    v_new = np.concatenate([v_hat[:, :1], v_hat[:, 1:] @ wt_mat[:r_star, :].T], axis=1)
    c_new, s_new = np.linalg.qr(
        np.concatenate([s_hat[:, :1], c_rem[:, :r_star] * svals[:r_star]], axis=1))
    return LowRankMicroState._trusted(x_hat @ c_new, s_new, v_new)


def step_bug_adaptive(macro: MacroState, state: LowRankMicroState, ws: FullSchemeWorkspace,
                      dt: float, theta_rel: float):
    """One rank-adaptive step: augment, Galerkin update, truncate, then meso/macro.

    The kept rank is bounded only by the augmented widths, at most n_cells + 1
    in space and n_moments in angle (the angular basis is orthogonal to t0).
    The old bases are carried into the new ones as they are, so their rounding
    accumulates; `cli_io.simulate` measures their orthogonality defect every
    few steps and orthonormalizes them again. A caller who steps a state by
    hand gets no such repair.
    """
    ws.check_step(macro, state.X_basis.shape[0], state.V_basis.shape[0], dt)
    if ws.angular.n_moments < 2:
        raise ValueError("bug_adaptive needs at least 2 moments (the conserved column plus one)")

    aug = augment_bases(state, macro, ws, dt)
    s_hat = galerkin_s_hat(aug, state, ws, dt)
    return _finish_step(ap_truncate(aug.X_hat, aug.V_hat, s_hat, theta_rel), macro, ws, dt)
