"""Rank-adaptive integrator: diffusion-limit basis augmentation plus conservative truncation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bug_fixed import _finish_step, _galerkin_update, _k_update, _l_update
from .full_scheme import FullSchemeWorkspace, emission_gradient_parts
from .mesh_state import (
    LowRankMicroState,
    MacroState,
    complete_orthonormal_columns,
    extend_orthonormal_columns,
    padded_difference,
)

__all__ = [
    "TruncationConfig",
    "AugmentedFactors",
    "augment_bases",
    "galerkin_s_hat",
    "ap_truncate",
    "step_bug_adaptive",
]

# Kept truncation slots (the conserved column or a remainder singular value) whose
# weight is this small relative to the whole coefficient block contribute nothing
# and get a padded direction.
_DEGENERATE_TOL = 1e-14
# The first angular basis vector must be b/|b| (nodal: row 0 of T) to this accuracy.
_PIN_TOL = 1e-12
# Smallest augmented width: the conserved column plus one truncated direction.
_RANK_FLOOR = 2
# The old bases are kept as they are in the augmented ones, so their rounding
# accumulates over steps; above this orthogonality defect (a tenth of what
# LowRankMicroState accepts) they are orthonormalized again before a step.
_REORTH_TOL = 1e-13


@dataclass(frozen=True)
class TruncationConfig:
    """Relative singular-value tolerance and rank cap for the adaptive scheme."""

    theta_rel: float
    max_rank: int

    def __post_init__(self):
        if self.theta_rel < 0.0:
            raise ValueError("theta_rel must be nonnegative")
        if self.max_rank < 2:
            raise ValueError("max_rank must be at least 2 (conserved column plus one)")


@dataclass
class AugmentedFactors:
    """Augmented orthonormal bases of one step.

    The old bases are the leading columns, X_hat = [X | X1] and V_hat = [V | V1],
    so the old factors project onto them as [I; 0]. V_hat is nodal, like the
    angular factor of the state. The first spatial direction added spans the
    diffusion-limit direction (when it is new) and the first angular column is
    the unit first-moment direction b/|b|. `source` is the interface emission
    source of the step, evaluated once together with w_ap. `x_stencil` is the
    stencil of X_hat for the Galerkin step (not needed by `ap_truncate`).
    """

    X_hat: np.ndarray
    V_hat: np.ndarray
    source: np.ndarray
    x_stencil: np.ndarray | None = None


def augment_bases(state: LowRankMicroState, macro: MacroState, ws: FullSchemeWorkspace,
                  dt: float) -> AugmentedFactors:
    """Extend both bases by the directions of the step: X_hat = [X | X1], V_hat = [V | V1].

    X1 is an orthonormal basis of the part of [w_ap, K] outside span X, and V1
    of the part of [L, b] outside span [t0 | V], in nodal coordinates. The K and
    L updates enter as they are, and each new block gets one projection and one
    QR of at most r + 1 columns (`extend_orthonormal_columns`). Directions
    already spanned are dropped, so the widths may differ; padding (canonical
    in space, rows of T in angle) only lifts a width to the rank floor of 2.
    V[:, 0] must be b/|b|, so b is always dropped and V_hat[:, 0] stays the
    conserved-moment direction.
    """
    ang = ws.angular
    if np.max(np.abs(state.V_basis[:, 0] - ang.pin)) > _PIN_TOL:
        raise ValueError("the first angular basis vector must be b/|b|")
    thermal, source = emission_gradient_parts(macro, ws)
    w_ap = thermal / ws.sigma.at_interfaces
    diffs = padded_difference(state.X_basis, ws.grid, ws.bc)
    k_new = _k_update(state, source, ws, dt, diffs)
    l_new = _l_update(state, source, ws, dt, diffs)

    x_new = extend_orthonormal_columns(
        state.X_basis, np.concatenate([w_ap[:, None], k_new], axis=1), _RANK_FLOOR)
    # t0 is outside range(T^T): without it in the basis, rounding that QR
    # amplifies would leak into that direction
    v_new = extend_orthonormal_columns(np.concatenate([ang.t0[:, None], state.V_basis], axis=1),
                                       np.concatenate([l_new, ang.b[:, None]], axis=1),
                                       _RANK_FLOOR + 1, ang.rows)
    return AugmentedFactors(
        X_hat=np.concatenate([state.X_basis, x_new], axis=1),
        V_hat=np.concatenate([state.V_basis, v_new], axis=1), source=source,
        x_stencil=np.concatenate([diffs, padded_difference(x_new, ws.grid, ws.bc)], axis=1))


def galerkin_s_hat(aug: AugmentedFactors, state_old: LowRankMicroState,
                   ws: FullSchemeWorkspace, dt: float) -> np.ndarray:
    """Coefficient update in the augmented bases from the projected old solution.

    The old bases lead the augmented ones, so the projected old coefficients
    are S in the leading block and zero elsewhere.
    """
    r = state_old.rank
    s_tilde = np.zeros((aug.X_hat.shape[1], aug.V_hat.shape[1]))
    s_tilde[:r, :r] = state_old.S_coeff
    return _galerkin_update(aug.X_hat, aug.V_hat, s_tilde, aug.source, ws, dt, aug.x_stencil)


def _choose_kept_rank(svals: np.ndarray, theta_rel: float) -> int:
    """Smallest kept count whose discarded tail passes the relative tolerance.

    The tail test is sqrt(sum_{i>r*} sigma_i / sigma_1) <= theta_rel on the
    spectrum normalized by its largest value; the square-root-of-sum form
    retains weak freshly injected directions long enough for the rank to track
    the kinetic regime, while clean spectra still collapse.
    """
    if svals.size == 0 or svals[0] <= 0.0:
        return 1
    normalized = svals / svals[0]
    # tail[j] = sum_{i>j} for j < n - 1 does not increase: passing j follow failing j
    tail = np.cumsum(normalized[:0:-1])[::-1]
    return tail.size - int(np.count_nonzero(np.sqrt(tail) <= theta_rel)) + 1


def ap_truncate(aug: AugmentedFactors, s_hat: np.ndarray, cfg: TruncationConfig):
    """Split off the conserved column, truncate the remainder by SVD, and refold.

    The column paired with the first angular basis vector is kept exactly, so the
    first micro moment survives truncation; the remaining directions are cut at
    the normalized singular-value tail tolerance of cfg.theta_rel.

    X_hat is orthonormal, so K_hat = X_hat S_hat is factored through S_hat:
    the thin SVD of the remainder, the normalization of the conserved column
    and the refolding QR act on coefficient blocks with |X_hat| rows, and only
    the final spatial basis is lifted, X_new = X_hat C_new. The kept rank is
    capped by both augmented widths.
    """
    x_hat, v_hat = aug.X_hat, aug.V_hat
    width_x, width_v = x_hat.shape[1], v_hat.shape[1]
    if not np.isfinite(s_hat).all():  # the SVD would only report non-convergence
        raise ValueError("low-rank state contains non-finite entries")

    c_rem_hat, svals, wt_mat = np.linalg.svd(s_hat[:, 1:], full_matrices=False)
    r_star = _choose_kept_rank(svals, cfg.theta_rel)
    r_star = min(r_star, cfg.max_rank - 1, width_x - 1, width_v - 1)
    r_star = max(r_star, 1)

    w_hat = wt_mat[:r_star, :].T
    c_rem = c_rem_hat[:, :r_star]
    v_new = np.concatenate([v_hat[:, :1], v_hat[:, 1:] @ w_hat], axis=1)

    c_ap = s_hat[:, :1]
    s_ap = np.sqrt(c_ap.T @ c_ap)
    c_ap = c_ap / (s_ap[0, 0] or 1.0)  # a zero column is a dead slot below
    weights = np.concatenate([s_ap[0], svals[:r_star]])
    norm_s_hat = np.sqrt(s_ap[0, 0]**2 + svals @ svals)  # ||S_hat||_F
    dead = weights <= _DEGENERATE_TOL * max(norm_s_hat, 1e-300)
    weights[dead] = 0.0
    slots = np.concatenate([c_ap, c_rem], axis=1)
    if dead.any():
        # Slots without weight (the conserved one for uniform temperature, or a
        # zero remainder) get directions orthogonal to the weighted ones, so the
        # refolding QR below never has to split two parallel columns.
        live, _ = np.linalg.qr(slots[:, ~dead])
        slots[:, dead] = complete_orthonormal_columns(live, int(dead.sum()))

    c_new, r2 = np.linalg.qr(slots)
    return LowRankMicroState(x_hat @ c_new, r2 * weights, v_new)


def step_bug_adaptive(macro: MacroState, state: LowRankMicroState, ws: FullSchemeWorkspace,
                      dt: float, cfg: TruncationConfig):
    """One rank-adaptive step: augment, Galerkin update, truncate, then meso/macro."""
    ws.check_step(macro, state.X_basis.shape[0], state.V_basis.shape[0], dt)
    if max(state.x_orth_defect, state.v_orth_defect) > _REORTH_TOL:
        state = state.reorthonormalized()

    aug = augment_bases(state, macro, ws, dt)
    s_hat = galerkin_s_hat(aug, state, ws, dt)
    return _finish_step(ap_truncate(aug, s_hat, cfg), macro, ws, dt)
