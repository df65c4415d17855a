"""Staggered grid, absorption field, solution containers, and difference stencils."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StaggeredGrid",
    "AbsorptionField",
    "MacroState",
    "FullMicroState",
    "LowRankMicroState",
    "diff_center",
    "diff_interface",
    "padded_difference",
    "scalar_flux",
    "complete_orthonormal_columns",
    "extend_orthonormal_columns",
    "zero_low_rank_state",
]

# A column whose residual against the basis and the columns kept before it is at
# or below this fraction of the largest column norm carries no information:
# extend_orthonormal_columns drops it, and pads canonical vectors only to reach
# the width its caller asks for.
_RANK_TOL = 1e-12
_ORTH_TOL = 1e-12
# The second Gram-Schmidt pass of extend_orthonormal_columns leaves the Gram
# defect I - new^T new = leak^T leak. Up to a squared Frobenius norm of the leak
# of 1e-16 the defect is below rounding; up to 1e-6 the series for
# (I - leak^T leak)^(-1/2) leaves less than 3.2e-19, and above it Cholesky QR
# renormalizes.
_LEAK_RENORM_SQ = 1e-16
_LEAK_SERIES_SQ = 1e-6


def _freeze(record, **values):
    """Set the fields of a frozen record; its arrays are made read-only, not copied."""
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(record, name, value)


@dataclass(frozen=True, eq=False)
class StaggeredGrid:
    """Equidistant staggered grid: cell centers plus the surrounding interfaces."""

    x_min: float
    x_max: float
    n_cells: int
    dx: float = field(init=False)
    centers: np.ndarray = field(init=False, repr=False)
    interfaces: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        try:
            n_cells = operator.index(self.n_cells)  # Python or numpy integers only
        except TypeError:
            n_cells = 0  # a float or a string is refused below
        if n_cells < 1:
            raise ValueError("n_cells must be a positive integer")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            dx = (self.x_max - self.x_min) / n_cells
            interfaces = self.x_min + dx * np.arange(n_cells + 1)
            centers = 0.5 * (interfaces[:-1] + interfaces[1:])
        # a finite centre is the sum of two finite interfaces, which need a finite dx
        if not np.isfinite(centers).all():
            raise ValueError("x_min, x_max and the cell centres must be finite")
        _freeze(self, n_cells=n_cells, dx=dx, centers=centers, interfaces=interfaces)


@dataclass(frozen=True, eq=False)
class AbsorptionField:
    """Absorption cross-section sampled at cell centers and interfaces (copied)."""

    at_centers: np.ndarray
    at_interfaces: np.ndarray
    sigma_min: float = field(init=False)
    inv_at_interfaces: np.ndarray = field(init=False, repr=False)  # 1 / sigma

    def __post_init__(self):
        ac = np.array(self.at_centers, dtype=float)
        ai = np.array(self.at_interfaces, dtype=float)
        if ac.ndim != 1 or ai.ndim != 1:
            raise ValueError("absorption samples must be 1-d arrays")
        if ai.shape != (ac.shape[0] + 1,):
            raise ValueError("interface samples must number n_cells + 1")
        low = np.finfo(float).smallest_normal  # below it, 1 / sigma overflows
        if not (np.all((ac >= low) & (ac < np.inf)) and np.all((ai >= low) & (ai < np.inf))):
            raise ValueError(f"absorption must be finite and strictly positive (>= {low:.4g})")
        _freeze(self, at_centers=ac, at_interfaces=ai, sigma_min=float(min(ac.min(), ai.min())),
                inv_at_interfaces=1.0 / ai)


@dataclass(frozen=True, eq=False)
class MacroState:
    """Temperature and mesoscopic correction at cell centers.

    Takes ownership: every step builds one, so float arrays are frozen, not copied.
    """

    temperature: np.ndarray
    h_meso: np.ndarray
    # vdot(T, T) and vdot(h, h), which the energy reads
    temperature_sq: float = field(init=False, repr=False)
    h_meso_sq: float = field(init=False, repr=False)

    def __post_init__(self):
        t = np.asarray(self.temperature, dtype=float)
        h = np.asarray(self.h_meso, dtype=float)
        if t.shape != h.shape or t.ndim != 1:
            raise ValueError("temperature and h_meso must be 1-d arrays of equal length")
        # a non-finite entry makes the sum of squares non-finite (vdot reports no
        # overflow); only finite entries above ~1e154 also need the entrywise check
        t_sq, h_sq = float(np.vdot(t, t)), float(np.vdot(h, h))
        if not (math.isfinite(t_sq) and math.isfinite(h_sq)) and not (
                np.isfinite(t).all() and np.isfinite(h).all()):
            raise ValueError("macro state contains non-finite entries")
        _freeze(self, temperature=t, h_meso=h, temperature_sq=t_sq, h_meso_sq=h_sq)

    @property
    def n_cells(self) -> int:
        return self.temperature.shape[0]


def scalar_flux(macro: MacroState, epsilon: float) -> np.ndarray:
    """Scalar flux B(T) + eps^2 h = T + eps^2 h at cell centers."""
    return macro.temperature + epsilon**2 * macro.h_meso


@dataclass(frozen=True, eq=False)
class FullMicroState:
    """Dense micro moments g: row i holds moments 1..N at interface i.

    The dense step holds them in nodal coordinates, g T with N + 1 columns
    (T = angular.T_mat). T has orthonormal rows, so both forms have the same norm.
    Takes ownership, like MacroState: a float g is frozen, not copied. The state
    a dense step makes comes from `_trusted`, with the norm the step summed.
    """

    g_matrix: np.ndarray
    norm_sq: float = field(init=False, repr=False)

    def __post_init__(self):
        g = np.asarray(self.g_matrix, dtype=float)
        if g.ndim != 2:
            raise ValueError("g_matrix must be a (n_interfaces x n_moments) matrix")
        # one read of g; einsum allocates no temporary, and numpy's empty sum costs ~7 us
        self._own(g, np.einsum("ij,ij->", g, g) if g.size else 0.0)

    def _own(self, g: np.ndarray, norm_sq):
        # a finite sum of squares means finite entries; only a non-finite one, which
        # finite entries above ~1e154 also give, needs the entrywise check
        if not np.isfinite(norm_sq) and not np.all(np.isfinite(g)):
            raise ValueError("micro state contains non-finite entries")
        _freeze(self, g_matrix=g, norm_sq=norm_sq)

    @classmethod
    def _trusted(cls, g: np.ndarray, norm_sq) -> "FullMicroState":
        """The state of a float matrix g a step made, with the sum of its squared entries
        that the step took; non-finite entries are refused as by the constructor."""
        state = object.__new__(cls)
        state._own(g, norm_sq)
        return state

    def micro_norm_sq(self, dx: float) -> float:
        """Squared discrete L2 norm of the micro moments, dx * ||g||_F^2."""
        return float(self.norm_sq * dx)


def _gram(mat: np.ndarray) -> np.ndarray:
    """M^T M from two buffers: numpy sends M^T M of one buffer to syrk, which for
    tall, thin M is slower than gemm plus the copy."""
    return mat.T @ mat.copy()


def _orth_defect(mat: np.ndarray) -> float:
    """Largest entry of |M^T M - I|."""
    gram = _gram(mat)
    gram.flat[::gram.shape[0] + 1] -= 1.0
    return float(np.abs(gram).max())


def _cholesky_qr(mat: np.ndarray):
    """mat = Q R with R^T the Cholesky factor of mat^T mat.

    Accurate for nearly orthonormal mat. R is upper triangular, so the first
    column of Q is the first column of mat divided by its norm.
    """
    upper = np.linalg.cholesky(_gram(mat)).T
    return mat @ np.linalg.inv(upper), upper


@dataclass(frozen=True, eq=False)
class LowRankMicroState:
    """Factored micro moments g = X S V^T with orthonormal X and V.

    The low-rank schemes hold V in nodal coordinates, V_basis = T^T V with
    N + 1 rows (T = angular.T_mat), so the moments are X S (T V_basis)^T. The
    rank is the column count of the factors. The constructor checks copies of
    the factors; the states a step makes come from `_trusted`, which neither
    copies nor checks.
    """

    X_basis: np.ndarray
    S_coeff: np.ndarray
    V_basis: np.ndarray
    # (workspace, bug_fixed._formed_blocks of the bases) from the fixed-rank step
    # that made the state, else None
    _blocks: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        x = np.array(self.X_basis, dtype=float)
        s = np.array(self.S_coeff, dtype=float)
        v = np.array(self.V_basis, dtype=float)
        r = x.shape[1]
        if not (1 <= r <= min(x.shape[0], v.shape[0])):
            raise ValueError("rank must satisfy 1 <= rank <= min(n_interfaces, n_moments)")
        if v.shape[1] != r or s.shape != (r, r):
            raise ValueError("factor shapes inconsistent with rank")
        x_defect, v_defect = _orth_defect(x), _orth_defect(v)  # non-finite if an entry is
        if not np.isfinite(x_defect + v_defect + s.sum()) and not all(
                np.isfinite(a).all() for a in (x, s, v)):
            raise ValueError("low-rank state contains non-finite entries")
        if not x_defect <= _ORTH_TOL:
            raise ValueError("X_basis columns are not orthonormal")
        if not v_defect <= _ORTH_TOL:
            raise ValueError("V_basis columns are not orthonormal")
        _freeze(self, X_basis=x, S_coeff=s, V_basis=v)

    @classmethod
    def _trusted(cls, x: np.ndarray, s: np.ndarray, v: np.ndarray,
                 blocks: tuple | None = None) -> "LowRankMicroState":
        """The state of float arrays a step made, frozen but not checked: a step keeps
        its bases orthonormal and its entries finite. `blocks` becomes `_blocks`."""
        state = object.__new__(cls)
        _freeze(state, X_basis=x, S_coeff=s, V_basis=v, _blocks=blocks)
        return state

    @property
    def rank(self) -> int:
        return self.X_basis.shape[1]

    def reorthonormalized(self) -> "LowRankMicroState":
        """The same product X S V^T with X and V orthonormalized again.

        X = Qx Rx and V = Qv Rv by Cholesky QR, and S becomes Rx S Rv^T. The
        first columns of X and V are only rescaled by their norms.
        """
        qx, rx = _cholesky_qr(self.X_basis)
        qv, rv = _cholesky_qr(self.V_basis)
        return LowRankMicroState._trusted(qx, rx @ self.S_coeff @ rv.T, qv)

    def micro_norm_sq(self, dx: float) -> float:
        """Squared discrete L2 norm of the micro moments, dx * ||S||_F^2."""
        return float((self.S_coeff * self.S_coeff).sum() * dx)


# ---------------------------------------------------------------------------
# difference stencils


def _ghost_difference(values, n_rows: int, kind: str, grid: StaggeredGrid):
    """Differences of consecutive rows after padding a zero ghost row at both ends."""
    v = np.asarray(values, dtype=float)
    if v.shape[0] != n_rows:
        raise ValueError(f"{kind} data must have {n_rows} rows")
    out = np.empty((n_rows + 1,) + v.shape[1:])
    np.subtract(v[1:], v[:-1], out=out[1:-1])
    out[0], out[-1] = v[0], 0.0 - v[-1]
    out /= grid.dx
    return out


def padded_difference(values, grid: StaggeredGrid):
    """Differences of interface data padded with a zero ghost row at both ends.

    Returns n_cells + 2 rows: rows [:-1] are the backward differences
    (u_j - u_{j-1}) / dx and rows [1:] the forward differences
    (u_{j+1} - u_j) / dx of the same data, so both come from one padding.
    """
    return _ghost_difference(values, grid.n_cells + 1, "interface", grid)


def diff_center(values, grid: StaggeredGrid):
    """Interface-to-center divergence: (u_{i+1/2} - u_{i-1/2}) / dx. Needs no ghosts."""
    v = np.asarray(values, dtype=float)
    if v.shape[0] != grid.n_cells + 1:
        raise ValueError("interface data must have n_cells + 1 rows")
    return (v[1:] - v[:-1]) / grid.dx


def diff_interface(values, grid: StaggeredGrid):
    """Center-to-interface gradient: (u_{i+1} - u_i) / dx with zero ghost cells."""
    return _ghost_difference(values, grid.n_cells, "center", grid)


# ---------------------------------------------------------------------------
# orthonormal factor helpers


def _pick_in_order(gram: np.ndarray, n_new: int):
    """The first n_new candidates, in index order, whose residual against the kept ones is > 0.1.

    Works on the Gram matrix G = C^T C of the candidate block C alone. With R
    the triangular factor of the kept columns C_P = Q R, candidate i has the
    parts t = Q^T c_i = R^-T G[P, i] along the kept unit columns and residual
    norm sqrt(G_ii - t^T t); a kept candidate appends [t; residual] to R.
    Returns the kept indices and R^-1, so that Q = C_P R^-1.
    """
    inv_r = np.zeros((n_new, n_new))
    picked: list[int] = []
    for i in range(gram.shape[0]):
        j = len(picked)
        if j == n_new:
            break
        parts = inv_r[:j, :j].T @ gram[picked, i]
        residual_sq = gram[i, i] - parts @ parts
        if residual_sq > 0.01:
            residual = np.sqrt(residual_sq)
            inv_r[:j, j] = inv_r[:j, :j] @ parts / -residual
            inv_r[j, j] = 1.0 / residual
            picked.append(i)
    return picked, inv_r


def complete_orthonormal_columns(basis: np.ndarray, n_new: int,
                                 candidates: np.ndarray | None = None) -> np.ndarray:
    """Candidate vectors orthonormalized against `basis`, taken in order.

    The candidates are the orthonormal columns of `candidates`, by default the
    canonical unit vectors e_i. A candidate is kept when its residual against
    `basis` and the columns kept before it has norm above 0.1. For orthonormal
    `basis` (k columns) a rejected candidate lies 99% inside the final span of
    dimension k + n_new and a kept one lies fully inside it, so at most k / 0.99
    candidates are rejected and one block of n_new + k / 0.99 + 1 candidates
    suffices. The block C is projected off `basis` by classical Gram-Schmidt
    applied twice; no m x m matrix is formed. The picks are made on the small
    matrix C^T C (`_pick_in_order`), and the kept columns are formed at the end
    by one tall product, C_P R^-1.
    """
    basis = np.asarray(basis, dtype=float)
    m, k = basis.shape
    size = min(m, n_new + int(k / 0.99) + 1)
    cand = np.eye(m, size) if candidates is None else candidates[:, :size]
    for _ in range(2):
        cand = cand - basis @ (basis.T @ cand)
    picked, inv_r = _pick_in_order(_gram(cand), n_new)
    if len(picked) < n_new:
        raise ValueError("cannot complete basis: not enough independent directions")
    return cand[:, picked] @ inv_r


def _inverse_sqrt_series(defect: np.ndarray) -> np.ndarray:
    """(I - M)^(-1/2) for a small symmetric M, to the M^2 term of its binomial series:
    I + M/2 + 3M^2/8, by Horner's rule."""
    diag = slice(None, None, defect.shape[0] + 1)
    poly = 0.375 * defect
    poly.flat[diag] += 0.5
    poly = defect @ poly
    poly.flat[diag] += 1.0
    return poly


def _kept_in_order(rr: np.ndarray, tol: float):
    """How many columns of a QR factor R are kept, in index order, as those whose
    residual against the ones kept before them exceeds tol, and their Q-coefficients.

    The columns before the first diagonal entry at or below tol are kept; they
    span the leading coordinates, so a later column's residual against them is
    the norm of its rows below. When none is above tol, the kept columns are
    Q's leading ones (coefficients None). Otherwise (rare) the first dropped
    column is left out and the rest factored again, until only the last one,
    or none, is dropped.
    """
    n = rr.shape[1]
    lead = next((i for i, d in enumerate(np.abs(rr.diagonal()).tolist()) if not d > tol), n)
    if lead >= n - 1:
        return lead, None
    below = rr[lead:, lead + 1:]
    rest = [j for j, sq in enumerate(np.einsum("ij,ij->j", below, below).tolist(), lead + 1)
            if sq > tol * tol]
    if not rest:
        return lead, None
    live = list(range(lead)) + rest
    while True:
        small, upper = np.linalg.qr(rr[:, live])
        low = [i for i, d in enumerate(np.abs(upper.diagonal()).tolist()) if not d > tol]
        if not low or low[0] == len(live) - 1:
            n_kept = len(live) - len(low)
            return n_kept, small[:, :n_kept]
        del live[low[0]]


def extend_orthonormal_columns(basis: np.ndarray, cols: np.ndarray, min_total: int = 0,
                               candidates: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal columns that extend the orthonormal `basis` to span(basis, cols).

    Classical Gram-Schmidt applied twice, with one QR in between: `cols` is
    projected off `basis` and factored by QR, and the orthonormal factor q is
    projected once more. The second pass acts on unit columns, so the rounding
    that QR amplifies by the conditioning of the projection leaves no component
    in span(basis). It gives new = q - basis leak with leak = basis^T q, so
    new^T new = I - leak^T leak exactly; above rounding, the columns are
    renormalized by the series for (I - leak^T leak)^(-1/2), by Cholesky QR
    for a leak above 1e-3. That factor is symmetric, so it mixes the new
    columns by O(|leak|^2): their span is kept, not their order.

    A column adds no direction, and is dropped rather than padded, when its
    residual against `basis` and the columns kept before it is at or below
    1e-12 of the largest column norm of `cols` (`_kept_in_order`). At most
    rows - k columns are returned (k = basis columns); completions from
    `candidates` (default: canonical vectors) are appended only while k plus
    the returned count is below `min_total`. With an empty basis this is a
    Householder QR of `cols` whose dropped columns are replaced by padding at
    the end; the projections and the second pass are skipped, as they do
    nothing there.
    """
    basis = np.asarray(basis, dtype=float)
    cols = np.asarray(cols, dtype=float)
    m, k = basis.shape
    if k == m:
        return np.empty((m, 0))
    if cols.shape[1] > m:
        raise ValueError("cannot orthonormalize more columns than rows")
    q, rr = np.linalg.qr(cols - basis @ (basis.T @ cols) if k else cols)
    n_kept, small = _kept_in_order(
        rr, _RANK_TOL * math.sqrt(np.einsum("ij,ij->j", cols, cols).max(initial=0.0)))
    new = (q if small is None else q @ small)[:, :min(n_kept, m - k)]
    if k:
        leak = basis.T @ new
        new = new - basis @ leak
        defect = leak.T @ leak  # I - new^T new
        leak_sq = defect.trace()
        if leak_sq > _LEAK_SERIES_SQ:
            new = _cholesky_qr(new)[0]
        elif leak_sq > _LEAK_RENORM_SQ:
            new = new @ _inverse_sqrt_series(defect)
    short = min(min_total, m) - k - new.shape[1]
    if short > 0:
        new = np.concatenate([new, complete_orthonormal_columns(
            np.concatenate([basis, new], axis=1), short, candidates)], axis=1)
    return new


def zero_low_rank_state(n_interfaces: int, t_mat: np.ndarray, rank: int = 1) -> LowRankMicroState:
    """The zero moment matrix at a given rank, with the nodal angular factor T[:rank]^T.

    Its angular columns are the nodal values of the first `rank` moments, so
    the first one is b/|b| as the adaptive step requires.
    """
    if not (1 <= rank <= min(n_interfaces, t_mat.shape[0])):
        raise ValueError("rank out of range for requested dimensions")
    x = np.zeros((n_interfaces, rank))
    x[:, 0] = 1.0 / np.sqrt(n_interfaces)
    if rank > 1:
        x[:, 1:] = complete_orthonormal_columns(x[:, :1], rank - 1)
    v = t_mat[:rank].T.copy()
    s = np.zeros((rank, rank))
    return LowRankMicroState._trusted(x, s, v)
