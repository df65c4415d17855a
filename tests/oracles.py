"""Independent scalar-loop oracles for the update equations.

Everything here is written with explicit Python loops and per-entry arithmetic,
deliberately avoiding the vectorized code paths of the package, so agreement is
evidence rather than tautology. The factor references at the end (vector-at-a-
time basis completion, Householder QR with padding, the loop form of the
kept-rank rule, the grid-space conservative truncation and the full-stack
basis augmentation) are the straightforward formulations that the package's
blocked, vectorized, coefficient-space and block-extension versions must
reproduce. Earlier forms of package kernels (the dense step scaling on
half-width views, the dense step over the whole state at once, the L-step
right-hand side from temporaries) are kept as the references their present
forms must match bit for bit; the dense forms scale by 1 / (shift + sigma) as
the step does, and the unblocked one also divides, as the step did before, for
a reference the step must match within rounding.

The modal references come first: the flux matrices A, A+-, |A|, the modal
views of the nodal states and the kinetic initialization. No step of the
package forms them; they are what its nodal forms are checked against.
"""

from typing import NamedTuple

import numpy as np

from slabtrt.angular import build_angular_operators, orthonormal_legendre_table
from slabtrt.bug_fixed import (
    _absorb_inverse,
    _flux_projections,
    _galerkin_update,
    _k_update,
    _l_update,
    _spatial_blocks,
)
from slabtrt.full_scheme import emission_gradient_parts, meso_macro_update
from slabtrt.mesh_state import (
    FullMicroState,
    LowRankMicroState,
    MacroState,
    complete_orthonormal_columns,
    padded_difference,
)

SQ23 = np.sqrt(2.0 / 3.0)  # norm of the linear Legendre polynomial


# The package's substep kernels called from the bases alone, with the stencil,
# Galerkin blocks and flux projections formed from them as a step forms them.


def kernel_k(state, source, ws, dt):
    """K-step of the package from the state's own stencil and flux projections."""
    return _k_update(state, source, ws, dt, padded_difference(state.X_basis, ws.grid),
                     _flux_projections(state.V_basis, ws))


def kernel_l(state, source, ws, dt):
    """L-step (nodal T^T L) of the package from the blocks of the state's X."""
    x = state.X_basis
    return _l_update(state, ws, dt, _spatial_blocks(x, padded_difference(x, ws.grid), ws),
                     x.T @ source)


def kernel_galerkin(x_new, w_new, s_tilde, source, ws, dt):
    """Galerkin coefficient update of the package in the bases X_new, W_new (nodal)."""
    blocks = _spatial_blocks(x_new, padded_difference(x_new, ws.grid), ws)
    return _galerkin_update(w_new, s_tilde, ws, dt, blocks, x_new.T @ source,
                            _flux_projections(w_new, ws))


# The angular products of the BUG kernels with mu+ and mu- applied on every
# Gauss node, the zero factors included. The package applies each on its own
# half of the nodes; these are what that split must reproduce.


def upwind_nodes(angular):
    """mu+ = (mu + |mu|) / 2 and mu- = (mu - |mu|) / 2 on every Gauss node."""
    mu = angular.quad.nodes
    return 0.5 * (mu + np.abs(mu)), 0.5 * (mu - np.abs(mu))


def all_node_flux_projections(w, angular):
    """(W^T diag(mu+) W, W^T diag(mu-) W) summed over all N + 1 nodes."""
    mu_plus, mu_minus = upwind_nodes(angular)
    return (w.T * mu_plus) @ w, (w.T * mu_minus) @ w


def all_node_l_update(state, ws, dt, blocks, x_source):
    """The L-step (nodal T^T L) with P (mu+ o (W S^T F-^T) - mu- o (W S^T F-)) on all nodes."""
    eps, ang = ws.epsilon, ws.angular
    shift = eps**2 / dt
    flow_minus, gram = blocks
    mu_plus, mu_minus = upwind_nodes(ang)
    l_nodal = state.V_basis @ state.S_coeff.T
    advect = (mu_plus[:, None] * (l_nodal @ flow_minus.T)
              - mu_minus[:, None] * (l_nodal @ flow_minus))
    advect -= ang.t0[:, None] * (ang.t0 @ advect)
    rhs = shift * l_nodal - eps * advect - ang.b[:, None] * x_source
    return rhs @ _absorb_inverse(gram, shift)


# Earlier forms of two kernels, kept as references that the present ones must
# reproduce bit for bit: the dense step scaling its upwind differences on the
# two half-width views, the dense step over the whole state in one block, and
# the L-step right-hand side from three temporaries. Both dense forms multiply
# by the reciprocal of shift + sigma, as the step does.


def half_width_step_full(macro, micro, ws, dt):
    """`step_full` with the differences scaled by mu on each half of the nodes only."""
    g = micro.g_matrix
    ws.check_step(macro, *g.shape, dt)
    eps, ang = ws.epsilon, ws.angular
    shift = eps**2 / dt
    mu = (eps / ws.grid.dx) * ang.quad.nodes
    neg = ang.n_neg
    diff = np.empty((g.shape[0] + 1, g.shape[1]))
    diff[0] = g[0]
    np.subtract(g[1:], g[:-1], out=diff[1:-1])
    np.subtract(0.0, g[-1], out=diff[-1])
    forward, backward = diff[1:, :neg], diff[:-1, neg:]
    forward *= mu[:neg]
    backward *= mu[neg:]
    along_t0 = forward @ ang.t0[:neg] + backward @ ang.t0[neg:]
    g_new = np.multiply(g, shift)
    g_new[:, :neg] -= forward
    g_new[:, neg:] -= backward
    source = emission_gradient_parts(macro, ws)[1]
    g_new += np.matmul(np.column_stack([along_t0, -source]), ang.t0_b, out=diff[:-1])
    g_new *= (1.0 / (shift + ws.sigma.at_interfaces))[:, None]
    h_new, t_new = meso_macro_update(g_new @ ang.pin, macro, ws, dt)
    return MacroState(t_new, h_new), FullMicroState(g_new)


def unblocked_step_full(macro, micro, ws, dt, divide=False):
    """`step_full` with every pass over the whole state: one (n+1) x (N+1) difference
    buffer; with `divide`, absorption divides by shift + sigma instead of multiplying
    by its reciprocal."""
    g = micro.g_matrix
    ws.check_step(macro, *g.shape, dt)
    eps, ang = ws.epsilon, ws.angular
    shift = eps**2 / dt
    mu = (eps / ws.grid.dx) * ang.quad.nodes
    neg = ang.n_neg
    diff = np.empty((g.shape[0] + 1, g.shape[1]))
    diff[0] = g[0]
    np.subtract(g[1:], g[:-1], out=diff[1:-1])
    np.subtract(0.0, g[-1], out=diff[-1])
    diff *= mu
    forward, backward = diff[1:, :neg], diff[:-1, neg:]
    along_t0 = forward @ ang.t0[:neg] + backward @ ang.t0[neg:]
    g_new = np.multiply(g, shift)
    g_new[:, :neg] -= forward
    g_new[:, neg:] -= backward
    source = emission_gradient_parts(macro, ws)[1]
    g_new += np.matmul(np.column_stack([along_t0, -source]), ang.t0_b, out=diff[:-1])
    denom = (shift + ws.sigma.at_interfaces)[:, None]
    if divide:  # the absorption form before the reciprocal: entries differ by ~1 ulp per step
        g_new /= denom
    else:
        g_new *= 1.0 / denom
    h_new, t_new = meso_macro_update(g_new @ ang.pin, macro, ws, dt)
    return MacroState(t_new, h_new), FullMicroState(g_new)


def three_temporary_l_update(state, ws, dt, blocks, x_source):
    """`_l_update` with its right-hand side built from three (N+1) x r temporaries."""
    eps, ang, n = ws.epsilon, ws.angular, ws.angular.n_neg
    shift = eps**2 / dt
    flow_minus, gram = blocks
    mu_plus, mu_minus = upwind_nodes(ang)
    l_nodal = state.V_basis @ state.S_coeff.T
    advect = np.empty_like(l_nodal)
    np.matmul(l_nodal[n:], flow_minus.T, out=advect[n:])
    advect[n:] *= mu_plus[n:, None]
    np.matmul(l_nodal[:n], flow_minus, out=advect[:n])
    advect[:n] *= -mu_minus[:n, None]
    advect -= ang.t0[:, None] * (ang.t0 @ advect)
    rhs = shift * l_nodal - eps * advect - ang.b[:, None] * x_source
    return rhs @ _absorb_inverse(gram, shift)


class FluxMatrices(NamedTuple):
    A: np.ndarray
    A_plus: np.ndarray
    A_minus: np.ndarray
    A_abs: np.ndarray


def _read_only(mat):
    mat.setflags(write=False)
    return mat


def flux_matrices(angular):
    """The modal flux matrix A = T M T^T with M = diag(mu), its upwind parts with
    (M +- |M|)/2 and the stabilization matrix with |M|, as read-only arrays."""
    t_mat, mu = angular.T_mat, angular.quad.nodes
    a_plus = _read_only(0.5 * (t_mat * (mu + np.abs(mu))) @ t_mat.T)
    a_minus = _read_only(0.5 * (t_mat * (mu - np.abs(mu))) @ t_mat.T)
    return FluxMatrices(_read_only(a_plus + a_minus), a_plus, a_minus,
                        _read_only(a_plus - a_minus))


def upwind(angular):
    """(A+, A-) of `flux_matrices`, in the order the loop oracles take them."""
    fm = flux_matrices(angular)
    return fm.A_plus, fm.A_minus


def modal_b(angular):
    """b = |P_1| e_1, the modal direction of the interface source; angular.b is T^T b."""
    b = np.zeros(angular.n_moments)
    b[0] = SQ23
    return b


def modal(micro, t_mat):
    """A nodal state mapped back to moments: g = (g T) T^T for a dense state, and
    V = T W for the nodal angular factor W of a low-rank one."""
    if isinstance(micro, FullMicroState):
        return FullMicroState(micro.g_matrix @ t_mat.T)
    return LowRankMicroState(micro.X_basis, micro.S_coeff, t_mat @ micro.V_basis)


def reconstruct(state):
    """The dense matrix X S V^T of a low-rank state."""
    return state.X_basis @ state.S_coeff @ state.V_basis.T


def nodal_state(x, s, v):
    """The low-rank state of the modal factors X, S, V (V with N rows), held as the
    steps hold it: with the nodal angular factor T^T V."""
    t_mat = build_angular_operators(v.shape[0]).T_mat
    return LowRankMicroState(x, s, t_mat.T @ v)


def nodal_dense(g, angular):
    """The dense state of the moments g (N columns) as the dense step holds it, g T."""
    return FullMicroState(np.asarray(g, dtype=float) @ angular.T_mat)


def init_from_kinetic(f_sampler, T0, grid, epsilon, quad):
    """Macro-micro initial data from a kinetic density f(x, mu) and temperature T0(x).

    f_sampler and T0 must accept numpy arrays and broadcast; the micro moments are
    g_k = <(f - <f>/2) P_k> / eps at interfaces for k = 1..quad.nodes.size-1, and
    h = (<f>/2 - B(T0)) / eps^2 at centers, with the emission B(T0) = T0.
    """
    n_moments = quad.nodes.size - 1
    if n_moments < 1:
        raise ValueError("quadrature must have at least two nodes")
    table = orthonormal_legendre_table(n_moments, quad.nodes)

    f_if = np.asarray(f_sampler(grid.interfaces[:, None], quad.nodes[None, :]), dtype=float)
    mean_if = 0.5 * (f_if @ quad.weights)
    fluct = f_if - mean_if[:, None]
    g = ((fluct * quad.weights[None, :]) @ table[1:].T) / epsilon

    f_c = np.asarray(f_sampler(grid.centers[:, None], quad.nodes[None, :]), dtype=float)
    t0 = np.asarray(T0(grid.centers), dtype=float)
    h = (0.5 * (f_c @ quad.weights) - t0) / epsilon**2
    return MacroState(t0, h), FullMicroState(g)


def _sample(seq, idx):
    """Entry idx of seq, or the zero ghost outside it."""
    return seq[idx] if 0 <= idx < len(seq) else 0.0


def oracle_interface_source(T, h, epsilon, dx):
    """delta0(T) + eps^2 * delta0(h) at every interface, by loops."""
    nx = len(T)
    eps = epsilon
    src = []
    for j in range(nx + 1):
        grad_t = (_sample(T, j) - _sample(T, j - 1)) / dx
        grad_h = (_sample(h, j) - _sample(h, j - 1)) / dx
        src.append(grad_t + eps**2 * grad_h)
    return src


def oracle_step_full(T, h, G, epsilon, dx, dt, sigma_c, sigma_i, A_plus, A_minus):
    """Term-by-term transcription of one dense macro-micro step (a = c = c_nu = 1)."""
    nx = len(T)
    ni = nx + 1
    n_mom = G.shape[1]
    eps = epsilon
    alpha = 2.0  # 2 / c_nu
    shift = eps**2 / dt
    src = oracle_interface_source(T, h, epsilon, dx)

    rows = np.asarray(G, dtype=float).tolist()
    A_plus, A_minus = np.asarray(A_plus).tolist(), np.asarray(A_minus).tolist()

    def g_at(j, k):
        return rows[j][k] if 0 <= j < ni else 0.0

    g_new = np.zeros((ni, n_mom))
    for j in range(ni):
        for k in range(n_mom):
            advect = 0.0
            for ell in range(n_mom):
                d_minus = (g_at(j, ell) - g_at(j - 1, ell)) / dx
                d_plus = (g_at(j + 1, ell) - g_at(j, ell)) / dx
                advect += A_plus[k][ell] * d_minus + A_minus[k][ell] * d_plus
            b_k = SQ23 if k == 0 else 0.0
            rhs = shift * rows[j][k] - eps * advect - b_k * src[j]
            g_new[j, k] = rhs / (shift + sigma_i[j])

    h_new = np.zeros(nx)
    t_new = np.zeros(nx)
    for i in range(nx):
        div = (g_new[i + 1, 0] - g_new[i, 0]) / dx
        denom = shift + sigma_c[i] * (1.0 + alpha)
        h_new[i] = (shift * h[i] - 0.5 * SQ23 * div) / denom
        t_new[i] = T[i] + dt * alpha * sigma_c[i] * h_new[i]
    return t_new, h_new, g_new


def oracle_l_step(X, S, V, T, h, epsilon, dx, dt, sigma_i, A_plus, A_minus):
    """Loop transcription of the angular-basis update (the r x r solve uses numpy)."""
    ni, r = X.shape
    n_mom = V.shape[0]
    eps = epsilon
    shift = eps**2 / dt
    src = oracle_interface_source(T, h, epsilon, dx)

    def x_at(j, p):
        return X[j, p] if 0 <= j < ni else 0.0

    l_old = np.zeros((n_mom, r))
    for k in range(n_mom):
        for p in range(r):
            l_old[k, p] = sum(V[k, q] * S[p, q] for q in range(r))

    grad_minus = np.zeros((r, r))
    grad_plus = np.zeros((r, r))
    absorb = np.zeros((r, r))
    for p in range(r):
        for q in range(r):
            for j in range(ni):
                dm = (x_at(j, p) - x_at(j - 1, p)) / dx
                dp = (x_at(j + 1, p) - x_at(j, p)) / dx
                grad_minus[p, q] += dm * X[j, q]
                grad_plus[p, q] += dp * X[j, q]
                absorb[p, q] += sigma_i[j] * X[j, p] * X[j, q]

    rhs = np.zeros((n_mom, r))
    for k in range(n_mom):
        b_k = SQ23 if k == 0 else 0.0
        for p in range(r):
            advect = 0.0
            for ell in range(n_mom):
                for q in range(r):
                    advect += (A_plus[k][ell] * l_old[ell, q] * grad_minus[q, p]
                               + A_minus[k][ell] * l_old[ell, q] * grad_plus[q, p])
            source = b_k * sum(X[j, p] * src[j] for j in range(ni))
            rhs[k, p] = shift * l_old[k, p] - eps * advect - source

    lhs = shift * np.eye(r) + absorb
    return np.linalg.solve(lhs.T, rhs.T).T


def oracle_galerkin_rhs(X, V, S_tilde, T, h, epsilon, dx, dt, sigma_i,
                        A_plus, A_minus):
    """Projected explicit right-hand side of the coefficient update (no solve)."""
    ni = X.shape[0]
    n_mom = V.shape[0]
    eps = epsilon
    shift = eps**2 / dt
    src = np.array(oracle_interface_source(T, h, epsilon, dx))

    g_tilde = X @ S_tilde @ V.T
    rows = np.zeros_like(g_tilde)
    for j in range(ni):
        for k in range(n_mom):
            advect = 0.0
            for ell in range(n_mom):
                prev = g_tilde[j - 1, ell] if j > 0 else 0.0
                nxt = g_tilde[j + 1, ell] if j + 1 < ni else 0.0
                advect += (A_plus[k][ell] * (g_tilde[j, ell] - prev) / dx
                           + A_minus[k][ell] * (nxt - g_tilde[j, ell]) / dx)
            b_k = SQ23 if k == 0 else 0.0
            rows[j, k] = shift * g_tilde[j, k] - eps * advect - b_k * src[j]
    return X.T @ rows @ V


def oracle_galerkin_dense(X, V, S_tilde, T, h, epsilon, dx, dt, sigma_i,
                          A_plus, A_minus):
    """Coefficient update via the full dense right-hand side projected onto the bases.

    The implicit operator S -> shift*S + X^T (sigma o (X S V^T)) V is assembled by
    brute force on the coefficient basis and solved as one flat linear system.
    """
    ni, rx = X.shape
    n_mom, rv = V.shape
    eps = epsilon
    shift = eps**2 / dt
    src = np.array(oracle_interface_source(T, h, epsilon, dx))

    def dense_diff(mat, sign):
        out = np.zeros_like(mat)
        for j in range(ni):
            for k in range(mat.shape[1]):
                if sign < 0:
                    prev = mat[j - 1, k] if j > 0 else 0.0
                    out[j, k] = (mat[j, k] - prev) / dx
                else:
                    nxt = mat[j + 1, k] if j + 1 < ni else 0.0
                    out[j, k] = (nxt - mat[j, k]) / dx
        return out

    g_tilde = X @ S_tilde @ V.T
    b_full = np.zeros(n_mom)
    b_full[0] = SQ23
    dense_rhs = (shift * g_tilde
                 - eps * (dense_diff(g_tilde, -1) @ np.asarray(A_plus)
                          + dense_diff(g_tilde, +1) @ np.asarray(A_minus))
                 - np.outer(src, b_full))
    rhs_proj = X.T @ dense_rhs @ V

    def apply_lhs(s_mat):
        g = X @ s_mat @ V.T
        return shift * s_mat + X.T @ (sigma_i[:, None] * g) @ V

    size = rx * rv
    op = np.zeros((size, size))
    for p in range(rx):
        for q in range(rv):
            basis = np.zeros((rx, rv))
            basis[p, q] = 1.0
            op[:, p * rv + q] = apply_lhs(basis).ravel()
    return np.linalg.solve(op, rhs_proj.ravel()).reshape(rx, rv)


def oracle_rosseland_step(T, dx, dt, sigma_i):
    """Loop transcription of the explicit diffusion-limit step (zero ghosts)."""
    nx = len(T)

    def t_at(i):
        return T[i] if 0 <= i < nx else 0.0

    out = np.zeros(nx)
    for i in range(nx):
        upper = (t_at(i + 1) - t_at(i)) / sigma_i[i + 1]
        lower = (t_at(i) - t_at(i - 1)) / sigma_i[i]
        coef = (2.0 / 3.0) / (1.0 + 2.0)  # 2 a c / (3 c_nu) over 1 + 2 a / c_nu
        out[i] = T[i] + dt * coef * (upper - lower) / dx**2
    return out


def reference_complete_orthonormal_columns(basis, n_new):
    """Canonical vectors orthonormalized one at a time by two modified Gram-Schmidt sweeps.

    Returns (columns, picked canonical indices).
    """
    m = basis.shape[0]
    cols = [basis[:, j] for j in range(basis.shape[1])]
    added, picked = [], []
    for k in range(m):
        if len(added) == n_new:
            break
        v = np.zeros(m)
        v[k] = 1.0
        for _ in range(2):
            for q in cols:
                v = v - np.dot(q, v) * q
        nv = np.linalg.norm(v)
        if nv > 0.1:
            v = v / nv
            cols.append(v)
            added.append(v)
            picked.append(k)
    if len(added) < n_new:
        raise ValueError("cannot complete basis: not enough independent directions")
    return (np.column_stack(added) if added else np.zeros((m, 0))), picked


def reference_orthonormal_columns(mat):
    """Orthonormal basis with the same column count as `mat`, by one Householder QR.

    Columns whose QR diagonal entry falls below 1e-12 of the largest column norm
    carry no reliable direction and are replaced, in place, by canonical
    completions. When a column is dropped, the kept ones are orthonormalized
    again through the QR of their R block: Householder QR gives a dropped
    column a rounding-noise direction, mostly on one of the first grid rows,
    and the kept q columns after it mix with that noise.
    """
    mat = np.asarray(mat, dtype=float)
    m, r = mat.shape
    if r > m:
        raise ValueError("cannot orthonormalize more columns than rows")
    q, rr = np.linalg.qr(mat)
    col_scale = np.max(np.linalg.norm(mat, axis=0)) if r else 0.0
    diag = np.abs(np.diag(rr))
    keep = diag > 1e-12 * col_scale if col_scale > 0.0 else np.zeros(r, dtype=bool)
    if np.all(keep):
        return q
    kept = q @ np.linalg.qr(rr[:, keep])[0]
    out = np.empty((m, r))
    out[:, keep] = kept
    out[:, ~keep] = complete_orthonormal_columns(kept, r - int(keep.sum()))
    return out


def reference_choose_kept_rank(svals, theta_rel):
    """Loop form of the kept-rank rule: the first r* with sqrt(tail_{r*}) <= theta_rel.

    tail_k sums the normalized singular values from index k on, accumulated
    from the smallest one up.
    """
    n = svals.size
    if n == 0 or svals[0] <= 0.0:
        return 1
    normalized = svals / svals[0]
    tail = np.concatenate([np.cumsum(normalized[::-1])[::-1], [0.0]])
    for kept in range(1, n + 1):
        if np.sqrt(tail[kept]) <= theta_rel:
            return kept
    return n


class TruncationReference(NamedTuple):
    X_new: np.ndarray
    S_new: np.ndarray
    V_new: np.ndarray
    r_star: int
    S_ap: np.ndarray  # R of the conserved column K_ap (zero when it is degenerate)
    svals: np.ndarray  # singular values of the remainder K_rem
    R2: np.ndarray  # R of the refolding QR of [x_ap | x_rem]


def reference_ap_truncate(x_hat, v_hat, s_hat, theta_rel, degenerate_tol=1e-14):
    """Conservative truncation carried out on the grid-space product K = X_hat S_hat.

    Returns the truncated factors with the intermediates of the truncation
    (`TruncationReference`); the kept-rank rule is the package's normalized
    singular-value tail test, and r_star is capped by the widths of both
    augmented bases.
    """
    width_x, width_v = x_hat.shape[1], v_hat.shape[1]
    k_hat = x_hat @ s_hat
    k_ap, k_rem = k_hat[:, :1], k_hat[:, 1:]

    x_rem_hat, s_rem_hat = np.linalg.qr(k_rem)
    u_mat, svals, wt_mat = np.linalg.svd(s_rem_hat)
    r_star = svals.size
    if svals.size == 0 or svals[0] <= 0.0:
        r_star = 1
    else:
        normalized = svals / svals[0]
        for kept in range(1, svals.size + 1):
            if np.sqrt(np.sum(normalized[kept:])) <= theta_rel:
                r_star = kept
                break
    r_star = max(min(r_star, width_x - 1, width_v - 1), 1)

    x_rem = x_rem_hat @ u_mat[:, :r_star]
    v_new = np.column_stack([v_hat[:, :1], v_hat[:, 1:] @ wt_mat[:r_star, :].T])
    if np.linalg.norm(k_ap) <= degenerate_tol * max(np.linalg.norm(k_hat), 1e-300):
        x_ap, _ = reference_complete_orthonormal_columns(x_rem, 1)
        s_ap = np.zeros((1, 1))
    else:
        x_ap, s_ap = np.linalg.qr(k_ap)
    x_new, r2 = np.linalg.qr(np.column_stack([x_ap, x_rem]))
    s_block = np.zeros((r_star + 1, r_star + 1))
    s_block[0, 0] = s_ap[0, 0]
    s_block[1:, 1:] = np.diag(svals[:r_star])
    return TruncationReference(x_new, r2 @ s_block, v_new, r_star, s_ap, svals, r2)


def reference_augment_bases(state, macro, ws, dt):
    """Full-stack orthonormalization of the augmented bases, as one QR per stack.

    X_hat = orth[w_ap, K, X] and V_hat = orth[b, L, V] by Householder QR of the
    whole stacks (`reference_orthonormal_columns`), cut to min(2r+1, rows, N) columns, with
    V_hat[:, 0] pinned to +b/|b|. V[:, 0] is b/|b| for a pinned state, so it is
    left out of the angular stack: kept, QR would drop it and pad a canonical
    direction. The angular stack is orthonormalized in modal coordinates and
    V_hat returned in the nodal ones of the state. The K and L updates come
    from the package kernels, which the loop oracles above check; only the
    orthonormalization is the reference. Returns (X_hat, V_hat).
    """
    t_mat = ws.angular.T_mat
    thermal, source = emission_gradient_parts(macro, ws)
    w_ap = thermal / ws.sigma.at_interfaces
    k_new = kernel_k(state, source, ws, dt)
    l_new = t_mat @ kernel_l(state, source, ws, dt)
    b_vec = modal_b(ws.angular)
    n_aug = min(2 * state.rank + 1, state.X_basis.shape[0], ws.angular.n_moments)
    x_hat = reference_orthonormal_columns(np.column_stack([w_ap, k_new, state.X_basis])[:, :n_aug])
    v_stack = np.column_stack([b_vec, l_new, t_mat @ state.V_basis[:, 1:]])
    v_hat = reference_orthonormal_columns(v_stack[:, :min(n_aug, v_stack.shape[1])])
    if v_hat[:, 0] @ b_vec < 0.0:
        v_hat[:, 0] *= -1.0
    return x_hat, t_mat.T @ v_hat
