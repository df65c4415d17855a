"""Randomized property suites shared by the unit tests and the acceptance gate.

Each suite returns its worst observed defect so callers can assert against the
stated tolerance and report the margin.
"""

import numpy as np

from oracles import flux_matrices, nodal_state, reconstruct, reference_ap_truncate
from slabtrt.angular import build_angular_operators, orthonormal_legendre_table
from slabtrt.bug_adaptive import ap_truncate, step_bug_adaptive
from slabtrt.bug_fixed import step_bug_fixed
from slabtrt.full_scheme import FullSchemeWorkspace
from slabtrt.limits_diagnostics import cfl_report, energy
from slabtrt.mesh_state import (
    AbsorptionField,
    LowRankMicroState,
    MacroState,
    StaggeredGrid,
    padded_difference,
)


def _random_orthonormal(rng, m, r):
    q, _ = np.linalg.qr(rng.standard_normal((m, r)))
    return q


def _one_sided(values, grid):
    """(D- values, D+ values): the two row slices of one padded difference."""
    diffs = padded_difference(values, grid)
    return diffs[:-1], diffs[1:]


def summation_by_parts_suite(n_instances=500, seed=3):
    """max | sum z.D+phi + sum (D-z).phi | over random data, both pairings."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        nx = int(rng.integers(3, 24))
        n_mom = int(rng.integers(1, 6))
        grid = StaggeredGrid(-1.0, 1.5, nx)
        zeta = rng.standard_normal((nx + 1, n_mom))
        phi = rng.standard_normal((nx + 1, n_mom))
        zeta_minus, zeta_plus = _one_sided(zeta, grid)
        phi_minus, phi_plus = _one_sided(phi, grid)
        lhs = np.sum(zeta * phi_plus)
        rhs = -np.sum(zeta_minus * phi)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        lhs2 = np.sum(zeta * phi_minus)
        rhs2 = -np.sum(zeta_plus * phi)
        worst = max(worst, abs(lhs2 - rhs2) / max(1.0, abs(rhs2)))
    return worst


def forward_difference_bound_suite(n_instances=500, seed=7):
    """max of sum(D+ phi)^2 - (4/dx^2) sum phi^2 (nonpositive when the bound holds)."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n_instances):
        nx = int(rng.integers(2, 30))
        grid = StaggeredGrid(0.0, float(rng.uniform(0.5, 3.0)), nx)
        phi = rng.standard_normal(nx + 1) * float(rng.uniform(0.1, 10.0))
        lhs = float(np.sum(_one_sided(phi, grid)[1] ** 2))
        rhs = 4.0 / grid.dx**2 * float(np.sum(phi**2))
        worst = max(worst, (lhs - rhs) / max(rhs, 1e-300))
    return worst


def moment_transfer_suite(n_instances=200, seed=11):
    """Norm identities between moment space and quadrature space.

    With the zero-extended vector v = (0, g) and vhat = That^T v the exact
    relations are g.A^2.g + a0^2 g1^2 = vhat.M^2.vhat (the reduced flux matrix
    loses the coupling of the first moment into the structurally absent zeroth
    one), g.|A|.g = vhat.|M|.vhat, and the rank-one source term transfers
    verbatim. Returns the worst relative defect over all three.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    a0 = 1.0 / np.sqrt(3.0)
    for _ in range(n_instances):
        n_mom = int(rng.integers(1, 31))
        ang = build_angular_operators(n_mom)
        fm, quad = flux_matrices(ang), ang.quad
        table = orthonormal_legendre_table(n_mom, quad.nodes)
        t_hat = np.sqrt(quad.weights)[None, :] * table
        g = rng.standard_normal(n_mom)
        v = np.concatenate([[0.0], g])
        v_hat = t_hat.T @ v
        gnorm2 = float(g @ g)

        lhs1 = g @ fm.A @ fm.A @ g + a0**2 * g[0] ** 2
        rhs1 = float(v_hat @ (quad.nodes**2 * v_hat))
        worst = max(worst, abs(lhs1 - rhs1) / max(abs(lhs1), abs(rhs1), 1e-12 * gnorm2))

        lhs2 = g @ fm.A_abs @ g
        rhs2 = float(v_hat @ (np.abs(quad.nodes) * v_hat))
        worst = max(worst, abs(lhs2 - rhs2) / max(abs(lhs2), abs(rhs2), 1e-12 * gnorm2))

        a_hat = np.zeros(n_mom + 1)
        a_hat[1] = a0
        lhs3 = float((a0 * g[0]) ** 2)  # the source vector b / |P_0| is a0 e_1
        back = t_hat @ v_hat
        rhs3 = float((a_hat @ back) ** 2)
        worst = max(worst, abs(lhs3 - rhs3) / max(abs(lhs3), abs(rhs3), 1e-12 * gnorm2))
    return worst


def advection_positivity_suite(n_instances=200, seed=13):
    """Dissipation identity of the upwind advection operator.

    sum_i g.(A+ D- + A- D+)g equals (dx/2) sum_i (D+g).|A|.(D+g) and is thus
    nonnegative; exact for data vanishing at the boundary interfaces, next to
    the zero ghosts. Returns (worst relative identity defect,
    most negative quadratic form).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    most_negative = np.inf
    for _ in range(n_instances):
        nx = int(rng.integers(4, 24))
        n_mom = int(rng.integers(1, 12))
        grid = StaggeredGrid(0.0, float(rng.uniform(0.5, 2.0)), nx)
        fm = flux_matrices(build_angular_operators(n_mom))
        g = rng.standard_normal((nx + 1, n_mom))
        g[0] = 0.0
        g[-1] = 0.0
        dm, dp = _one_sided(g, grid)
        lhs = float(np.sum(g * (dm @ fm.A_plus + dp @ fm.A_minus)))
        rhs = 0.5 * grid.dx * float(np.sum((dp @ fm.A_abs) * dp))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        most_negative = min(most_negative, rhs)
    return worst, most_negative


def advection_boundedness_suite(n_instances=200, seed=17):
    """Bound on the transposed-stencil advection by the moment-transfer matrix.

    sum_i |(A+ D+ + A- D-) g|^2 <= 2 beta_N sum_i (D+g).(T M^2 T^T).(D+g); the
    transfer matrix equals A^2 + a0^2 e1 e1^T. Returns the worst value of
    (lhs - rhs) / max(1, rhs), nonpositive when the bound holds.
    """
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n_instances):
        nx = int(rng.integers(4, 24))
        n_mom = int(rng.integers(1, 12))
        grid = StaggeredGrid(0.0, float(rng.uniform(0.5, 2.0)), nx)
        ang = build_angular_operators(n_mom)
        g = rng.standard_normal((nx + 1, n_mom))
        g[0] = 0.0
        g[-1] = 0.0
        dm, dp = _one_sided(g, grid)
        fm = flux_matrices(ang)
        lhs = float(np.sum((dp @ fm.A_plus + dm @ fm.A_minus) ** 2))
        transfer = (ang.T_mat * ang.quad.nodes) @ (ang.T_mat * ang.quad.nodes).T
        rhs = 2.0 * ang.beta_N * float(np.sum((dp @ transfer) * dp))
        worst = max(worst, (lhs - rhs) / max(1.0, rhs))
    return worst


def truncation_factor_identity_suite(n_instances=200, seed=19, cond_limit=1e6):
    """Refolding identity of the conservative truncation.

    With the refolding basis C = X_hat^T X_new and the kept angular directions
    blkdiag(1, W) = V_hat^T V_new of the returned state, the truncated
    coefficients are the projection S_new = C^T S_hat blkdiag(1, W), and the
    first refolding column is c_ap / |c_ap|, so |S_new[0, 0]| = |S_hat[:, 0]|.
    Instances are conditioned so that the conserved column, the remainder and
    the refolding R of the grid-space reference (`reference_ap_truncate`) have
    condition number below cond_limit. Returns the worst relative Frobenius
    defect.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    accepted = 0
    while accepted < n_instances:
        r = int(rng.integers(1, 4))
        n_aug = 2 * r + 1
        m = int(rng.integers(n_aug + 1, n_aug + 12))
        n_mom = int(rng.integers(n_aug, n_aug + 8))
        x_hat = _random_orthonormal(rng, m, n_aug)
        v_hat = _random_orthonormal(rng, n_mom, n_aug)
        spectrum = np.exp(rng.uniform(np.log(1e-3), 0.0, size=n_aug))
        s_hat = (_random_orthonormal(rng, n_aug, n_aug) * spectrum) @ _random_orthonormal(
            rng, n_aug, n_aug).T
        theta_rel = float(rng.uniform(0.0, 0.5))
        state = ap_truncate(x_hat, v_hat, s_hat, theta_rel)
        ref = reference_ap_truncate(x_hat, v_hat, s_hat, theta_rel)
        conds = [abs(ref.S_ap[0, 0]), ref.svals[-1] / ref.svals[0], 1.0 / np.linalg.cond(ref.R2)]
        if min(conds) <= 1.0 / cond_limit:
            continue
        accepted += 1

        assert state.rank == ref.r_star + 1
        refold = x_hat.T @ state.X_basis
        kept = v_hat.T @ state.V_basis
        scale = max(np.linalg.norm(state.S_coeff), 1e-300)
        defects = [np.linalg.norm(refold.T @ s_hat @ kept - state.S_coeff) / scale,
                   abs(abs(state.S_coeff[0, 0]) - np.linalg.norm(s_hat[:, 0])) / scale,
                   np.abs(kept[:, 0] - np.eye(n_aug)[0]).max()]
        worst = max(worst, *defects)
    return worst


def gauge_invariance_suite(n_instances=200, seed=23):
    """Rotating the factors by orthogonal matrices must not move the reconstruction.

    Runs one fixed-rank step on the original and on gauge-rotated factors and
    returns the worst relative Frobenius distance of the post-step products.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        nx = int(rng.integers(5, 14))
        n_mom = int(rng.integers(3, 8))
        r = int(rng.integers(1, min(4, n_mom + 1)))
        grid = StaggeredGrid(-1.0, 1.0, nx)
        ang = build_angular_operators(n_mom)
        sigma = AbsorptionField(rng.uniform(0.4, 2.0, nx), rng.uniform(0.4, 2.0, nx + 1))
        epsilon = float(rng.uniform(0.05, 1.0))
        ws = FullSchemeWorkspace(grid, epsilon, sigma, ang)
        macro = MacroState(rng.standard_normal(nx), rng.standard_normal(nx))
        x = _random_orthonormal(rng, nx + 1, r)
        v = _random_orthonormal(rng, n_mom, r)
        s = rng.standard_normal((r, r))
        w = ang.T_mat.T @ v  # the steps hold V in nodal coordinates
        state = LowRankMicroState(x, s, w)
        q1 = _random_orthonormal(rng, r, r)
        q2 = _random_orthonormal(rng, r, r)
        rotated = LowRankMicroState(x @ q1, q1.T @ s @ q2, w @ q2)
        dt = float(rng.uniform(0.005, 0.05))

        _, out_a = step_bug_fixed(macro, state, ws, dt)
        _, out_b = step_bug_fixed(macro, rotated, ws, dt)
        ga = reconstruct(out_a)
        gb = reconstruct(out_b)
        worst = max(worst, np.linalg.norm(ga - gb) / max(np.linalg.norm(ga), 1e-300))
    return worst


def step_energy_suite(n_instances=100, seed=29):
    """Largest relative energy gain of one low-rank step at the CFL bound.

    Each instance draws a grid, absorption, epsilon, macro state and a random
    low-rank state whose first angular column is pinned to b/|b|, and takes one
    `bug_fixed` step and one `bug_adaptive` step from it with dt at the CFL
    bound of `cfl_report`. Returns the worst (E_new - E_old) / E_old over both
    schemes, nonpositive when no step gains energy. The absorption and the
    macro state span three decades down from O(1): with strong absorption and
    an O(1) macro state every step loses at least 0.1% of its energy, which
    would hide a Galerkin advection that gains energy.
    """
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n_instances):
        nx = int(rng.integers(4, 30))
        n_mom = int(rng.integers(2, 12))
        r = int(rng.integers(1, min(5, n_mom) + 1))
        grid = StaggeredGrid(0.0, float(rng.uniform(0.5, 3.0)), nx)
        ang = build_angular_operators(n_mom)
        sigma = AbsorptionField(10.0 ** rng.uniform(-3.0, 1.0, nx),
                                10.0 ** rng.uniform(-3.0, 1.0, nx + 1))
        epsilon = float(10.0 ** rng.uniform(-4.0, 0.0))
        ws = FullSchemeWorkspace(grid, epsilon, sigma, ang)
        dt = cfl_report(ws)[0]
        scale = 10.0 ** rng.uniform(-3.0, 0.0)
        macro = MacroState(scale * rng.standard_normal(nx), scale * rng.standard_normal(nx))
        v = np.zeros((n_mom, r))
        v[0, 0] = 1.0
        if r > 1:
            v[1:, 1:] = _random_orthonormal(rng, n_mom - 1, r - 1)
        state = nodal_state(_random_orthonormal(rng, nx + 1, r), rng.standard_normal((r, r)), v)
        e_old = energy(macro, state.micro_norm_sq(grid.dx), ws)
        theta_rel = float(rng.uniform(0.0, 0.1))
        for new_macro, new_state in (step_bug_fixed(macro, state, ws, dt),
                                     step_bug_adaptive(macro, state, ws, dt, theta_rel)):
            e_new = energy(new_macro, new_state.micro_norm_sq(grid.dx), ws)
            worst = max(worst, (e_new - e_old) / e_old)
    return worst
