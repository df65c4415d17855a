"""Randomized property suites shared by the unit tests and the acceptance gate.

Each suite returns its worst observed defect so callers can assert against the
stated tolerance and report the margin.
"""

import numpy as np

from slabtrt.angular import build_angular_operators, orthonormal_legendre_table
from slabtrt.bug_adaptive import AugmentedFactors, TruncationConfig, ap_truncate
from slabtrt.bug_fixed import step_bug_fixed
from slabtrt.full_scheme import FullSchemeWorkspace
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


def _one_sided(values, grid, bc):
    """(D- values, D+ values): the two row slices of one padded difference."""
    diffs = padded_difference(values, grid, bc)
    return diffs[:-1], diffs[1:]


def summation_by_parts_suite(n_instances=500, seed=3):
    """max | sum z.D+phi + sum (D-z).phi | over random data, both pairings and bcs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        nx = int(rng.integers(3, 24))
        n_mom = int(rng.integers(1, 6))
        grid = StaggeredGrid(-1.0, 1.5, nx)
        zeta = rng.standard_normal((nx + 1, n_mom))
        phi = rng.standard_normal((nx + 1, n_mom))
        for bc in ("periodic", "zero_ghost"):
            zeta_minus, zeta_plus = _one_sided(zeta, grid, bc)
            phi_minus, phi_plus = _one_sided(phi, grid, bc)
            lhs = np.sum(zeta * phi_plus)
            rhs = -np.sum(zeta_minus * phi)
            scale = max(1.0, abs(rhs))
            worst = max(worst, abs(lhs - rhs) / scale)
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
        lhs = float(np.sum(_one_sided(phi, grid, "zero_ghost")[1] ** 2))
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
        quad = ang.quad
        table = orthonormal_legendre_table(n_mom, quad.nodes)
        t_hat = np.sqrt(quad.weights)[None, :] * table
        g = rng.standard_normal(n_mom)
        v = np.concatenate([[0.0], g])
        v_hat = t_hat.T @ v
        gnorm2 = float(g @ g)

        lhs1 = g @ ang.A @ ang.A @ g + a0**2 * g[0] ** 2
        rhs1 = float(v_hat @ (quad.nodes**2 * v_hat))
        worst = max(worst, abs(lhs1 - rhs1) / max(abs(lhs1), abs(rhs1), 1e-12 * gnorm2))

        lhs2 = g @ ang.A_abs @ g
        rhs2 = float(v_hat @ (np.abs(quad.nodes) * v_hat))
        worst = max(worst, abs(lhs2 - rhs2) / max(abs(lhs2), abs(rhs2), 1e-12 * gnorm2))

        a_hat = np.zeros(n_mom + 1)
        a_hat[1] = a0
        lhs3 = float((ang.a_vec @ g) ** 2)
        back = t_hat @ v_hat
        rhs3 = float((a_hat @ back) ** 2)
        worst = max(worst, abs(lhs3 - rhs3) / max(abs(lhs3), abs(rhs3), 1e-12 * gnorm2))
    return worst


def advection_positivity_suite(n_instances=200, seed=13):
    """Dissipation identity of the upwind advection operator.

    sum_i g.(A+ D- + A- D+)g equals (dx/2) sum_i (D+g).|A|.(D+g) and is thus
    nonnegative; exact for periodic data and for zero-ghost data vanishing at
    the boundary interfaces. Returns (worst relative identity defect,
    most negative quadratic form).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    most_negative = np.inf
    for trial in range(n_instances):
        nx = int(rng.integers(4, 24))
        n_mom = int(rng.integers(1, 12))
        grid = StaggeredGrid(0.0, float(rng.uniform(0.5, 2.0)), nx)
        ang = build_angular_operators(n_mom)
        g = rng.standard_normal((nx + 1, n_mom))
        bc = "periodic" if trial % 2 == 0 else "zero_ghost"
        if bc == "zero_ghost":
            g[0] = 0.0
            g[-1] = 0.0
        dm, dp = _one_sided(g, grid, bc)
        lhs = float(np.sum(g * (dm @ ang.A_plus + dp @ ang.A_minus)))
        rhs = 0.5 * grid.dx * float(np.sum((dp @ ang.A_abs) * dp))
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
    for trial in range(n_instances):
        nx = int(rng.integers(4, 24))
        n_mom = int(rng.integers(1, 12))
        grid = StaggeredGrid(0.0, float(rng.uniform(0.5, 2.0)), nx)
        ang = build_angular_operators(n_mom)
        g = rng.standard_normal((nx + 1, n_mom))
        bc = "periodic" if trial % 2 == 0 else "zero_ghost"
        if bc == "zero_ghost":
            g[0] = 0.0
            g[-1] = 0.0
        dm, dp = _one_sided(g, grid, bc)
        lhs = float(np.sum((dp @ ang.A_plus + dm @ ang.A_minus) ** 2))
        transfer = (ang.T_mat * ang.quad.nodes) @ (ang.T_mat * ang.quad.nodes).T
        rhs = 2.0 * ang.beta_N * float(np.sum((dp @ transfer) * dp))
        worst = max(worst, (lhs - rhs) / max(1.0, rhs))
    return worst


def truncation_factor_identity_suite(n_instances=200, seed=19, cond_limit=1e6):
    """Refolding identity of the conservative truncation.

    R2^{-T} blkdiag(S_ap^{-T}, U^T S_rem^{-T}) S_hat^T S_hat blkdiag(I, W)
    reproduces the truncated coefficient matrix. Instances are conditioned so
    every inverted factor has condition number below cond_limit. Returns the
    worst relative Frobenius defect.
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
        aug = AugmentedFactors(X_hat=x_hat, V_hat=v_hat, w_ap=np.zeros(m), source=np.zeros(m))
        cfg = TruncationConfig(theta_rel=float(rng.uniform(0.0, 0.5)), max_rank=n_aug)
        state, det = ap_truncate(aug, s_hat, cfg, return_details=True)
        conds = [abs(det.S_ap[0, 0]),
                 1.0 / np.linalg.cond(det.S_rem_hat),
                 1.0 / np.linalg.cond(det.R2)]
        if min(conds) <= 1.0 / cond_limit:
            continue
        accepted += 1

        r_star = det.r_star
        left_block = np.zeros((r_star + 1, n_aug))
        left_block[0, 0] = 1.0 / det.S_ap[0, 0]
        # the kept left singular vectors of S_rem_hat are the first r* unit vectors
        left_block[1:, 1:] = np.linalg.inv(det.S_rem_hat).T[:r_star]
        right_block = np.zeros((n_aug, r_star + 1))
        right_block[0, 0] = 1.0
        right_block[1:, 1:] = det.W_hat
        lhs = np.linalg.inv(det.R2).T @ left_block @ det.S_hat.T @ det.S_hat @ right_block
        defect = np.linalg.norm(lhs - state.S_coeff) / max(np.linalg.norm(state.S_coeff), 1e-300)
        worst = max(worst, defect)
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
        from slabtrt.mesh_state import PhysicalParams

        params = PhysicalParams(epsilon=float(rng.uniform(0.05, 1.0)))
        ws = FullSchemeWorkspace(grid, params, sigma, ang, bc="zero_ghost")
        macro = MacroState(rng.standard_normal(nx), rng.standard_normal(nx))
        x = _random_orthonormal(rng, nx + 1, r)
        v = _random_orthonormal(rng, n_mom, r)
        s = rng.standard_normal((r, r))
        w = ang.T_mat.T @ v  # the steps hold V in nodal coordinates
        state = LowRankMicroState(x, s, w, r)
        q1 = _random_orthonormal(rng, r, r)
        q2 = _random_orthonormal(rng, r, r)
        rotated = LowRankMicroState(x @ q1, q1.T @ s @ q2, w @ q2, r)
        dt = float(rng.uniform(0.005, 0.05))

        _, out_a = step_bug_fixed(macro, state, ws, dt)
        _, out_b = step_bug_fixed(macro, rotated, ws, dt)
        ga = out_a.reconstruct()
        gb = out_b.reconstruct()
        worst = max(worst, np.linalg.norm(ga - gb) / max(np.linalg.norm(ga), 1e-300))
    return worst
