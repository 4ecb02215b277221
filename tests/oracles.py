"""Independent reference computations used by the test suite.

Everything here recomputes package quantities through a different route
(high-precision Gamma values, direct quadrature of the defining integrals)
so that agreement is meaningful.  Nothing in this module imports from the
package's numerical core except pure parameter containers.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy.linalg import eigvalsh, expm, lu_factor, lu_solve
from scipy.sparse.linalg import expm_multiply
from scipy.special import betainc, betaincc, hyp2f1

mp.mp.dps = 40


def mp_intensity(d: int, alpha: float) -> float:
    """Jump-kernel constant via mpmath Gamma values."""
    a = mp.mpf(repr(float(alpha)))
    dd = mp.mpf(d)
    val = a * mp.gamma((dd + a) / 2) / (2 ** (1 - a) * mp.pi ** (dd / 2) * mp.gamma(1 - a / 2))
    return float(val)


def mp_hardy(d: int, alpha: float) -> float:
    """Critical coupling via mpmath Gamma values."""
    a = mp.mpf(repr(float(alpha)))
    dd = mp.mpf(d)
    val = 2**a * (mp.gamma((dd + a) / 4) / mp.gamma((dd - a) / 4)) ** 2
    return float(val)


def mp_multiplier(beta: float, d: int, alpha: float) -> float:
    """Power multiplier via mpmath Gamma values."""
    a = mp.mpf(repr(float(alpha)))
    b = mp.mpf(repr(float(beta)))
    dd = mp.mpf(d)
    val = (
        2**a
        * mp.gamma((a + b) / 2)
        * mp.gamma((dd - b) / 2)
        / (mp.gamma(b / 2) * mp.gamma((dd - a - b) / 2))
    )
    return float(val)


def multiplier_by_integral(beta: float, alpha: float) -> float:
    """One-dimensional multiplier from its defining singular integral.

    Acting on |x|**(-beta) at x = 1 the jump operator produces
    A * int (1 - |y|**(-beta)) / |1-y|**(1+alpha) dy, which equals the
    multiplier because the profile is homogeneous.  The integrand has only
    integrable singularities for alpha < 1, so tanh-sinh quadrature over the
    split intervals converges without principal-value handling.
    """
    A = mp.mpf(repr(mp_intensity(1, alpha)))
    b = mp.mpf(repr(float(beta)))
    al = mp.mpf(repr(float(alpha)))

    def f(y):
        return (1 - abs(y) ** (-b)) / abs(1 - y) ** (1 + al)

    val = mp.quad(f, [-mp.inf, -1, 0, mp.mpf("0.5"), 1, 2, mp.inf])
    return float(A * val)


def killing_1d_quad(x0: float, a: float, b: float, alpha: float) -> float:
    """Exterior-mass rate at x0 in (a, b) by direct quadrature."""
    A = mp_intensity(1, alpha)
    f = lambda y: abs(x0 - y) ** (-1.0 - alpha)
    left, _ = integrate.quad(f, -np.inf, a, limit=400)
    right, _ = integrate.quad(f, b, np.inf, limit=400)
    return A * (left + right)


def killing_2d_polar(pt, rect, alpha: float) -> float:
    """Exterior-mass rate in a rectangle via the polar distance integral.

    For a convex domain the exterior integral of |x-y|**(-2-alpha) collapses
    to (A/alpha) * int rho(theta)**(-alpha) dtheta with rho the distance from
    the point to the boundary along direction theta.  Splitting at the corner
    angles keeps the integrand smooth on each piece.
    """
    (ax, bx), (ay, by) = rect
    x0, y0 = pt

    def rho(th):
        ct, st = math.cos(th), math.sin(th)
        best = math.inf
        for val, comp in ((bx - x0, ct), (ax - x0, ct), (by - y0, st), (ay - y0, st)):
            if abs(comp) > 1e-15:
                s = val / comp
                if s > 0:
                    hx, hy = x0 + s * ct, y0 + s * st
                    if ax - 1e-12 <= hx <= bx + 1e-12 and ay - 1e-12 <= hy <= by + 1e-12:
                        best = min(best, s)
        return best

    A = mp_intensity(2, alpha)
    corners = sorted(
        math.atan2(cy - y0, cx - x0) for cx in (ax, bx) for cy in (ay, by)
    )
    pts = [-math.pi] + corners + [math.pi]
    total = 0.0
    for lo, hi in zip(pts, pts[1:]):
        if hi - lo < 1e-14:
            continue
        val, _ = integrate.quad(lambda th: rho(th) ** (-alpha), lo, hi, limit=200)
        total += val
    return A / alpha * total


def killing_2d_strip_quad(pt, rect, alpha: float) -> float:
    """Exterior-mass rate in a rectangle by the retired strip quadrature.

    The complement is two half-planes (closed form) and two strips; across a
    strip the inner integral is a cos-power tail, along it one adaptive
    ``quad``.  scipy's default tolerance limits this to about 4e-9 relative.
    """
    (a1, b1), (a2, b2) = rect
    x0, y0 = pt
    full = math.sqrt(math.pi) * math.gamma(0.5 * (1.0 + alpha)) / math.gamma(1.0 + 0.5 * alpha)

    def strip(s):
        def inner(u):
            au = abs(u)
            if au < 1e-14 * max(1.0, s):
                return s ** (-1.0 - alpha) / (1.0 + alpha)
            w2 = (s / au) ** 2
            tail = 0.5 * full * (1.0 - betainc(0.5, 0.5 * (alpha + 1.0), w2 / (1.0 + w2)))
            return au ** (-1.0 - alpha) * tail

        val, _ = integrate.quad(inner, a1 - x0, b1 - x0, points=[0.0], limit=200)
        return val

    half = full / alpha
    out = half * ((x0 - a1) ** (-alpha) + (b1 - x0) ** (-alpha))
    return mp_intensity(2, alpha) * (out + strip(y0 - a2) + strip(b2 - y0))


def cos_power_integral_betainc(t: np.ndarray, alpha: float) -> np.ndarray:
    """integral of cos(theta)**alpha over (0, arctan t) by scipy's regularized
    incomplete beta functions, the assembly path of epochs 3-13."""
    a, b = 0.5, 0.5 * (1.0 + alpha)
    half = 0.5 * math.sqrt(math.pi) * math.gamma(b) / math.gamma(1.0 + 0.5 * alpha)
    t2 = t * t
    near = betainc(a, b, t2 / (1.0 + t2))
    far = betaincc(b, a, 1.0 / (1.0 + t2))
    return half * np.where(t <= 1.0, near, far)


def right_power_tail_hyp2f1(x: np.ndarray, b: float, alpha: float, beta: float) -> np.ndarray:
    """integral over y > b of y**-beta (y - x)**(-1-alpha) as Euler's integral,
    (b-x)**-s 2F1(beta, s; s+1; -x/(b-x)) / s with scipy's hyp2f1 (epochs 3-13)."""
    s = alpha + beta
    return (b - x) ** (-s) * hyp2f1(beta, s, s + 1.0, -x / (b - x)) / s


def mp_killing_2d(pt, rect, alpha: float) -> float:
    """Exterior-mass rate in a rectangle, polar form in 40-digit arithmetic.

    (A/alpha) * integral of rho(theta)**-alpha, split by face: through a face
    at distance delta, rho = delta/cos(phi), and each angular piece is a
    tanh-sinh quadrature of cos(phi)**alpha.
    """
    # mpf(float) keeps the exact binary value; a decimal repr would move a
    # point 1e-6 from a face by a relative 1e-11 of its distance
    (a1, b1), (a2, b2) = (tuple(mp.mpf(float(v)) for v in ab) for ab in rect)
    x0, y0 = (mp.mpf(float(v)) for v in pt)
    al = mp.mpf(float(alpha))
    faces = ((x0 - a1, y0 - a2, b2 - y0), (b1 - x0, y0 - a2, b2 - y0),
             (y0 - a2, x0 - a1, b1 - x0), (b2 - y0, x0 - a1, b1 - x0))
    total = mp.mpf(0)
    for delta, s1, s2 in faces:
        for s in (s1, s2):
            total += delta ** (-al) * mp.quad(lambda th: mp.cos(th) ** al, [0, mp.atan(s / delta)])
    return float(mp.mpf(mp_intensity(2, alpha)) / al * total)


def jump_matrix_2d_broadcast(nodes, h: float, A: float, alpha: float,
                             w_axis: float, w_diag: float) -> np.ndarray:
    """2-d jump matrix by the retired (n, n, 2) node-difference broadcast.

    Midpoint weights A h^2 |x_i - x_j|^(-2-alpha) from the node coordinates;
    the axis and diagonal neighbour weights are passed in.
    """
    diff = nodes[:, None, :] - nodes[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    np.fill_diagonal(dist, 1.0)
    J = A * h**2 * dist ** (-2.0 - alpha)
    np.fill_diagonal(J, 0.0)
    off = np.abs(np.rint(diff / h).astype(int))
    cheb = np.max(off, axis=2)
    taxi = np.sum(off, axis=2)
    J[(cheb == 1) & (taxi == 1)] = w_axis
    J[(cheb == 1) & (taxi == 2)] = w_diag
    return J


def jump_matrix(grid, A: float, alpha: float, near) -> np.ndarray:
    """Dense J by the package's retired assembly, one n x n array.

    1-d: midpoint weights A h |x_i - x_j|**(-1-alpha) from the node
    coordinates, built in place, with A h**(-alpha) ``near`` next to the
    diagonal.  2-d: the cell-offset table (midpoint values, ``near`` = the
    dimensionless axis and diagonal cell integrals) gathered by the per-axis
    offsets of node ix * ny + iy.  Node differences carry the rounding of the
    node coordinates, so the 1-d entries differ from A h**(-alpha) k**(-1-alpha)
    by up to about (1 + alpha) (b - a) / h ulp (none for a dyadic h).
    """
    h = grid.h
    if grid.dim == 1:
        x = grid.nodes
        J = np.subtract.outer(x, x)
        np.abs(J, out=J)
        np.fill_diagonal(J, 1.0)
        np.power(J, -1.0 - alpha, out=J)
        J *= A * h
        np.fill_diagonal(J, 0.0)
        idx = np.arange(grid.n - 1)
        J[idx, idx + 1] = J[idx + 1, idx] = A * h ** (-alpha) * near
        return J
    ix, iy = (np.arange(int(round((b - a) / h))) for a, b in grid.bounds)
    r2 = np.add.outer(ix * ix, iy * iy).astype(float)
    r2[0, 0] = 1.0
    table = r2 ** (-0.5 * (2.0 + alpha))
    table[0, 0] = 0.0
    table[1, 0] = table[0, 1] = near[0]
    table[1, 1] = near[1]
    table *= A * h ** (-alpha)
    offx = np.abs(np.subtract.outer(ix, ix))
    offy = np.abs(np.subtract.outer(iy, iy))
    return table[offx[:, None, :, None], offy[None, :, None, :]].reshape(grid.n, grid.n)


def dense_h(J: np.ndarray, kappa: np.ndarray, W: np.ndarray) -> np.ndarray:
    """H = -J with sum_j J_ij + kappa_i - W_i on the diagonal, overwriting J.

    The same arithmetic, in the same order, as ``three_array_operator``, in
    one n x n array.
    """
    rowsum = J.sum(axis=1)
    np.negative(J, out=J)
    J.flat[:: len(J) + 1] = rowsum + kappa - W
    return J


def three_array_operator(
    J: np.ndarray, kappa: np.ndarray, V: np.ndarray, k=None, shape=None, mirror_axes=()
):
    """(J, L0, H) as three separate dense arrays, each built from a copy.

    L0 = -J with sum_j J_ij + kappa_i on the diagonal and
    H = L0 - diag(min(V, k)); the summation order of the row sums is numpy's
    pairwise one, as in the package, and on each mirror axis of a grid of
    ``shape`` cells a row sum is averaged with that of its mirror row, as
    assembly makes the diagonal even.  So the package's single stored L0 and
    the jump weights and H it derives must match these bit for bit.
    """
    L0 = -J.copy()
    rowsum = J.sum(axis=1)
    for ax in mirror_axes:
        grid = rowsum.reshape(shape)
        rowsum = (0.5 * (grid + np.flip(grid, ax))).ravel()
    np.fill_diagonal(L0, rowsum + kappa)
    W = V if k is None else np.minimum(V, k)
    return J, L0, L0 - np.diag(W)


def weighted_jump_form(J: np.ndarray, f: np.ndarray, w: np.ndarray) -> float:
    """Jump part (1/2) sum_ij J_ij (f_i - f_j)^2 w_i w_j, read from J itself."""
    df = f[:, None] - f[None, :]
    return 0.5 * float(np.sum(J * df * df * np.outer(w, w)))


def cell_weight_1d_quad(alpha: float) -> float:
    """Dimensionless node-to-adjacent-cell kernel integral, spacing 1."""
    val, _ = integrate.quad(lambda u: u ** (-1.0 - alpha), 0.5, 1.5, epsabs=1e-13, epsrel=1e-13)
    return val


def cell_weight_2d_quad(alpha: float, ox: int, oy: int) -> float:
    """Dimensionless node-to-cell kernel integral at integer offset, spacing 1."""
    val, _ = integrate.dblquad(
        lambda y, x: ((ox + x) ** 2 + (oy + y) ** 2) ** (-(2.0 + alpha) / 2.0),
        -0.5, 0.5, -0.5, 0.5, epsabs=1e-12, epsrel=1e-12,
    )
    return val


def exterior_tail_quad(x0: float, a: float, b: float, alpha: float, beta: float) -> float:
    """Weighted exterior tail A * int_{outside (a,b)} |y|^-beta |x0-y|^-1-alpha dy."""
    A = mp_intensity(1, alpha)
    f = lambda y: abs(y) ** (-beta) * abs(x0 - y) ** (-1.0 - alpha)
    left, _ = integrate.quad(f, -np.inf, a, limit=400)
    right, _ = integrate.quad(f, b, np.inf, limit=400)
    return A * (left + right)


def mp_exterior_tail(x0: float, a: float, b: float, alpha: float, beta: float) -> float:
    """Weighted exterior tail in 40-digit arithmetic, one half-line at a time.

    y = x0 + (e - x0) * v**(-1/s) with s = alpha + beta maps the half-line
    beyond the end e to v in (0, 1), where the integrand
    (1 + x0 v**(1/s) / (e - x0))**(-beta) is bounded; the left half-line is the
    right one of the mirrored problem.
    """
    x0, a, b, al, be = (mp.mpf(float(v)) for v in (x0, a, b, alpha, beta))
    s = al + be

    def side(x, e):
        f = lambda v: (1 + x * v ** (1 / s) / (e - x)) ** (-be)
        return (e - x) ** (-s) / s * mp.quad(f, [0, 1])

    return float(mp.mpf(mp_intensity(1, alpha)) * (side(x0, b) + side(-x0, -a)))


def bottom_eigenvalue_dense(H: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric H by a dense LAPACK solve (O(n^3))."""
    return float(eigvalsh(H, subset_by_index=(0, 0))[0])


def dense_propagator(H: np.ndarray, t: float) -> np.ndarray:
    """exp(-t H) by dense Pade scaling and squaring (scipy.linalg.expm)."""
    return expm(-float(t) * H)


def expm_action_dense(H: np.ndarray, t: float, u0: np.ndarray) -> np.ndarray:
    """exp(-t H) u0 by scipy's expm_multiply on the dense -t H.

    Past a 1-norm of about 63 it picks its Taylor degree from onenormest,
    which draws from the global numpy random state.
    """
    return expm_multiply(-float(t) * H, np.asarray(u0, dtype=float))


def theta_steps(H: np.ndarray, u0: np.ndarray, t: float, n_steps: int, theta: float) -> np.ndarray:
    """u(t) after n_steps equal steps of (I + theta dt H) u' = (I - (1 - theta) dt H) u.

    theta = 1/2 is Crank-Nicolson (second order), theta = 1 implicit Euler
    (first order); one dense LU factorization serves every step.
    """
    dt = float(t) / n_steps
    eye = np.eye(H.shape[0])
    lhs = lu_factor(eye + theta * dt * H)
    rhs = eye - (1.0 - theta) * dt * H
    u = np.asarray(u0, dtype=float).copy()
    for _ in range(n_steps):
        u = lu_solve(lhs, rhs @ u)
    return u


def heat_kernel_full_spectrum(H: np.ndarray, t: float, cell_volume: float, solver=np.linalg.eigh) -> np.ndarray:
    """exp(-t H) / h^d as (Q e^{-t lam}) Q^T from one eigendecomposition of the whole H.

    ``solver(H) -> (lam, Q)`` on H itself: no parity blocks.  With the
    default, the package's solver, the kernel on a box without a mirror axis
    (one block, H) equals this bit for bit.
    """
    lam, Q = solver(H)
    P = (Q * np.exp(-float(t) * lam)) @ Q.T
    P /= cell_volume
    return P


def parity_lift(blocks: list, shape: tuple, axes: tuple) -> np.ndarray:
    """The n x n matrix T diag(blocks) T^T, T the orthonormal parity basis of a
    box of grid ``shape`` with mirror ``axes``, formed whole.

    Entry (image q of rep i, image r of rep j) is the inverse Walsh-Hadamard
    transform of the blocks at q xor r, entry (i, j), one halving
    (a + b, a - b) pass per mirror axis.  The representatives are the nodes in
    the upper half of every mirror axis; image q reflects them along the
    mirror axes of the bits of q.  This is the kernel lift the package used
    before it formed kernels a slab of rows at a time.
    """
    per = list(blocks)
    bit = 1
    while bit < len(per):
        for i in range(len(per)):
            if not i & bit:
                a, b = per[i], per[i | bit]
                per[i], per[i | bit] = (a + b) * 0.5, (a - b) * 0.5
        bit <<= 1
    if len(per) == 1:
        return per[0]

    def sides(q):
        return tuple(
            slice(None) if ax not in axes
            else slice(k // 2 - 1, None, -1) if q >> axes.index(ax) & 1
            else slice(k // 2, None)
            for ax, k in enumerate(shape)
        )

    n = int(np.prod(shape))
    out = np.empty((n, n))
    grid = out.reshape(tuple(shape) + tuple(shape))
    sub = tuple(k // 2 if ax in axes else k for ax, k in enumerate(shape))
    for q in range(len(per)):
        for r in range(len(per)):
            grid[sides(q) + sides(r)] = per[q ^ r].reshape(sub + sub)
    return out


def kernel_matrix(ker) -> np.ndarray:
    """All of a kernel's P as a new n x n array, from its rows."""
    return ker.rows(0, ker.n)


def kernel_suite_full(ts, Ps, P_sum, w, cell_volume, mask, u0s, d, alpha, c_positive, critical) -> dict:
    """The ``kernel`` suite's checks on whole n x n kernels: {name: (measured, pass)}.

    ``Ps`` are the kernel densities at the ascending times ``ts``, ``P_sum``
    the one at ts[0] + ts[1]; ``w`` the ground-state weight, ``mask`` the
    inner box, ``u0s`` the weighted-L1 data, ``critical`` whether c = c*.
    Every quantity is formed from the whole matrices, the way the suite
    formed them before it reduced kernels over row slabs: P - P^T, the
    product P(t1) P(t2), np.outer(w, w) and P / (w w).
    """
    out = {}
    asym = max(float(np.max(np.abs(P - P.T)) / np.max(P)) for P in Ps)
    out["kernel_symmetric"] = (asym, asym <= 1e-10)
    kmin = min(float(np.min(P)) for P in Ps)
    out["kernel_positive"] = (kmin, kmin > 0.0)
    lhs = Ps[0] @ Ps[1]
    lhs *= cell_volume
    lhs -= P_sum
    ck = float(np.max(np.abs(lhs)) / np.max(P_sum))
    out["chapman_kolmogorov"] = (ck, ck <= 1e-8)
    wm = w[mask]
    ratios = [P[np.ix_(mask, mask)] / np.outer(wm, wm) for P in Ps]
    per_t = [(float(np.min(R)), float(np.max(R))) for R in ratios]
    c_lower = min(lo for lo, _ in per_t)
    spread = max(hi / lo if lo > 0.0 else np.inf for lo, hi in per_t)
    out["sandwich_lower_positive"] = (c_lower, c_lower > 0.0)
    out["sandwich_spread_finite"] = (spread, bool(np.isfinite(spread)))
    ww = np.outer(w, w)
    sups = [float(np.max(P / ww)) for P in Ps]
    if ts[-1] / ts[0] >= 10**1.5:
        vals = [sup * t ** (d / alpha) for sup, t in zip(sups, ts)]
        env = vals[int(np.argmax(vals))]
        out["envelope_finite"] = (env, bool(np.isfinite(env)) and env > 0.0)
        if critical and len(Ps) >= 3:
            p_crit = 0.5 * (1.0 + d / (d - alpha))
            small = np.asarray(ts) <= np.median(ts)
            slope = float(np.polyfit(np.log(np.asarray(ts)[small]), np.log(np.asarray(sups)[small]), 1)[0])
            out["critical_exponent_within_cap"] = (-slope, bool(-slope <= p_crit / (p_crit - 1.0) + 0.1))
    mid = Ps[len(Ps) // 2]
    if c_positive:
        eps = float(np.max((mid @ w) * cell_volume / w) - 1.0)
        out["weighted_row_mass_eps"] = (eps, eps <= 0.05)
    else:
        mass = float(np.max(np.sum(mid, axis=1) * cell_volume))
        out["free_row_mass_submarkov"] = (mass, mass <= 1.0 + 1e-12)
    bound = float(np.max(mid / ww)) * float(np.sqrt(cell_volume * np.sum(w**2)))
    l1 = []
    for u0 in u0s:
        ut = (mid @ u0) * cell_volume
        l1.append(float(np.sqrt(cell_volume * np.sum(ut**2))) / float(cell_volume * np.sum(np.abs(u0) * w)))
    out["weighted_l1_within_certificate"] = (max(l1), bool(max(l1) <= bound * (1.0 + 1e-9)))
    return out


def duhamel_residual_two_pass(traj, n_quad: int) -> dict:
    """``evolution.duhamel_residual`` as it was before it ran both Simpson rules in one sweep.

    One call per rule, on ``n_quad`` (odd) uniform nodes of its own, from the
    cached parity spectra of the trajectory's operator and of its ``free``
    view; per-time residuals keyed by time.
    """
    op = traj.operator
    parity = op.parity
    W = parity.restrict(op.W)
    blocks = [
        (lam_h, Q_h, Q_h.T @ v0, lam_0, Q_0, Q_0.T @ v0)
        for (lam_h, Q_h), (lam_0, Q_0), v0 in zip(
            op.spectrum, op.free.spectrum, parity.fold(traj.states[0])
        )
    ]
    coef = np.ones(n_quad)
    coef[1:-1:2] = 4.0
    coef[2:-1:2] = 2.0
    out = {}
    for t, u_t in zip(traj.times, traj.states):
        if t == 0.0:
            continue
        ds = float(t) / (n_quad - 1)
        s = ds * np.arange(n_quad)
        sq_resid = sq_u = 0.0
        for (lam_h, Q_h, u0_h, lam_0, Q_0, u0_0), v_t in zip(blocks, parity.fold(u_t)):
            U = Q_h @ (np.exp(-np.outer(lam_h, s)) * u0_h[:, None])
            WU_0 = Q_0.T @ (W[:, None] * U)
            acc = Q_0 @ ((WU_0 * np.exp(-np.outer(lam_0, float(t) - s))) @ (coef * ds / 3.0))
            free = Q_0 @ (np.exp(-lam_0 * float(t)) * u0_0)
            resid = v_t - free - acc
            sq_resid += float(resid.dot(resid))
            sq_u += float(v_t.dot(v_t))
        out[float(t)] = math.sqrt(sq_resid) / math.sqrt(sq_u)
    return out


def duhamel_residual_full_spectrum(times, states, H, L0, W, n_quad: int, solver=np.linalg.eigh) -> dict:
    """The Duhamel defect of ``evolution.duhamel_residual`` from the eigenbases of the whole H and L0.

    The same Simpson sum, with every propagator an n x n eigenvector matrix
    product; with the default ``solver`` the package's value on a box without
    a mirror axis equals this bit for bit.
    """
    lam_h, Q_h = solver(H)
    lam_0, Q_0 = solver(L0)
    u0 = states[0]
    u0_h = Q_h.T @ u0
    u0_0 = Q_0.T @ u0
    coef = np.ones(n_quad)
    coef[1:-1:2] = 4.0
    coef[2:-1:2] = 2.0
    out = {}
    for t, u_t in zip(times, states):
        if t == 0.0:
            continue
        ds = float(t) / (n_quad - 1)
        s = ds * np.arange(n_quad)
        U = Q_h @ (np.exp(-np.outer(lam_h, s)) * u0_h[:, None])
        WU_0 = Q_0.T @ (W[:, None] * U)
        acc = Q_0 @ ((WU_0 * np.exp(-np.outer(lam_0, float(t) - s))) @ (coef * ds / 3.0))
        free = Q_0 @ (np.exp(-lam_0 * float(t)) * u0_0)
        resid = u_t - free - acc
        out[float(t)] = float(np.linalg.norm(resid) / np.linalg.norm(u_t))
    return out


def duhamel_residual_dense(times, states, H, L0, W, n_quad: int) -> dict:
    """Duhamel defect by the dense-step recursion on uniform Simpson nodes.

    Each output time builds the step matrices exp(-ds H) and exp(-ds L0) and
    advances u(s_j), the free part and the Simpson sum one step at a time.
    """
    u0 = states[0]
    out = {}
    for t, u_t in zip(times, states):
        if t == 0.0:
            continue
        ds = float(t) / (n_quad - 1)
        E0 = dense_propagator(L0, ds)
        Eh = dense_propagator(H, ds)
        coef = np.ones(n_quad)
        coef[1:-1:2] = 4.0
        coef[2:-1:2] = 2.0
        coef *= ds / 3.0
        u = u0.copy()
        acc = coef[0] * (W * u)
        free = u0.copy()
        for j in range(1, n_quad):
            u = Eh @ u
            free = E0 @ free
            acc = E0 @ acc + coef[j] * (W * u)
        resid = u_t - free - acc
        out[float(t)] = float(np.linalg.norm(resid) / np.linalg.norm(u_t))
    return out


# ---------------------------------------------------------------------------
# artifact CSVs, one element at a time (the writers and reader before the
# block-streamed ones in hardyheat.operators)
# ---------------------------------------------------------------------------

def operator_csv_loop(H: np.ndarray) -> bytes:
    """Upper triangle of H as i,j,value rows; zeros off the diagonal skipped."""
    n = H.shape[0]
    rows = ["i,j,value"]
    for i in range(n):
        for j in range(i, n):
            v = float(H[i, j])
            if v != 0.0 or i == j:
                rows.append(f"{i},{j},{v!r}")
    return ("\n".join(rows) + "\n").encode()


def kernel_csv_loop(P: np.ndarray) -> bytes:
    """Upper triangle of P as i,j,value rows, zeros included."""
    n = P.shape[0]
    rows = ["i,j,value"]
    for i in range(n):
        for j in range(i, n):
            rows.append(f"{i},{j},{float(P[i, j])!r}")
    return ("\n".join(rows) + "\n").encode()


def state_csv_loop(nodes: np.ndarray, state: np.ndarray) -> bytes:
    """One x1[,x2],u row per node."""
    coords = nodes if nodes.ndim > 1 else nodes[:, None]
    rows = [",".join(f"x{i + 1}" for i in range(coords.shape[1])) + ",u"]
    for pt, val in zip(coords, state):
        rows.append(",".join(repr(float(v)) for v in pt) + f",{float(val)!r}")
    return ("\n".join(rows) + "\n").encode()


def operator_from_csv_loop(payload: bytes, n: int) -> np.ndarray:
    """Parse i,j,value rows line by line and mirror them into a symmetric H."""
    H = np.zeros((n, n))
    lines = payload.decode().strip().split("\n")
    assert lines[0] == "i,j,value"
    for line in lines[1:]:
        si, sj, sv = line.split(",")
        i, j, v = int(si), int(sj), float(sv)
        H[i, j] = v
        H[j, i] = v
    return H
