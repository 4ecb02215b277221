"""The propagator layer: evolution, heat kernels, truncation limits, Duhamel check.

Every application of the semigroup exp(-tH) in the package goes through this
module, by one of two exact paths:

* Trajectories (``evolve``, hence every level of ``minimal_solution`` and
  the blow-up probe) apply the exponential action exp(-tH) u0 per output
  time with the truncated-Taylor method of Al-Mohy & Higham (SIAM J. Sci.
  Comput. 33, 2011, Algorithm 3.2), acting only through ``op.apply``: no
  n x n array is formed.  The shift and the 1-norm it needs are exact and
  cost O(n), so the action draws no random numbers (see ``_action``).
* Full kernels (``heat_kernel``) and the propagators of the Duhamel check use
  the symmetric eigendecomposition (Moler & Van Loan, SIAM Rev. 45, 2003),
  block by block: on a box with s mirror axes (a == -b) H commutes with their
  reflections and splits into 2**s parity blocks of n / 2**s rows (Cantoni &
  Butler, Linear Algebra Appl. 13, 1976, in 1d), each solved once per
  operator and cached as ``DiscreteOperator.spectrum``.  ``ParityMap`` folds
  vectors into the blocks and lifts rows of block kernels back; each further
  kernel time costs one product per block, and a kernel stays in its blocks
  (``KernelMatrix``): no n x n eigenvector matrix or kernel is formed.
  ``KernelMatrix.reduce`` is the one walk over P's row slabs, returning all
  that a kernel check reads; ``duhamel_residual`` gives both Simpson rules.

Because the Duhamel check builds its propagators from the eigenbases while
the trajectory comes from the exponential action, the check stays
independent of the path it checks.  Both paths are exact up to roundoff, so
nothing steps in time here; the Crank-Nicolson and implicit-Euler steppers
that cross-check the exponential action live in ``tests/oracles.py``.

The module also owns the truncation schedule: ``default_k_levels`` is its one
copy, read by ``minimal_solution`` and by the ``blowup`` suite's rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ContractError, MonotonicityViolation
from .operators import DiscreteOperator, ParityMap
from .specfun import coupling_regime

__all__ = [
    "Trajectory",
    "KernelMatrix",
    "KernelReduction",
    "evolve",
    "heat_kernel",
    "default_k_levels",
    "minimal_solution",
    "duhamel_residual",
]


def __getattr__(name):  # bench/spans.py traces scipy.linalg.expm under this name
    if name == "expm":
        from scipy.linalg import expm
        return expm
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_CONVERGENCE_TOL = 1e-6  # relative sup-norm increment that ends a truncation schedule
_SLAB_ENTRIES = 1 << 16  # entries of a kernel formed at a time

# theta_m of Al-Mohy & Higham (2011): the largest 1-norm of A for which the
# degree-m Taylor polynomial of exp(A) meets the double-precision backward
# error bound (m <= 30: Higham & Al-Mohy, Acta Numer. 19, 2010, table A.3;
# m >= 35: table 3.1 of the 2011 paper)
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_UNIT_ROUNDOFF = 2.0**-53


@dataclass
class Trajectory:
    """States u(t_k) = exp(-t_k H) u0 stacked as rows of ``states``."""

    operator: DiscreteOperator
    times: np.ndarray
    states: np.ndarray


@dataclass
class KernelReduction:
    """What the kernel checks read of one P (``KernelMatrix.reduce``): its
    extremes, row sums, P w, max R for R = P / (w w), w = ``operator.weight``,
    min and max R on the inner box (its nodes as rows and columns), and P v
    for each of ``vectors``."""

    operator: DiscreteOperator
    t: float
    p_min: float
    p_max: float
    row_sums: np.ndarray
    Pw: np.ndarray
    ratio_max: float
    inner_min: float
    inner_max: float
    inner_nodes: int
    vectors: list
    products: list


@dataclass
class KernelMatrix:
    """Heat kernel p_t(x_i, x_j) = exp(-t H)_ij / h^d (density convention).

    Held as the parity blocks K_p = Q_p diag(e^{-t lam_p}) Q_p^T of the
    operator's spectrum, m x m each with m = n / 2**s, never as the n x n P:
    ``rows`` forms rows of P in node order, ``slabs`` walks P a slab of rows
    at a time, and ``reduce`` is the one such walk behind every kernel check.
    """

    operator: DiscreteOperator
    t: float
    blocks: list

    @property
    def n(self) -> int:
        return self.operator.n

    @cached_property
    def _parity(self) -> ParityMap:
        return ParityMap(self.operator.grid)

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows start:stop of P as a new (stop - start, n) array."""
        out = self._parity.rows(self.blocks, start, stop)
        out /= self.operator.grid.cell_volume
        return out

    def slabs(self):
        """(slice, rows of P) for consecutive slabs of about _SLAB_ENTRIES entries.

        A slab holds a multiple of 4 rows: OpenBLAS's gemv works on 4 rows at
        a time, so where n is a multiple of 4 the products of the slabs with
        a vector are the rows of P's product with it, bit for bit.
        """
        step = max(4, _SLAB_ENTRIES // self.n // 4 * 4)
        for start in range(0, self.n, step):
            stop = min(start + step, self.n)
            yield slice(start, stop), self.rows(start, stop)

    def reduce(self, vectors=(), inner_half_width: float | None = None) -> KernelReduction:
        """Everything the kernel checks read of P, in one walk over its row slabs.

        The inner box is ``Grid.inner_box(inner_half_width)``.  Per slab the
        extremes, row sums (``np.sum``) and one gemv per vector, w first, come
        before R = P / (w w), which is formed last, in place.
        """
        op = self.operator
        w = op.weight
        mask = op.grid.inner_box(inner_half_width)
        vs = [w] + [np.asarray(v, dtype=float) for v in vectors]
        lo, hi, rmax, imin, imax = np.inf, -np.inf, -np.inf, np.inf, -np.inf
        sums, parts = [], []
        for rows, P in self.slabs():
            lo, hi = min(lo, float(np.min(P))), max(hi, float(np.max(P)))
            sums.append(np.sum(P, axis=1))
            parts.append([P @ v for v in vs])
            R = np.divide(P, np.multiply.outer(w[rows], w), out=P)
            rmax = max(rmax, float(np.max(R)))
            R = R[mask[rows]][:, mask]
            imin = min(imin, float(np.min(R, initial=np.inf)))
            imax = max(imax, float(np.max(R, initial=-np.inf)))
        Pw, *products = [np.concatenate(Pv) for Pv in zip(*parts)]
        return KernelReduction(
            op, self.t, lo, hi, np.concatenate(sums), Pw, rmax, imin, imax, int(np.sum(mask)),
            vs[1:], products,
        )

    def asymmetry(self) -> float:
        """max |K_p - K_p^T| over the blocks, divided by h^d.

        Each entry of P - P^T is a sum of 2**s entries of K_p - K_p^T with
        weights +-2**-s, divided by h^d, so this bounds max |P - P^T|.  Each
        block is compared by slabs of its rows.
        """
        worst = 0.0
        for K in self.blocks:
            step = max(1, _SLAB_ENTRIES // len(K))
            for a in range(0, len(K), step):
                worst = max(worst, float(np.max(np.abs(K[a:a + step] - K[:, a:a + step].T))))
        return worst / self.operator.grid.cell_volume


def _check_u0(u0: np.ndarray, n: int) -> np.ndarray:
    arr = np.asarray(u0, dtype=float)
    if arr.shape != (n,):
        raise ContractError(f"initial state must have shape ({n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ContractError("initial state contains non-finite entries")
    scale = max(1.0, float(np.max(np.abs(arr))) if arr.size else 1.0)
    if float(np.min(arr)) < -1e-14 * scale:
        raise ContractError(
            f"initial state must be nonnegative, min = {float(np.min(arr)):.3e}"
        )
    return arr


def _check_times(times) -> np.ndarray:
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    if ts.size == 0:
        raise ContractError("at least one output time is required")
    if not np.all(np.isfinite(ts)):
        raise ContractError("output times must be finite")
    if np.any(ts < 0.0):
        raise ContractError("output times must be nonnegative")
    if np.any(np.diff(ts) <= 0.0) and ts.size > 1:
        raise ContractError("output times must be strictly increasing")
    return ts


def evolve(op: DiscreteOperator, u0, times) -> Trajectory:
    """Propagate u0 through exp(-t H) at the requested output times."""
    ts = _check_times(times)
    u0 = _check_u0(u0, op.n)
    states = np.array([u0.copy() if t == 0.0 else _action(op, float(t), u0) for t in ts])
    return Trajectory(operator=op, times=ts, states=states)


def _action(op: DiscreteOperator, t: float, u0: np.ndarray) -> np.ndarray:
    """exp(-t H) u0 by truncated Taylor series (Al-Mohy & Higham 2011, Algorithm 3.2).

    A = -t H is shifted by mu = trace(A) / n, exact from the diagonal.  The
    1-norm of A - mu I is exact in O(n): J >= 0 is symmetric with row sums
    diag - kappa, so column j sums to |A_jj - mu| + t (diag_j - kappa_j).
    The degree m* and the number of steps s minimise
    m * ceil(||A - mu I||_1 / theta_m).  Where the authors' condition (3.13)
    holds, ||A - mu I||_1 <= 63.4 here, that is their own choice.  Beyond it
    they choose from estimates of ||A^p||_1^(1/p) made by a randomized norm
    estimator; this keeps the 1-norm bound, which is deterministic and
    conservative: at least as accurate, at the price of more products.  Each
    step sums Taylor terms until two in a row are negligible against the
    sum, then scales by e^{mu/s}.  A acts through ``op.apply`` only.
    """
    a_diag = -t * (op.diag - op.W)
    mu = float(np.mean(a_diag))
    norm = float(np.max(np.abs(a_diag - mu) + t * (op.diag - op.kappa)))
    m_star, s = (0, 1) if norm == 0.0 else min(
        ((m, math.ceil(norm / theta)) for m, theta in _THETA.items()),
        key=lambda ms: ms[0] * ms[1],
    )
    eta = math.exp(mu / s)
    F = B = u0
    for _ in range(s):
        c1 = np.max(np.abs(B))
        for j in range(m_star):
            B = (-t * op.apply(B) - mu * B) / (s * (j + 1))
            c2 = np.max(np.abs(B))
            F = F + B
            if c1 + c2 <= _UNIT_ROUNDOFF * np.max(np.abs(F)):
                break
            c1 = c2
        F = eta * F
        B = F
    return F


def heat_kernel(op: DiscreteOperator, t: float) -> KernelMatrix:
    """Kernel density at time t > 0: P = exp(-t H) / h^d, as parity blocks.

    Each parity block of the operator's cached spectrum gives
    K_p = (Q_p * exp(-t lam_p)) Q_p^T, so several times on one operator share
    a single solve per block; ``KernelMatrix.rows`` lifts rows of P from the
    blocks.  With no mirror axis the one block is h^d P.
    """
    if not (0.0 < t < np.inf):
        raise ContractError(f"kernel time must be positive and finite, got {t}")
    blocks = [(Q * np.exp(-float(t) * lam)) @ Q.T for lam, Q in op.spectrum]
    return KernelMatrix(operator=op, t=float(t), blocks=blocks)


def default_k_levels(vmax: float) -> list[float]:
    """The default truncation schedule on a grid where max V = vmax: 1, 4, 16, ...
    up to the first level k >= vmax, which becomes vmax itself; there min(V, k) = V,
    so the schedule always ends with the exact grid potential."""
    levels = [1.0]
    while levels[-1] < vmax:
        levels.append(4.0 * levels[-1])
    levels[-1] = vmax
    return levels


def minimal_solution(
    op: DiscreteOperator,
    u0,
    times,
    k_schedule=None,
) -> tuple[Trajectory, dict]:
    """Monotone limit of truncated evolutions u_k as the cutoff k increases.

    ``op`` must carry the untruncated potential (k = None).  Each level k in
    the schedule evolves with H_k = L0 - diag(min(V, k)); states must be
    pointwise nondecreasing in k (violation beyond -1e-12 relative scale
    raises MonotonicityViolation, an InvariantViolation, since larger
    absorption removed can only add mass).  For subcritical or critical
    coupling, convergence is declared either when the sup-norm relative
    increment drops below 1e-6 or, always,
    when the last level saturates (``op.saturates``: k >= max V, where
    truncation is a no-op on this grid).  For supercritical coupling the
    function runs in divergence mode: the same schedule is executed and the
    probe growth is reported, but no convergence is claimed (report['mode'] =
    'divergence'); the across-grid divergence itself is the blow-up
    diagnostic's job.
    """
    divergent = coupling_regime(op.c, op.params) == "supercritical"
    if op.c <= 0.0:
        raise ConfigError("minimal solution needs a positive coupling c")
    if op.k is not None:
        raise ContractError("pass the untruncated operator (k=None) as the base")
    if k_schedule is None:
        k_schedule = default_k_levels(float(np.max(op.V)))
    ks = np.atleast_1d(np.asarray(k_schedule, dtype=float))
    if np.any(ks <= 0.0) or np.any(np.diff(ks) <= 0.0):
        raise ContractError("k schedule must be positive and strictly increasing")
    ts = _check_times(times)
    u0 = _check_u0(u0, op.n)
    origin = int(np.argmin(op.grid.radii))
    prev = trk = None
    increments, probe_vals = [], []
    for k in ks:
        if trk is not None:
            prev = trk.states
        trk = evolve(op.with_truncation(float(k)), u0, ts)
        probe_vals.append(float(trk.states[-1][origin]))
        if prev is not None:
            diff = trk.states - prev
            scale = max(float(np.max(np.abs(trk.states))), 1e-300)
            worst = float(np.min(diff))
            if worst < -1e-12 * scale:
                raise MonotonicityViolation(
                    "truncated evolutions must increase with the cutoff; "
                    f"min increment {worst:.3e} at k={k:g}"
                )
            increments.append(float(np.max(np.abs(diff))) / scale)
    if divergent:
        converged, reason = False, "divergence-mode"
    elif op.saturates(float(ks[-1])):
        converged, reason = True, "saturation"
    elif increments and increments[-1] < _CONVERGENCE_TOL:
        converged, reason = True, "tolerance"
    else:
        converged, reason = False, "none"
    report = {
        "mode": "divergence" if divergent else "convergence",
        "k_levels": ks.tolist(),
        "increments": increments,
        "probe_node": origin,
        "probe_values": probe_vals,
        "probe_growth": probe_vals[-1] / probe_vals[0] if probe_vals[0] > 0.0 else float("inf"),
        "monotone": True,
        "converged": converged,
        "converged_by": reason,
    }
    return trk, report


def duhamel_residual(traj: Trajectory) -> dict:
    """Relative defect of u(t) = e^{-tL0}u0 + int_0^t e^{-(t-s)L0} W u(s) ds.

    The integral uses composite Simpson on 129 uniform nodes s_j per output
    time and on the 65 with even j, the 65-node rule's own doubles since
    fl(t/128) * 2j = fl(t/64) * j: both rules share nodes and exponentials.
    Each keeps its own matrix products, since OpenBLAS may round a column of
    an m x 129 product unlike the same column of an m x 65 one (it does for
    some m from 96 to 128).  The propagators come from the cached
    parity blocks of the trajectory's operator (H) and of its ``free`` view
    (L0), not from the path that produced the trajectory.  u0 and u(t) are
    folded into the blocks (``ParityMap.fold``); W is even, so on block p it
    acts by its values at the representatives.  With
    H_p = Q_H diag(lam_H) Q_H^T and L0_p = Q_0 diag(lam_0) Q_0^T, per block

        u(s_j) = Q_H (e^{-lam_H s_j} * Q_H^T u0)
        acc    = Q_0 [(Q_0^T W u(s_j)) * e^{-lam_0 (t - s_j)}] . simpson weights
        free   = Q_0 (e^{-lam_0 t} * Q_0^T u0)

    and the residual norm sums the squares over the blocks, the fold scaling
    every block alike.  So the only error is the Simpson time discretization,
    which is O(dt^2) here because the integrand's higher derivatives involve
    the same semigroups.  Returns {65: {t: residual}, 129: {t: residual}}.
    """
    if traj.times[0] != 0.0:
        raise ContractError("duhamel check needs the trajectory to start at t = 0")
    op = traj.operator
    parity = op.parity
    W = parity.restrict(op.W)
    blocks = [
        (lam_h, Q_h, Q_h.T @ v0, lam_0, Q_0, Q_0.T @ v0)
        for (lam_h, Q_h), (lam_0, Q_0), v0 in zip(
            op.spectrum, op.free.spectrum, parity.fold(traj.states[0])
        )
    ]
    coef = {n: np.r_[1.0, np.tile([4.0, 2.0], n // 2 - 1), 4.0, 1.0] for n in (65, 129)}  # Simpson
    out = {65: {}, 129: {}}
    for t, u_t in zip(traj.times, traj.states):
        if t == 0.0:
            continue
        t = float(t)
        s = t / 128 * np.arange(129)
        sq_resid = {65: 0.0, 129: 0.0}
        sq_u = 0.0
        for (lam_h, Q_h, u0_h, lam_0, Q_0, u0_0), v_t in zip(blocks, parity.fold(u_t)):
            X_h = np.exp(-np.outer(lam_h, s)) * u0_h[:, None]
            X_0 = np.exp(-np.outer(lam_0, t - s))
            free = Q_0 @ (np.exp(-lam_0 * t) * u0_0)
            for n_quad, cols in ((65, slice(None, None, 2)), (129, slice(None))):
                U = Q_h @ np.ascontiguousarray(X_h[:, cols])
                WU_0 = Q_0.T @ (W[:, None] * U)
                acc = Q_0 @ ((WU_0 * X_0[:, cols]) @ (coef[n_quad] * (t / (n_quad - 1)) / 3.0))
                resid = v_t - free - acc
                sq_resid[n_quad] += float(resid.dot(resid))
            sq_u += float(v_t.dot(v_t))
        for n_quad, sq in sq_resid.items():
            out[n_quad][t] = math.sqrt(sq) / math.sqrt(sq_u)
    return out
