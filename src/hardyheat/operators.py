"""Matrix-free assembly of the restricted (Dirichlet) fractional operator on a grid.

For nodes x_i with cell volume h^d the jump weights are

    J_ij = A * integral of |x_i - y|**(-d-alpha) over cell j      (neighbours)
    J_ij = A * h**d * |x_i - x_j|**(-d-alpha)                     (far field)

with exact cell integration for nearest neighbours (closed form in 1d, fixed
tensor Gauss-Legendre in 2d) and midpoint quadrature beyond.  On the uniform
grid J_ij depends on the cell offset of i and j only, so one table indexed by
the offset holds all of J: J is Toeplitz in 1d and block-Toeplitz in 2d, and
J v is one FFT convolution with the circulant extension of the table.  The
diagonal of L0 is sum_j J_ij + kappa_i, where kappa is the exact exterior mass
(closed form; incomplete beta values in 2d)

    kappa(x) = A * integral of |x - y|**(-d-alpha) over the complement of the box.

Because the kernel is convex along each coordinate away from its pole, the
midpoint rule never overshoots a cell integral; together with exact
neighbour cells this makes the matrix of a sub-box dominate the restriction
of the full-box matrix entrywise, which is what the kernel-domination
property test relies on.  An operator stores the table, its DFT, the diagonal,
kappa and V: O(n) numbers.  H = L0 - diag(min(V, k)) with V(x) = c |x|**(-alpha)
acts through ``apply``.  The eigendecomposition forms the n/2**s
representative rows of H on a box with s mirror axes and solves its parity
blocks (``ParityMap``); the operator artifact forms H a block of rows at a
time.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import pickle
import signal
from contextlib import closing
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np
from numpy.fft import irfftn, rfftn  # numpy loads it lazily; here it loads with the module
from numpy.lib.stride_tricks import sliding_window_view
from numpy.linalg import eigh

from .errors import ConfigError, ContractError, InvariantViolation, ParameterDomainError
from .grids import _MAX_DENSE_NODES, Grid
from .specfun import (
    FractionalParams, beta_of_c, incomplete_beta, intensity_constant, power_series, series_coefficients,
)
from .threads import thread_setting

__all__ = [
    "DiscreteOperator",
    "FormEvaluator",
    "ParityMap",
    "assemble_operator",
    "killing_term",
    "exterior_power_tail",
    "save_operator",
    "load_operator",
    "write_csv",
]


# ---------------------------------------------------------------------------
# exterior (killing) mass
# ---------------------------------------------------------------------------

def _cos_power_integral(t: np.ndarray, alpha: float) -> np.ndarray:
    """integral of cos(theta)**alpha over (0, arctan t), for t > 0 (any shape).

    With z = sin(theta)**2 it is B_x(1/2, b)/2, b = (1+alpha)/2 and
    x = t**2/(1+t**2), the incomplete beta function's power series
    (``specfun.incomplete_beta``, DLMF 8.17.7).  For t > 1 it is
    B(1/2, b)/2 - B_y(b, 1/2)/2 with y = 1/(1+t**2) instead, so each series
    runs at an argument <= 1/2; each point is summed on its own branch only.
    """
    b = 0.5 * (1.0 + alpha)
    half = 0.5 * math.sqrt(math.pi) * math.gamma(b) / math.gamma(1.0 + 0.5 * alpha)
    t2 = t * t
    near = t <= 1.0
    out = np.empty_like(t2)
    out[near] = 0.5 * incomplete_beta(t2[near] / (1.0 + t2[near]), 0.5, b)
    out[~near] = half - 0.5 * incomplete_beta(1.0 / (1.0 + t2[~near]), b, 0.5)
    return out


def _kill_2d(pts: np.ndarray, bounds, A: float, alpha: float) -> np.ndarray:
    """Exterior mass of a rectangle in polar form, face by face.

    A ray from x leaves the (convex) box at distance rho(theta), so
    kappa(x) = (A/alpha) * integral of rho**-alpha over all directions.  Rays
    through a face at distance delta make an angle phi with its normal,
    rho = delta / cos(phi), and phi runs from -arctan(s1/delta) to
    arctan(s2/delta), s1 and s2 being the distances along the face to its ends.
    """
    (a1, b1), (a2, b2) = bounds
    left, right = pts[:, 0] - a1, b1 - pts[:, 0]
    below, above = pts[:, 1] - a2, b2 - pts[:, 1]
    delta = np.array([left, right, below, above])
    ends = np.array([(below, above), (below, above), (left, right), (left, right)])
    angles = _cos_power_integral(ends / delta[:, None], alpha)
    return (A / alpha) * np.sum(delta ** (-alpha) * (angles[:, 0] + angles[:, 1]), axis=0)


def killing_term(x, domain, params: FractionalParams):
    """Exterior jump mass kappa(x) for x inside the box ``domain``.

    1d uses the closed form A/alpha * ((x-a)**-alpha + (b-x)**-alpha).  2d
    integrates the polar form face by face in closed form: eight incomplete
    beta values per point, each a power series at an argument <= 1/2
    (``_cos_power_integral``), no quadrature.  Against a 40-digit mpmath
    oracle the relative error is at most 4e-16 for alpha in {0.5, 1, 1.5}, at
    the box centre, at corner nodes and 1e-6 from a face.
    """
    A = intensity_constant(params)
    alpha = params.alpha
    dom = np.asarray(domain, dtype=float)
    if params.d == 1:
        if dom.shape != (2,):
            raise ConfigError(f"1-d domain must be a pair, got {domain}")
        a, b = dom
        xs = np.asarray(x, dtype=float)
        if np.any(xs <= a) or np.any(xs >= b):
            raise ContractError("killing term requested outside the open domain")
        return (A / alpha) * ((xs - a) ** (-alpha) + (b - xs) ** (-alpha))
    if params.d == 2:
        if dom.shape != (2, 2):
            raise ConfigError(f"2-d domain must be two pairs, got {domain}")
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        for ax in range(2):
            if np.any(pts[:, ax] <= dom[ax, 0]) or np.any(pts[:, ax] >= dom[ax, 1]):
                raise ContractError("killing term requested outside the open domain")
        vals = _kill_2d(pts, dom, A, alpha)
        return vals if np.asarray(x).ndim == 2 else float(vals[0])
    raise ConfigError("killing term only implemented for d in {1, 2}")


def _right_power_tail(x: np.ndarray, b: float | np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """integral over y > b > 0 of y**-beta (y - x)**(-1-alpha), for x < b.

    Series in four ranges, each with ratio at most 2/3 (s = alpha + beta,
    c = -x; alpha, beta in (0, 1)):

    * -2b < x <= 0: (b+c)**-s sum (beta)_k/k! sigma**k/(s+k), sigma = c/(b+c);
    * 0 < x <= 2b/3: b**-s sum (1+alpha)_k/k! w**k/(s+k), w = x/b;
    * 2b/3 < x < b: the integral is (b-x)**-s 2F1(beta, s; s+1; -x/(b-x))/s
      (DLMF 15.6.1); the 1/z connection formula (DLMF 15.8.2) makes it
      (b-x)**-alpha x**-beta 2F1(beta, -alpha; 1-alpha; -(b-x)/x)/alpha
      + G(s) G(-alpha)/G(beta) x**-s;
    * x <= -2b: beyond y = c/2 the first range at sigma = 2/3; below it
      integrals of y**(k-beta) over (b, c/2), by expm1, so no two terms of
      size 1/(1-beta) cancel.
    """
    s, out = alpha + beta, np.empty_like(x)
    b = np.broadcast_to(b, x.shape)  # one end per point, so both half-lines share each series
    rng = np.select([x <= -2.0 * b, x <= 0.0, x <= 2.0 * b / 3.0], [0, 1, 2], 3)
    (x0, b0), (x1, b1), (x2, b2), (x, b) = ((x[rng == r], b[rng == r]) for r in range(4))
    c, k = -x0, np.arange(60)
    below = -np.expm1(np.log(2.0 * b0 / c)[:, None] * (k + 1.0 - beta))
    coef = np.array(series_coefficients(1.0 + alpha, 1.0 - beta, 60)) * (-0.5) ** k
    out[rng == 0] = ((1.5 * c) ** (-s) * power_series(series_coefficients(beta, s), 2.0 / 3.0)
                     + c ** (-1.0 - alpha) * (0.5 * c) ** (1.0 - beta) * np.sum(below * coef, axis=1))
    out[rng == 1] = (b1 - x1) ** (-s) * power_series(series_coefficients(beta, s), x1 / (x1 - b1))
    out[rng == 2] = b2 ** (-s) * power_series(series_coefficients(1.0 + alpha, s), x2 / b2)
    # the 2F1 coefficients (beta)_k (-alpha)_k / ((1-alpha)_k k!) are -alpha (beta)_k / (k! (k-alpha))
    out[rng == 3] = (math.gamma(s) * math.gamma(-alpha) / math.gamma(beta) * x ** (-s)
                     - (b - x) ** (-alpha) * x ** (-beta)
                     * power_series(series_coefficients(beta, -alpha, 60), (x - b) / x))
    return out


def exterior_power_tail(x, domain, params: FractionalParams, beta: float):
    """A * integral over the box complement of |y|**(-beta) |x - y|**(-d-alpha).

    This is the correction that turns the whole-space power identity into a
    statement about the restricted operator: the restriction treats the
    profile as 0 outside, so the true exterior values re-enter as this tail.
    Only the 1-d case is needed quantitatively.  Each half-line is a power
    series (the left one by mirroring x -> -x; ``_right_power_tail``), and
    next to the end the 1/z connection formula of 2F1.  Against a 40-digit
    mpmath quadrature the relative error is below 1e-15 for alpha in
    {0.25, 0.75}, also for beta near 0 or d, for x within 1e-6 of either end
    and with one end 4 or 1000 times as far from the origin as the other.
    The connection formula cancels two terms of size 1/alpha or
    1/(1-alpha): over alpha in [0.05, 0.95] its error reaches 1e-14.
    """
    if params.d != 1:
        raise ConfigError("exterior power tail implemented for d = 1 only")
    if not (0.0 < beta < params.d):
        raise ParameterDomainError(f"tail exponent beta must be in (0, d), got {beta}")
    A = intensity_constant(params)
    alpha = params.alpha
    a, b = (float(domain[0]), float(domain[1]))
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    both = _right_power_tail(np.concatenate([xs, -xs]), np.repeat([b, -a], len(xs)), alpha, beta)
    vals = A * (both[:len(xs)] + both[len(xs):])
    return vals if np.asarray(x).ndim else float(vals[0])


# ---------------------------------------------------------------------------
# jump weights
# ---------------------------------------------------------------------------

def _adjacent_weight_1d(alpha: float) -> float:
    # exact integral of s**(-1-alpha) over the neighbouring cell, in units of
    # A * h**(-alpha): (1/alpha) * ((1/2)**-alpha - (3/2)**-alpha)
    return (2.0**alpha - (2.0 / 3.0) ** alpha) / alpha


@lru_cache(maxsize=None)
def _near_weight_2d(alpha: float, ox: int, oy: int, order: int = 32) -> float:
    """integral of |(ox, oy) + z|**(-2-alpha) over z in [-1/2, 1/2]**2.

    Dimensionless: the physical weight is A * h**(-alpha) times this.  The
    integrand is smooth (the pole is at least half a cell away), so tensor
    Gauss-Legendre converges to machine accuracy.
    """
    # Golub-Welsch on the Legendre Jacobi matrix, weights scaled to sum to 2
    # (numpy.linalg is loaded anyway, numpy.polynomial is not)
    k = np.arange(1.0, order)
    xi, vec = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    wt = vec[0] ** 2 * (2.0 / np.sum(vec[0] ** 2))
    z = 0.5 * xi
    w2 = 0.25 * np.outer(wt, wt)
    zx = z[:, None] + ox
    zy = z[None, :] + oy
    r2 = zx * zx + zy * zy
    return float(np.sum(w2 * r2 ** (-0.5 * (2.0 + alpha))))


def _jump_table(grid: Grid, A: float, alpha: float) -> np.ndarray:
    """J as a function of the cell offset: table[k] in 1d, table[kx, ky] in 2d.

    J_ij = table[|offset of i - offset of j|]; table is 0 at offset 0, holds
    the exact cell integrals next to it and the midpoint values beyond.
    """
    h = grid.h
    if grid.dim == 1:
        r = np.arange(grid.n, dtype=float)
        r[0] = 1.0
        table = r ** (-1.0 - alpha)
        table[1] = _adjacent_weight_1d(alpha)
    else:
        ix, iy = map(np.arange, grid.shape)
        r2 = np.add.outer(ix * ix, iy * iy).astype(float)
        r2[0, 0] = 1.0
        table = r2 ** (-0.5 * (2.0 + alpha))
        table[1, 0] = table[0, 1] = _near_weight_2d(alpha, 1, 0)
        table[1, 1] = _near_weight_2d(alpha, 1, 1)
    table.flat[0] = 0.0
    table *= A * h ** (-alpha)
    return table


def _circulant_symbol(table: np.ndarray) -> np.ndarray:
    """Real DFT of the even extension of ``table`` to twice its size per axis.

    The extension is table[0..k-1], 0, table[k-1..1] along each axis, so the
    circulant it defines holds J as its leading block and J v is the first
    block of one circular convolution.  The extension is even, so its DFT is
    real up to roundoff, which is dropped.
    """
    padded = np.pad(table, [(0, 1)] * table.ndim)
    ext = padded[np.ix_(*(np.r_[0:k + 1, k - 1:0:-1] for k in table.shape))]
    return rfftn(ext).real.copy()


def _jump_view(table: np.ndarray) -> np.ndarray:
    """J as a read-only strided view of the mirrored table, 0 on the diagonal.

    J[i, j] in 1d and J[ix, iy, jx, jy] in 2d (node ix * ny + iy).  Along an
    axis of k cells the mirrored table holds offset o at index o + k - 1, so
    window k - 1 - i, the i-th once the window axes are reversed, is row i:
    J[i, j] = table[|j - i|].  No entry is stored twice; a reshape of a slice
    to (rows, n) copies only that slice.
    """
    mirrored = table[np.ix_(*(abs(np.arange(1 - k, k)) for k in table.shape))]
    return sliding_window_view(mirrored, table.shape)[(slice(None, None, -1),) * table.ndim]


def _row_blocks(table: np.ndarray) -> list[slice]:
    """Slices of the first axis of ``_jump_view(table)``, each holding about 2**16 entries."""
    n = table.size
    step = max(1, (1 << 16) * len(table) // n**2)
    return [slice(a, a + step) for a in range(0, len(table), step)]


# ---------------------------------------------------------------------------
# mirror parity
# ---------------------------------------------------------------------------

def _butterfly(parts: list, half: bool = False) -> list:
    """Walsh-Hadamard transform of 2**s arrays: out[p] = sum_q (-1)**popcount(p & q) parts[q].

    One (a + b, a - b) pass per bit; ``half`` scales each pass by 0.5
    (exactly), which makes it the inverse.  One array is returned as it is.
    """
    parts = list(parts)
    bit = 1
    while bit < len(parts):
        for i in range(len(parts)):
            if not i & bit:
                a, b = parts[i], parts[i | bit]
                parts[i], parts[i | bit] = ((a + b) * 0.5, (a - b) * 0.5) if half else (a + b, a - b)
        bit <<= 1
    return parts


class ParityMap:
    """Maps node vectors and matrices into and out of the parity blocks of a box.

    A mirror axis (a == -b, ``Grid.mirror_axes``) has exact mirror-image
    nodes, J depends on |offset| along it, and assembly makes ``diag``,
    ``kappa`` and V exactly even under its reflection (``even``).  So H
    commutes with the reflection of each of the s mirror axes and splits into
    2**s blocks of m = n / 2**s, one per parity class p (bit j of p set: odd
    along the j-th mirror axis).  The representatives are the nodes in the
    upper half of every mirror axis; image q of a representative is its
    reflection along the mirror axes of the bits of q.  ``fold`` maps v to
    fold(v)[p] = sum_q (-1)**popcount(p & q) v[image q], which is 2**(s/2)
    times v's coordinates in the orthonormal parity basis, and
    block p = sum_q (-1)**popcount(p & q) H[rep, image q], which is H in that
    basis.  With no mirror axis there is one block, H itself, and every map
    is the identity, with no arithmetic.
    """

    def __init__(self, grid: Grid):
        self.shape, self.axes, self.n = grid.shape, grid.mirror_axes, grid.n
        self.m = self.n >> len(self.axes)

    def _sides(self, q: int) -> tuple:
        """Per grid axis, the slice holding image q of the representatives, in their order."""
        out = []
        for ax, k in enumerate(self.shape):
            if ax not in self.axes:
                out.append(slice(None))
            elif q >> self.axes.index(ax) & 1:
                out.append(slice(k // 2 - 1, None, -1))
            else:
                out.append(slice(k // 2, None))
        return tuple(out)

    def _image(self, a: np.ndarray, q: int, axis: int = 0) -> np.ndarray:
        """Entries of ``a`` along ``axis`` (of length n) at image q of the representatives."""
        lead, rest = a.shape[:axis], a.shape[axis + 1:]
        sub = a.reshape(lead + self.shape + rest)[(slice(None),) * axis + self._sides(q)]
        return sub.reshape(lead + (self.m,) + rest)

    def check(self, op: "DiscreteOperator") -> "ParityMap":
        """InvariantViolation unless the nodes mirror and diag, kappa and V are even, bit for bit."""
        dim = len(self.shape)
        pts = op.grid.nodes.reshape(self.shape + (dim,))
        for ax in self.axes:
            sign = np.where(np.arange(dim) == ax, -1.0, 1.0)
            if not np.array_equal(np.flip(pts, ax) * sign, pts):
                raise InvariantViolation(f"grid nodes are not mirror images along axis {ax}")
            for name in ("diag", "kappa", "V"):
                arr = getattr(op, name).reshape(self.shape)
                if not np.array_equal(np.flip(arr, ax), arr):
                    raise InvariantViolation(f"{name} is not even under the reflection of axis {ax}")
        return self

    def even(self, a: np.ndarray) -> np.ndarray:
        """a averaged with its reflection along each mirror axis: exactly even."""
        for ax in self.axes:
            g = a.reshape(self.shape)
            a = (0.5 * (g + np.flip(g, ax))).ravel()
        return a

    def restrict(self, v: np.ndarray) -> np.ndarray:
        """An even vector's values at the representatives."""
        return self._image(v, 0)

    def fold(self, v: np.ndarray) -> list:
        """v of shape (n,) or (n, k) as one (m,) or (m, k) array per parity class."""
        return _butterfly([self._image(v, q) for q in range(1 << len(self.axes))])

    def blocks(self, op: "DiscreteOperator") -> list:
        """The m x m parity blocks of op.H, built from its n/2**s representative rows.

        Each block is symmetric bit for bit: its (i, j) and (j, i) entries are
        the same terms, summed in the same order.  With no mirror axis the one
        block is H.
        """
        m, n = self.m, self.n
        reps = self._image(np.arange(n), 0)
        rows = np.negative(op.J[self._sides(0)], order="C").reshape(m, n)
        rows[np.arange(m), reps] = (op.diag - op.W)[reps]
        return _butterfly([self._image(rows, q, 1) for q in range(1 << len(self.axes))])

    @cached_property
    def _classes(self) -> tuple:
        """Per node, its image q and the index of its representative."""
        q_of, rep_of = np.empty(self.n, dtype=int), np.empty(self.n, dtype=int)
        for q in range(1 << len(self.axes)):
            at = self._image(np.arange(self.n), q)
            q_of[at], rep_of[at] = q, np.arange(self.m)
        return q_of, rep_of

    def rows(self, blocks: list, start: int, stop: int) -> np.ndarray:
        """Rows start:stop, in node order, of T diag(blocks) T^T, T the orthonormal
        parity basis, as a new (stop - start, n) array.

        Entry (image q of rep i, image r of rep j) is the inverse transform of
        the blocks at q xor r, entry (i, j).  The transform runs on the rows of
        the slab's representatives only; it acts entry by entry, so each entry
        is the one the transform of whole blocks gives, bit for bit.
        """
        if len(blocks) == 1:
            return blocks[0][start:stop].copy()
        q_of, rep_of = self._classes[0][start:stop], self._classes[1][start:stop]
        per = _butterfly([B[rep_of] for B in blocks], half=True)
        out = np.empty((stop - start, self.n))
        grid = out.reshape((stop - start,) + self.shape)
        sub = tuple(k // 2 if ax in self.axes else k for ax, k in enumerate(self.shape))
        for q in range(len(blocks)):
            sel = np.flatnonzero(q_of == q)
            if len(sel) and sel[-1] - sel[0] == len(sel) - 1:  # a run of rows: views, no copy
                sel = slice(sel[0], sel[-1] + 1)
            for r in range(len(blocks)):
                grid[(sel,) + self._sides(r)] = per[q ^ r][sel].reshape((-1,) + sub)
        return out


# ---------------------------------------------------------------------------
# operator
# ---------------------------------------------------------------------------

@dataclass
class DiscreteOperator:
    """H = L0 - diag(min(V, k)) on one grid, stored as O(n) arrays.

    L0 = diag(diag) - J, where the jump weights J depend on the cell offset
    only: ``table`` holds them per offset and ``symbol`` is the DFT of its
    circulant extension, so ``apply`` computes J v by FFT.  ``diag`` is
    sum_j J_ij + kappa_i, and like kappa and V it is exactly even on each
    mirror axis, so ``parity`` splits H into blocks.  No n x n array is
    stored: ``J`` is a strided view of the table, ``H`` builds a new dense
    array on each read and ``rows`` a block of its rows, and ``spectrum``
    holds one (lam, Q) pair per parity block.  Truncated copies share every
    array, the ``free`` view every array but V.  ``beta`` and ``weight`` give
    the ground state of c.
    """

    grid: Grid
    params: FractionalParams
    c: float
    k: float | None  # None = untruncated potential
    intensity: float
    kappa: np.ndarray
    V: np.ndarray
    table: np.ndarray
    symbol: np.ndarray
    diag: np.ndarray

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def W(self) -> np.ndarray:
        """Truncated potential actually subtracted from L0."""
        return self.V if self.k is None else np.minimum(self.V, self.k)

    @property
    def J(self) -> np.ndarray:
        """The jump weights, a read-only view of the table (see ``_jump_view``)."""
        return _jump_view(self.table)

    def row_blocks(self) -> list[slice]:
        """Slices of the first axis of ``J``, each holding about 2**16 entries of it."""
        return _row_blocks(self.table)

    @property
    def H(self) -> np.ndarray:
        """A new dense array diag(diag - W) - J on each read, never cached: the
        caller owns it and may overwrite it.  Use ``apply`` to act on vectors."""
        return self.rows(0, self.n)

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows start:stop of H as a new (stop - start, n) array.

        Only the slab of ``J``'s first axis that holds them is copied: the
        rows themselves in 1d, whole grid lines of ny nodes in 2d.
        """
        J = self.J
        per = self.n // len(J)
        lo, hi = start // per, -(-stop // per)
        out = np.negative(J[lo:hi], order="C").reshape(-1, self.n)[start - lo * per:stop - lo * per]
        out[np.arange(stop - start), np.arange(start, stop)] = (self.diag - self.W)[start:stop]
        return out

    def apply(self, v: np.ndarray) -> np.ndarray:
        """H v = (diag - W) v - J v for v of shape (n,) or (n, m), J v by FFT.

        Each column is transformed on its own, so a column of a batch equals
        the single-vector result bit for bit.
        """
        v = np.asarray(v, dtype=float)
        rows = v.T.reshape(-1, self.n)
        shape = self.table.shape
        size, axes = [2 * k for k in shape], list(range(1, len(shape) + 1))
        f = rfftn(rows.reshape(-1, *shape), s=size, axes=axes)
        f *= self.symbol
        Jv = irfftn(f, s=size, axes=axes)[(slice(None), *map(slice, shape))]
        out = (self.diag - self.W) * rows - Jv.reshape(rows.shape)
        return out[0] if v.ndim == 1 else out.T

    @cached_property
    def beta(self) -> float:
        """Ground-state exponent beta(c); 0 when c = 0, ParameterDomainError above c*."""
        return beta_of_c(self.c, self.params) if self.c > 0.0 else 0.0

    @cached_property
    def weight(self) -> np.ndarray:
        """Ground-state weight w_c = |x|**(-beta) at the nodes; exactly 1.0 when c = 0."""
        return self.grid.radii ** (-self.beta)

    @cached_property
    def weighted_tail(self) -> np.ndarray:
        """Weighted exterior term, shared by the weighted form and the harmonicity defect:
        the exact tail in 1d; in 2d kappa * w, the weight frozen at the node
        (``FormEvaluator.exterior_gap_bound`` estimates the error; it is no bound)."""
        if self.params.d == 1:
            return exterior_power_tail(self.grid.nodes, self.grid.bounds[0], self.params, self.beta)
        return self.kappa * self.weight

    @cached_property
    def free(self) -> "DiscreteOperator":
        """The free operator (c = 0), H = L0, on the same table."""
        return replace(self, c=0.0, k=None, V=np.zeros(self.n))

    @property
    def parity(self) -> ParityMap:
        """The grid's parity map, checked against this operator (O(n))."""
        return ParityMap(self.grid).check(self)

    @cached_property
    def spectrum(self) -> tuple:
        """One (lam, Q) per parity class p of ``parity``, block p = Q diag(lam) Q^T.

        Computed on first use from the n/2**s representative rows of H, so no
        n x n eigenvector matrix is formed on a box with s mirror axes; with
        none, the one pair is that of H.  Cached per instance; a truncated
        copy solves its own blocks unless its cutoff changes nothing (see
        ``with_truncation``).  Each block is solved by numpy's LAPACK (the
        ``?syevd`` driver), so dense solves and products share one BLAS.
        """
        return tuple(eigh(B) for B in self.parity.blocks(self))

    def saturates(self, k: float | None) -> bool:
        """The one saturation rule: k is None or k >= max V, so min(V, k) is V bit for bit."""
        return k is None or k >= float(np.max(self.V))

    def with_truncation(self, k: float | None) -> "DiscreteOperator":
        """Same table, diag, kappa and V, different potential cutoff.

        When this operator's cutoff and k both saturate, the copy keeps its
        own k but shares the spectrum's parity blocks, if this operator has
        solved them already.
        """
        if k is not None and not (k > 0.0):
            raise ContractError(f"truncation level must be positive, got {k}")
        copy = replace(self, k=k)
        if self.saturates(self.k) and self.saturates(k) and "spectrum" in vars(self):
            vars(copy)["spectrum"] = self.spectrum
        return copy


def assemble_operator(
    grid: Grid, params: FractionalParams, c: float = 0.0, k: float | None = None
) -> DiscreteOperator:
    """Assemble the jump table, its symbol, the diagonal, kappa and V on ``grid``.

    c = 0 gives the free restricted operator (V identically zero); c > 0 adds
    the attractive inverse-power potential c |x|**(-alpha) truncated at k
    (k = None keeps the full potential, which is finite on the grid since no
    node sits at the origin).
    """
    if grid.dim != params.d:
        raise ConfigError(f"grid dimension {grid.dim} != params dimension {params.d}")
    if c < 0.0:
        raise ParameterDomainError(f"coupling c must be >= 0, got {c}")
    A = intensity_constant(params)
    table = _jump_table(grid, A, params.alpha)
    dom = grid.bounds[0] if grid.dim == 1 else grid.bounds
    # on a mirror axis kappa and the row sums are averaged with their
    # reflections, which makes them even bit for bit (ParityMap): a row and
    # its mirror row hold the same entries reversed, and a pairwise sum of
    # them, like the 2-d faces summed in a fixed order, can differ in the
    # last bits.  The row sums go by blocks of whole rows, each row summed in
    # numpy's fixed pairwise order (as a row of the dense matrix would be).
    parity = ParityMap(grid)
    kap = parity.even(np.asarray(killing_term(grid.nodes, dom, params), dtype=float))
    J = _jump_view(table)
    rowsum = np.concatenate([J[s].reshape(-1, grid.n).sum(axis=1) for s in _row_blocks(table)])
    rowsum = parity.even(rowsum)
    V = grid.potential(c, params.alpha)
    op = DiscreteOperator(
        grid=grid, params=params, c=float(c), k=None, intensity=A, kappa=kap, V=V,
        table=table, symbol=_circulant_symbol(table), diag=rowsum + kap,
    )
    return op if k is None else op.with_truncation(k)


# ---------------------------------------------------------------------------
# quadratic forms
# ---------------------------------------------------------------------------

@dataclass
class FormEvaluator:
    """Evaluates the plain, potential and ground-state quadratic forms.

    All values carry the h^d volume factor, i.e. they approximate the
    continuum integrals.  L0 acts through ``op.free.apply`` (FFT), so no form
    builds a matrix.  The ground-state ("weighted") form takes its exterior
    term from ``DiscreteOperator.weighted_tail``, which freezes the weight at
    the node in 2d; ``exterior_gap_bound`` estimates the error of that
    substitution, but does not bound it.
    """

    op: DiscreteOperator

    def plain(self, f: np.ndarray) -> float:
        f = self._check(f)
        return float(self.op.grid.cell_volume * (f @ self.op.free.apply(f)))

    def hardy(self, f: np.ndarray) -> float:
        f = self._check(f)
        hd = self.op.grid.cell_volume
        return self.plain(f) - float(hd * np.sum(f * f * self.op.W))

    def weighted(self, f: np.ndarray):
        """Ground-state form of f, shape (n,); of each column of f, shape (n, m).

        With J = -L0 off the diagonal and g = f w, the jump part
        (1/2) sum_ij J_ij (f_i - f_j)^2 w_i w_j equals g^T L0 g - sum_i f_i^2 w_i (L0 w)_i
        (the diagonal of L0 cancels), so one batched action of L0 serves every
        column.  Each f is a contiguous row while it is summed, and each column
        is transformed on its own, so its value does not depend on how many
        columns come with it.
        """
        arr = self._check(f, weighted=True, columns=True)
        op = self.op
        free = op.free
        w = op.weight
        rows = np.ascontiguousarray(arr.T).reshape(-1, op.n)
        G = rows * w
        jump = np.sum(G * free.apply(G.T).T, axis=1)
        # minus the (L0 w) term of the jump, plus the exterior term
        local = np.sum(rows * rows * (w * (op.weighted_tail - free.apply(w))), axis=1)
        vals = op.grid.cell_volume * (jump + local)
        return float(vals[0]) if arr.ndim == 1 else vals

    def exterior_gap_bound(self, f: np.ndarray) -> float:
        """Estimate of the frozen-weight substitution error (2d mode); not a bound.

        On 2-d alpha = 1, c = 0.5 c*, h = 0.1, for the operator suite's three
        seed-0 probe vectors f, |hardy(w f) - weighted(f)| is 7.5e-2, 1.27e-1
        and 1.57e-1 while this returns 3.4e-2, 7.0e-2 and 6.4e-2; h = 0.05
        gives the same picture.
        """
        f = self._check(f, weighted=True)
        op = self.op
        w = op.weight
        w_ext_max = op.grid.inradius ** (-op.beta)
        hd = op.grid.cell_volume
        return float(hd * np.sum(f * f * w * op.kappa * np.abs(w - w_ext_max)))

    def _check(self, f, weighted: bool = False, columns: bool = False) -> np.ndarray:
        arr = np.asarray(f, dtype=float)
        if arr.shape != (self.op.n,) and not (columns and arr.ndim == 2 and len(arr) == self.op.n):
            shapes = f"({self.op.n},) or ({self.op.n}, m)" if columns else f"({self.op.n},)"
            raise ContractError(f"form argument must have shape {shapes}, got {arr.shape}")
        if weighted and self.op.c <= 0.0:
            raise ContractError("weighted form needs a positive coupling c")
        return arr


# ---------------------------------------------------------------------------
# operator artifacts (CSV triples + JSON header)
# ---------------------------------------------------------------------------

_FORMAT_VERSION = 1
_BLOCK_ROWS = 1 << 15  # CSV rows formatted, or parsed, at a time
_ROW = "i8,i8,f8"  # one parsed operator CSV row


def _cpus() -> int:
    """Worker processes for artifact blocks: the ``--threads`` value, which the
    CLI sets as the BLAS thread variables, else the CPUs this process may use."""
    setting = thread_setting()
    if setting is not None and setting.isdigit() and int(setting) > 0:
        return int(setting)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blockwise(f, count: int):
    """Yield f(k), a bytes object, for k = 0 ... count - 1, in order.

    min(_cpus(), count) processes forked here compute the blocks, so they
    inherit every input and are sent nothing: worker w computes k = w,
    w + workers, ... and writes each result to its own pipe.  This process
    reads block k from worker k % workers, so it holds one block at a time
    while each worker holds at most its next one, waiting on its pipe.  A
    worker's exception is raised here.  Every child is reaped before this
    generator finishes or raises, and killed first when a block fails or the
    caller closes the generator early.  With one worker, or without
    ``os.fork``, this is the serial loop.
    """
    workers = min(_cpus(), count)
    if workers < 2 or not hasattr(os, "fork"):
        yield from map(f, range(count))
        return
    pids, pipes, done = [], [], False
    try:
        for w in range(workers):
            r, wfd = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(f, range(w, count, workers), wfd, pipes)
            finally:
                os.close(wfd)
            pids.append(pid)
        for k in range(count):
            yield _receive(pipes[k % workers])
        done = True
    finally:
        if not done:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _serve(f, ks, fd: int, pipes) -> None:
    """Body of a forked worker: send f(k) down ``fd`` for each k in ``ks``, then exit.

    A message is a tag byte (b"b" for a block, b"e" for a pickled exception,
    after which the worker stops), the length as 8 bytes, then the bytes.
    Never returns: ``os._exit`` runs none of the parent's cleanup and flushes
    none of its buffers.
    """
    code = 1
    try:
        for pipe in pipes:  # the read ends, which only the parent uses
            pipe.close()
        with open(fd, "wb") as out:
            for k in ks:
                try:
                    tag, data = b"b", f(k)
                except BaseException as exc:  # handed on: the parent raises it
                    tag, data = b"e", pickle.dumps(exc)
                out.write(tag + len(data).to_bytes(8, "little"))
                out.write(data)
                if tag == b"e":
                    break
        code = 0
    finally:
        os._exit(code)


def _receive(pipe) -> bytes:
    """The next block ``_serve`` sent down ``pipe``; raises the worker's exception."""
    head = pipe.read(9)
    size = int.from_bytes(head[1:], "little")
    data = pipe.read(size)
    if len(head) < 9 or len(data) < size:
        raise RuntimeError("an artifact worker exited before sending its block")
    if head[:1] == b"e":
        raise pickle.loads(data)
    return data


def write_csv(path: str, header: str, blocks) -> str:
    """Write ``header``, then the rows of each block, to ``path``; return its sha256.

    ``blocks`` is a sequence of column tuples (a list, or ``triangle_blocks``).
    Each block is formatted at once by ``_format_block``, in the workers of
    ``_blockwise``; this process writes and hashes the blocks in order, so the
    bytes are those of one repr per entry whatever the worker count.  The
    file is written through ``runstore.atomic_open``, so an error leaves
    ``path`` with its previous bytes, or absent, never truncated.
    """
    from .runstore import atomic_open  # the one atomic writer, imported on use as cli does

    digest = hashlib.sha256()
    encoded = _blockwise(lambda k: _format_block(blocks[k]).encode(), len(blocks))
    with atomic_open(path, "wb") as fh, closing(encoded):
        for data in chain([(header + "\n").encode()], encoded):
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


def _column_strings(col) -> list:
    """The repr of each entry of one column, as a list of str (or of floats).

    Integer columns (node indices) index a table of repr(0..max).  Float
    columns are deduplicated by bit pattern, so -0.0, 0.0 and every NaN
    payload keep their own entry, and each distinct value is repr'd once: an
    operator block holds few distinct values, since J depends on the cell
    offset only.  When more than three quarters of the values are distinct
    (kernel and state columns) the gather costs more than it saves, and the
    floats are returned for the block's single % to format (str of a float
    is its repr).
    """
    col = np.asarray(col)
    if col.dtype.kind in "iu":
        lo = int(col.min(initial=0))
        table = np.array([repr(k) for k in range(lo, int(col.max(initial=0)) + 1)], dtype=object)
        return table[col - lo].tolist()
    col = np.asarray(col, dtype=np.float64)
    bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
    if 4 * len(bits) > 3 * len(col):
        return col.tolist()
    table = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return table[inverse].tolist()


def _format_block(cols) -> str:
    """Rows of one block of columns, comma-separated; one % for the whole block."""
    strings = [_column_strings(col) for col in cols]
    flat = tuple(chain.from_iterable(zip(*strings)))
    return (",".join(["%s"] * len(cols)) + "\n") * len(strings[0]) % flat


class triangle_blocks:
    """Upper-triangle (i, j, M[i, j]) blocks by rows, as a sequence for ``write_csv``.

    ``M`` is an n x n array, or an object with ``n`` and ``rows(start, stop)``
    whose rows are formed per block: a DiscreteOperator (rows of H) or an
    ``evolution.KernelMatrix`` (rows of P), so that no dense H or P exists.  A
    block holds about _BLOCK_ROWS entries; ``skip_zeros`` drops zeros off the
    diagonal.
    """

    def __init__(self, M, skip_zeros: bool = False):
        if isinstance(M, np.ndarray):
            self.n, self.rows = len(M), lambda start, stop: M[start:stop]
        else:
            self.n, self.rows = M.n, M.rows
        self.skip_zeros = skip_zeros
        self.step = max(1, _BLOCK_ROWS // self.n)

    def __len__(self) -> int:
        return -(-self.n // self.step)

    def __getitem__(self, k: int):
        if not 0 <= k < len(self):
            raise IndexError(f"block {k} of {len(self)}")
        i0 = k * self.step
        i1 = min(i0 + self.step, self.n)
        block, cols, rows = self.rows(i0, i1), np.arange(self.n), np.arange(i0, i1)[:, None]
        keep = cols >= rows
        if self.skip_zeros:
            keep &= (block != 0.0) | (cols == rows)
        i, j = np.nonzero(keep)
        return i + i0, j, block[keep]


def save_operator(op: DiscreteOperator, base: str) -> tuple[str, str]:
    """Write <base>.csv (upper-triangle i,j,value of H) and <base>.json.

    Zero entries off the diagonal are omitted.  The rows of H are formed block
    by block, never the whole matrix.  The JSON header records the grid, the
    physical constants and the sha256 of the CSV bytes.
    """
    from .runstore import write_json  # the one JSON writer, imported on use as cli does

    csv_path = base + ".csv"
    json_path = base + ".json"
    sha = write_csv(csv_path, "i,j,value", triangle_blocks(op, skip_zeros=True))
    header = {
        "format_version": _FORMAT_VERSION,
        "n": op.n,
        "d": op.params.d,
        "alpha": op.params.alpha,
        "c": op.c,
        "k": op.k,
        "h": op.grid.h,
        "bounds": [list(p) for p in op.grid.bounds],
        "intensity": op.intensity,
        "sha256": sha,
    }
    write_json(json_path, header)
    return csv_path, json_path


def _row_block_starts(fh, digest) -> list[int]:
    """Offsets in ``fh``, from its position on, of every _BLOCK_ROWS-th line start and of the end.

    Reads the rest of the file 1 MiB at a time and feeds ``digest``.  Block k
    runs from starts[k] to starts[k + 1]; the last one may be short.
    """
    starts = [fh.tell()]
    end, lines = starts[0], 0
    while buf := fh.read(1 << 20):
        digest.update(buf)
        ends = np.flatnonzero(np.frombuffer(buf, dtype=np.uint8) == ord("\n"))
        first = -(lines + 1) % _BLOCK_ROWS  # the newline that closes the next block
        starts += (end + 1 + ends[first::_BLOCK_ROWS]).tolist()
        lines += len(ends)
        end += len(buf)
    if starts[-1] != end:
        starts.append(end)
    return starts


def _parse_rows(fh, starts: list[int], n: int, k: int) -> bytes:
    """Row block k of an operator CSV, parsed and checked, as _ROW records.

    ``os.pread`` reads the block without moving the file position, which
    forked workers share.  Lines split as in a binary file, at b"\\n" only.
    """
    size = starts[k + 1] - starts[k]
    if hasattr(os, "pread"):
        chunk = os.pread(fh.fileno(), size, starts[k])
    else:  # no fork either, so only the serial loop reads here
        fh.seek(starts[k])
        chunk = fh.read(size)
    if len(chunk) != size:
        raise ConfigError("operator CSV changed while it was read")
    lines = list(io.BytesIO(chunk))
    try:
        rows = np.loadtxt(lines, delimiter=",", dtype=_ROW, comments=None, ndmin=1)
    except ValueError as exc:
        raise ConfigError(f"malformed operator CSV row: {exc}") from None
    i, j = rows["f0"], rows["f1"]
    # loadtxt skips blank lines: a count mismatch is a blank row
    if len(rows) != len(lines) or np.any(j < i) or i.min() < 0 or j.max() >= n:
        raise ConfigError(f"operator CSV rows must be i,j,value with 0 <= i <= j < {n}")
    return rows.tobytes()


def load_operator(base: str) -> tuple[dict, np.ndarray]:
    """Read an artifact back as (header, H); each row is mirrored, so H is symmetric.

    ConfigError unless the header is a JSON object with an integer n and a
    sha256 string, every row is i,j,value with 0 <= i <= j < n, each diagonal
    entry appears once and the CSV bytes match the header's sha256.  This
    process hashes the CSV and finds its row blocks; the workers of
    ``_blockwise`` parse the blocks, and the rows are scattered into H here.
    """
    with open(base + ".json", "rb") as fh:
        try:
            header = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"operator header is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ConfigError("operator header must be a JSON object")
    if header.get("format_version") != _FORMAT_VERSION:
        raise ConfigError(f"unsupported operator format {header.get('format_version')}")
    n = header.get("n")
    if type(n) is not int or not 0 < n <= _MAX_DENSE_NODES:  # bool is an int subclass
        raise ConfigError(
            f"operator header n must be an integer in [1, {_MAX_DENSE_NODES}], got {n!r}"
        )
    if not isinstance(header.get("sha256"), str):
        raise ConfigError("operator header needs the sha256 of the CSV as a string")
    H = np.zeros((n, n))
    diag = np.zeros(n, dtype=np.int64)
    with open(base + ".csv", "rb") as fh:
        if fh.readline() != b"i,j,value\n":
            raise ConfigError("operator CSV missing the i,j,value header row")
        digest = hashlib.sha256(b"i,j,value\n")
        starts = _row_block_starts(fh, digest)
        parsed = _blockwise(lambda k: _parse_rows(fh, starts, n, k), len(starts) - 1)
        with closing(parsed):
            for data in parsed:
                rows = np.frombuffer(data, dtype=_ROW)
                i, j = rows["f0"], rows["f1"]
                diag += np.bincount(i[i == j], minlength=n)
                H[i, j] = H[j, i] = rows["f2"]
    if digest.hexdigest() != header["sha256"]:
        raise ConfigError("operator artifact checksum mismatch; file corrupted?")
    if np.any(diag != 1):
        raise ConfigError("operator CSV needs exactly one diagonal row per node")
    return header, H
