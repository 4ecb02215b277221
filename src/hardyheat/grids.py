"""Cell-centered grids on boxes that contain the origin.

Nodes sit at cell centers, never on the boundary and never at the origin;
with an even cell count per axis and the origin inside the box the closest
node is at distance >= h/2 from 0, which keeps the inverse-power potential
finite on the grid.  On a mirror axis (a == -b) the nodes are exact mirror
images, x_{n-1-i} == -x_i bit for bit, so that the operator splits into
parity blocks (``operators.ParityMap``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError

__all__ = ["Grid", "build_grid"]

# Bounds the dense H that ``spectrum`` and the operator artifact form.
_MAX_DENSE_NODES = 4096


@dataclass(frozen=True)
class Grid:
    dim: int
    bounds: tuple  # ((a1, b1), ...) one pair per axis
    h: float
    nodes: np.ndarray  # (n,) in 1d, (n, dim) otherwise

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    @property
    def shape(self) -> tuple[int, ...]:
        """Cells per axis; node ix * ny + iy sits in cell (ix, iy) in 2d."""
        return tuple(int(round((b - a) / self.h)) for a, b in self.bounds)

    @property
    def mirror_axes(self) -> tuple[int, ...]:
        """The axes with a == -b, along which the nodes are exact mirror images."""
        return tuple(ax for ax, (a, b) in enumerate(self.bounds) if a == -b)

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    @property
    def radii(self) -> np.ndarray:
        if self.dim == 1:
            return np.abs(self.nodes)
        return np.sqrt(np.sum(self.nodes**2, axis=1))

    def potential(self, c: float, alpha: float) -> np.ndarray:
        """V = c |x|**(-alpha) at the nodes, exactly 0.0 when c = 0: finite, no node is at 0."""
        return c * self.radii ** (-alpha) if c > 0.0 else np.zeros(self.n)

    @property
    def half_width(self) -> float:
        """Largest distance from the origin to a boundary face."""
        return max(max(abs(a), abs(b)) for a, b in self.bounds)

    @property
    def inradius(self) -> float:
        """Smallest distance from the origin to a boundary face."""
        return min(min(-a, b) for a, b in self.bounds)

    @property
    def face_distance(self) -> np.ndarray:
        """Distance from each node to the nearest boundary face."""
        pts = self.nodes.reshape(self.n, self.dim)
        lo, hi = np.array(self.bounds).T
        return np.min(np.minimum(pts - lo, hi - pts), axis=1)

    def inner_box(self, half_width: float | None = None) -> np.ndarray:
        """Mask of the nodes with max_i |x_i| <= half_width, for kernel comparisons.

        The default half-width is half the inradius.  ConfigError unless the
        cube sits strictly inside the domain and holds at least 2 nodes.
        """
        lim = self.inradius
        hw = 0.5 * lim if half_width is None else half_width
        if not (0.0 < hw < lim):
            raise ConfigError(
                f"comparison box half-width {hw:g} must sit strictly inside the domain "
                f"(inradius {lim:g})"
            )
        pts = self.nodes.reshape(self.n, self.dim)
        mask = np.max(np.abs(pts), axis=1) <= hw * (1.0 + 1e-12)
        if int(np.sum(mask)) < 2:
            raise ConfigError(f"comparison box of half-width {hw:g} holds fewer than 2 nodes")
        return mask

    def slope_window(self) -> np.ndarray:
        """Mask of the nodes with lo <= |x| <= hi, for a radial slope fit.

        The window (lo, hi) = (2h, 0.1 * half-width) keeps clear of both the innermost
        cells (where the discretization smears the profile) and the boundary
        decay.  ConfigError unless 0 < lo < hi; ContractError when fewer than
        6 nodes fall inside.
        """
        lo, hi = 2.0 * self.h, 0.1 * self.half_width
        if not (0.0 < lo < hi):
            raise ConfigError(f"bad radial window ({lo}, {hi})")
        r = self.radii
        mask = (r >= lo * (1.0 - 1e-12)) & (r <= hi * (1.0 + 1e-12))
        n_in = int(np.sum(mask))
        if n_in < 6:
            raise ContractError(
                f"radial window ({lo:g}, {hi:g}) holds {n_in} nodes; need >= 6 "
                "(refine the grid or widen the window)"
            )
        return mask


def halves(hs) -> bool:
    """True when each spacing of ``hs`` is half the one before it: the rule of ``lp`` levels."""
    return all(np.isclose(h1 / h2, 2.0, rtol=1e-9) for h1, h2 in zip(hs, hs[1:]))


def _axis_centers(a: float, b: float, h: float, axis: int) -> np.ndarray:
    extent = b - a
    n = int(round(extent / h))
    if n < 2 or abs(n * h - extent) > 1e-9 * extent:
        raise ConfigError(
            f"axis {axis}: spacing h={h} does not tile ({a}, {b}) into >= 2 cells"
        )
    if n % 2 != 0:
        raise ConfigError(
            f"axis {axis}: cell count {n} is odd; an even count is required so "
            f"that no node can land on the origin"
        )
    x = a + (np.arange(n) + 0.5) * h
    # on a mirror axis, x_{n-1-i} == -x_i bit for bit (the sum a + (i + 0.5) h
    # can miss by an ulp); x - x[::-1] is exactly antisymmetric and 0.5 exact
    return 0.5 * (x - x[::-1]) if a == -b else x


def build_grid(domain, h: float) -> Grid:
    """Build the cell-centered grid for an interval (a, b) or a box of them.

    ``domain`` is either a pair (a, b) or a sequence of such pairs, one per
    axis; the jump table, the killing term and the FFT symbol are written for
    at most two.  The box must contain the origin strictly, h must tile every
    axis into an even number of cells, the grid holds at most
    _MAX_DENSE_NODES nodes, and they keep distance >= h/2 from the origin.
    """
    if h is None or not np.isfinite(h) or h <= 0:
        raise ConfigError(f"grid spacing must be positive and finite, got {h}")
    dom = np.asarray(domain, dtype=float)
    if dom.shape == (2,):
        pairs = [(dom[0], dom[1])]
    elif dom.ndim == 2 and dom.shape[1] == 2:
        pairs = [tuple(p) for p in dom]
    else:
        raise ConfigError(f"domain must be (a, b) or a list of such pairs, got {domain}")
    dim = len(pairs)
    if dim > 2:
        raise ConfigError("the operator supports 1 or 2 axes only")
    for ax, (a, b) in enumerate(pairs):
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ConfigError(f"axis {ax}: domain must be bounded, got ({a}, {b})")
        if not (a < 0.0 < b):
            raise ConfigError(
                f"axis {ax}: the domain must contain the origin strictly, got ({a}, {b})"
            )

    # count nodes in floats before any axis is built (a tiny h gives inf); an
    # axis under one cell counts as one, so no single axis passes the limit
    count = math.prod(max(float(b - a) / float(h), 1.0) for a, b in pairs)
    if count >= _MAX_DENSE_NODES + 0.5:
        raise ConfigError(
            f"spacing h={h} gives {count:.6g} nodes, past the dense-assembly limit of "
            f"{_MAX_DENSE_NODES}"
        )

    axes = [_axis_centers(a, b, h, ax) for ax, (a, b) in enumerate(pairs)]
    if dim == 1:
        nodes = axes[0]
    else:
        xs, ys = np.meshgrid(axes[0], axes[1], indexing="ij")
        nodes = np.column_stack([xs.ravel(), ys.ravel()])

    grid = Grid(dim=dim, bounds=tuple(pairs), h=float(h), nodes=nodes)
    if grid.radii.min() < 0.5 * h * (1.0 - 1e-12):
        raise ConfigError(
            "a grid node falls on (or nearly on) the origin; shift the domain or "
            "change h so cell centers avoid 0"
        )
    return grid
