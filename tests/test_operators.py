"""Assembly of the matrix-free nonlocal operator, its dense form and its quadratic forms."""

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import hardyheat.operators as ops
from hardyheat.errors import ConfigError, ContractError, InvariantViolation, ParameterDomainError
from hardyheat.estimators import lambda_min
from hardyheat.evolution import heat_kernel
from hardyheat.grids import build_grid
from hardyheat.operators import (
    DiscreteOperator,
    FormEvaluator,
    _adjacent_weight_1d,
    _near_weight_2d,
    assemble_operator,
    exterior_power_tail,
    killing_term,
    load_operator,
    save_operator,
    triangle_blocks,
    write_csv,
)
from hardyheat.specfun import (
    FractionalParams,
    beta_of_c,
    hardy_constant,
    intensity_constant,
)

import oracles

P1 = FractionalParams(1, 0.5)
P2 = FractionalParams(2, 0.5)


# ---------------------------------------------------------------------------
# killing term and exterior tails
# ---------------------------------------------------------------------------

def test_killing_1d_closed_form():
    A = intensity_constant(P1)
    a, b = -1.0, 1.0
    xs = np.array([-0.7, 0.0, 0.31, 0.95])
    got = killing_term(xs, (a, b), P1)
    want = (A / P1.alpha) * ((xs - a) ** (-P1.alpha) + (b - xs) ** (-P1.alpha))
    assert_allclose(got, want, rtol=1e-14)


def test_killing_1d_against_quadrature():
    for x0 in (-0.4, 0.1, 0.83):
        got = float(killing_term(np.array([x0]), (-1.0, 1.5), P1)[0])
        ref = oracles.killing_1d_quad(x0, -1.0, 1.5, P1.alpha)
        assert_allclose(got, ref, rtol=1e-10)


def test_killing_2d_against_polar_quadrature():
    rect = ((-1.0, 1.0), (-0.7, 0.9))
    for pt in ((0.0, 0.0), (0.4, -0.3), (-0.8, 0.6)):
        got = float(killing_term(np.array([pt]), rect, P2)[0])
        ref = oracles.killing_2d_polar(pt, rect, P2.alpha)
        assert_allclose(got, ref, rtol=1e-10)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_killing_2d_matches_mpmath(alpha):
    rect = ((-1.0, 1.0), (-1.0, 1.0))
    eps = 1e-6
    pts = np.array([
        (1.0 - eps, 0.3), (-1.0 + eps, -0.2), (0.1, 1.0 - eps), (-0.4, -1.0 + eps),
        (-1.0 + eps, 1.0 - eps),  # 1e-6 from two faces
        (0.975, 0.975), (-0.975, -0.975), (0.975, -0.975),  # corner nodes, h = 0.05
        (0.525, 0.925),  # the retired quadrature's worst node at alpha = 1
        (0.0, 0.0),
    ])
    got = killing_term(pts, rect, FractionalParams(2, alpha))
    want = [oracles.mp_killing_2d(p, rect, alpha) for p in pts]
    assert_allclose(got, want, rtol=1e-11)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_killing_2d_within_retired_quadrature(alpha):
    # the per-node quad path used before the closed form, on grid nodes
    rect = ((-1.0, 1.0), (-1.0, 1.0))
    nodes = build_grid(rect, 0.05).nodes
    pts = np.vstack([nodes[::37], [(0.525, 0.925)]])
    got = killing_term(pts, rect, FractionalParams(2, alpha))
    old = [oracles.killing_2d_strip_quad(p, rect, alpha) for p in pts]
    assert_allclose(got, old, rtol=1e-8)


def test_killing_grows_toward_boundary():
    xs = np.array([0.0, 0.5, 0.9, 0.99])
    vals = np.asarray(killing_term(xs, (-1.0, 1.0), P1))
    assert np.all(np.diff(vals) > 0)


def test_exterior_tail_against_quadrature():
    for beta in (0.068338, 0.25):
        for x0 in (0.1, -0.45, 0.72):
            got = float(exterior_power_tail(np.array([x0]), (-1.0, 1.0), P1, beta)[0])
            ref = oracles.exterior_tail_quad(x0, -1.0, 1.0, P1.alpha, beta)
            assert_allclose(got, ref, rtol=1e-10)


@pytest.mark.parametrize("alpha", [0.25, 0.75])
@pytest.mark.parametrize("beta", [1e-6, 0.5, 1.0 - 1e-6])
def test_exterior_tail_matches_mpmath(alpha, beta):
    # on (-0.4, 1.6) the left tail from x near 1.6 is the range c > 2b (c = 1.6 > 0.8)
    for a, b in ((-0.7, 1.3), (-0.4, 1.6)):
        xs = np.array([a + 1e-6, a + 1e-3, -0.2, 0.45, b - 1e-3, b - 1e-6])
        got = exterior_power_tail(xs, (a, b), FractionalParams(1, alpha), beta)
        want = [oracles.mp_exterior_tail(x, a, b, alpha, beta) for x in xs]
        assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("beta", [1e-6, 0.5, 1.0 - 1e-6])
def test_exterior_tail_far_from_a_near_end_matches_mpmath(beta):
    # c/b reaches 1e3 on the left half-line, where hyp2f1 loses 1e-11 at beta -> 1
    a, b = -1e-3, 1.0
    xs = np.array([a + 1e-6, 0.01, 0.5, b - 1e-6])
    got = exterior_power_tail(xs, (a, b), FractionalParams(1, 0.5), beta)
    want = [oracles.mp_exterior_tail(x, a, b, 0.5, beta) for x in xs]
    assert_allclose(got, want, rtol=1e-12)


def _around(points, rng, n):
    """Each point, its neighbours 1e-12 apart and n random points within 1e-3 of it."""
    points = np.asarray(points, dtype=float)
    near = points[:, None] * (1.0 + np.concatenate([[-1e-12, 0.0, 1e-12], rng.uniform(-1e-3, 1e-3, n)]))
    return near.ravel()


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.5, 1.9])
def test_cos_power_integral_matches_incomplete_beta(alpha):
    # the epoch-13 path: scipy's betainc below t = 1 and betaincc above it
    rng = np.random.default_rng(1)
    t = np.concatenate([10.0 ** rng.uniform(-8, 8, 20_000), _around([1.0], rng, 200)])
    assert np.sum(t <= 1.0) > 1000 and np.sum(t > 1.0) > 1000
    assert_allclose(ops._cos_power_integral(t, alpha), oracles.cos_power_integral_betainc(t, alpha),
                    rtol=1e-13, atol=0)


@pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 0.75, 0.95])
@pytest.mark.parametrize("beta", [1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6])
def test_right_power_tail_matches_hyp2f1(alpha, beta):
    # the epoch-13 path: one hyp2f1 value per point.  The ranges split at
    # x = -2b, 0 and 2b/3; x runs over (-5b, b), where hyp2f1 holds 1e-14
    rng = np.random.default_rng(2)
    for b in (1.0, 0.4):
        x = b * np.concatenate([
            rng.uniform(-5.0, 1.0, 4000), 1.0 - 10.0 ** rng.uniform(-9, 0, 1000),
            _around([-2.0, 2.0 / 3.0], rng, 200), [-1e-12, 0.0, 1e-12],
        ])
        x = x[x < b]
        for lo, hi in ((-5 * b, -2 * b), (-2 * b, 0.0), (0.0, 2 * b / 3), (2 * b / 3, b)):
            assert np.sum((lo < x) & (x <= hi)) > 500
        assert_allclose(ops._right_power_tail(x, b, alpha, beta),
                        oracles.right_power_tail_hyp2f1(x, b, alpha, beta), rtol=1e-13, atol=0)


def test_exterior_tail_rejects_bad_exponent():
    xs = np.array([0.1])
    with pytest.raises(ParameterDomainError):
        exterior_power_tail(xs, (-1.0, 1.0), P1, 0.0)
    with pytest.raises(ParameterDomainError):
        exterior_power_tail(xs, (-1.0, 1.0), P1, 1.0)


def test_exterior_tail_is_one_dimensional_only():
    with pytest.raises(ConfigError):
        exterior_power_tail(np.array([[0.1, 0.1]]), ((-1, 1), (-1, 1)), P2, 0.25)


# ---------------------------------------------------------------------------
# near-field cell weights
# ---------------------------------------------------------------------------

def test_adjacent_weight_1d_is_exact_cell_integral():
    for alpha in (0.25, 0.5, 0.75):
        assert_allclose(
            _adjacent_weight_1d(alpha), oracles.cell_weight_1d_quad(alpha), rtol=1e-12
        )


def test_near_weight_2d_matches_quadrature():
    for off in ((1, 0), (1, 1)):
        got = _near_weight_2d(0.5, *off)
        ref = oracles.cell_weight_2d_quad(0.5, *off)
        assert_allclose(got, ref, rtol=1e-10)


# ---------------------------------------------------------------------------
# assembly structure
# ---------------------------------------------------------------------------

def _jump(op):
    """The jump weights of ``op`` as an (n, n) array, read from its table as the operator suite reads them."""
    return op.J.reshape(op.n, op.n)


def _oracle_jump(op):
    """J by the retired dense assembly (``oracles.jump_matrix``), with the package's near-cell weights."""
    p = op.params
    near = (_adjacent_weight_1d(p.alpha) if p.d == 1
            else (_near_weight_2d(p.alpha, 1, 0), _near_weight_2d(p.alpha, 1, 1)))
    return oracles.jump_matrix(op.grid, intensity_constant(p), p.alpha, near)


def _oracle_ulps(op):
    """Entrywise gap allowed between the dense L0 and the oracle's, in ulp of the oracle.

    2-d: 0, the same table gathered the same way.  1-d: the oracle's node
    differences x_i - x_j carry up to 4 (b - a) u of rounding, relative error
    4 n u at offsets >= h, which the power 1 + alpha scales; the row sums add
    2 log2(n) ulp and the products a few more.  A dyadic h rounds nothing.
    """
    if op.grid.dim == 2:
        return 0.0
    n, alpha = op.n, op.params.alpha
    return (1.0 + alpha) * (4 * n + 1) + 2 * np.log2(n) + 8


def test_assembly_structure_1d():
    grid = build_grid((-1.0, 1.0), 0.02)
    op = assemble_operator(grid, P1, c=0.0)
    n = grid.n
    J = _jump(op)
    assert J.shape == (n, n)
    assert np.max(np.abs(J - J.T)) == 0.0
    assert np.min(J) >= 0.0
    assert np.all(np.diag(J) == 0.0)
    # off-diagonal of the generator is minus the jump matrix
    L0 = op.free.H
    off = L0 - np.diag(np.diag(L0))
    assert_allclose(off, -J, rtol=0, atol=0)
    assert np.array_equal(np.diag(L0), op.diag)
    # the retired node-difference J, to the rounding of its node differences
    ref = _oracle_jump(op)
    assert np.all(np.abs(J - ref) <= _oracle_ulps(op) * np.spacing(ref))
    # row sums collapse to the killing rate
    assert_allclose(L0.sum(axis=1), op.kappa, rtol=1e-10)


def test_adjacent_entries_use_cell_integration():
    grid = build_grid((-1.0, 1.0), 0.02)
    op = assemble_operator(grid, P1)
    A = op.intensity
    h = grid.h
    want = A * h ** (-P1.alpha) * oracles.cell_weight_1d_quad(P1.alpha)
    for i in (0, 57, 98):
        assert_allclose(_jump(op)[i, i + 1], want, rtol=1e-10)


def test_far_entries_use_midpoint_rule():
    grid = build_grid((-1.0, 1.0), 0.02)
    op = assemble_operator(grid, P1)
    A = op.intensity
    h = grid.h
    i, j = 10, 25
    dist = abs(grid.nodes[i] - grid.nodes[j])
    assert_allclose(_jump(op)[i, j], A * h * dist ** (-1.0 - P1.alpha), rtol=1e-13)


def test_assembly_structure_2d():
    grid = build_grid([(-1.0, 1.0), (-1.0, 1.0)], 0.125)
    op = assemble_operator(grid, P2, c=0.0)
    J = _jump(op)
    assert np.max(np.abs(J - J.T)) == 0.0
    assert np.min(J) >= 0.0
    assert_allclose(op.free.H.sum(axis=1), op.kappa, rtol=1e-10)
    # axis neighbor and diagonal neighbor get the cached cell integrals
    A, h = op.intensity, grid.h
    d0 = grid.nodes[:, None, :] - grid.nodes[None, :, :]
    steps = np.rint(d0 / h).astype(int)
    ax_mask = (np.abs(steps[:, :, 0]) == 1) & (steps[:, :, 1] == 0)
    di_mask = (np.abs(steps[:, :, 0]) == 1) & (np.abs(steps[:, :, 1]) == 1)
    want_ax = A * h ** (-P2.alpha) * oracles.cell_weight_2d_quad(P2.alpha, 1, 0)
    want_di = A * h ** (-P2.alpha) * oracles.cell_weight_2d_quad(P2.alpha, 1, 1)
    assert_allclose(J[ax_mask], want_ax, rtol=1e-9)
    assert_allclose(J[di_mask], want_di, rtol=1e-9)


@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize(
    "dom, h", [([(-1.0, 1.0), (-0.6, 1.4)], 0.1), ([(-0.5, 1.5), (-1.0, 1.5)], 0.125)]
)
def test_jump_matrix_2d_matches_broadcast(alpha, dom, h):
    p = FractionalParams(2, alpha)
    grid = build_grid(dom, h)
    op = assemble_operator(grid, p)
    scale = op.intensity * h ** (-alpha)
    ref = oracles.jump_matrix_2d_broadcast(
        grid.nodes, h, op.intensity, alpha,
        scale * _near_weight_2d(alpha, 1, 0), scale * _near_weight_2d(alpha, 1, 1),
    )
    J = _jump(op)
    assert np.array_equal(J, J.T)
    nonzero = ref != 0.0
    assert np.array_equal(J != 0.0, nonzero)
    assert_allclose(J[nonzero], ref[nonzero], rtol=1e-14, atol=0)


def test_potential_and_truncation():
    grid = build_grid((-1.0, 1.0), 0.05)
    c = 0.5 * hardy_constant(P1)
    op = assemble_operator(grid, P1, c=c, k=None)
    assert_allclose(op.V, c * grid.radii ** (-P1.alpha))
    L0 = op.free.H
    assert_allclose(op.H, L0 - np.diag(op.V))
    trunc = op.with_truncation(1.0)
    assert_allclose(trunc.W, np.minimum(op.V, 1.0))
    assert_allclose(trunc.H, L0 - np.diag(np.minimum(op.V, 1.0)))
    # the jump table, its symbol, the diagonal, kappa and V are shared, not recomputed
    assert trunc.table is op.table and trunc.symbol is op.symbol and trunc.diag is op.diag
    assert trunc.kappa is op.kappa
    back = trunc.with_truncation(None)
    assert_allclose(back.H, op.H)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _single_matrix_case(name):
    """(operator, V and k the oracle subtracts) for one single-matrix case."""
    g1 = build_grid((-1.0, 1.0), 0.02)
    g2 = build_grid(((-1.0, 1.0), (-1.0, 1.0)), 0.1)
    c1, c2 = 0.5 * hardy_constant(P1), 0.3 * hardy_constant(P2)
    if name == "d1":
        op = assemble_operator(g1, P1, c=c1)
        return op, op.V, None
    if name == "d2":
        op = assemble_operator(g2, P2, c=c2)
        return op, op.V, None
    if name == "d2_truncated":
        op = assemble_operator(g2, P2, c=c2).with_truncation(4.0)
        return op, op.V, 4.0
    if name == "d1_assembled_truncated":
        op = assemble_operator(g1, P1, c=c1, k=2.0)
        return op, op.V, 2.0
    op = assemble_operator(g1, P1, c=c1).free
    return op, np.zeros(g1.n), None


@pytest.mark.parametrize(
    "name", ["d1", "d2", "d2_truncated", "d1_assembled_truncated", "d1_free"]
)
def test_single_matrix_operator_matches_three_array_oracle(name):
    # 2-d: the dense H, L0 and J equal the retired assembly's bits; 1-d: the
    # table is exact in the offset, so they differ by the oracle's node-difference
    # rounding (``_oracle_ulps``), and W is subtracted bit for bit as there
    op, V, k = _single_matrix_case(name)
    J, L0, H = oracles.three_array_operator(
        _oracle_jump(op), op.kappa, V, k, op.grid.shape, op.grid.mirror_axes
    )
    ulps = _oracle_ulps(op)
    for got, want in ((op.free.H, L0), (_jump(op), J)):
        assert np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(want)))
    if op.grid.dim == 2:
        assert np.array_equal(_bits(op.free.H), _bits(L0))
        assert np.array_equal(_bits(_jump(op)), _bits(J))
        assert np.array_equal(_bits(op.H), _bits(H))
    W = V if k is None else np.minimum(V, k)
    assert np.array_equal(_bits(op.W), _bits(W))
    assert np.array_equal(_bits(np.diag(op.H)), _bits(op.diag - W))


@pytest.mark.parametrize("name", ["d1", "d2"])
def test_weighted_form_matches_jump_oracle(name):
    # the package expands the square (one matrix product); the oracle sums
    # J (f_i - f_j)^2 w_i w_j term by term
    op, V, k = _single_matrix_case(name)
    J0 = _oracle_jump(op)
    ev = FormEvaluator(op)
    w, wkill = op.weight, op.weighted_tail
    rng = np.random.default_rng(5)
    # unit vectors leave few terms in the sum, so a change of product order shows
    units = np.eye(op.n)[:: op.n // 10]
    for f in (rng.normal(size=op.n), op.grid.radii ** -0.1, np.zeros(op.n), *units):
        want = op.grid.cell_volume * (
            oracles.weighted_jump_form(J0, f, w) + float(np.sum(f * f * w * wkill))
        )
        got = ev.weighted(f)
        assert isinstance(got, float)
        assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("name", ["d1", "d2"])
def test_weighted_form_takes_columns(name):
    # a batch of columns gives each column's own value, to roundoff of the
    # diagonal energy scale h^d sum_i L0_ii (f_i w_i)^2, L0_ii = op.diag
    op, V, k = _single_matrix_case(name)
    ev = FormEvaluator(op)
    rng = np.random.default_rng(7)
    units = np.eye(op.n)[:: op.n // 10]
    cols = [rng.normal(size=op.n), op.grid.radii ** -0.1, np.zeros(op.n), *units]
    cols += [rng.normal(size=op.n) for _ in range(20)]
    F = np.column_stack(cols)
    batch = ev.weighted(F)
    assert batch.shape == (F.shape[1],)
    scale = op.grid.cell_volume * (op.diag @ (F * op.weight[:, None]) ** 2)
    for f, got, s in zip(cols, batch, scale):
        assert abs(got - ev.weighted(f)) <= 1e-15 * s
    assert np.array_equal(ev.weighted(F[:, :1]), [ev.weighted(F[:, 0])])
    with pytest.raises(ContractError, match=r"shape \(\d+,\) or \(\d+, m\)"):
        ev.weighted(F.T)
    with pytest.raises(ContractError, match="form argument must have shape"):
        ev.plain(F)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("frac", [0.0, 0.3, 1.0, 1.0 + 1e-10, 2.0])
def test_operator_weight_is_the_ground_state_weight(d, frac):
    # w = |x|^-beta(c) bit for bit; ones at c = 0; no weight above c*
    params = P1 if d == 1 else P2
    grid = build_grid((-1.0, 1.0) if d == 1 else ((-1.0, 1.0), (-1.0, 1.0)), 0.2)
    c = frac * hardy_constant(params)
    op = assemble_operator(grid, params, c=c)
    if frac == 0.0:
        assert op.beta == 0.0
        assert np.array_equal(_bits(op.weight), _bits(np.ones(op.n)))
    elif frac <= 1.0:
        assert op.beta == beta_of_c(c, params)
        assert np.array_equal(_bits(op.weight), _bits(grid.radii ** -beta_of_c(c, params)))
        assert op.weight is op.weight
    else:
        with pytest.raises(ParameterDomainError, match="exceeds the critical value"):
            op.weight
    assert np.array_equal(_bits(op.free.weight), _bits(np.ones(op.n)))


def _square_arrays(op):
    n = op.n
    return sorted(
        name for name, v in vars(op).items() if isinstance(v, np.ndarray) and v.shape == (n, n)
    )


@pytest.mark.parametrize("d", [1, 2])
def test_operator_stores_one_matrix_shared_by_truncation_and_free(d):
    # no n x n array at all: the jump table (O(n)) is the one representation,
    # shared by truncated copies and the free view
    if d == 1:
        op = assemble_operator(build_grid((-1.0, 1.0), 0.05), P1, c=0.5 * hardy_constant(P1))
    else:
        grid = build_grid(((-1.0, 1.0), (-1.0, 1.0)), 0.2)
        op = assemble_operator(grid, P2, c=0.3 * hardy_constant(P2))
    assert _square_arrays(op) == []
    assert all(v.size <= 2 * (op.n + len(op.table)) for v in vars(op).values() if isinstance(v, np.ndarray))
    trunc = op.with_truncation(2.0)
    assert _square_arrays(trunc) == []
    assert trunc.table is op.table and op.free.table is op.table
    assert trunc.diag is op.diag and op.free.diag is op.diag
    assert (op.free.c, op.free.k) == (0.0, None)
    assert not np.any(op.free.V)
    # the free view is built once per operator, so its spectrum is cached once
    assert op.free is op.free
    free = assemble_operator(op.grid, op.params)
    for o in (op, trunc, op.free, free):
        # H is a new array on each read, owned by the caller: never cached
        H = o.H
        assert H is not o.H
        assert np.array_equal(_bits(H), _bits(o.H))
        H *= -2.0
        assert not np.array_equal(_bits(H), _bits(o.H))
        o.spectrum, lambda_min(o)
        assert _square_arrays(o) == []
    # the free view is the freshly assembled free operator bit for bit
    assert np.array_equal(_bits(op.free.H), _bits(free.H))
    assert np.array_equal(_bits(np.diag(op.H)), _bits(op.diag - op.V))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("k", [None, 2.0])
def test_apply_is_h_times_v(d, k):
    if d == 1:
        op = assemble_operator(build_grid((-1.0, 1.0), 0.05), P1, c=0.5 * hardy_constant(P1), k=k)
    else:
        grid = build_grid(((-1.0, 1.0), (-1.0, 1.0)), 0.2)
        op = assemble_operator(grid, P2, c=0.3 * hardy_constant(P2), k=k)
    V = np.random.default_rng(3).normal(size=(op.n, 4))
    H = op.H
    scale = np.abs(H) @ np.abs(V)
    assert np.all(np.abs(op.apply(V) - H @ V) <= 1e-14 * scale)
    assert np.all(np.abs(op.apply(V[:, 0]) - H @ V[:, 0]) <= 1e-14 * scale[:, 0])
    assert op.apply(V[:, 0]).shape == (op.n,)


_APPLY_GRIDS = {
    "d1_n200": (P1, (-1.0, 1.0), 0.01),
    "d1_n800": (P1, (-1.0, 1.0), 0.0025),
    "d1_n4096": (P1, (-1.0, 1.0), 2.0 / 4096),
    "d2_n400": (FractionalParams(2, 1.0), ((-1.0, 1.0), (-1.0, 1.0)), 0.1),
    "d2_n1600": (FractionalParams(2, 1.0), ((-1.0, 1.0), (-1.0, 1.0)), 0.05),
    "d2_n2304": (FractionalParams(2, 1.5), ((-1.0, 1.0), (-1.0, 1.0)), 1.0 / 24),
    "d2_n960_40x24": (P2, ((-1.0, 1.0), (-0.6, 0.6)), 0.05),
}


@pytest.mark.parametrize("name", sorted(_APPLY_GRIDS))
@pytest.mark.parametrize("frac, k", [(0.0, None), (0.5, None), (0.5, 4.0)], ids=["bare", "half", "truncated"])
def test_apply_matches_dense_oracle(name, frac, k):
    # the FFT action against the retired dense H, entrywise to 1e-14 of |H||V|
    # plus, in 1-d, the oracle's own node-difference rounding (``_oracle_ulps``)
    params, dom, h = _APPLY_GRIDS[name]
    op = assemble_operator(build_grid(dom, h), params, c=frac * hardy_constant(params), k=k)
    V = np.random.default_rng(11).normal(size=(op.n, 3))
    H = oracles.dense_h(_oracle_jump(op), op.kappa, op.W)
    want = H @ V
    absH = np.abs(H, out=H)
    scale = absH @ np.abs(V)
    rounding = np.finfo(float).eps * _oracle_ulps(op) * (scale + np.abs(op.W)[:, None] * np.abs(V))
    del H, absH
    got = op.apply(V)
    assert got.shape == V.shape
    assert np.all(np.abs(got - want) <= 1e-14 * scale + rounding)


@pytest.mark.parametrize("name", ["d1_n800", "d2_n960_40x24"])
def test_apply_column_of_a_batch_is_the_single_apply(name):
    params, dom, h = _APPLY_GRIDS[name]
    op = assemble_operator(build_grid(dom, h), params, c=0.5 * hardy_constant(params))
    V = np.random.default_rng(13).normal(size=(op.n, 5))
    for o in (op, op.with_truncation(2.0), op.free):
        batch = o.apply(V)
        for j in range(V.shape[1]):
            assert np.array_equal(_bits(batch[:, j]), _bits(o.apply(V[:, j])))
        assert np.array_equal(_bits(o.apply(V[:, :1])[:, 0]), _bits(o.apply(V[:, 0])))


@pytest.mark.parametrize("d", [1, 2])
def test_assembly_allocates_no_matrix(d):
    # 1-d n = 4096, 2-d n = 1600: the row sums read J by blocks, nothing n x n is formed
    import tracemalloc

    if d == 1:
        grid, params = build_grid((-1.0, 1.0), 2.0 / 4096), P1
    else:
        grid, params = build_grid(((-1.0, 1.0), (-1.0, 1.0)), 0.05), FractionalParams(2, 1.0)
    tracemalloc.start()
    try:
        op = assemble_operator(grid, params, c=0.5 * hardy_constant(params))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.n == (4096 if d == 1 else 1600)
    assert peak < 0.05 * 8 * op.n**2


def test_lambda_min_allocates_no_matrix():
    # the Lanczos solve acts through op.apply: no n x n array, however short-lived
    import tracemalloc

    params = FractionalParams(2, 1.0)
    op = assemble_operator(build_grid(((-1.0, 1.0), (-1.0, 1.0)), 0.05), params,
                           c=0.5 * hardy_constant(params))
    tracemalloc.start()
    try:
        lam = lambda_min(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lam > 0.0
    assert peak < 0.05 * 8 * op.n**2


def test_saturated_truncation_shares_the_spectrum():
    op = assemble_operator(build_grid((-1.0, 1.0), 0.05), P1, c=0.5 * hardy_constant(P1))
    bottom = min(lam[0] for lam, _ in op.spectrum)
    top = float(np.max(op.V))
    for k in (top, 2.0 * top):  # min(V, k) = V bit for bit
        sat = op.with_truncation(k)
        assert sat.k == k
        assert sat.spectrum is op.spectrum
        assert np.array_equal(_bits(sat.H), _bits(op.H))
        assert np.array_equal(_bits(np.minimum(op.V, k)), _bits(op.V))
    low = op.with_truncation(0.5 * top)
    assert low.spectrum is not op.spectrum
    assert not np.array_equal(low.H, op.H)
    assert min(lam[0] for lam, _ in low.spectrum) > bottom  # less potential removed: a higher bottom
    # a copy of a truncated operator at k >= max V changes W, so it shares nothing
    low.spectrum
    back = low.with_truncation(top)
    assert back.spectrum is not low.spectrum
    assert not np.array_equal(back.H, low.H)
    assert np.array_equal(_bits(back.H), _bits(op.H))


# ---------------------------------------------------------------------------
# mirror symmetry by construction (the parity blocks are blocks of op.H)
# ---------------------------------------------------------------------------

# (domain, h, mirror axes); at these h the 1-d nodes a + (i + 0.5) h miss their
# mirror images by an ulp, and the pairwise row sums of mirror rows differ
MIRROR_BOXES = [
    ((-1.0, 1.0), 0.01, (0,)),
    ((-1.0, 1.0), 0.005, (0,)),
    ((-1.0, 1.0), 0.0025, (0,)),
    ([(-1.0, 1.0), (-1.0, 1.0)], 0.1, (0, 1)),
    ([(-1.0, 1.0), (-0.5, 0.5)], 0.1, (0, 1)),
    ([(-1.0, 1.0), (-0.5, 1.0)], 1.0 / 12.0, (0,)),
]


def _mirror_case(domain, h):
    grid = build_grid(domain, h)
    params = P1 if grid.dim == 1 else P2
    return assemble_operator(grid, params, c=0.5 * hardy_constant(params))


@pytest.mark.parametrize("domain, h, axes", MIRROR_BOXES)
def test_mirror_axes_are_exact_by_construction(domain, h, axes):
    op = _mirror_case(domain, h)
    grid = op.grid
    assert grid.mirror_axes == axes
    pts = grid.nodes.reshape(grid.shape + (grid.dim,))
    trunc = op.with_truncation(0.5 * float(np.max(op.V)))
    for o in (op, trunc, op.free):
        arrays = {"radii": grid.radii, "V": o.V, "W": o.W, "kappa": o.kappa,
                  "diag": o.diag, "weight": o.weight}
        if grid.dim == 1 and o.c > 0.0:
            arrays["weighted_tail"] = o.weighted_tail
        for ax in axes:
            mirrored = np.flip(pts, ax)
            for coord in range(grid.dim):
                sign = -1.0 if coord == ax else 1.0
                assert np.array_equal(mirrored[..., coord], sign * pts[..., coord])
            for name, arr in arrays.items():
                g = arr.reshape(grid.shape)
                assert np.array_equal(np.flip(g, ax), g), (name, ax)


@pytest.mark.parametrize("domain, h, axes", [MIRROR_BOXES[0], *MIRROR_BOXES[3:]])
@pytest.mark.parametrize("name", ["diag", "kappa", "V"])
def test_spectrum_refuses_an_array_that_is_not_even(domain, h, axes, name):
    op = _mirror_case(domain, h)
    arr = getattr(op, name).copy().reshape(op.grid.shape)
    arr[(0,) * op.grid.dim] = np.nextafter(arr[(0,) * op.grid.dim], np.inf)  # one ulp at node 0
    broken = [(arr.copy(), 0)]
    if axes == (0, 1):  # the same ulp at node 0's x-mirror too: even in x, not in y
        arr[-1, 0] = arr[0, 0]
        broken.append((arr, 1))
    for bad_arr, ax in broken:
        bad = dataclasses.replace(op, **{name: bad_arr.ravel()})
        with pytest.raises(InvariantViolation, match=f"{name} is not even under the reflection of axis {ax}"):
            bad.spectrum
        with pytest.raises(InvariantViolation, match=f"{name} is not even"):
            heat_kernel(bad, 0.1)
    # a box without a mirror axis has one block and no reflection to check
    skew = assemble_operator(build_grid((-1.0, 1.5), 0.05), P1, c=0.5 * hardy_constant(P1))
    diag = skew.diag.copy()
    diag[0] = np.nextafter(diag[0], np.inf)
    assert [len(lam) for lam, _ in dataclasses.replace(skew, diag=diag).spectrum] == [skew.n]


def test_one_saturation_rule_at_max_v():
    # k saturates from max V on, where min(V, k) is V bit for bit; one ulp below it does not
    op = assemble_operator(build_grid((-1.0, 1.0), 0.05), P1, c=0.5 * hardy_constant(P1))
    top = float(np.max(op.V))
    below = float(np.nextafter(top, 0.0))
    assert op.saturates(None) and op.saturates(top) and op.saturates(2.0 * top)
    assert not op.saturates(below)
    assert not np.array_equal(_bits(np.minimum(op.V, below)), _bits(op.V))
    op.spectrum
    assert op.with_truncation(top).spectrum is op.spectrum
    assert op.with_truncation(below).spectrum is not op.spectrum


def test_assembly_validation():
    grid = build_grid((-1.0, 1.0), 0.1)
    with pytest.raises(ConfigError):
        assemble_operator(grid, P2)  # dim mismatch
    with pytest.raises(ParameterDomainError):
        assemble_operator(grid, P1, c=-0.1)
    with pytest.raises(ContractError):
        assemble_operator(grid, P1, c=0.1, k=0.0)
    with pytest.raises(ContractError):
        assemble_operator(grid, P1, c=0.1, k=None).with_truncation(-2.0)


@given(
    cells=st.integers(4, 20).map(lambda k: 2 * k),
    alpha=st.floats(0.2, 0.9),
)
@settings(max_examples=25, deadline=None)
def test_free_generator_is_positive_definite(cells, alpha):
    p = FractionalParams(1, alpha)
    grid = build_grid((-1.0, 1.0), 2.0 / cells)
    op = assemble_operator(grid, p, c=0.0)
    L0 = op.H
    assert np.max(np.abs(L0 - L0.T)) == 0.0
    assert_allclose(L0.sum(axis=1), op.kappa, rtol=1e-9)
    eig = np.linalg.eigvalsh(L0)
    assert eig[0] > 0.0


def test_harmonic_profile_defect_shrinks():
    c = 0.5 * hardy_constant(P1)
    beta = beta_of_c(c, P1)
    from hardyheat.specfun import multiplier

    defects = []
    for h in (0.02, 0.01):
        grid = build_grid((-1.0, 1.0), h)
        op = assemble_operator(grid, P1, c=c)
        r = grid.radii
        w = r ** (-beta)
        target = multiplier(beta, P1) * r ** (-beta - P1.alpha)
        tail = np.asarray(exterior_power_tail(grid.nodes, (-1.0, 1.0), P1, beta))
        band = (r >= 0.25) & (np.minimum(grid.nodes + 1.0, 1.0 - grid.nodes) >= 0.25)
        rel = np.abs(op.free.apply(w)[band] - (target + tail)[band]) / np.abs(
            (target + tail)[band]
        )
        defects.append(float(np.sqrt(np.mean(rel**2))))
    assert defects[0] / defects[1] >= 1.4


def test_smaller_domain_kernel_is_dominated():
    # restriction to a subdomain only adds killing, so its kernel must sit
    # below the larger domain's kernel at shared nodes for every t
    gs = build_grid((-0.5, 0.5), 0.02)
    gb = build_grid((-1.0, 1.0), 0.02)
    os_ = assemble_operator(gs, P1, c=0.0)
    ob = assemble_operator(gb, P1, c=0.0)
    idx = [int(np.argmin(np.abs(gb.nodes - x))) for x in gs.nodes]
    for t in (0.05, 0.2):
        Ps = oracles.kernel_matrix(heat_kernel(os_, t))
        Pb = oracles.kernel_matrix(heat_kernel(ob, t))[np.ix_(idx, idx)]
        assert np.max(Ps - Pb) <= 1e-12


# ---------------------------------------------------------------------------
# quadratic forms
# ---------------------------------------------------------------------------

def _bump(grid, lo=0.3, hi=0.8):
    r = grid.radii
    prof = np.where(
        (r > lo) & (r < hi),
        np.exp(-1.0 / np.maximum(1e-300, (r - lo) * (hi - r))),
        0.0,
    )
    m = prof.max()
    return prof / m if m > 0 else prof


def test_plain_form_equals_definition():
    grid = build_grid((-1.0, 1.0), 0.05)
    op = assemble_operator(grid, P1, c=0.0)
    ev = FormEvaluator(op)
    rng = np.random.default_rng(3)
    f = rng.normal(size=grid.n)
    df = f[:, None] - f[None, :]
    direct = grid.cell_volume * (
        0.5 * np.sum(_jump(op) * df * df) + np.sum(op.kappa * f * f)
    )
    assert_allclose(ev.plain(f), direct, rtol=1e-12)


def test_hardy_form_subtracts_potential():
    grid = build_grid((-1.0, 1.0), 0.05)
    c = 0.5 * hardy_constant(P1)
    op = assemble_operator(grid, P1, c=c, k=2.0)
    ev = FormEvaluator(op)
    f = _bump(grid)
    pot = grid.cell_volume * np.sum(np.minimum(op.V, 2.0) * f * f)
    assert_allclose(ev.hardy(f), ev.plain(f) - pot, rtol=1e-12)


def test_weighted_form_matches_conjugated_hardy():
    # ground-state identity: the weighted form of f equals the potential form
    # of w*f, up to a defect that vanishes under refinement
    c = 0.5 * hardy_constant(P1)
    beta = beta_of_c(c, P1)
    gaps = []
    for h in (0.01, 0.005):
        grid = build_grid((-1.0, 1.0), h)
        op = assemble_operator(grid, P1, c=c)
        ev = FormEvaluator(op)
        f = _bump(grid)
        w = grid.radii ** (-beta)
        lhs = ev.hardy(w * f)
        rhs = ev.weighted(f)
        gaps.append(abs(lhs - rhs) / abs(rhs))
    assert gaps[0] < 2e-3
    assert gaps[1] < 0.7 * gaps[0]


def test_weighted_form_needs_coupling():
    grid = build_grid((-1.0, 1.0), 0.1)
    op = assemble_operator(grid, P1, c=0.0)
    with pytest.raises(ContractError):
        FormEvaluator(op).weighted(np.ones(grid.n))


def test_exterior_gap_bound_nonnegative():
    grid = build_grid((-1.0, 1.0), 0.05)
    c = 0.5 * hardy_constant(P1)
    op = assemble_operator(grid, P1, c=c)
    ev = FormEvaluator(op)
    assert ev.exterior_gap_bound(_bump(grid)) >= 0.0


def test_form_shape_check():
    grid = build_grid((-1.0, 1.0), 0.1)
    op = assemble_operator(grid, P1)
    with pytest.raises(ContractError):
        FormEvaluator(op).plain(np.ones(grid.n + 1))


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def test_operator_roundtrip(tmp_path):
    grid = build_grid((-1.0, 1.0), 0.1)
    c = 0.5 * hardy_constant(P1)
    op = assemble_operator(grid, P1, c=c, k=4.0)
    base = str(tmp_path / "op")
    csv_path, json_path = save_operator(op, base)
    header, H = load_operator(base)
    assert np.array_equal(H, op.H)  # bit-exact via repr round-trip
    assert header["n"] == grid.n
    assert header["d"] == 1
    assert header["alpha"] == 0.5
    assert header["c"] == c
    assert header["k"] == 4.0
    assert header["h"] == 0.1
    assert header["bounds"] == [[-1.0, 1.0]]


def test_operator_checksum_guard(tmp_path):
    grid = build_grid((-1.0, 1.0), 0.25)
    op = assemble_operator(grid, P1)
    base = str(tmp_path / "op")
    csv_path, _ = save_operator(op, base)
    data = open(csv_path, "rb").read()
    open(csv_path, "wb").write(data.replace(b"0.", b"1.", 1))
    with pytest.raises(ConfigError):
        load_operator(base)


def test_operator_format_version_guard(tmp_path):
    grid = build_grid((-1.0, 1.0), 0.25)
    op = assemble_operator(grid, P1)
    base = str(tmp_path / "op")
    _, json_path = save_operator(op, base)
    header = json.load(open(json_path))
    header["format_version"] = 99
    json.dump(header, open(json_path, "w"))
    with pytest.raises(ConfigError):
        load_operator(base)


def test_failed_header_write_keeps_the_previous_header(tmp_path, monkeypatch):
    grid = build_grid((-1.0, 1.0), 0.25)
    base = str(tmp_path / "op")
    _, json_path = save_operator(assemble_operator(grid, P1), base)
    first = Path(json_path).read_bytes()

    def dump_then_die(obj, fh, **kw):
        fh.write('{"alpha": ')
        raise KeyboardInterrupt

    monkeypatch.setattr(json, "dump", dump_then_die)
    with pytest.raises(KeyboardInterrupt):
        save_operator(assemble_operator(grid, P1, c=0.1), base)
    monkeypatch.undo()
    assert Path(json_path).read_bytes() == first
    assert sorted(os.listdir(tmp_path)) == ["op.csv", "op.json"]


def _worker_counts(monkeypatch, block_rows=None):
    """Yield 1, then 2 artifact workers, with ``_cpus`` patched to match.

    The serial loop runs first, then the fork path, whatever the CPU count.
    With ``block_rows``, the 2-worker pass uses blocks of that many rows, so
    that a small file spans both workers.
    """
    for workers in (1, 2):
        monkeypatch.setattr(ops, "_cpus", lambda: workers)
        if workers == 2 and block_rows is not None:
            monkeypatch.setattr(ops, "_BLOCK_ROWS", block_rows)
        yield workers


def _assert_no_children():
    """Every artifact worker has been reaped: this process has no child left."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("change", ["renamed_over", "truncated"])
def test_load_operator_parses_the_bytes_it_hashed(tmp_path, monkeypatch, change):
    # the CSV changes after it was hashed and before its blocks are parsed;
    # n = 300 gives 45,150 rows, so two blocks
    grid = build_grid((-1.0, 1.0), 2.0 / 300)
    op = assemble_operator(grid, P1, c=0.5 * hardy_constant(P1))
    other = assemble_operator(grid, P1, c=0.25 * hardy_constant(P1))
    base, other_base = str(tmp_path / "op"), str(tmp_path / "other")
    real = ops._row_block_starts

    def then_change(fh, digest):
        starts = real(fh, digest)
        assert len(starts) == 3
        if change == "renamed_over":
            os.replace(other_base + ".csv", base + ".csv")
        else:
            os.truncate(base + ".csv", starts[1] + 1)
        return starts

    monkeypatch.setattr(ops, "_row_block_starts", then_change)
    for _ in _worker_counts(monkeypatch):
        save_operator(op, base)
        save_operator(other, other_base)
        if change == "renamed_over":
            # os.pread reads the descriptor that was hashed, not the new file
            _, H = load_operator(base)
            assert np.array_equal(H.view(np.int64), op.H.view(np.int64))
        else:
            with pytest.raises(ConfigError, match="operator CSV changed while it was read"):
                load_operator(base)
        _assert_no_children()


def _synthetic_matrix():
    """A symmetric 8 x 8 matrix holding 1e-05, 1e+16, 5e-324, -0.0 and skipped zeros."""
    H = np.zeros((8, 8))
    np.fill_diagonal(H, [1e-05, 1e+16, -0.0, 5e-324, 2.5, -3.0, 0.1, 1.0 / 3.0])
    for i, j, v in [(0, 1, 5e-324), (0, 7, 1e+16), (2, 5, 1e-05), (3, 4, -1e-300)]:
        H[i, j] = H[j, i] = v
    return H


def _save_matrix(H, base: str) -> str:
    """An operator artifact whose CSV holds ``H``, written by the artifact writer; its CSV path.

    The header comes from ``save_operator`` on a free operator of the same n;
    the CSV is then rewritten from H by ``write_csv`` and ``triangle_blocks``
    as ``save_operator`` writes it, and the header takes the new digest.
    """
    save_operator(assemble_operator(build_grid((-1.0, 1.0), 2.0 / len(H)), P1), base)
    sha = write_csv(base + ".csv", "i,j,value", triangle_blocks(H, skip_zeros=True))
    header = json.loads(Path(base + ".json").read_text())
    Path(base + ".json").write_text(json.dumps(dict(header, sha256=sha)))
    return base + ".csv"


def _operator_case(name):
    if name == "d1_partial_block":
        # 300 nodes: 109 matrix rows per block, 45150 CSV rows (two read blocks)
        return assemble_operator(build_grid((-1.0, 1.0), 2.0 / 300), P1, c=0.5 * hardy_constant(P1))
    if name == "d2_n400":
        return assemble_operator(build_grid(((-1.0, 1.0), (-1.0, 1.0)), 0.1), P2, c=0.3 * hardy_constant(P2))
    if name == "truncated":
        return assemble_operator(build_grid((-1.0, 1.0), 0.05), P1, c=0.5 * hardy_constant(P1), k=4.0)
    return None  # synthetic: a matrix no operator assembles


@pytest.mark.parametrize("name", ["d1_partial_block", "d2_n400", "truncated", "synthetic"])
def test_operator_csv_matches_loop_oracle(tmp_path, monkeypatch, name):
    op = _operator_case(name)
    want = _synthetic_matrix() if op is None else op.H

    def no_dense_h(self):
        raise AssertionError("save_operator formed a dense H")

    # the writer forms H a block of rows at a time, never through op.H
    monkeypatch.setattr(DiscreteOperator, "H", property(no_dense_h))
    for _ in _worker_counts(monkeypatch):
        base = str(tmp_path / "op")
        if op is None:
            csv_path, json_path = _save_matrix(want, base), base + ".json"
        else:
            csv_path, json_path = save_operator(op, base)
        payload = Path(csv_path).read_bytes()
        assert payload == oracles.operator_csv_loop(want)
        assert json.loads(Path(json_path).read_text())["sha256"] == hashlib.sha256(payload).hexdigest()
        _, H = load_operator(base)
        assert np.array_equal(H.view(np.int64), want.view(np.int64))
        assert np.array_equal(H.view(np.int64), oracles.operator_from_csv_loop(payload, len(want)).view(np.int64))


def test_operator_csv_small_blocks(tmp_path, monkeypatch):
    # blocks of 7 rows: every block boundary falls inside a matrix row
    monkeypatch.setattr(ops, "_BLOCK_ROWS", 7)
    want = _synthetic_matrix()
    for _ in _worker_counts(monkeypatch):
        base = str(tmp_path / "op")
        csv_path = _save_matrix(want, base)
        assert Path(csv_path).read_bytes() == oracles.operator_csv_loop(want)
        _, H = load_operator(base)
        assert np.array_equal(H.view(np.int64), want.view(np.int64))
    _assert_no_children()


def test_kernel_and_state_csv_match_loop_oracles(tmp_path, monkeypatch):
    grid = build_grid((-1.0, 1.0), 2.0 / 300)
    op = assemble_operator(grid, P1, c=0.5 * hardy_constant(P1))
    P = oracles.kernel_matrix(heat_kernel(op, 0.05))
    P[0, -1] = -0.0  # zeros are kept in kernel CSVs
    for _ in _worker_counts(monkeypatch):
        path = tmp_path / "kernel.csv"
        write_csv(str(path), "i,j,value", triangle_blocks(P))
        assert path.read_bytes() == oracles.kernel_csv_loop(P)
        for g in (grid, build_grid(((-1.0, 1.0), (-1.0, 1.0)), 0.1)):
            u = np.exp(-g.radii) * 1e-7
            path = tmp_path / f"state{g.dim}.csv"
            head = "x1,u" if g.dim == 1 else "x1,x2,u"
            write_csv(str(path), head, [(*g.nodes.reshape(g.n, -1).T, u)])
            assert path.read_bytes() == oracles.state_csv_loop(g.nodes, u)
    _assert_no_children()


class _FailingBlocks:
    """Five blocks of one i,j,value row each; reading block 2 raises."""

    def __len__(self):
        return 5

    def __getitem__(self, k):
        if k == 2:
            raise RuntimeError("block 2 failed")
        return np.array([k]), np.array([k]), np.array([0.5 * k])


def test_failed_write_keeps_the_previous_file_and_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "m.csv"
    for _ in _worker_counts(monkeypatch):
        for previous in (None, b"i,j,value\n0,0,1.0\n"):
            if previous is None:
                path.unlink(missing_ok=True)
            else:
                path.write_bytes(previous)
            with pytest.raises(RuntimeError, match="block 2 failed"):
                write_csv(str(path), "i,j,value", _FailingBlocks())
            assert (path.read_bytes() if path.exists() else None) == previous
            assert list(tmp_path.iterdir()) == ([] if previous is None else [path])
            _assert_no_children()


def test_malformed_row_in_a_middle_block_raises_the_serial_message(tmp_path, monkeypatch):
    # blocks of 4 rows; the bad row is the second of block 1 of 3
    monkeypatch.setattr(ops, "_BLOCK_ROWS", 4)
    rows = [f"{i},{j},1.0\n" for i in range(4) for j in range(i, 4)]
    rows[5] = "1,3\n"
    base = _write_raw_artifact(tmp_path, 4, "".join(rows).encode())
    messages = []
    for _ in _worker_counts(monkeypatch):
        with pytest.raises(ConfigError) as info:
            load_operator(base)
        messages.append(str(info.value))
        _assert_no_children()
    assert messages[0] == messages[1]
    assert messages[0].startswith("malformed operator CSV row:")
    assert "at row 2" in messages[0]  # counted within its block, as the serial reader counts


def _csv_case(name):
    """(matrix, skip_zeros, loop oracle bytes, whether its value columns take the table path)."""
    if name == "kernel":  # nearly every value distinct: formatted directly
        op = assemble_operator(build_grid((-1.0, 1.0), 2.0 / 300), P1, c=0.5 * hardy_constant(P1))
        P = oracles.kernel_matrix(heat_kernel(op, 0.05))
        return P, False, oracles.kernel_csv_loop(P), False
    if name == "repeated":  # few distinct values, kernel layout so that zeros are kept
        vals = np.array([-0.0, 0.0, 5e-324, 1e+16, 1e-05, 0.1, 1.0 / 3.0])
        M = vals[np.add.outer(np.arange(24), 2 * np.arange(24)) % len(vals)]
        return M, False, oracles.kernel_csv_loop(M), True
    if name == "d1_n1024":  # the bench operator: J is Toeplitz
        grid, params = build_grid((-1.0, 1.0), 2.0 / 1024), P1
    else:  # J is read from the cell-offset table
        grid, params = build_grid(((-1.0, 1.0), (-1.0, 1.0)), 0.1), P2
    H = assemble_operator(grid, params, c=0.5 * hardy_constant(params)).H
    return H, True, oracles.operator_csv_loop(H), True


@pytest.mark.parametrize("name", ["d1_n1024", "d2_n400", "kernel", "repeated"])
def test_csv_formats_each_distinct_value_once_with_loop_oracle_bytes(tmp_path, monkeypatch, name):
    M, skip_zeros, want, table = _csv_case(name)
    blocks = list(triangle_blocks(M, skip_zeros=skip_zeros))
    assert all(isinstance(ops._column_strings(v)[0], str) == table for _, _, v in blocks)
    path = tmp_path / "m.csv"
    for _ in _worker_counts(monkeypatch):
        write_csv(str(path), "i,j,value", blocks)
        assert path.read_bytes() == want


def _write_raw_artifact(tmp_path, n, body: bytes) -> str:
    """An operator artifact for n nodes with the given CSV rows and a matching checksum."""
    op = assemble_operator(build_grid((-1.0, 1.0), 2.0 / n), P1)
    base = str(tmp_path / "op")
    save_operator(op, base)
    payload = b"i,j,value\n" + body
    (tmp_path / "op.csv").write_bytes(payload)
    header = json.loads((tmp_path / "op.json").read_text())
    header["sha256"] = hashlib.sha256(payload).hexdigest()
    (tmp_path / "op.json").write_text(json.dumps(header))
    return base


@pytest.mark.parametrize("header, match", [
    (b"{not json", "not valid JSON"),
    (b"[1, 2]", "JSON object"),
    (b'{"format_version": 1, "n": "4", "sha256": "0"}', "integer"),
    (b'{"format_version": 1, "n": true, "sha256": "0"}', "integer"),
    (b'{"format_version": 1, "n": 5000, "sha256": "0"}', "integer"),
    (b'{"format_version": 1, "n": 4}', "sha256"),
    (b'{"format_version": 1, "n": 4, "sha256": 7}', "sha256"),
], ids=["not_json", "not_object", "string_n", "bool_n", "n_past_dense_limit",
        "missing_sha256", "numeric_sha256"])
def test_load_operator_rejects_bad_header(tmp_path, monkeypatch, header, match):
    base = str(tmp_path / "op")
    save_operator(assemble_operator(build_grid((-1.0, 1.0), 0.5), P1), base)
    (tmp_path / "op.json").write_bytes(header)
    for _ in _worker_counts(monkeypatch, block_rows=1):
        with pytest.raises(ConfigError, match=match):
            load_operator(base)


@pytest.mark.parametrize("body, match", [
    (b"0,0,1.0\n0,1\n1,1,1.0\n", "malformed"),
    (b"0,0,1.0\n0,1,2.0,3.0\n1,1,1.0\n", "malformed"),
    (b"0,0,1.0\n\n1,1,1.0\n", "must be i,j,value"),
], ids=["two_fields", "four_fields", "blank_row"])
def test_load_operator_rejects_wrong_field_count(tmp_path, monkeypatch, body, match):
    base = _write_raw_artifact(tmp_path, 2, body)
    for _ in _worker_counts(monkeypatch, block_rows=1):
        with pytest.raises(ConfigError, match=match):
            load_operator(base)


@pytest.mark.parametrize("row", [b"-1,0,5.0\n", b"0,2,5.0\n"], ids=["negative", "past_n"])
def test_load_operator_rejects_index_out_of_range(tmp_path, monkeypatch, row):
    base = _write_raw_artifact(tmp_path, 2, b"0,0,1.0\n" + row + b"1,1,1.0\n")
    for _ in _worker_counts(monkeypatch, block_rows=1):
        with pytest.raises(ConfigError, match="0 <= i <= j < 2"):
            load_operator(base)


def test_load_operator_rejects_row_below_diagonal(tmp_path, monkeypatch):
    base = _write_raw_artifact(tmp_path, 2, b"0,0,1.0\n1,0,5.0\n1,1,1.0\n")
    for _ in _worker_counts(monkeypatch, block_rows=1):
        with pytest.raises(ConfigError, match="0 <= i <= j < 2"):
            load_operator(base)


@pytest.mark.parametrize("body", [b"0,0,1.0\n", b"0,0,1.0\n0,0,1.0\n1,1,1.0\n"],
                         ids=["missing", "repeated"])
def test_load_operator_needs_each_diagonal_row_once(tmp_path, body):
    base = _write_raw_artifact(tmp_path, 2, body)
    with pytest.raises(ConfigError, match="diagonal row"):
        load_operator(base)
