"""Semigroup propagation: exponential action, kernels, monotone truncation limits."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigh

from hardyheat.errors import ConfigError, ContractError, InvariantViolation
from hardyheat.estimators import t_ref
from hardyheat.evolution import (
    default_k_levels,
    duhamel_residual,
    evolve,
    heat_kernel,
    minimal_solution,
)
from hardyheat.grids import build_grid
from hardyheat.operators import DiscreteOperator, assemble_operator
from hardyheat.scenario import build_u0
from hardyheat.specfun import FractionalParams, hardy_constant

import oracles

P1 = FractionalParams(1, 0.5)
P2 = FractionalParams(2, 1.0)


@pytest.fixture(scope="module")
def free_op():
    return assemble_operator(build_grid((-1.0, 1.0), 0.02), P1, c=0.0)


@pytest.fixture(scope="module")
def hardy_op():
    c = 0.5 * hardy_constant(P1)
    return assemble_operator(build_grid((-1.0, 1.0), 0.01), P1, c=c, k=None)


def _ground_pair(op):
    lam, vec = eigh(op.H, subset_by_index=(0, 0))
    phi = vec[:, 0]
    if phi.sum() < 0:
        phi = -phi
    return float(lam[0]), phi


def test_expm_matches_eigenmode_decay(free_op):
    lam, phi = _ground_pair(free_op)
    times = [0.3, 0.7]
    traj = evolve(free_op, phi, times)
    for t, state in zip(times, traj.states):
        assert_allclose(state, np.exp(-lam * t) * phi, rtol=1e-8, atol=1e-12)


def test_cn_tracks_expm(free_op):
    lam, phi = _ground_pair(free_op)
    times = [0.2, 0.6]
    ref = evolve(free_op, phi, times).states
    cn = np.array([oracles.theta_steps(free_op.H, phi, t, 200, 0.5) for t in times])
    err = np.max(np.abs(cn - ref)) / np.max(np.abs(ref))
    assert err <= 1e-5


def test_ie_is_first_order(free_op):
    lam, phi = _ground_pair(free_op)
    times = [0.5]
    ref = evolve(free_op, phi, times).states[-1]
    errs = []
    for n_steps in (100, 200):
        ie = oracles.theta_steps(free_op.H, phi, times[-1], n_steps, 1.0)
        errs.append(np.max(np.abs(ie - ref)))
    ratio = errs[0] / errs[1]
    assert 1.6 <= ratio <= 2.4


def test_input_validation(free_op):
    u0 = np.ones(free_op.n)
    with pytest.raises(ContractError):
        evolve(free_op, u0, [])
    with pytest.raises(ContractError):
        evolve(free_op, u0, [-0.1, 0.2])
    with pytest.raises(ContractError):
        evolve(free_op, u0, [0.2, 0.1])
    with pytest.raises(ContractError):
        evolve(free_op, u0, [0.1, 0.1])
    with pytest.raises(ContractError):
        evolve(free_op, np.ones(free_op.n + 2), [0.1])
    bad = u0.copy()
    bad[3] = -1e-3
    with pytest.raises(ContractError):
        evolve(free_op, bad, [0.1])
    # a tiny negative rounding residue is tolerated
    ok = u0.copy()
    ok[3] = -1e-16
    evolve(free_op, ok, [0.1])


def test_zero_time_state_is_initial(free_op):
    u0 = np.linspace(0.0, 1.0, free_op.n)
    traj = evolve(free_op, u0, [0.0, 0.3])
    assert_allclose(traj.states[0], u0, rtol=0, atol=0)


def test_positivity_preserved(free_op):
    rng = np.random.default_rng(11)
    u0 = rng.uniform(0.0, 1.0, free_op.n)
    traj = evolve(free_op, u0, [0.05, 0.4])
    assert np.min(traj.states) > 0.0


def test_heat_kernel_properties(free_op):
    k1 = heat_kernel(free_op, 0.2)
    assert np.max(np.abs(k1.P - k1.P.T)) <= 1e-10 * np.max(k1.P)
    assert np.min(k1.P) > 0.0
    k2 = heat_kernel(free_op, 0.3)
    k3 = heat_kernel(free_op, 0.5)
    comp = k1.P @ k2.P * free_op.grid.cell_volume
    assert np.max(np.abs(comp - k3.P)) <= 1e-8 * np.max(k3.P)
    for t in (0.0, np.inf, np.nan):
        with pytest.raises(ContractError, match="must be positive and finite"):
            heat_kernel(free_op, t)


def test_kernel_row_mass_submarkov(free_op):
    P = heat_kernel(free_op, 0.2).P
    mass = P.sum(axis=1) * free_op.grid.cell_volume
    assert np.max(mass) <= 1.0 + 1e-12


def test_truncation_schedule(hardy_op):
    # shallow potential (max V < 1): a single saturation level
    ks = default_k_levels(float(np.max(hardy_op.V)))
    assert_allclose(ks, [np.max(hardy_op.V)])
    # deeper potential: geometric levels 1, 4, ... capped at max V
    op = assemble_operator(build_grid((-1.0, 1.0), 0.005), P1, c=hardy_constant(P1))
    ks = np.array(default_k_levels(float(np.max(op.V))))
    assert ks[0] == 1.0
    assert_allclose(ks[-1], np.max(op.V))
    assert np.all(np.diff(ks) > 0)
    assert_allclose(ks[1:-1] / ks[:-2], 4.0)


def test_minimal_solution_saturates(hardy_op):
    grid = hardy_op.grid
    u0 = (grid.radii <= 0.2).astype(float)
    times = [0.1, 0.5]
    vmax = float(np.max(hardy_op.V))
    ks = [0.25 * vmax, 0.5 * vmax, vmax]
    traj, rep = minimal_solution(hardy_op, u0, times, k_schedule=ks)
    assert rep["mode"] == "convergence"
    assert rep["converged"] is True
    assert rep["converged_by"] == "saturation"
    assert rep["monotone"] is True
    assert len(rep["increments"]) == 2
    assert all(inc >= 0.0 for inc in rep["increments"])
    assert rep["probe_growth"] >= 1.0
    # the returned trajectory is the saturated (= untruncated) evolution
    ref = evolve(hardy_op, u0, times)
    assert_allclose(traj.states, ref.states, rtol=1e-12, atol=1e-300)


def test_saturation_is_reached_at_max_v_exactly(hardy_op):
    u0 = (hardy_op.grid.radii <= 0.2).astype(float)
    top = float(np.max(hardy_op.V))
    _, rep = minimal_solution(hardy_op, u0, [0.1], k_schedule=[0.5 * top, top])
    assert rep["converged_by"] == "saturation"
    # one ulp below max V the last level still truncates one node
    _, rep = minimal_solution(hardy_op, u0, [0.1], k_schedule=[0.5 * top, np.nextafter(top, 0.0)])
    assert rep["converged_by"] in ("tolerance", "none")
    # the default schedule ends on the first saturating level, max V itself
    op = assemble_operator(build_grid((-1.0, 1.0), 0.005), P1, c=hardy_constant(P1))
    ks = default_k_levels(float(np.max(op.V)))
    assert ks[-1] == np.max(op.V)
    assert [op.saturates(float(k)) for k in ks] == [False] * (len(ks) - 1) + [True]


def test_minimal_solution_contracts(free_op, hardy_op):
    u0 = np.ones(free_op.n)
    with pytest.raises(ConfigError):
        minimal_solution(free_op, u0, [0.1])
    trunc = hardy_op.with_truncation(2.0)
    with pytest.raises(ContractError):
        minimal_solution(trunc, np.ones(trunc.n), [0.1])
    with pytest.raises(ContractError):
        minimal_solution(hardy_op, np.ones(hardy_op.n), [0.1], k_schedule=[4.0, 2.0])
    with pytest.raises(ContractError):
        minimal_solution(hardy_op, np.ones(hardy_op.n), [0.1], k_schedule=[-1.0, 2.0])


def test_minimal_solution_divergence_mode():
    c = 2.0 * hardy_constant(P1)
    op = assemble_operator(build_grid((-1.0, 1.0), 0.02), P1, c=c, k=None)
    u0 = (op.grid.radii <= 0.2).astype(float)
    traj, rep = minimal_solution(op, u0, [0.1, 0.5])
    assert rep["mode"] == "divergence"
    assert rep["converged"] is False
    assert rep["converged_by"] == "divergence-mode"
    assert rep["probe_growth"] > 1.0


def test_duhamel_residual_small_and_shrinks(hardy_op):
    grid = hardy_op.grid
    u0 = (grid.radii <= 0.2).astype(float)
    traj = evolve(hardy_op, u0, [0.0, 0.1, 0.5])
    res65 = duhamel_residual(traj, n_quad=65)
    assert set(res65) == {0.1, 0.5}
    assert max(res65.values()) <= 1e-5
    res129 = duhamel_residual(traj, n_quad=129)
    assert res129[0.5] <= 0.3 * res65[0.5]


def test_duhamel_contracts(hardy_op):
    grid = hardy_op.grid
    u0 = (grid.radii <= 0.2).astype(float)
    traj = evolve(hardy_op, u0, [0.0, 0.1])
    with pytest.raises(ConfigError):
        duhamel_residual(traj, n_quad=64)
    with pytest.raises(ConfigError):
        duhamel_residual(traj, n_quad=31)
    late = evolve(hardy_op, u0, [0.1, 0.5])
    with pytest.raises(ContractError):
        duhamel_residual(late, n_quad=65)


# ---------------------------------------------------------------------------
# the propagator paths against the dense matrix exponential
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=["d1", "d2"])
def oracle_case(request):
    """(operator, free operator, initial state, t_ref) on a small grid."""
    if request.param == "d1":
        grid, params = build_grid((-1.0, 1.0), 0.01), P1
    else:
        grid, params = build_grid([(-1.0, 1.0), (-1.0, 1.0)], 0.125), P2
    op = assemble_operator(grid, params, c=0.5 * hardy_constant(params), k=None)
    free = assemble_operator(grid, params, c=0.0)
    u0 = (grid.radii <= 0.4).astype(float)
    return op, free, u0, t_ref(op)


ORACLE_FACTORS = (0.01, 0.1, 0.5)


def test_evolve_matches_dense_propagator(oracle_case):
    op, _, u0, tr = oracle_case
    times = [f * tr for f in ORACLE_FACTORS]
    traj = evolve(op, u0, times)
    for t, state in zip(times, traj.states):
        ref = oracles.dense_propagator(op.H, t) @ u0
        assert np.linalg.norm(state - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("factor", ORACLE_FACTORS)
def test_heat_kernel_matches_dense_propagator(oracle_case, factor):
    op, _, _, tr = oracle_case
    t = factor * tr
    P = heat_kernel(op, t).P
    ref = oracles.dense_propagator(op.H, t) / op.grid.cell_volume
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(P - ref)) <= 1e-12 * scale
    big = ref > 1e-12 * scale
    assert np.max(np.abs(P[big] - ref[big]) / ref[big]) <= 1e-6
    assert np.min(P) > 0.0


def test_duhamel_matches_dense_step_recursion(oracle_case):
    op, free, u0, tr = oracle_case
    times = [0.0] + [f * tr for f in ORACLE_FACTORS]
    traj = evolve(op, u0, times)
    for n_quad in (65, 129):
        got = duhamel_residual(traj, n_quad=n_quad)
        ref = oracles.duhamel_residual_dense(
            traj.times, traj.states, op.H, free.H, op.W, n_quad
        )
        assert set(got) == set(ref)
        for t in ref:
            assert abs(got[t] - ref[t]) <= 1e-13


def _spectral_H(op):
    """H put back together from the parity blocks of ``op.spectrum``."""
    return oracles.parity_lift([(Q * lam) @ Q.T for lam, Q in op.spectrum], op.grid.shape, op.grid.mirror_axes)


def test_spectrum_cached_per_operator(hardy_op):
    spec = hardy_op.spectrum
    assert hardy_op.spectrum is spec
    assert len(spec) == 2  # [-1, 1]: an even and an odd block of n/2
    assert_allclose(_spectral_H(hardy_op), hardy_op.H, rtol=0, atol=1e-12 * np.max(np.abs(hardy_op.H)))
    trunc = hardy_op.with_truncation(0.5 * float(np.max(hardy_op.V)))
    spec_k = trunc.spectrum
    assert all(lk is not lam and Qk is not Q for (lam, Q), (lk, Qk) in zip(spec, spec_k))
    # a lower cutoff subtracts less potential, so the spectrum moves up
    assert min(lam[0] for lam, _ in spec_k) > min(lam[0] for lam, _ in spec)
    assert_allclose(_spectral_H(trunc), trunc.H, rtol=0, atol=1e-12 * np.max(np.abs(trunc.H)))


# ---------------------------------------------------------------------------
# parity blocks against one eigendecomposition of the whole H
# ---------------------------------------------------------------------------

# (domain, h, number of mirror axes); "skew" has none
PARITY_BOXES = {
    "d1_mirror": ((-1.0, 1.0), 0.05, 1),
    "d1_skew": ((-1.0, 1.5), 0.05, 0),
    "d2_square": ([(-1.0, 1.0), (-1.0, 1.0)], 0.1, 2),
    "d2_flat": ([(-1.0, 1.0), (-0.5, 0.5)], 0.1, 2),
    "d2_one_axis": ([(-1.0, 1.0), (-0.5, 1.0)], 1.0 / 12.0, 1),
}
# The blocks agree with the full spectrum to roundoff: the kernels within
# 3.7e-15 of max P, the residuals (norms relative to |u(t)|, here 2e-15 to
# 2e-9) within 4.3e-15, measured on these boxes.  A wrong block would leave
# the trajectory, which the exponential action computes, far off its Duhamel sum.
PARITY_KERNEL_TOL = 1e-14  # of max P
PARITY_DUHAMEL_TOL = 1e-13  # absolute, on the relative residual


@pytest.fixture(scope="module", params=list(PARITY_BOXES))
def parity_case(request):
    """(name, operator, u0, t_ref); u0 is ``point``, the left of the nodes nearest 0."""
    domain, h, _ = PARITY_BOXES[request.param]
    params = P1 if request.param.startswith("d1") else P2
    grid = build_grid(domain, h)
    op = assemble_operator(grid, params, c=0.5 * hardy_constant(params))
    return request.param, op, build_u0("point", grid), t_ref(op)


def test_parity_blocks_follow_the_mirror_axes(parity_case):
    name, op, u0, _ = parity_case
    s = PARITY_BOXES[name][2]
    assert [len(lam) for lam, _ in op.spectrum] == [op.n >> s] * (1 << s)
    # a point u0 is not mirror-symmetric, so every block, odd ones included, carries weight
    assert all(np.any(v != 0.0) for v in op.parity.fold(u0))


@pytest.mark.parametrize("factor", (0.1, 0.5))
def test_heat_kernel_matches_the_full_spectrum(parity_case, factor):
    name, op, _, tr = parity_case
    t = factor * tr
    P = heat_kernel(op, t).P
    ref = oracles.heat_kernel_full_spectrum(op.H, t, op.grid.cell_volume)
    if name.endswith("skew"):
        assert np.array_equal(P, ref)
    else:
        assert np.max(np.abs(P - ref)) <= PARITY_KERNEL_TOL * np.max(ref)


def test_duhamel_matches_the_full_spectrum(parity_case):
    name, op, u0, tr = parity_case
    traj = evolve(op, u0, [0.0, 0.1 * tr, 0.5 * tr])
    for n_quad in (65, 129):
        got = duhamel_residual(traj, n_quad=n_quad)
        ref = oracles.duhamel_residual_full_spectrum(
            traj.times, traj.states, op.H, op.free.H, op.W, n_quad
        )
        assert set(got) == set(ref)
        for t in ref:
            if name.endswith("skew"):
                assert got[t] == ref[t]
            else:
                assert abs(got[t] - ref[t]) <= PARITY_DUHAMEL_TOL


# ---------------------------------------------------------------------------
# numpy's LAPACK against the scipy solver that the spectra used before (epoch 10)
# ---------------------------------------------------------------------------

# (domain, h, params): the finest grid of the verify-1d-all bench scenario
# (n = 800) and the 2-d h = 0.1 square (n = 400)
SCIPY_BOXES = {
    "d1_n800": ((-1.0, 1.0), 0.0025, P1),
    "d2_h0.1": ([(-1.0, 1.0), (-1.0, 1.0)], 0.1, P2),
}
# Measured at 1 and 2 BLAS threads: every eigenvalue of every block equal
# bit for bit (both call ?syevd on the same block); kernels within 6.8e-15 of
# max P; residuals within 1.0e-15.  The residuals are norms relative to
# |u(t)| and range from 8e-14 to 2.3e-8, so their difference is bounded in
# units of |u(t)|: at 8e-14 it is 1% of the residual, at 2.3e-8 1.4e-8.
SCIPY_EIGVAL_TOL = 4e-16  # of the block's max |lam|, two ulps
SCIPY_DUHAMEL_TOL = 1e-14  # absolute, on the relative residual


def _scipy_evd(A):
    return eigh(A, driver="evd")


@pytest.fixture(scope="module", params=list(SCIPY_BOXES))
def scipy_case(request):
    domain, h, params = SCIPY_BOXES[request.param]
    grid = build_grid(domain, h)
    op = assemble_operator(grid, params, c=0.5 * hardy_constant(params))
    return op, build_u0("ball:0.2", grid), t_ref(op)


def test_block_eigenvalues_match_scipys_solver(scipy_case):
    op, _, _ = scipy_case
    for o in (op, op.free):
        for B, (lam, _) in zip(o.parity.blocks(o), o.spectrum):
            ref = _scipy_evd(B)[0]
            assert np.max(np.abs(lam - ref)) <= SCIPY_EIGVAL_TOL * np.max(np.abs(ref))


def test_heat_kernel_matches_scipys_full_spectrum(scipy_case):
    op, _, tr = scipy_case
    for t in (0.1 * tr, 0.5 * tr):
        ref = oracles.heat_kernel_full_spectrum(op.H, t, op.grid.cell_volume, solver=_scipy_evd)
        assert np.max(np.abs(heat_kernel(op, t).P - ref)) <= PARITY_KERNEL_TOL * np.max(ref)


def test_duhamel_matches_scipys_full_spectrum(scipy_case):
    op, u0, tr = scipy_case
    traj = evolve(op, u0, [0.0, 0.1 * tr, 0.5 * tr])
    for n_quad in (65, 129):
        got = duhamel_residual(traj, n_quad=n_quad)
        ref = oracles.duhamel_residual_full_spectrum(
            traj.times, traj.states, op.H, op.free.H, op.W, n_quad, solver=_scipy_evd
        )
        assert set(got) == set(ref)
        for t in ref:
            assert abs(got[t] - ref[t]) <= SCIPY_DUHAMEL_TOL


# ---------------------------------------------------------------------------
# the matrix-free exponential action against scipy's dense expm_multiply
# ---------------------------------------------------------------------------

ACTION_GRIDS = {
    "d1-n200": ((-1.0, 1.0), 2.0 / 200, P1),
    "d1-n800": ((-1.0, 1.0), 2.0 / 800, P1),
    "d1-n4096": ((-1.0, 1.0), 2.0 / 4096, P1),
    "d2-n400": (((-1.0, 1.0), (-1.0, 1.0)), 0.1, P2),
    "d2-n1600": (((-1.0, 1.0), (-1.0, 1.0)), 0.05, P2),
}
# the last factor puts ||A - mu I||_1 past 63.4, where condition (3.13) of
# Al-Mohy & Higham fails and expm_multiply sizes its steps by onenormest
ACTION_FACTORS = (0.01, 0.5, 10.0)


@pytest.fixture(scope="module", params=list(ACTION_GRIDS))
def action_grid(request):
    """(grid, params, t_ref) for each grid of the action comparison."""
    bounds, h, params = ACTION_GRIDS[request.param]
    grid = build_grid(bounds, h)
    return grid, params, t_ref(assemble_operator(grid, params))


@pytest.mark.parametrize(
    "c_factor, truncated", [(0.0, False), (0.5, False), (1.0, False), (3.0, False), (3.0, True)]
)
def test_evolve_matches_dense_expm_multiply(action_grid, c_factor, truncated):
    grid, params, tr = action_grid
    op = assemble_operator(grid, params, c=c_factor * hardy_constant(params))
    if truncated:
        op = op.with_truncation(0.5 * float(np.max(op.V)))
    u0 = (grid.radii <= 0.4).astype(float)
    times = [f * tr for f in ACTION_FACTORS]
    traj = evolve(op, u0, times)
    H = op.H
    for t, state in zip(times, traj.states):
        ref = oracles.expm_action_dense(H, t, u0)
        assert np.linalg.norm(state - ref) <= 1e-13 * np.linalg.norm(ref)
    A = -times[-1] * H
    A.flat[:: op.n + 1] -= np.trace(A) / op.n
    assert np.linalg.norm(A, 1) > 63.4


@pytest.mark.parametrize("factor", [0.5, 10.0])
def test_evolve_ignores_the_global_random_state(factor):
    op = assemble_operator(build_grid((-1.0, 1.0), 2.0 / 800), P1, c=hardy_constant(P1))
    u0 = (op.grid.radii <= 0.4).astype(float)
    t = factor * t_ref(op)
    saved = np.random.get_state()
    try:
        runs = []
        for seed in (0, 1, None):
            if seed is not None:
                np.random.seed(seed)
            runs.append(evolve(op, u0, [t]).states.tobytes())
    finally:
        np.random.set_state(saved)
    assert runs[0] == runs[1] == runs[2]


def test_trajectories_never_form_the_dense_operator(monkeypatch):
    op = assemble_operator(build_grid((-1.0, 1.0), 0.01), P1, c=hardy_constant(P1))
    u0 = (op.grid.radii <= 0.2).astype(float)
    tr = t_ref(op)

    def dense(self):
        raise AssertionError("a trajectory formed the dense H")

    monkeypatch.setattr(DiscreteOperator, "H", property(dense))
    evolve(op, u0, [0.5 * tr, 10.0 * tr])
    _, rep = minimal_solution(op, u0, [0.1 * tr, 0.5 * tr])
    assert len(rep["k_levels"]) > 1


def test_evolve_allocates_no_matrix():
    # one 1-d n = 4096 action: the Taylor terms are vectors, op.apply works in O(n)
    import tracemalloc

    op = assemble_operator(build_grid((-1.0, 1.0), 2.0 / 4096), P1, c=0.5 * hardy_constant(P1))
    u0 = (op.grid.radii <= 0.4).astype(float)
    t = 0.5 * t_ref(op)
    tracemalloc.start()
    try:
        evolve(op, u0, [t])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.n == 4096
    assert peak < 0.05 * 8 * op.n**2
