"""Spectral, kernel-bound and profile estimators."""

import numpy as np
import oracles
import pytest
from numpy.testing import assert_allclose
from scipy.sparse.linalg import eigsh

from hardyheat.errors import ConfigError, ContractError, InvariantViolation
from hardyheat.estimators import (
    blowup_diagnostic,
    critical_envelope_exponent,
    kernel_sandwich,
    lambda_min,
    lp_scan,
    singularity_exponent,
    sobolev_quotient,
    t_ref,
    ultracontractive_envelope,
    weighted_l1_bound,
    weighted_row_mass,
)
from hardyheat.evolution import heat_kernel
from hardyheat.grids import build_grid
from hardyheat.operators import FormEvaluator, assemble_operator
from hardyheat.scenario import build_u0
from hardyheat.specfun import FractionalParams, hardy_constant

P1 = FractionalParams(1, 0.5)
CSTAR = hardy_constant(P1)


@pytest.fixture(scope="module")
def free_op():
    return assemble_operator(build_grid((-1.0, 1.0), 0.02), P1, c=0.0)


@pytest.fixture(scope="module")
def half_op():
    return assemble_operator(build_grid((-1.0, 1.0), 0.01), P1, c=0.5 * CSTAR)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 101, 1000])
def test_median_reproduces_numpys_bits(n):
    import hardyheat.estimators as est

    rng = np.random.default_rng(n)
    for a in (rng.standard_normal(n), rng.integers(0, 3, n).astype(float), np.exp(rng.uniform(-30, 30, n))):
        assert est._median(a) == np.median(a)
        assert est._median(list(a)) == np.median(a)
        a[rng.integers(n)] = np.nan
        assert np.isnan(est._median(a)) and np.isnan(np.median(a))


def test_lambda_min_matches_full_eigensolve(free_op):
    lam = lambda_min(free_op)
    full = np.linalg.eigvalsh(free_op.H)
    assert_allclose(lam, full[0], rtol=1e-12)
    assert lam > 0.0


# (d, alpha, domain, h): 1-d n = 2, 8, 64, 1024 on [-1, 1]; 2-d n = 400, 1600;
# 1-d n = 1000 on [-1, 1.5], which has no mirror axis
_LANCZOS_GRIDS = [
    (1, 0.5, (-1.0, 1.0), 1.0),
    (1, 0.5, (-1.0, 1.0), 0.25),
    (1, 0.5, (-1.0, 1.0), 1.0 / 32),
    (1, 0.5, (-1.0, 1.0), 1.0 / 512),
    (1, 0.9, (-1.0, 1.0), 1.0),
    (1, 0.9, (-1.0, 1.0), 1.0 / 32),
    (1, 0.9, (-1.0, 1.0), 1.0 / 512),
] + [(2, a, ((-1.0, 1.0), (-1.0, 1.0)), h) for a in (0.5, 1.0, 1.5) for h in (0.1, 0.05)] + [
    (1, 0.5, (-1.0, 1.5), 0.0025),
]


@pytest.mark.parametrize("d, alpha, domain, h", _LANCZOS_GRIDS)
def test_lambda_min_matches_dense_oracle(d, alpha, domain, h):
    # sub-, critical and supercritical couplings, each bare and truncated at k = 4
    params = FractionalParams(d, alpha)
    grid = build_grid(domain, h)
    for frac in (0.0, 0.5, 1.0, 1.5, 3.0):
        op = assemble_operator(grid, params, c=frac * hardy_constant(params))
        for k in (None, 4.0):
            trunc = op if k is None else op.with_truncation(k)
            ref = oracles.bottom_eigenvalue_dense(trunc.H)
            assert abs(lambda_min(trunc) - ref) <= 1e-12 * abs(ref), (grid.n, frac, k)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("h", [1.0, 0.02])
def test_lambda_min_is_deterministic(h):
    # ARPACK's default start vector comes from a generator whose state persists
    # across calls; the fixed start makes the result independent of call order
    op = assemble_operator(build_grid((-1.0, 1.0), h), P1, c=0.5 * CSTAR)
    first = lambda_min(op)
    assert lambda_min(op) == first
    np.random.seed(12345)
    assert lambda_min(op) == first
    eigsh(op.H, k=1, return_eigenvectors=False)  # default random start
    assert lambda_min(op) == first


def test_t_ref_is_inverse_bottom_eigenvalue(free_op):
    assert_allclose(t_ref(free_op), 1.0 / lambda_min(free_op), rtol=1e-12)


def test_t_ref_frozen_reference():
    # frozen from an eigensolve on the reference grid
    op = assemble_operator(build_grid((-1.0, 1.0), 0.0025), P1, c=0.0)
    assert_allclose(t_ref(op), 1.0308726654766678, rtol=1e-8)


# ---------------------------------------------------------------------------
# kernel bounds
# ---------------------------------------------------------------------------

def test_kernel_sandwich_free_reduction(free_op):
    # with w = 1 the machinery reports plain kernel bounds on the inner box
    kernels = [heat_kernel(free_op, t) for t in (0.5, 1.0)]
    rep = kernel_sandwich([k.reduce(inner_half_width=0.5) for k in kernels])
    assert rep["c_lower"] > 0.0
    assert np.isfinite(rep["spread_max"])
    assert rep["n_nodes"] == 50
    assert len(rep["per_t"]) == 2
    for q in rep["per_t"]:
        assert q["ratio_min"] <= q["ratio_max"]


def test_kernel_sandwich_rejects_box_touching_boundary(free_op):
    kernels = [heat_kernel(free_op, 0.5)]
    with pytest.raises(ConfigError):
        kernel_sandwich([k.reduce(inner_half_width=1.0) for k in kernels])
    with pytest.raises(ConfigError):
        kernel_sandwich([k.reduce(inner_half_width=1.5) for k in kernels])


def test_kernel_sandwich_spread_shrinks_with_t(half_op):
    # late kernels factorize toward the ground state, tightening the spread
    ks = [heat_kernel(half_op, t) for t in (0.1, 1.0)]
    rep = kernel_sandwich([k.reduce(inner_half_width=0.5) for k in ks])
    spreads = [q["spread"] for q in rep["per_t"]]
    assert spreads[1] < spreads[0]


def test_envelope_requires_wide_t_grid(free_op):
    ks = [heat_kernel(free_op, t).reduce() for t in (0.5, 1.0)]
    with pytest.raises(ContractError):
        ultracontractive_envelope(ks)


def test_envelope_finite_and_locates_max(half_op):
    ts = [0.05, 0.1, 0.5, 1.0, 2.0]
    ks = [heat_kernel(half_op, t).reduce() for t in ts]
    rep = ultracontractive_envelope(ks)
    assert rep["exponent"] == pytest.approx(2.0)  # d/alpha
    assert np.isfinite(rep["envelope"]) and rep["envelope"] > 0.0
    assert rep["t_at_max"] in ts
    vals = [q["value"] for q in rep["per_t"]]
    assert rep["envelope"] == pytest.approx(max(vals))


def test_critical_exponent_cap():
    op = assemble_operator(build_grid((-1.0, 1.0), 0.01), P1, c=CSTAR)
    ts = [0.05, 0.1, 0.5, 1.0, 2.0]
    ks = [heat_kernel(op, t).reduce() for t in ts]
    rep = critical_envelope_exponent(ks)
    # p = (1 + d/(d-alpha))/2 = 1.5 for d=1, alpha=0.5, so the cap is 3
    assert rep["p"] == pytest.approx(1.5)
    assert rep["cap"] == pytest.approx(3.0)
    assert rep["within_cap"]
    with pytest.raises(ContractError):
        critical_envelope_exponent(ks[:2])


# ---------------------------------------------------------------------------
# profile exponent and integrability scan
# ---------------------------------------------------------------------------

def test_singularity_exponent_recovers_power_law():
    grid = build_grid((-1.0, 1.0), 0.005)
    for gamma in (0.1, 0.3):
        u = grid.radii ** (-gamma)
        fit = singularity_exponent(u, grid, target=-gamma)
        assert_allclose(fit.slope, -gamma, atol=1e-10)
        assert fit.stderr < 1e-10
        assert fit.verdict is True
        assert fit.n_nodes >= 6


def test_singularity_exponent_window_control():
    grid = build_grid((-1.0, 1.0), 0.005)
    u = grid.radii ** (-0.25)
    assert singularity_exponent(u, grid).verdict is None  # no target given
    coarse = build_grid((-1.0, 1.0), 0.1)  # window (2h, 0.1 * half-width) = (0.2, 0.1)
    with pytest.raises(ConfigError):
        singularity_exponent(coarse.radii ** (-0.25), coarse)
    sparse = build_grid((-1.0, 1.0), 0.04)  # window (0.08, 0.1) holds 2 nodes
    with pytest.raises(ContractError):
        singularity_exponent(sparse.radii ** (-0.25), sparse)  # too few nodes
    with pytest.raises(ContractError):
        singularity_exponent(np.zeros(grid.n), grid)
    with pytest.raises(ContractError):
        singularity_exponent(u[:-1], grid)


def test_lp_scan_classifies_synthetic_powers():
    gamma = 0.3
    grids = [build_grid((-1.0, 1.0), h) for h in (0.02, 0.01, 0.005, 0.0025)]
    profiles = [(g, g.radii ** (-gamma)) for g in grids]
    # p*gamma < d: mass converges, increment exponent d - p*gamma
    conv = lp_scan(profiles, 0.7 / gamma, beta=gamma)
    assert conv["classification"] == "CONVERGENT"
    assert_allclose(conv["exponent_fit"], 0.3, atol=0.05)
    assert_allclose(conv["expected_exponent"], 0.3, atol=1e-12)
    # p*gamma > d: mass diverges like h^(d - p*gamma)
    div = lp_scan(profiles, 1.3 / gamma, beta=gamma)
    assert div["classification"] == "DIVERGENT"
    assert_allclose(div["exponent_fit"], -0.3, atol=0.05)
    # p*gamma = d: log-divergent, equal increments, no exponent signal
    amb = lp_scan(profiles, 1.0 / gamma, beta=gamma)
    assert amb["classification"] == "AMBIGUOUS"
    assert abs(amb["exponent_fit"]) < 0.02


def test_lp_scan_validation():
    grids = [build_grid((-1.0, 1.0), h) for h in (0.02, 0.01)]
    profiles = [(g, np.ones(g.n)) for g in grids]
    with pytest.raises(ContractError):
        lp_scan(profiles, 2.0, beta=0.25)
    grids3 = [build_grid((-1.0, 1.0), h) for h in (0.02, 0.01, 0.005)]
    with pytest.raises(ConfigError):
        lp_scan([(g, np.ones(g.n)) for g in grids3], 0.5, beta=0.25)
    bad = [build_grid((-1.0, 1.0), h) for h in (0.02, 0.01, 0.004)]
    with pytest.raises(ContractError):
        lp_scan([(g, np.ones(g.n)) for g in bad], 2.0, beta=0.25)


# ---------------------------------------------------------------------------
# weighted mass bounds
# ---------------------------------------------------------------------------

def test_weighted_row_mass_supersolution(half_op):
    ker = heat_kernel(half_op, 0.1)
    rep = weighted_row_mass(ker.reduce())
    # the harmonic profile strictly dominates its own evolution on the grid
    assert rep["eps"] <= 1e-10
    assert rep["ratio_min"] <= rep["ratio_max"] <= 1.0 + 1e-10


def test_weighted_row_mass_free_case(free_op):
    ker = heat_kernel(free_op, 0.2)
    rep = weighted_row_mass(ker.reduce())
    assert rep["eps"] <= 1e-12


def test_weighted_l1_bound(half_op):
    ker = heat_kernel(half_op, 0.1)
    grid = half_op.grid
    u0s = [(grid.radii <= r).astype(float) for r in (0.2, 0.05, 2.5 * grid.h)]
    rep = weighted_l1_bound(ker.reduce(u0s))
    assert rep["all_within"]
    assert len(rep["ratios"]) == 3
    assert max(rep["ratios"]) <= rep["bound"]


# ---------------------------------------------------------------------------
# form quotients
# ---------------------------------------------------------------------------

def test_sobolev_quotient_deterministic(half_op):
    ev = FormEvaluator(half_op)
    rep1 = sobolev_quotient(ev, 2.0, seed=5)
    rep2 = sobolev_quotient(ev, 2.0, seed=5)
    assert rep1["best_quotient"] == rep2["best_quotient"]
    assert rep1["n_flagged"] == 0
    assert np.isfinite(rep1["best_quotient"]) and rep1["best_quotient"] > 0.0
    assert rep1["quotients_median"] <= rep1["best_quotient"]


def test_sobolev_quotient_includes_near_singular_family(half_op):
    ev = FormEvaluator(half_op)
    rep = sobolev_quotient(ev, 2.0, seed=1)
    labels = [s for s in rep.get("flagged", [])]
    assert rep["n_samples"] == 50 + 8  # the random vectors plus the power family
    assert rep["best_label"]


# ---------------------------------------------------------------------------
# supercritical diagnostic
# ---------------------------------------------------------------------------

def blowup_levels(c, domain, h_levels):
    """The diagnostic's inputs as a suite run hands them over: the untruncated
    operators coarse to fine, u0 = ball:0.2 and t0 = 0.1 t_ref on the finest grid."""
    ops = [assemble_operator(build_grid(domain, h), P1, c=c) for h in h_levels]
    return ops, build_u0("ball:0.2", ops[-1].grid), 0.1 * t_ref(ops[-1])


def test_blowup_diagnostic_supercritical():
    rep = blowup_diagnostic(*blowup_levels(3.0 * CSTAR, (-1.0, 1.0), [0.04, 0.02, 0.01]))
    assert rep.c_star == pytest.approx(CSTAR)
    assert len(rep.lambda_mins) == 3
    assert all(b < a for a, b in zip(rep.lambda_mins, rep.lambda_mins[1:]))
    assert len(rep.gaps) == 2
    assert rep.mechanism_expected == pytest.approx(2.0)
    # the inner-ball sum diverges like log(1/h) with the sphere-measure slope
    assert_allclose(rep.mechanism_slope, 2.0, rtol=0.05)
    assert rep.probe_values[0] < rep.probe_values[-1]
    assert rep.blow_up


def test_blowup_probe_schedule_increases_for_shallow_potential():
    # on this coarse grid max V < 1, so the only probe level is max V itself
    c = 1.1 * CSTAR
    rep = blowup_diagnostic(*blowup_levels(c, (-0.8, 0.8), [0.4, 0.2, 0.1]))
    vmax = c * 0.05 ** (-P1.alpha)
    assert vmax < 1.0
    assert np.all(np.diff(rep.probe_k) > 0.0)
    assert_allclose(rep.probe_k, [vmax])
    # one level cannot show the probe growing
    assert rep.probe_growth == 1.0
    assert not rep.probe_growing
    assert rep.lambda_decreasing and rep.gaps_growing
    assert not rep.blow_up


def test_blowup_probe_falling_in_k_is_an_invariant_violation(monkeypatch):
    # the probe runs minimal_solution, whose monotonicity check raises
    import dataclasses

    import hardyheat.evolution

    real = hardyheat.evolution.evolve

    def falling(op, u0, times):
        traj = real(op, u0, times)
        return dataclasses.replace(traj, states=traj.states / op.k)

    monkeypatch.setattr(hardyheat.evolution, "evolve", falling)
    with pytest.raises(InvariantViolation, match="increase with the cutoff"):
        blowup_diagnostic(
            *blowup_levels(3.0 * CSTAR, (-1.0, 1.0), [0.04, 0.02, 0.01]), k_schedule=[1.0, 4.0]
        )


def test_blowup_diagnostic_validation():
    with pytest.raises(ConfigError):
        blowup_diagnostic(*blowup_levels(0.5 * CSTAR, (-1.0, 1.0), [0.04, 0.02, 0.01]))
    with pytest.raises(ContractError):
        blowup_diagnostic(*blowup_levels(3.0 * CSTAR, (-1.0, 1.0), [0.04, 0.02]))
    # refinements by 1.6 and by 2.5 give lambda_min drops that do not compare
    with pytest.raises(ContractError, match="must halve h"):
        blowup_diagnostic(*blowup_levels(3.0 * CSTAR, (-1.0, 1.0), [0.04, 0.025, 0.01]))
