"""Closed-form constants against high-precision and integral references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hardyheat.errors import ParameterDomainError
from hardyheat.specfun import (
    FractionalParams,
    beta_of_c,
    hardy_constant,
    intensity_constant,
    multiplier,
)

import oracles

PARAM_GRID = [
    (d, f * min(2.0, d)) for d in (1, 2, 3) for f in (0.25, 0.5, 0.75)
]


@pytest.mark.parametrize("d,alpha", PARAM_GRID)
def test_intensity_constant_matches_highprec(d, alpha):
    p = FractionalParams(d, alpha)
    assert_allclose(intensity_constant(p), oracles.mp_intensity(d, alpha), rtol=1e-12)


@pytest.mark.parametrize("d,alpha", PARAM_GRID)
def test_hardy_constant_matches_highprec(d, alpha):
    p = FractionalParams(d, alpha)
    assert_allclose(hardy_constant(p), oracles.mp_hardy(d, alpha), rtol=1e-12)


def test_frozen_reference_values():
    # frozen from the high-precision oracle for the workhorse configuration
    p = FractionalParams(1, 0.5)
    assert_allclose(intensity_constant(p), 0.19947114020071635, rtol=1e-14)
    assert_allclose(hardy_constant(p), 0.13999967745248254, rtol=1e-14)


@pytest.mark.parametrize("d,alpha", PARAM_GRID)
def test_critical_coupling_equals_center_multiplier(d, alpha):
    p = FractionalParams(d, alpha)
    lam = multiplier(p.beta_star, p)
    assert_allclose(lam, hardy_constant(p), rtol=1e-10)


def test_multiplier_matches_singular_integral():
    # independent route: quadrature of the defining integral, d = 1
    p = FractionalParams(1, 0.5)
    for beta in (0.1, 0.25, 0.4):
        ref = oracles.multiplier_by_integral(beta, 0.5)
        assert_allclose(multiplier(beta, p), ref, rtol=1e-10)


def test_multiplier_matches_highprec_2d():
    p = FractionalParams(2, 0.75)
    for beta in (0.2, 0.625, 1.0):
        assert_allclose(
            multiplier(beta, p), oracles.mp_multiplier(beta, 2, 0.75), rtol=1e-12
        )


@given(
    frac=st.floats(0.02, 0.98),
    alpha=st.floats(0.1, 1.9),
)
@settings(max_examples=60, deadline=None)
def test_multiplier_symmetry(frac, alpha):
    p = FractionalParams(2, alpha)
    width = p.d - p.alpha
    lam_lo = multiplier(frac * width, p)
    lam_hi = multiplier((1.0 - frac) * width, p)
    assert_allclose(lam_lo, lam_hi, rtol=1e-9)


def test_multiplier_peaks_at_center():
    p = FractionalParams(1, 0.5)
    cstar = hardy_constant(p)
    bs = p.beta_star
    for off in (0.5, 0.8, 0.95, 1.05, 1.2, 1.5):
        assert multiplier(off * bs, p) <= cstar + 1e-15
    assert multiplier(bs, p) == pytest.approx(cstar, rel=1e-12)


def test_multiplier_domain_checks():
    p = FractionalParams(1, 0.5)
    for bad in (0.0, -0.1, 0.5, 1.0):
        with pytest.raises(ParameterDomainError):
            multiplier(bad, p)


@given(frac=st.floats(0.01, 1.0))
@settings(max_examples=80, deadline=None)
def test_beta_roundtrip(frac):
    p = FractionalParams(1, 0.5)
    cstar = hardy_constant(p)
    c = frac * cstar
    beta = beta_of_c(c, p)
    assert 0.0 < beta <= p.beta_star
    assert abs(multiplier(beta, p) - c) <= 1e-10 * cstar


def test_beta_of_critical_is_center():
    for d, alpha in PARAM_GRID:
        p = FractionalParams(d, alpha)
        assert beta_of_c(hardy_constant(p), p) == pytest.approx(p.beta_star, rel=1e-14)


def test_beta_monotone_in_c():
    p = FractionalParams(1, 0.5)
    cstar = hardy_constant(p)
    fracs = [0.05, 0.2, 0.5, 0.8, 0.99, 1.0]
    betas = [beta_of_c(f * cstar, p) for f in fracs]
    assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))


def test_beta_of_c_is_within_one_double_of_the_root():
    # the bisection ends on adjacent doubles, so lam(beta) - c changes sign
    # between beta and one of its neighbours
    missed = []
    for d, alpha in [(1, 0.5), (2, 1.0), (2, 1.5), (1, 0.25), (3, 1.5), (1, 0.9), (2, 0.3)]:
        p = FractionalParams(d, alpha)
        cstar = hardy_constant(p)
        for f in np.linspace(0.001, 0.999, 200):
            c = float(f) * cstar
            beta = beta_of_c(c, p)
            side = multiplier(beta, p) - c
            if all(
                (multiplier(math.nextafter(beta, to), p) - c) * side > 0.0
                for to in (0.0, math.inf)
            ):
                missed.append((d, alpha, float(f)))
    assert not missed, f"{len(missed)} of 1400 couplings: {missed[:5]}"


def test_beta_frozen_reference():
    # frozen from a converged bisection run for the reference coupling
    p = FractionalParams(1, 0.5)
    c = 0.5 * hardy_constant(p)
    assert_allclose(beta_of_c(c, p), 0.06833821496098444, rtol=1e-12)


def test_beta_rejects_bad_couplings():
    p = FractionalParams(1, 0.5)
    cstar = hardy_constant(p)
    for bad in (0.0, -1.0, 1.001 * cstar):
        with pytest.raises(ParameterDomainError):
            beta_of_c(bad, p)


def test_params_validation():
    with pytest.raises(ParameterDomainError):
        FractionalParams(4, 0.5)
    with pytest.raises(ParameterDomainError):
        FractionalParams(1, 1.0)
    with pytest.raises(ParameterDomainError):
        FractionalParams(2, 2.0)
    with pytest.raises(ParameterDomainError):
        FractionalParams(1, 0.0)
