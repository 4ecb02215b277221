"""Closed-form constants for the fractional Dirichlet operator with an
inverse-power (Hardy-type) potential.

Conventions used throughout the package, for dimension d and order
alpha in (0, min(2, d)):

* jump intensity      A(d, alpha) = alpha * G((d+alpha)/2)
                      / (2**(1-alpha) * pi**(d/2) * G(1-alpha/2)),
  the constant in front of |x-y|**(-d-alpha) in the jump kernel,
* critical coupling   c_star = 2**alpha * G((d+alpha)/4)**2 / G((d-alpha)/4)**2,
  the best constant in the inverse-power quadratic-form inequality,
* power multiplier    lam(beta) = 2**alpha * G((alpha+beta)/2) * G((d-beta)/2)
                      / (G(beta/2) * G((d-alpha-beta)/2)),
  the eigenvalue in  L |x|**(-beta) = lam(beta) * |x|**(-beta-alpha)  for
  beta in (0, d-alpha),

where G is the Gamma function, taken from ``math.gamma``.  lam is symmetric
about beta_star = (d-alpha)/2, strictly increasing on (0, beta_star], and
lam(beta_star) = c_star, so every coupling c in (0, c_star] has a unique
matching exponent beta(c) in (0, beta_star].  The harmonic profile for
coupling c is w_c(x) = |x|**(-beta(c)).
``coupling_regime`` is the one place a coupling is compared with c_star.

The incomplete beta function and the exterior tails of ``operators`` are power
series, summed by Horner's rule on coefficients cached per parameter set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvariantViolation, ParameterDomainError

__all__ = [
    "FractionalParams",
    "intensity_constant",
    "hardy_constant",
    "multiplier",
    "beta_of_c",
    "coupling_regime",
    "series_coefficients",
    "power_series",
    "incomplete_beta",
]

@dataclass(frozen=True)
class FractionalParams:
    """Dimension and order of the fractional operator.

    Requires d in {1, 2, 3} and 0 < alpha < min(2, d); this keeps the
    inverse-power profile locally integrable and the constants finite.
    """

    d: int
    alpha: float

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ParameterDomainError(f"dimension d must be 1, 2 or 3, got {self.d}")
        amax = min(2.0, float(self.d))
        if not (0.0 < self.alpha < amax):
            raise ParameterDomainError(
                f"alpha must lie in (0, {amax}) for d={self.d}, got {self.alpha}"
            )

    @property
    def beta_star(self) -> float:
        return 0.5 * (self.d - self.alpha)


def intensity_constant(params: FractionalParams) -> float:
    """Jump-kernel normalisation A(d, alpha)."""
    d, a = params.d, params.alpha
    return (
        a
        * math.gamma(0.5 * (d + a))
        / (2.0 ** (1.0 - a) * math.pi ** (0.5 * d) * math.gamma(1.0 - 0.5 * a))
    )


def hardy_constant(params: FractionalParams) -> float:
    """Critical coupling c_star of the inverse-power form inequality."""
    d, a = params.d, params.alpha
    return 2.0**a * (math.gamma(0.25 * (d + a)) / math.gamma(0.25 * (d - a))) ** 2


def multiplier(beta: float, params: FractionalParams) -> float:
    """Power multiplier lam(beta) for beta in the open interval (0, d - alpha)."""
    d, a = params.d, params.alpha
    beta = float(beta)
    if not (0.0 < beta < d - a):
        raise ParameterDomainError(
            f"beta must lie in (0, {d - a}) for d={d}, alpha={a}, got {beta}"
        )
    return (
        2.0**a
        * math.gamma(0.5 * (a + beta))
        * math.gamma(0.5 * (d - beta))
        / (math.gamma(0.5 * beta) * math.gamma(0.5 * (d - a - beta)))
    )


def coupling_regime(c: float, params: FractionalParams) -> str:
    """Where c sits against c_star: "subcritical", "critical" or "supercritical".

    c within 1e-12 of c_star, relative, is critical, so a c_star computed in
    another order of operations is still critical.  c = 0 is subcritical.
    """
    cstar = hardy_constant(params)
    if abs(float(c) - cstar) <= 1e-12 * cstar:
        return "critical"
    return "subcritical" if c < cstar else "supercritical"


def beta_of_c(c: float, params: FractionalParams) -> float:
    """Invert the multiplier: the unique beta in (0, beta_star] with lam(beta) = c.

    Bisection on [~0, beta_star] until the bracket ends are adjacent doubles,
    so lam(beta) - c changes sign between beta and a neighbouring double.
    Requires c > 0, not supercritical; a critical c maps to beta_star exactly.
    """
    cstar = hardy_constant(params)
    c = float(c)
    if not (c > 0.0):
        raise ParameterDomainError(f"coupling c must be positive, got {c}")
    regime = coupling_regime(c, params)
    if regime == "supercritical":
        raise ParameterDomainError(
            f"coupling c={c} exceeds the critical value c_star={cstar:.15g}"
        )
    bstar = params.beta_star
    if regime == "critical":
        # lam has a quadratic maximum at beta_star, so root-finding loses half
        # the digits there; the critical coupling is mapped exactly instead.
        return bstar

    lo, hi = 1e-12, bstar
    # lam(lo) may still exceed c for extremely small couplings
    while multiplier(lo, params) >= c:
        lo *= 0.5
        if lo < 1e-300:
            raise ParameterDomainError(f"coupling c={c} too small to invert")
    # lam(lo) < c < lam(hi): bisect until the midpoint rounds to an end, that
    # is, until lo and hi are adjacent doubles
    beta = 0.5 * (lo + hi)
    while lo < beta < hi:
        if multiplier(beta, params) < c:
            lo = beta
        else:
            hi = beta
        beta = 0.5 * (lo + hi)
    if abs(multiplier(beta, params) - c) > 1e-12 * cstar:
        raise InvariantViolation(
            f"multiplier inversion failed to converge for c={c} (d={params.d}, "
            f"alpha={params.alpha})"
        )
    return beta


@lru_cache(maxsize=None)
def series_coefficients(a: float, s: float, n: int = 100) -> tuple:
    """(a)_k / (k! (s + k)) for k < n, (a)_k the rising factorial; the default n
    leaves a tail below 1e-17 of the sum for ratios up to 2/3."""
    out, rising = [], 1.0
    for k in range(n):
        out.append(rising / (s + k))
        rising *= (a + k) / (k + 1)
    return tuple(out)


def power_series(coef, x):
    """sum over k of coef[k] * x**k by Horner's rule, for a float or an array x."""
    out = x * 0.0 + coef[-1]  # a fresh array, updated in place
    for c in coef[-2::-1]:
        out *= x
        out += c
    return out


def incomplete_beta(x, p: float, q: float):
    """B_x(p, q) = integral of z**(p-1) (1-z)**(q-1) over (0, x), for 0 <= x <= 1/2.

    x**p sum (1-q)_k x**k / (k! (p+k)) (DLMF 8.17.7); for |1 - q| <= 1 the
    k-th term is at most x**k / (p + k), so 60 terms reach roundoff."""
    return x**p * power_series(series_coefficients(1.0 - q, p, 60), x)
