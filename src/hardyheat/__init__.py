"""hardyheat: a numerical laboratory for the Dirichlet fractional heat flow
with an attractive inverse-power potential on bounded boxes around the origin.

The package is organised bottom-up:

- ``specfun``    gamma-based constants, the power-multiplier map and its inverse
- ``grids``      cell-centered grids avoiding the origin and the boundary
- ``operators``  matrix-free assembly of the restricted jump operator and its forms
- ``evolution``  semigroup propagation, kernels, monotone truncation limits
- ``estimators`` kernel comparisons, exponent fits, integrability scans,
                 blow-up diagnostics
- ``scenario``/``runstore``/``suites``/``cli``  the reproducible-run harness

The root imports none of them, so the CLI loads numpy after ``--threads`` pins BLAS.
"""

__version__ = "0.1.0"
