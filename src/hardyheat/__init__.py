"""hardyheat: a numerical laboratory for the Dirichlet fractional heat flow
with an attractive inverse-power potential on bounded boxes around the origin.

The package is organised bottom-up:

- ``specfun``    gamma-based constants, the power-multiplier map and its inverse
- ``grids``      cell-centered grids avoiding the origin and the boundary
- ``operators``  dense assembly of the restricted jump operator and its forms
- ``evolution``  semigroup propagation, kernels, monotone truncation limits
- ``estimators`` kernel comparisons, exponent fits, integrability scans,
                 blow-up diagnostics
- ``scenario``/``runstore``/``suites``/``cli``  the reproducible-run harness
"""

from .errors import (
    ConfigError,
    ContractError,
    HardyHeatError,
    InvariantViolation,
    ParameterDomainError,
)
from .specfun import (
    FractionalParams,
    beta_of_c,
    gamma,
    hardy_constant,
    intensity_constant,
    multiplier,
)
from .grids import Grid, build_grid
from .operators import (
    DiscreteOperator,
    FormEvaluator,
    assemble_operator,
    exterior_power_tail,
    killing_term,
    load_operator,
    save_operator,
)
from .evolution import (
    KernelMatrix,
    Trajectory,
    duhamel_residual,
    evolve,
    heat_kernel,
    minimal_solution,
)

__version__ = "0.1.0"

__all__ = [
    "HardyHeatError",
    "ConfigError",
    "ContractError",
    "InvariantViolation",
    "ParameterDomainError",
    "FractionalParams",
    "gamma",
    "intensity_constant",
    "hardy_constant",
    "multiplier",
    "beta_of_c",
    "Grid",
    "build_grid",
    "DiscreteOperator",
    "FormEvaluator",
    "assemble_operator",
    "killing_term",
    "exterior_power_tail",
    "save_operator",
    "load_operator",
    "Trajectory",
    "KernelMatrix",
    "evolve",
    "heat_kernel",
    "minimal_solution",
    "duhamel_residual",
    "__version__",
]
