"""Adaptive hyperbolic-cross regularization with semiiterative methods.

Solves ill-posed linear operator equations A x = f from noisy data by
combining semiiterative two-step iterations (generated from monic
orthogonal-polynomial recurrences, e.g. the nu-methods) with an adaptive
sparse Galerkin discretization on hyperbolic-cross index sets, stopped by
the residual discrepancy principle or the balancing principle.
"""

from .coeffs import CoeffVec, norm
from .driver import (
    CapExceededError,
    ConfigError,
    RunParams,
    RunReport,
    admissibility_threshold,
    initial_level,
    max_iter_count,
    run_balancing,
    run_discrepancy,
    theoretical_constants,
)
from .hypercross import (
    DiagonalSource,
    GalerkinInfoSource,
    GalerkinOperator,
    assemble,
    discretization_bounds,
    export_gamma,
    gamma_count,
    gamma_pairs,
    refine,
)
from .methods import (
    IterState,
    MethodSpec,
    NumericalDegeneracyError,
    filter_value,
    init_state,
    nu_method,
    omega_next,
    residual_profile,
    residual_value,
    step,
)
from .problems import (
    Problem,
    get_problem,
    green_operator,
    perturb,
)
from .stopping import (
    BalancingWindow,
    balancing_admissible_set,
    balancing_stop_index,
)

__version__ = "0.1.0"
