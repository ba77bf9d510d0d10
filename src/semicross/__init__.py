"""Adaptive hyperbolic-cross regularization with semiiterative methods.

Solves ill-posed linear operator equations A x = f from noisy data by
combining semiiterative two-step iterations (generated from monic
orthogonal-polynomial recurrences, e.g. the nu-methods) with an adaptive
sparse Galerkin discretization on hyperbolic-cross index sets, stopped by
the residual discrepancy principle or the balancing principle.

The top level holds the two adaptive drivers and what a call to them needs,
returns or raises; everything else is imported from its module.
"""

from .driver import (CapExceededError, ConfigError, RunParams, RunReport,
                     run_balancing, run_discrepancy)
from .methods import NumericalDegeneracyError, nu_method
from .problems import get_problem

__all__ = ["RunParams", "RunReport", "run_discrepancy", "run_balancing",
           "get_problem", "nu_method", "ConfigError", "CapExceededError",
           "NumericalDegeneracyError"]

__version__ = "0.1.0"
