"""Moment growth and decay for the stochastic fractional heat equation.

The equation is du = -(-Delta)^{alpha/2} u dt + lambda sigma(u) dW on an
interval with exterior-zero boundary values, alpha in (1, 2), driven by
space-time white noise.  The package simulates path ensembles, estimates
spatial moment functionals, and cross-checks them against deterministic
second-moment oracles, Mittag-Leffler lower envelopes, exponential upper
envelopes, and the noise-excitation index 2 alpha / (alpha - 1).
"""

from .bounds import (
    EnvelopeConstants,
    OracleCurves,
    RenewalProblem,
    fit_envelope_constants,
    oracle_moment_curves,
    second_moment_volterra,
    volterra_lower_solve,
)
from .laplacian import (
    DiscreteOperator,
    Grid,
    OperatorConfig,
    assemble,
    build_grid,
)
from .moments import (
    MomentEstimate,
    SweepResult,
    estimate_energy,
    estimate_inf_subinterval_moment,
    estimate_sup_moment,
    fit_excitation_from_log,
    fit_lyapunov_from_log,
)
from .sde import (
    Discretization,
    ModelParams,
    PathEnsemble,
    SigmaSpec,
    estimate_second_moment_pair,
    run_ensemble,
    tent_profile,
)
from .specfun import f_beta, log_f_beta, log_mittag_leffler, mittag_leffler

__version__ = "0.1.0"

__all__ = [
    "EnvelopeConstants",
    "OracleCurves",
    "RenewalProblem",
    "fit_envelope_constants",
    "oracle_moment_curves",
    "second_moment_volterra",
    "volterra_lower_solve",
    "DiscreteOperator",
    "Grid",
    "OperatorConfig",
    "assemble",
    "build_grid",
    "MomentEstimate",
    "SweepResult",
    "estimate_energy",
    "estimate_inf_subinterval_moment",
    "estimate_sup_moment",
    "fit_excitation_from_log",
    "fit_lyapunov_from_log",
    "Discretization",
    "ModelParams",
    "PathEnsemble",
    "SigmaSpec",
    "estimate_second_moment_pair",
    "run_ensemble",
    "tent_profile",
    "f_beta",
    "log_f_beta",
    "log_mittag_leffler",
    "mittag_leffler",
    "__version__",
]
