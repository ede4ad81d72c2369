"""Warped-product curvature closed forms, the product-action identity,
its constrained first variation, and the associated geometric flows,
cross-checked against a generic finite-difference pipeline on flat
periodic tori."""

from .errors import (ConfigError, ConstantsError, FlowDivergenceError,
                     GridMismatchError, MetricDegeneracyError,
                     StabilityWarning, WarpflowError)
from .flow import (FlowConfig, FlowState, MonotonicityRow, RateCheck,
                   conserved_measure_check, instantaneous_rate,
                   monotonicity_report, run_coupled, run_decoupled, step)
from .functionals import (FunctionalReport, StateTerms, VariationResult,
                          einstein_hilbert_S, first_variation_check,
                          measure_density, theorem_identity_residual)
from .geometry import (CurvatureBundle, curvature_bundle, hessian,
                       inverse_metric, laplace_beltrami, volume_density)
from .grids import (Christoffel3Field, GridSpec, ScalarField, SymTensorField,
                    integrate)
from .warped import (ProductGeometry, WarpedConstants,
                     assemble_product_metric, c1_residual, c2_residual,
                     christoffel_closed_form, closed_scalar_curvature,
                     lambda_to_constants, ricci_closed_ansatz,
                     ricci_closed_general, solve_perelman_constants,
                     solve_theta, z_value)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "WarpflowError", "GridMismatchError", "MetricDegeneracyError",
    "FlowDivergenceError", "ConstantsError", "ConfigError",
    "StabilityWarning",
    # grids
    "GridSpec", "ScalarField", "SymTensorField", "Christoffel3Field",
    "integrate",
    # geometry
    "CurvatureBundle", "inverse_metric", "curvature_bundle", "hessian",
    "volume_density", "laplace_beltrami",
    # warped
    "WarpedConstants", "ProductGeometry", "c1_residual", "c2_residual",
    "z_value", "solve_theta", "solve_perelman_constants",
    "lambda_to_constants", "assemble_product_metric",
    "christoffel_closed_form", "ricci_closed_general",
    "ricci_closed_ansatz", "closed_scalar_curvature",
    # functionals
    "FunctionalReport", "VariationResult", "StateTerms", "measure_density",
    "einstein_hilbert_S", "theorem_identity_residual",
    "first_variation_check",
    # flow
    "FlowState", "FlowConfig", "step", "run_coupled", "run_decoupled",
    "conserved_measure_check", "MonotonicityRow", "monotonicity_report",
    "RateCheck", "instantaneous_rate",
]
