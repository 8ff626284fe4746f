"""Failure-probability estimation with multi-element polynomial-chaos surrogates.

The package combines three ingredients: orthonormal Legendre expansions on
axis-aligned elements of the random domain, adaptive bisection of those
elements (variance-decay or energy-transfer driven), and hybrid Monte Carlo
estimators that spend exact-model evaluations only where the surrogate is
least trustworthy.
"""
from .errors import (
    DomainError,
    IntegrationError,
    ModelEvaluationError,
    RootSolveError,
    UnsupportedModelError,
)
from .estimator import (
    Estimate,
    HybridConfig,
    HybridTrace,
    direct_hybrid,
    iterative_hybrid,
    mc_estimate,
    mc_stddev,
    me_gha,
    me_lha,
    relative_error,
)
from .polybasis import (
    gauss_legendre,
    multi_index_set,
    triple_products,
)
from .randomspace import (
    Decomposition,
    Element,
    SampleSet,
    sample_uniform,
    split_element,
)
from .refine import (
    PolynomialOde,
    RefinementConfig,
    adapt_dynamic,
    adapt_static,
    dynamic_indicator,
    limit_state_surrogate,
    rk4_step,
    static_indicator,
)
from .surrogate import (
    LimitStateModel,
    MultiElementSurrogate,
    build_collocation,
    gamma_bound,
    local_variance,
    lp_error,
)

__version__ = "0.1.0"
