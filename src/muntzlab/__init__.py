"""muntzlab: a high-precision laboratory for Muntz power systems in L2(0,1).

Capabilities, one module each:

- exponents: validated exponent sequences with gap certificates
- gram: the Cauchy-structured Gram matrix, closed-form determinant,
  inverse, and monomial-to-span distances
- biorthogonal: truncated dual families, norm growth, truncation drift
- muntz_space: series on the slit disk, projections, dilation approximation
- operators: diagonal-on-monomials compact operators and their
  spectral-synthesis certificate
- completeness: mixed monomial/dual systems over index partitions
- hardy: gap Hardy-space membership and radial integral bounds
- cli: the `muntz` command-line front end
"""

from .biorthogonal import (
    BiorthogonalFamily,
    NormGrowthReport,
    dual_family,
    norm_growth_check,
    truncation_convergence,
)
from .completeness import (
    MixedCheck,
    Partition,
    all_partitions,
    mixed_completeness_check,
    mixed_reconstruction_residual,
    mixed_reconstruction_residuals,
    mixed_system_floor,
    sample_partitions,
)
from .config import RunConfig, working_precision
from .errors import (
    ConvergenceError,
    DegenerateInputError,
    DomainError,
    InputError,
    MuntzError,
    NonMemberSignal,
    ParameterError,
    PrecisionInsufficientError,
    QuadratureError,
)
from .exponents import (
    ExponentSequence,
    ValidationReport,
    generate_exponents,
    validate_exponents,
)
from .gram import (
    DistanceReport,
    GramMatrix,
    cauchy_determinant,
    cauchy_inverse,
    distance,
    distance_lower_bound_check,
    gram_matrix,
)
from .hardy import (
    HardyReport,
    closure_membership_via_frame,
    h2_membership,
    quadratic_form_partial_sums,
    radial_l2_bound,
)
from .muntz_space import (
    CoefficientRule,
    MuntzSeries,
    SpanApproximation,
    approximate_in_span,
    coefficient_recover,
    evaluate,
    finite_series,
    geometric_rule,
    l2_norm,
    power_rule,
    project,
    projection_residual,
    quadrature_inner_product,
    recovered_coefficients,
    rule_from_name,
    series_inner_product,
)
from .operators import (
    MuntzOperator,
    SynthesisCertificate,
    apply_operator,
    dilation_operator,
    finite_rank_error,
    normality_defect,
    synthesis_certificate,
)

__version__ = "0.1.0"
