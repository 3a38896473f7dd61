"""Coincidence-point solver with majorant-certified successive approximation."""

from .baseline import (
    AlphaCoveringProblem,
    ComparisonReport,
    MethodRun,
    alpha_iterate,
    compare_methods,
    estimate_lipschitz,
)
from .covering import (
    CoveringAudit,
    CoveringMap,
    IdentityCovering,
    LinearSurjectiveCovering,
    verify_covering_sampled,
)
from .errors import (
    BracketFailure,
    BudgetExceeded,
    CoincidenceError,
    DimensionMismatch,
    InsufficientData,
    NegativeDiscriminant,
    NoCrossing,
    NonFiniteValue,
    NotContractive,
    RankDeficient,
)
from .linalg import (
    NormTag,
    finite_diff_jacobian,
    norm,
    operator_norm,
    smallest_singular_value,
)
from .majorant import (
    MajorantPair,
    ScalarFn,
    TauSequence,
    next_tau,
    smallest_crossing,
    tau_sequence,
    validate_h2_start,
)
from .problems import (
    BilinearMap,
    QuadraticMap,
    QuadraticProblem,
    apply_bilinear,
    build_kantorovich_instance,
    build_polynomial_instance,
    build_quadratic_instance,
    random_quadratic,
    scalar_quadratic,
)
from .solver import (
    AffineMap,
    CallableMap,
    IterateTrace,
    ProblemInstance,
    SmoothMap,
    TraceRecord,
    check_jacobian,
    coincidence_solve,
    rate_estimate,
    validate_h2_derivative,
)

__version__ = "0.1.0"
