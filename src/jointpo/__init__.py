"""Identification and estimation of joint potential-outcome
distributions from multiple randomized trials.

The treated-arm state distribution of every trial is modeled as the
same linear mixture of its control-arm state distribution; stacking
trials yields a least-squares problem whose solution is the matrix of
state transition probabilities. From it the package derives per-trial
joint distributions of potential outcomes, attribution and harm/benefit
quantities, principal stratification effects, transport to control-only
target populations, an overidentification test of the transportability
assumption, and a Monte Carlo harness with bootstrap-based coverage
metrics.
"""

__version__ = "0.1.0"

from .data import (
    COMPOSITE_STATES,
    ColumnSchema,
    FrequencyStack,
    MultiTrialDataset,
    Summaries,
    TrialCellCounts,
    TrialSummary,
    frequency_stack,
    parse_dataset,
    parse_unit_rows,
    serialize_dataset,
    summarize,
)
from .errors import (
    EstimationError,
    ForcedSolveWarning,
    IdentificationError,
    InferenceError,
    JointpoError,
    JointpoWarning,
    MonotonicityWarning,
    OutOfRangeWarning,
    ParseError,
    SchemaError,
    ValidationError,
)
from .inference import (
    BatchEstimator,
    BatchFit,
    BootstrapConfig,
    OveridTestResult,
    VarianceEstimate,
    bootstrap,
    overid_test,
    plugin_variance,
    replicate_rng,
    resample_dataset,
    transition_residuals,
)
from .principal import (
    STRATA,
    FourWayJoint,
    PrincipalScores,
    PsaceTable,
    StratumOutcomeParams,
    method1_estimate,
    method4_estimate,
    monotone_variant_estimate,
    principal_scores,
)
from .simulate import (
    DgpSpec,
    Population,
    StudyResult,
    compute_metrics,
    dgp_population,
    overid_size_study,
    run_study,
    simulate_dataset,
)
from .special import chi2_sf, expit, regularized_gamma_p, regularized_gamma_q
from .transition import (
    ColumnRank,
    DerivedEstimands,
    DesignSystem,
    JointTable,
    RankDiagnostics,
    TransitionMatrix,
    binary_transition_params,
    build_system,
    check_rank,
    derived_estimands,
    estimand_vectors,
    fit_transitions,
    joint_from_transitions,
    joint_tables,
    least_squares,
    project_to_simplex,
    solve_transitions,
)

__all__ = [name for name in dir() if not name.startswith("_")]
