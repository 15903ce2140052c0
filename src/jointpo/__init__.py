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

Names are exported lazily (PEP 562): ``import jointpo`` loads no submodule,
and the first access to an exported name imports only the submodule that
defines it, so ``jointpo.parse_unit_rows`` loads ``data`` and ``errors``
alone.

The submodules use the same pattern for what only library callers need:
each name a command does not run lives in a module that loads at its first
use, and the module that used to define it forwards the name there (see
:func:`_relocated`), so ``from jointpo.inference import plugin_variance``
still works while ``estimate`` never compiles it.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Every exported name, by the submodule that defines it.
_EXPORTS = {
    "data": (
        "COMPOSITE_STATES",
        "ColumnSchema",
        "FrequencyStack",
        "MultiTrialDataset",
        "Summaries",
        "TrialCellCounts",
        "TrialSummary",
        "frequency_stack",
        "parse_dataset",
        "parse_unit_rows",
        "serialize_dataset",
        "summarize",
    ),
    "errors": (
        "EstimationError",
        "ForcedSolveWarning",
        "IdentificationError",
        "InferenceError",
        "JointpoError",
        "JointpoWarning",
        "MonotonicityWarning",
        "OutOfRangeWarning",
        "ParseError",
        "SchemaError",
        "ValidationError",
    ),
    "inference": (
        "BatchEstimator",
        "BatchFit",
        "BootstrapConfig",
        "OveridTestResult",
        "VarianceEstimate",
        "bootstrap",
        "overid_test",
        "plugin_variance",
        "replicate_rng",
        "resample_dataset",
        "transition_residuals",
    ),
    "principal": (
        "STRATA",
        "FourWayJoint",
        "PrincipalScores",
        "PsaceTable",
        "StratumOutcomeParams",
        "method1_estimate",
        "method4_estimate",
        "monotone_variant_estimate",
        "principal_scores",
    ),
    "simulate": (
        "DgpSpec",
        "Population",
        "StudyResult",
        "compute_metrics",
        "dgp_population",
        "overid_size_study",
        "run_study",
        "simulate_dataset",
    ),
    "special": ("chi2_sf", "expit"),
    "transition": (
        "ColumnRank",
        "DerivedEstimands",
        "DesignSystem",
        "JointTable",
        "RankDiagnostics",
        "TransitionMatrix",
        "binary_transition_params",
        "build_system",
        "check_rank",
        "derived_estimands",
        "estimand_vectors",
        "fit_transitions",
        "joint_from_transitions",
        "joint_tables",
        "least_squares",
        "project_to_simplex",
        "solve_transitions",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# The submodules are exported too, so ``from jointpo import *`` binds them.
__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def _relocated(owner: str, moved: dict[str, str]):
    """The PEP 562 ``__getattr__`` of module ``owner`` whose names in
    ``moved`` live in the submodule each maps to, imported at first use."""

    def __getattr__(name: str):
        module = moved.get(name)
        if module is None:
            raise AttributeError(f"module {owner!r} has no attribute {name!r}")
        return getattr(import_module(f"{__name__}.{module}"), name)

    return __getattr__


def _deferred(module: str, name: str):
    """A stand-in for ``jointpo.<module>.<name>`` that imports the module at
    its first call and forwards every call to that function."""

    def call(*args, **kwargs):
        return getattr(import_module(f"{__name__}.{module}"), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call
