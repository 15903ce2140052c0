"""The package resolves its exported names lazily (PEP 562)."""

import subprocess
import sys

import jointpo

#: The package's exports when it imported every submodule eagerly, by the
#: submodule that defines them (``special``'s regularized gamma functions
#: are no longer exported).
EAGER_EXPORTS = {
    "data": [
        "COMPOSITE_STATES", "ColumnSchema", "FrequencyStack", "MultiTrialDataset",
        "Summaries", "TrialCellCounts", "TrialSummary", "frequency_stack",
        "parse_dataset", "parse_unit_rows", "serialize_dataset", "summarize",
    ],
    "errors": [
        "EstimationError", "ForcedSolveWarning", "IdentificationError",
        "InferenceError", "JointpoError", "JointpoWarning", "MonotonicityWarning",
        "OutOfRangeWarning", "ParseError", "SchemaError", "ValidationError",
    ],
    "inference": [
        "BatchEstimator", "BatchFit", "BootstrapConfig", "OveridTestResult",
        "VarianceEstimate", "bootstrap", "overid_test", "plugin_variance",
        "replicate_rng", "resample_dataset", "transition_residuals",
    ],
    "principal": [
        "STRATA", "FourWayJoint", "PrincipalScores", "PsaceTable",
        "StratumOutcomeParams", "method1_estimate", "method4_estimate",
        "monotone_variant_estimate", "principal_scores",
    ],
    "simulate": [
        "DgpSpec", "Population", "StudyResult", "compute_metrics", "dgp_population",
        "overid_size_study", "run_study", "simulate_dataset",
    ],
    "special": ["chi2_sf", "expit"],
    "transition": [
        "ColumnRank", "DerivedEstimands", "DesignSystem", "JointTable",
        "RankDiagnostics", "TransitionMatrix", "binary_transition_params",
        "build_system", "check_rank", "derived_estimands", "estimand_vectors",
        "fit_transitions", "joint_from_transitions", "joint_tables",
        "least_squares", "project_to_simplex", "solve_transitions",
    ],
}


def _loaded_submodules(code: str) -> list[str]:
    """The ``jointpo.*`` modules a fresh interpreter holds after ``code``."""
    script = (
        f"import sys\n{code}\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('jointpo.'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_loads_no_submodule():
    assert _loaded_submodules("import jointpo") == []


def test_parse_unit_rows_loads_only_data_and_errors():
    loaded = _loaded_submodules("import jointpo\njointpo.parse_unit_rows")
    assert loaded == ["jointpo.data", "jointpo.errors"]


def test_run_study_resolves_in_a_fresh_interpreter():
    loaded = _loaded_submodules(
        "import jointpo\n"
        "r = jointpo.run_study(jointpo.DgpSpec(case='c1', n_g=200, m=4), 3, 5, 1)\n"
        "assert r.replicates == 3"
    )
    assert "jointpo.simulate" in loaded


def test_every_export_is_its_submodule_attribute():
    for module, names in EAGER_EXPORTS.items():
        submodule = getattr(jointpo, module)
        assert submodule is sys.modules[f"jointpo.{module}"]
        for name in names:
            assert getattr(jointpo, name) is getattr(submodule, name), name


def test_all_lists_the_eager_exports_and_submodules():
    expected = {name for names in EAGER_EXPORTS.values() for name in names}
    assert set(jointpo.__all__) == expected | set(EAGER_EXPORTS)
    assert len(jointpo.__all__) == len(set(jointpo.__all__))


def test_regularized_gamma_is_no_longer_exported():
    for name in ("regularized_gamma_p", "regularized_gamma_q"):
        assert name not in jointpo.__all__
        assert not hasattr(jointpo, name)


def test_star_import_and_dir():
    namespace: dict = {}
    exec("from jointpo import *", namespace)
    assert set(jointpo.__all__) <= set(namespace)
    assert namespace["parse_dataset"] is jointpo.data.parse_dataset
    listed = dir(jointpo)
    assert set(jointpo.__all__) <= set(listed)
    assert "__version__" in listed
    assert listed == sorted(listed)
