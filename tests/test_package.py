"""The package resolves its exported names lazily (PEP 562), each command
loads only the modules it uses, and the result records keep their shape."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_c1_study_loads_no_principal():
    loaded = _loaded_submodules(
        "from jointpo.simulate import DgpSpec, run_study\n"
        "r = run_study(DgpSpec(case='c1', n_g=200, m=4), 3, 5, 1, workers=1)\n"
        "assert r.replicates == 3"
    )
    assert "jointpo.simulate" in loaded and "jointpo.principal" not in loaded


def test_study_loads_no_concurrent_futures():
    # The calling thread and plain threads run the chunks; no executor, and
    # none of the logging, queue and traceback modules it brings.
    script = (
        "import sys\n"
        "from jointpo.simulate import DgpSpec, run_study\n"
        "r = run_study(DgpSpec(case='c1', n_g=200, m=4), 30, 5, 1, workers=2)\n"
        "assert r.replicates == 30\n"
        "sys.exit('concurrent.futures' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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


#: What ``import jointpo.cli`` loads, and with it ``--version``: the shared
#: core every command runs on.
CLI_FLOOR = {
    "jointpo", "jointpo.cli", "jointpo.data", "jointpo.errors", "jointpo.inference",
    "jointpo.report", "jointpo.special", "jointpo.transition",
}

#: What each command loads beyond the floor (less ``jointpo.cli``, which runs
#: as ``__main__``): its own module, and for ``test`` and ``psace`` the one
#: library module only they use.
COMMAND_EXTRAS = {
    "estimate": {"jointpo.commands", "jointpo.commands.estimate"},
    "test": {"jointpo.commands", "jointpo.commands.test", "jointpo.overid"},
    "target": {"jointpo.commands", "jointpo.commands.target"},
    "psace": {"jointpo.commands", "jointpo.commands.psace", "jointpo.principal"},
}

#: The names ``jointpo.cli`` binds to stand-ins that import their module at
#: the first call.
DEFERRED = (
    "method1_estimate", "method4_estimate", "monotone_variant_estimate",
    "principal_scores", "run_study",
)

#: A four-trial cell-count table with a surrogate.
SURROGATE_TABLE = "trial,arm,s,y,count\n" + "".join(
    f"{g},{a},{s},{y},{20 + 7 * g + 11 * a + 3 * s + 5 * y + (g * a * (s + 1)) % 7}\n"
    for g in range(1, 5)
    for a in (0, 1)
    for s in (0, 1)
    for y in (0, 1)
)


#: The same table with a control-only target trial ``0``.
TARGET_TABLE = SURROGATE_TABLE + "".join(
    f"0,0,{s},{y},{30 + 4 * s + 9 * y}\n" for s in (0, 1) for y in (0, 1)
)


#: Runs ``jointpo.cli`` as ``__main__``, as ``python -m`` does, and at exit
#: prints to stderr the ``sys.modules`` keys that name their module (not
#: ``jointpo.cli``, under which ``cli`` files its ``__main__`` module).
_LAUNCHER = (
    "import atexit, runpy, sys\n"
    "def held():\n"
    "    names = [n for n, m in sys.modules.items() if getattr(m, '__name__', n) == n]\n"
    "    print('sys.modules:', *names, file=sys.stderr)\n"
    "atexit.register(held)\n"
    "runpy.run_module('jointpo.cli', run_name='__main__', alter_sys=True)\n"
)


def _command_imports(*argv: str) -> set[str]:
    """Every module a fresh ``jointpo.cli <argv>`` imports: those ``-X
    importtime`` lists, which an ``import`` statement loads, and those in
    the finished command's ``sys.modules``, which also holds the modules
    ``importlib.import_module`` loads. The command runs as ``__main__``, so
    the set names ``jointpo.cli`` only if something imports it."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", _LAUNCHER, *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in lines[1:]
        if line.startswith("import time:")
    }
    held = [line.split()[1:] for line in lines if line.startswith("sys.modules:")]
    assert len(held) == 1, proc.stderr
    return imported | set(held[0]) - {"__main__"}


def _jointpo_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "jointpo" or m.startswith("jointpo.")}


def test_cli_import_loads_only_the_shared_floor():
    loaded = _loaded_submodules(
        "import jointpo.cli\nassert 'statistics' not in sys.modules"
    )
    assert {"jointpo", *loaded} == CLI_FLOOR


def test_cli_import_without_site_loads_no_importlib_resources():
    # ``site`` can load importlib.resources itself (from a .pth file), so the
    # interpreter starts without it, on this interpreter's module path.
    script = (
        f"import sys\nsys.path[:] = {sys.path!r}\nimport jointpo.cli\n"
        "sys.exit(sorted({'importlib.resources', 'statistics'} & set(sys.modules)) or None)"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _blas_threads_env(code: str, **preset: str) -> str:
    """What a fresh interpreter prints after ``code``, started without
    ``OPENBLAS_NUM_THREADS`` unless ``preset`` sets it (this process may have
    imported ``jointpo.cli`` and so set it already)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(preset)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


_SHOW_BLAS_THREADS = "import os\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))"


def test_cli_import_runs_blas_in_one_thread():
    assert _blas_threads_env("import jointpo.cli\n" + _SHOW_BLAS_THREADS) == "1"


@pytest.mark.skipif(
    not Path("/proc/self/task").is_dir()
    or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="needs Linux's /proc and more than one usable CPU",
)
def test_cli_import_starts_no_blas_worker_thread():
    threads = _blas_threads_env(
        "import os, jointpo.cli\nprint(len(os.listdir('/proc/self/task')))"
    )
    assert threads == "1"


def test_cli_import_keeps_a_preset_blas_thread_count():
    code = "import jointpo.cli\n" + _SHOW_BLAS_THREADS
    assert _blas_threads_env(code, OPENBLAS_NUM_THREADS="3") == "3"


def test_library_import_leaves_blas_threads_unset():
    assert _blas_threads_env("import jointpo.simulate\n" + _SHOW_BLAS_THREADS) == "None"


def test_version_loads_only_the_shared_floor():
    loaded = _command_imports("--version")
    assert _jointpo_modules(loaded) == CLI_FLOOR - {"jointpo.cli"}
    assert not {"statistics", "dataclasses"} & loaded


def test_estimate_and_psace_load_what_they_use(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text(SURROGATE_TABLE, encoding="utf-8")
    floor = CLI_FLOOR - {"jointpo.cli"}
    estimate = _command_imports("estimate", "--input", str(table), "--boot", "0")
    assert _jointpo_modules(estimate) == floor | COMMAND_EXTRAS["estimate"]
    psace = _command_imports("psace", "--input", str(table), "--method", "1", "--boot", "0")
    assert _jointpo_modules(psace) == floor | COMMAND_EXTRAS["psace"]
    assert "dataclasses" not in estimate | psace


@pytest.mark.parametrize(
    "argv",
    [["test", "--boot", "20", "--seed", "1"], ["target", "--boot", "0"]],
    ids=["test", "target"],
)
def test_test_and_target_load_what_they_use(tmp_path, argv):
    # With the two tests above: no command loads another command's module,
    # the library's object path or ``dataclasses``.
    table = tmp_path / "table.csv"
    table.write_text(TARGET_TABLE, encoding="utf-8")
    loaded = _command_imports(argv[0], "--input", str(table), *argv[1:])
    assert _jointpo_modules(loaded) == CLI_FLOOR - {"jointpo.cli"} | COMMAND_EXTRAS[argv[0]]
    assert "dataclasses" not in loaded


def test_relocated_names_resolve_to_one_function():
    # The names a command never runs live in modules only their users load,
    # and their old homes forward there.
    from jointpo.inference import overid_test, plugin_variance
    from jointpo.special import chi2_sf

    import jointpo.cli
    import jointpo.overid
    import jointpo.summaries

    assert overid_test is jointpo.summaries.overid_test is jointpo.overid_test
    assert plugin_variance is jointpo.summaries.plugin_variance is jointpo.plugin_variance
    assert chi2_sf is jointpo.overid.chi2_sf is jointpo.chi2_sf
    assert jointpo.cli.overid_test is not overid_test
    loaded = _loaded_submodules("from jointpo.special import chi2_sf")
    assert loaded == ["jointpo.errors", "jointpo.overid", "jointpo.special"]


def test_traced_cli_names_are_bound():
    # perfbench/tracing.py wraps these names where they are bound, reading
    # ``owner.__dict__[name]``: jointpo.cli's in a fresh interpreter, before
    # anything loads principal or simulate, then every other owner's.
    script = (
        "import json, jointpo.cli\n"
        "names = set(vars(jointpo.cli))\n"
        "from perfbench.tracing import TARGETS\n"
        "wanted = {a for owner, a, _, _ in TARGETS if owner is jointpo.cli}\n"
        "others = [(o.__name__, a, a in vars(o))\n"
        "          for o, a, _, _ in TARGETS if o is not jointpo.cli]\n"
        "print(json.dumps([sorted(wanted), sorted(wanted - names), others]))\n"
    )
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=root
    )
    assert proc.returncode == 0, proc.stderr
    wanted, missing, others = json.loads(proc.stdout)
    assert set(DEFERRED) <= set(wanted)
    assert missing == []
    assert [f"{owner}.{name}" for owner, name, bound in others if not bound] == []
    # principal's names stay bound although no command calls them.
    for name in ("build_system", "solve_transitions", "principal_scores"):
        assert ["jointpo.principal", name, True] in others


@pytest.mark.filterwarnings("ignore::jointpo.errors.JointpoWarning")
def test_deferred_stand_ins_forward_to_their_module():
    import jointpo.cli
    import jointpo.principal
    import jointpo.simulate

    summaries = jointpo.summarize(jointpo.parse_dataset(io.StringIO(SURROGATE_TABLE)))
    calls = {
        "principal_scores": ((summaries,), {"clip_negative": True}),
        "method1_estimate": ((summaries,), {}),
        "method4_estimate": ((summaries, "both"), {}),
        "monotone_variant_estimate": ((summaries, "method3"), {}),
    }
    for name, (args, kwargs) in calls.items():
        stand_in = getattr(jointpo.cli, name)
        assert stand_in is not getattr(jointpo.principal, name)
        np.testing.assert_equal(
            stand_in(*args, **kwargs), getattr(jointpo.principal, name)(*args, **kwargs)
        )
    assert set(calls) | {"run_study"} == set(DEFERRED)
    spec = jointpo.DgpSpec(case="c1", n_g=200, m=4)
    mine = jointpo.cli.run_study(spec, 3, 5, 1, workers=1)
    theirs = jointpo.simulate.run_study(spec, 3, 5, 1, workers=1)
    np.testing.assert_equal(mine.estimates, theirs.estimates)
    np.testing.assert_equal(mine.ses, theirs.ses)


#: The records that are ``NamedTuple``s: their fields, in order, and defaults.
RECORDS = {
    "ColumnSchema": (
        ("trial", "arm", "surrogate", "outcome", "count", "na_token", "target_label"),
        {"trial": "trial", "arm": "arm", "surrogate": "s", "outcome": "y",
         "count": "count", "na_token": "NA", "target_label": "0"},
    ),
    "TrialSummary": (
        ("trial_id", "is_target", "arm_sizes", "control_outcome", "treated_outcome",
         "control_surrogate", "treated_surrogate", "control_composite",
         "treated_composite"),
        {"control_surrogate": None, "treated_surrogate": None,
         "control_composite": None, "treated_composite": None},
    ),
    "Summaries": (("trials", "target", "outcome_cardinality", "has_surrogate"), {}),
    "FrequencyStack": (("sizes", "empty", "outcome", "surrogate", "composite"), {}),
    "ColumnRank": (
        ("target", "sources", "singular_values", "condition_ratio", "satisfied",
         "mode", "reason"),
        {"reason": None},
    ),
    "RankDiagnostics": (
        ("singular_values", "condition_ratio", "satisfied", "feasible", "reason",
         "tol_ratio", "columns"),
        {"columns": None},
    ),
    "TransitionMatrix": (
        ("probs", "support_mask", "state_labels", "projected", "determined",
         "diagnostics", "forced", "out_of_range"),
        {"forced": False, "out_of_range": False},
    ),
    "JointTable": (("trial_id", "table", "negative_mass"), {}),
    "DerivedEstimands": (
        ("treatment_harm_rate", "treatment_benefit_rate", "persuasion_rate",
         "prob_sufficient_causation", "prob_necessary_causation"),
        {},
    ),
    "VarianceEstimate": (
        ("point", "se", "ci_lower", "ci_upper", "source", "names", "replicates",
         "n_failed", "n_forced", "n_redrawn"),
        {"names": None, "replicates": None, "n_failed": 0, "n_forced": 0, "n_redrawn": 0},
    ),
    "BatchEstimator": (("fit",), {}),
    "OveridTestResult": (("statistic", "df", "p_value", "per_trial_residuals"), {}),
    "PrincipalScores": (("trial_ids", "table", "clipped", "violations"), {}),
    "StratumOutcomeParams": (("treated_prob", "control_prob", "out_of_range"), {}),
    "PsaceTable": (("method", "trial_ids", "estimates", "defined", "mask_used"), {}),
    "FourWayJoint": (
        ("trial_ids", "probs", "cell_status", "mask_used", "negative_mass"), {}
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_keep_fields_and_defaults_and_reject_assignment(name):
    cls = getattr(jointpo, name)
    fields, defaults = RECORDS[name]
    assert issubclass(cls, tuple)
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    record = cls(*(f"value of {field}" for field in fields))
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.unknown = None
    assert record._replace(**{fields[0]: 1})[0] == 1
