"""Command-line interface.

Subcommands: ``estimate`` (transition matrix, per-trial joint tables and
derived quantities), ``test`` (overidentification test of transition
transportability), ``psace`` (principal stratification effects),
``target`` (transport to a control-only target population) and
``simulate`` (Monte Carlo studies).

Reports are canonical JSON (sorted keys) written to stdout or
``--output``; identical inputs, statistical flags and seed produce
byte-identical reports. ``--workers`` sets the threads of ``simulate``'s
study replicates (default: the usable CPUs) and never changes a report;
every other command runs in one thread and ignores it. The program runs
OpenBLAS in one thread unless the environment already sets
``OPENBLAS_NUM_THREADS``; no report depends on it.
Exit codes: 0 success, 2 validation, 3 identification, 4 inference
failure. Errors are mirrored as a JSON object on stderr.

Each command's statistic exists only in batch form, a
:class:`~jointpo.inference.BatchEstimator` from one of the ``*_estimator``
functions below. Its member 0, a fit of the observed counts, is the
report's point (``parameters.point`` and the estimands); the bootstrap fits
the resamples as one stack. The rest of the report, and every warning, comes
from the same kernels on the observed frequencies
(:func:`~jointpo.data.observed_frequencies`): :func:`~jointpo.transition.fit_system`
of a :func:`~jointpo.transition.design_system` (the one fit of a system,
which the library also calls ``solve_transitions``) and the ``*_report``
functions of :mod:`jointpo.principal`. ``psace --plot-data`` bootstraps a
single statistic, the psace table followed by the surrogate and outcome
joint harm cells.

A command loads only the modules it uses: importing this module, and
``estimate``, ``test``, ``target`` and ``--version``, load ``data``,
``errors``, ``special``, ``transition``, ``inference`` and ``report``;
``psace`` also loads ``principal``, ``simulate`` also loads ``simulate``,
and a ``c4`` study ``principal``. The names the benchmark's tracer wraps in
this module stay bound although no command calls most of them, those of
``principal`` and ``simulate`` as stand-ins that import their module at the
first call.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
import warnings
from contextlib import nullcontext
from importlib import import_module
from pathlib import Path

# No BLAS call jointpo makes is large enough to split across threads, yet
# OpenBLAS starts a worker at ``import numpy`` that busy-waits for about
# 95 ms of CPU, taking the core a second study thread needs. Set before
# numpy loads; a value already in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .data import ColumnSchema, frequency_stack, observed_frequencies, parse_dataset
from .errors import (
    IdentificationError,
    InferenceError,
    JointpoError,
    JointpoWarning,
    ValidationError,
)
from .inference import (
    BatchEstimator,
    BatchFit,
    BootstrapConfig,
    bootstrap,
    check_seed,
    overid_result,
)
from .report import (
    canonical_json,
    file_digest,
    format_study_table,
    replicates_to_csv,
    study_to_dict,
    text_digest,
)
from .transition import (
    binary_transition_params,
    design_system,
    estimand_vectors,
    fit_system,
    fit_transitions,
    flag_negative_joints,
    joint_tables,
    monotone_mask,
    project_rows,
)

# Unused here, but perfbench/tracing.py times them through this module's names.
from .data import summarize  # noqa: F401
from .inference import overid_test  # noqa: F401
from .transition import build_system, check_rank, derived_estimands  # noqa: F401
from .transition import joint_from_transitions, solve_transitions  # noqa: F401


def _deferred(module: str, name: str):
    """A stand-in for ``jointpo.<module>.<name>`` that imports the module at
    its first call and forwards every call to that function."""

    def call(*args, **kwargs):
        return getattr(import_module(f"{__package__}.{module}"), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


# perfbench/tracing.py wraps these names too; only ``simulate`` calls one.
method1_estimate = _deferred("principal", "method1_estimate")
method4_estimate = _deferred("principal", "method4_estimate")
monotone_variant_estimate = _deferred("principal", "monotone_variant_estimate")
principal_scores = _deferred("principal", "principal_scores")
run_study = _deferred("simulate", "run_study")

_EXIT_FOR = (
    (ValidationError, 2),
    (IdentificationError, 3),
    (InferenceError, 4),
)


def _exit_code(exc: Exception) -> int:
    for cls, code in _EXIT_FOR:
        if isinstance(exc, cls):
            return code
    return 2


def _parse_columns(text: str | None) -> ColumnSchema:
    if not text:
        return ColumnSchema()
    mapping = {}
    for part in text.split(","):
        if "=" not in part:
            raise ValidationError(f"bad --columns entry {part!r}; use name=column")
        key, value = part.split("=", 1)
        key = key.strip()
        if key in mapping:
            raise ValidationError(f"--columns names {key!r} twice")
        mapping[key] = value.strip()
    allowed = {"trial", "arm", "s", "y", "count", "target"}
    unknown = set(mapping) - allowed
    if unknown:
        raise ValidationError(f"unknown --columns keys: {', '.join(sorted(unknown))}")
    return ColumnSchema(
        trial=mapping.get("trial", "trial"),
        arm=mapping.get("arm", "arm"),
        surrogate=mapping.get("s", "s"),
        outcome=mapping.get("y", "y"),
        count=mapping.get("count", "count"),
        target_label=mapping.get("target", "0"),
    )


def _require_seed(seed) -> None:
    if seed is None:
        raise ValidationError(
            "--seed is required for stochastic commands (no silent entropy)"
        )


def _check_flags(args) -> None:
    """The rules of the flags every command shares."""
    if args.seed is not None:
        check_seed(args.seed)
    if args.boot is not None and args.boot < 0:
        raise ValidationError(f"--boot must be at least 0, got {args.boot}")
    if not 0.0 < args.ci < 1.0:
        raise ValidationError(f"--ci must lie strictly between 0 and 1, got {args.ci}")
    if args.workers is not None and args.workers < 1:
        raise ValidationError(f"workers must be at least 1, got {args.workers}")


def _load(args):
    schema = _parse_columns(getattr(args, "columns", None))
    path = Path(args.input)
    if not path.exists():
        raise ValidationError(f"input file not found: {path}")
    dataset = parse_dataset(path, schema)
    info = {"path": str(path), "sha256": file_digest(path)}
    return dataset, info


def _params_dict(names, point, variance, ci_level) -> dict:
    """``results.parameters``; the spread is null without a bootstrap."""
    keys = ("se", "ci_lower", "ci_upper", "n_failed")
    out = {key: getattr(variance, key, None) for key in keys}
    out.update(names=list(names), point=np.asarray(point, dtype=float), ci_level=ci_level)
    return out


def _estimands_dict(vector) -> dict:
    """THR, TBR, persuasion rate (also PS) and PN from an
    :func:`~jointpo.transition.estimand_vectors` row; NaN reports null."""
    thr, tbr, persuasion, pn = vector
    return {"thr": thr, "tbr": tbr, "persuasion_rate": persuasion, "ps": persuasion, "pn": pn}


def _report(args, info, flag_names, results: dict, trans=None) -> dict:
    """A command's report of its ``results``, with the named flags and, given
    its transition matrix ``trans``, the rank diagnostics and
    ``results.transition``."""
    rank = None
    if trans is not None:
        transition = trans._asdict()
        rank = transition.pop("diagnostics")._asdict()
        if rank["columns"] is not None:
            rank["columns"] = [column._asdict() for column in rank["columns"]]
        results["transition"] = transition
    return {
        "command": args.command,
        "input": info,
        "seed": args.seed,
        "flags": {name: getattr(args, name) for name in flag_names},
        "diagnostics": {"rank": rank},
        "results": results,
    }


def _joint_report(system, *, force=False, project=False):
    """The transition matrix of a system of the observed trials, their joint
    tables and the flags, which warn, of the tables with a negative cell."""
    trans = fit_system(system, force=force, project_simplex=project)
    joints = joint_tables(trans.probs, system.design)
    return trans, joints, flag_negative_joints(joints, system.trial_ids)


def _bootstrap(args, dataset, estimator, names):
    """Bootstrap a command's statistic at ``--boot``, ``--seed``, ``--ci`` and
    ``--ci-method``."""
    _require_seed(args.seed)
    config = BootstrapConfig(
        replicates=args.boot, seed=args.seed, ci_level=args.ci, ci_method=args.ci_method
    )
    return bootstrap(dataset, estimator, config, names=names)


def _point_and_variance(args, dataset, estimator, names):
    """Member 0 of ``estimator`` on the observed counts, and its bootstrap
    (None under ``--boot 0``)."""
    if args.boot <= 0:
        return estimator.fit(dataset.counts_tensor()[None]).values[0], None
    variance = _bootstrap(args, dataset, estimator, names)
    return variance.point, variance


def _batch_fit(dataset, width: int, fit_live):
    """Batch form of a statistic that :func:`observed_frequencies` would
    reject on members with an empty arm: those are undefined, and
    ``fit_live`` maps the frequencies of the others to ``(values, ok, forced)``."""

    def fit(tensor: np.ndarray) -> BatchFit:
        freqs = frequency_stack(dataset, tensor)
        live = ~freqs.empty
        values = np.full((len(tensor), width), np.nan)
        ok = np.zeros(len(tensor), dtype=bool)
        forced = np.zeros(len(tensor), dtype=bool)
        if live.any():
            values[live], ok[live], forced[live] = fit_live(freqs.select(live))
        return BatchFit(values, ok, forced)

    return fit


def _stack_transitions(freqs, m: int, space: str, mask, project: bool = False):
    """Transition matrices of the experimental trials, every column solved
    (minimum-norm where the rank check fails), and the flag of members with a
    forced column."""
    arms = freqs.space(space)[:, :m]
    probs, identified = fit_transitions(arms[:, :, 0], arms[:, :, 1], mask, force=True)
    return (project_rows(probs, mask) if project else probs), ~identified


def estimate_estimator(dataset, space: str, mask, *, project=False) -> BatchEstimator:
    """Transition parameters, then per-trial THR, TBR, persuasion rate and
    PN when the space has two states."""
    m = dataset.m
    two_state = mask.shape[0] == 2

    def fit_live(freqs):
        probs, forced = _stack_transitions(freqs, m, space, mask, project)
        values = [probs[:, mask]]
        if two_state:
            joints = joint_tables(probs[:, None], freqs.space(space)[:, :m, 0])
            values.append(estimand_vectors(joints).reshape(len(joints), -1))
        ok = ~np.isnan(probs).any(axis=(1, 2))
        return np.concatenate(values, axis=1), ok, forced

    width = int(mask.sum()) + (4 * m if two_state else 0)
    return BatchEstimator(_batch_fit(dataset, width, fit_live))


def overid_estimator(dataset, space: str, theta: np.ndarray) -> BatchEstimator:
    """Both transition parameters, then each trial's deviation from the
    point fit ``theta``: these estimate the raw per-trial noise scale that
    the chi-square reference normalizes by."""
    m = dataset.m
    mask = np.ones((2, 2), dtype=bool)

    def fit_live(freqs):
        probs, forced = _stack_transitions(freqs, m, space, mask)
        arms = freqs.space(space)[:, :m]
        residuals = arms[:, :, 1, 1] - arms[:, :, 0] @ theta
        return np.concatenate([probs[:, :, 1], residuals], axis=1), True, forced

    return BatchEstimator(_batch_fit(dataset, 2 + m, fit_live))


def target_estimator(dataset, space: str, k: int, *, project=False) -> BatchEstimator:
    """Transition parameters, the target trial's joint table and, with two
    states, its THR, TBR, persuasion rate and PN."""
    m = dataset.m
    mask = np.ones((k, k), dtype=bool)

    def fit_live(freqs):
        probs, forced = _stack_transitions(freqs, m, space, mask, project)
        joint = joint_tables(probs, freqs.space(space)[:, m, 0])
        n = len(joint)
        values = [probs.reshape(n, -1), joint.reshape(n, -1)]
        if k == 2:
            values.append(estimand_vectors(joint))
        return np.concatenate(values, axis=1), True, forced

    width = 2 * k * k + (4 if k == 2 else 0)
    return BatchEstimator(_batch_fit(dataset, width, fit_live))


def psace_estimator(
    dataset, method: int, *, clip_scores=False, project=False
) -> BatchEstimator:
    """The per-trial stratum effect table of a psace method, flattened."""
    from .principal import (
        PSACE_ORDERINGS,
        fourway_tables,
        method1_effects,
        method1_stack,
        psace_tables,
    )

    m = dataset.m

    def fit_live(freqs):
        n = len(freqs.empty)
        if method == 1:
            treated, control, status = method1_stack(freqs, m, clip_scores=clip_scores)
            return method1_effects(treated, control, m).reshape(n, -1), status == 0, False
        mono_s, mono_y = PSACE_ORDERINGS[method]
        mask = monotone_mask("composite", mono_s, mono_y)
        probs, forced = _stack_transitions(freqs, m, "composite", mask, project)
        fourway = fourway_tables(probs, freqs.composite[:, :m, 0])
        effects, _, _ = psace_tables(fourway, mono_s)
        # Method 3 reports what the masked system identifies; the others
        # need every column.
        ok = method == 3 or ~np.isnan(probs).any(axis=(1, 2))
        return effects.reshape(n, -1), ok, forced

    return BatchEstimator(_batch_fit(dataset, 4 * m, fit_live))


def joint_cell_estimator(dataset, space: str) -> BatchEstimator:
    """Each trial's joint harm cell P(state0=1, state1=0)."""
    m = dataset.m
    mask = np.ones((2, 2), dtype=bool)

    def fit_live(freqs):
        probs, forced = _stack_transitions(freqs, m, space, mask)
        return probs[:, None, 1, 0] * freqs.space(space)[:, :m, 0, 1], True, forced

    return BatchEstimator(_batch_fit(dataset, m, fit_live))


def _concat_fits(fits) -> BatchFit:
    """Statistics side by side: a member is ok where every part is, forced
    where any part is."""
    return BatchFit(
        np.concatenate([f.values for f in fits], axis=1),
        np.logical_and.reduce([f.ok for f in fits]),
        np.logical_or.reduce([f.forced for f in fits]),
    )


#: State spaces of the joint harm cells that ``psace --plot-data`` writes.
_CELL_SPACES = ("surrogate", "outcome")


def cmd_estimate(args) -> dict:
    dataset, info = _load(args)
    ids = dataset.trial_ids
    system = design_system(
        observed_frequencies(dataset), ids, args.space, mono_s=args.mono_s, mono_y=args.mono_y
    )
    trans, joints, negative = _joint_report(system, force=args.force, project=args.project)
    two_state = trans.k == 2

    names = list(trans.parameter_labels())
    if two_state:
        for tid in ids:
            names += [f"{label}[{tid}]" for label in ("THR", "TBR", "persuasion", "PN")]
    estimator = estimate_estimator(
        dataset, args.space, system.support_mask, project=args.project
    )
    point, variance = _point_and_variance(args, dataset, estimator, names)
    estimands = point[int(system.support_mask.sum()):].reshape(-1, 4)

    per_trial = [
        {
            "trial": tid,
            "control_marginal": system.design[g],
            "treated_marginal": system.response[g],
            "joint": joints[g],
            "negative_mass": bool(negative[g]),
            "estimands": _estimands_dict(estimands[g]) if two_state else None,
        }
        for g, tid in enumerate(ids)
    ]

    flags = ("space", "mono_s", "mono_y", "project", "force", "boot", "ci", "ci_method")
    results = {
        "space": args.space,
        "parameters": _params_dict(names, point, variance, args.ci),
        "per_trial": per_trial,
    }
    return _report(args, info, flags, results, trans)


def cmd_test(args) -> dict:
    if args.ci_method != "normal":
        raise ValidationError(
            f"test reports normal intervals only; --ci-method {args.ci_method} is not supported"
        )
    dataset, info = _load(args)
    ids = dataset.trial_ids
    system = design_system(observed_frequencies(dataset), ids, args.space)
    if system.k != 2:
        raise ValidationError("the overidentification test needs a two-state space")
    if system.m == system.k:
        raise IdentificationError(
            f"just-identified system (m = k = {system.k}); the "
            "overidentification test has no degrees of freedom"
        )
    trans = fit_system(system)
    theta = binary_transition_params(trans)

    estimator = overid_estimator(dataset, args.space, theta)
    names = ["theta[0]", "theta[1]"] + [f"residual[{tid}]" for tid in ids]
    variance = _bootstrap(args, dataset, estimator, names)
    result = overid_result(ids, variance.point[2:], variance.se[2:])

    if args.plot_data:
        _write_test_plot_data(Path(args.plot_data), system, theta)

    results = {
        "space": args.space,
        "m": system.m,
        "k": system.k,
        "j_statistic": result.statistic,
        "df": result.df,
        "p_value": result.p_value,
        "per_trial": [
            {"trial": tid, "residual": r, "sigma": s}
            for tid, r, s in result.per_trial_residuals
        ],
        "theta": {
            "names": ["P(state1=1|state0=0)", "P(state1=1|state0=1)"],
            "point": theta,
            "se": variance.se[:2],
            "ci_lower": variance.ci_lower[:2],
            "ci_upper": variance.ci_upper[:2],
            "ci_level": args.ci,
        },
        "full_parameter_labels": trans.parameter_labels(),
        "full_parameter_values": trans.parameter_values(),
    }
    return _report(args, info, ("space", "boot", "ci"), results, trans)


#: The psace flags that some methods ignore, by the methods that use them.
_PSACE_FLAG_METHODS = {"force": (2, 3, 4), "project": (2, 3, 4), "clip_scores": (1, 2)}


def cmd_psace(args) -> dict:
    from .principal import PSACE_ORDERINGS, STRATA, composite_report, method1_report, scores_report

    method = args.method
    for flag, methods in _PSACE_FLAG_METHODS.items():
        if getattr(args, flag) and method not in methods:
            raise ValidationError(
                f"psace --method {method} does not use --{flag.replace('_', '-')}; "
                f"only methods {', '.join(map(str, methods))} do"
            )
    dataset, info = _load(args)
    freqs = observed_frequencies(dataset)
    if freqs.surrogate is None:
        raise ValidationError("principal stratification needs surrogate data")
    ids = dataset.trial_ids

    scores = stratum_probs = fourway = None
    if method == 1:
        scores, stratum_probs, table = method1_report(freqs, ids, clip_scores=args.clip_scores)
    else:
        fourway, table = composite_report(
            freqs, ids, method, *PSACE_ORDERINGS[method], force=args.force, project=args.project
        )
        if method == 2:
            scores = scores_report(freqs, ids, clip_negative=args.clip_scores)

    # With --plot-data the statistic is the psace table followed by each
    # space's joint harm cells, bootstrapped once; the observed cells, and
    # their warnings, come from forced fits of the two spaces.
    estimator = psace_estimator(
        dataset, method, clip_scores=args.clip_scores, project=args.project
    )
    names = [f"PSACE[{s}]@{tid}" for tid in ids for s in STRATA]
    if args.plot_data:
        systems = [design_system(freqs, ids, sp) for sp in _CELL_SPACES]
        cells = [_joint_report(system, force=True)[1][:, 1, 0] for system in systems]
        parts = [estimator] + [joint_cell_estimator(dataset, sp) for sp in _CELL_SPACES]
        estimator = BatchEstimator(lambda t: _concat_fits([p.fit(t) for p in parts]))
        names += [f"joint_cell[{sp}]@{tid}" for sp in _CELL_SPACES for tid in ids]

    variance = _bootstrap(args, dataset, estimator, names) if args.boot > 0 else None
    if args.plot_data:
        _write_psace_plot_data(Path(args.plot_data), table, cells, variance)

    size = table.estimates.size
    spread = dict.fromkeys(("se", "ci_lower", "ci_upper"))
    if variance is not None:
        # An undefined effect has no interval, whatever its replicates gave.
        for key in spread:
            values = getattr(variance, key)[:size].reshape(table.estimates.shape)
            spread[key] = np.where(table.defined, values, np.nan)

    results = {
        "method": method,
        "strata": list(STRATA),
        "trials": list(ids),
        "mask_used": list(table.mask_used),
        "psace": {
            "estimates": table.estimates,
            "defined": table.defined,
            **spread,
            "ci_level": args.ci,
        },
        "principal_scores": None
        if scores is None
        else {
            "trials": list(scores.trial_ids),
            "strata": list(STRATA),
            "table": scores.table,
            "clipped": scores.clipped,
            "violations": list(scores.violations),
        },
        "stratum_outcome_probs": None
        if stratum_probs is None
        else {
            "treated": stratum_probs.treated_prob,
            "control": stratum_probs.control_prob,
            "out_of_range": stratum_probs.out_of_range,
        },
        "fourway": None
        if fourway is None
        else {
            "probs": fourway.probs,
            "cell_status": fourway.cell_status.tolist(),
            "negative_mass": fourway.negative_mass,
        },
    }
    flags = ("method", "clip_scores", "project", "force", "boot", "ci", "ci_method")
    return _report(args, info, flags, results)


def cmd_target(args) -> dict:
    dataset, info = _load(args)
    if dataset.target is None:
        raise ValidationError(
            "no control-only target trial in the dataset (label it with "
            "the target trial id, default '0')"
        )
    freqs = observed_frequencies(dataset)
    system = design_system(freqs, dataset.trial_ids, args.space)
    trans = fit_system(system, project_simplex=args.project, force=args.force)
    marginal = freqs.space(args.space)[0, dataset.m, 0]
    joint = joint_tables(trans.probs, marginal)
    negative = bool(flag_negative_joints(joint, [dataset.target.trial_id]))
    two_state = trans.k == 2

    names = list(trans.parameter_labels()) + [
        f"target_joint[{a},{b}]"
        for a in range(trans.k)
        for b in range(trans.k)
    ]
    if two_state:
        names += ["target_THR", "target_TBR", "target_persuasion", "target_PN"]
    estimator = target_estimator(dataset, args.space, trans.k, project=args.project)
    point, variance = _point_and_variance(args, dataset, estimator, names)

    results = {
        "space": args.space,
        "target_trial": dataset.target.trial_id,
        "target_marginal": marginal,
        "joint": joint,
        "negative_mass": negative,
        "estimands": _estimands_dict(point[-4:]) if two_state else None,
        "parameters": _params_dict(names, point, variance, args.ci),
    }
    flags = ("space", "project", "force", "boot", "ci", "ci_method")
    return _report(args, info, flags, results, trans)


#: ``simulate --config`` keys whose values must be JSON integers.
_CONFIG_INTEGERS = ("n_g", "m", "replicates", "bootstrap_replicates", "seed")


def _read_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            values = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"--config is not valid JSON: {exc}") from None
    if not isinstance(values, dict):
        raise ValidationError("--config must contain a JSON object")
    accepted = ("case",) + _CONFIG_INTEGERS
    unknown = set(values) - set(accepted)
    if unknown:
        raise ValidationError(
            f"unknown --config keys: {', '.join(sorted(unknown))}; "
            f"accepted keys: {', '.join(accepted)}"
        )
    for key, value in values.items():
        if key in _CONFIG_INTEGERS and (isinstance(value, bool) or not isinstance(value, int)):
            raise ValidationError(
                f"config {key!r} must be an integer, got {json.dumps(value)}"
            )
    return values


def cmd_simulate(args) -> dict:
    from .simulate import DgpSpec

    config_values = _read_config(args.config) if args.config else {}

    def pick(flag, key, default=None):
        if flag is not None:
            return flag
        return config_values.get(key, default)

    case = pick(args.case, "case")
    if case is None:
        raise ValidationError("--case (or a config file with 'case') is required")
    n_g = pick(args.ng, "n_g")
    if n_g is None:
        raise ValidationError("--ng (or config 'n_g') is required")
    reps = pick(args.reps, "replicates")
    if reps is None:
        raise ValidationError("--reps (or config 'replicates') is required")
    boot = pick(args.boot, "bootstrap_replicates", 100)
    seed = pick(args.seed, "seed")
    _require_seed(seed)
    m = pick(args.m, "m", 10)
    spec = DgpSpec(case=str(case).lower(), n_g=n_g, m=m)
    result = run_study(spec, reps, boot, seed, workers=args.workers)
    if args.table:
        sys.stderr.write(format_study_table(result))
    if args.replicates_csv:
        Path(args.replicates_csv).write_text(
            replicates_to_csv(result), encoding="utf-8"
        )
    payload = study_to_dict(result)
    flags = {
        "case": spec.case,
        "n_g": spec.n_g,
        "m": spec.m,
        "replicates": reps,
        "bootstrap_replicates": boot,
    }
    digest_source = json.dumps(flags, sort_keys=True) + f"|seed={seed}"
    return {
        "command": "simulate",
        "input": {"path": None, "sha256": text_digest(digest_source)},
        "seed": seed,
        "flags": flags,
        "diagnostics": {"rank": None},
        "results": payload,
    }


def _write_tsv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _write_test_plot_data(directory: Path, system, theta) -> None:
    rows = []
    ate_rows = []
    for tid, control, treated in zip(system.trial_ids, system.design, system.response):
        fitted = float(control @ theta)
        rows.append(
            [
                tid,
                repr(float(control[0])),
                repr(float(control[1])),
                repr(float(treated[1])),
                repr(fitted),
                repr(float(treated[1]) - fitted),
            ]
        )
        ate_rows.append([tid, repr(float(treated[1]) - float(control[1]))])
    _write_tsv(
        directory / "linearity.tsv",
        [
            "trial",
            "control_state0",
            "control_state1",
            "treated_state1",
            "fitted_treated_state1",
            "residual",
        ],
        rows,
    )
    _write_tsv(directory / "ate.tsv", ["trial", "ate"], ate_rows)


def _write_psace_plot_data(directory: Path, table, cells, variance) -> None:
    """Write ``psace_intervals.tsv`` and ``joint_cells.tsv``.

    ``cells`` holds each space's per-trial joint harm cell
    P(state0=1, state1=0), in :data:`_CELL_SPACES` order, and ``variance``
    (None without a bootstrap) runs over the psace table, then those cells.
    """
    from .principal import STRATA

    def bounds(index, defined=True):
        if variance is None or not defined:
            return ["", ""]
        return [repr(float(variance.ci_lower[index])), repr(float(variance.ci_upper[index]))]

    rows = []
    for i, tid in enumerate(table.trial_ids):
        for j, stratum in enumerate(STRATA):
            defined = bool(table.defined[i, j])
            rows.append(
                [
                    table.method,
                    stratum,
                    tid,
                    repr(float(table.estimates[i, j])) if defined else "",
                    *bounds(i * len(STRATA) + j, defined),
                    int(defined),
                ]
            )
    _write_tsv(
        directory / "psace_intervals.tsv",
        ["method", "stratum", "trial", "estimate", "lower", "upper", "defined"],
        rows,
    )

    cell_rows = []
    index = table.estimates.size
    for space, values in zip(_CELL_SPACES, cells):
        for tid, value in zip(table.trial_ids, values):
            cell_rows.append([space, "10", tid, repr(float(value)), *bounds(index)])
            index += 1
    _write_tsv(
        directory / "joint_cells.tsv",
        ["space", "cell", "trial", "estimate", "lower", "upper"],
        cell_rows,
    )


def _add_common(parser, *, needs_input=True):
    if needs_input:
        parser.add_argument("--input", required=True, help="cell-count CSV")
        parser.add_argument(
            "--columns",
            default=None,
            help="column remapping, e.g. trial=trial,arm=A,s=S,y=Y,count=N",
        )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--boot",
        type=int,
        default=500 if needs_input else None,
        help="bootstrap replicates (default: 500; simulate: config "
        "'bootstrap_replicates', else 100)",
    )
    parser.add_argument("--ci", type=float, default=0.95)
    parser.add_argument(
        "--ci-method",
        choices=("normal", "percentile"),
        default="normal",
        help="bootstrap interval method of estimate, target and psace (with "
        "--plot-data, also of its joint cells); test accepts normal only",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="threads of simulate's study replicates, at least 1 (default: the "
        "usable CPUs); reports are identical for any value; every other command "
        "runs in one thread and ignores it",
    )
    parser.add_argument("--output", default=None, help="report path (default stdout)")
    parser.add_argument(
        "--timing", action="store_true", help="include wall time in the report"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jointpo",
        description="Joint distributions of potential outcomes from multiple trials",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="transition matrix and joint tables")
    _add_common(p)
    p.add_argument("--space", choices=("outcome", "surrogate", "composite"), default="outcome")
    p.add_argument("--mono-s", dest="mono_s", action="store_true")
    p.add_argument("--mono-y", dest="mono_y", action="store_true")
    p.add_argument("--project", action="store_true", help="project rows onto the simplex")
    p.add_argument("--force", action="store_true", help="solve despite rank failure")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("test", help="overidentification test of transportability")
    _add_common(p)
    p.add_argument("--space", choices=("outcome", "surrogate"), default="outcome")
    p.add_argument("--plot-data", dest="plot_data", default=None, help="TSV output dir")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("psace", help="principal stratification effects")
    _add_common(p)
    p.add_argument("--method", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument(
        "--clip-scores",
        dest="clip_scores",
        action="store_true",
        help="zero negative complier scores, renormalizing the rest (methods 1 and 2)",
    )
    p.add_argument(
        "--project", action="store_true", help="project rows onto the simplex (methods 2-4)"
    )
    p.add_argument("--force", action="store_true", help="solve despite rank failure (methods 2-4)")
    p.add_argument("--plot-data", dest="plot_data", default=None)
    p.set_defaults(func=cmd_psace)

    p = sub.add_parser("target", help="transport to a control-only population")
    _add_common(p)
    p.add_argument("--space", choices=("outcome", "surrogate"), default="outcome")
    p.add_argument("--project", action="store_true")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_target)

    p = sub.add_parser("simulate", help="Monte Carlo study")
    _add_common(p, needs_input=False)
    p.add_argument("--case", choices=("c1", "c2", "c3", "c4"), default=None)
    p.add_argument("--ng", type=int, default=None, help="per-trial sample size")
    p.add_argument("--m", type=int, default=None, help="number of trials")
    p.add_argument("--reps", type=int, default=None, help="study replicates")
    p.add_argument("--config", default=None, help="JSON key-value study config")
    p.add_argument("--replicates-csv", dest="replicates_csv", default=None)
    p.add_argument("--table", action="store_true", help="print a metrics table to stderr")
    p.set_defaults(func=cmd_simulate)
    return parser


#: Characters per ``write`` of a report: each write encodes one slice, never
#: a second copy of the whole document.
_WRITE_SLICE = 1 << 16


def _write_report(text: str, output: str | None) -> None:
    """Write ``text`` to the ``output`` file, or to stdout without one."""
    target = open(output, "w", encoding="utf-8") if output else nullcontext(sys.stdout)
    with target as out:
        for start in range(0, len(text), _WRITE_SLICE):
            out.write(text[start : start + _WRITE_SLICE])


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        _check_flags(args)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", JointpoWarning)
            report = args.func(args)
        collected = [
            {"category": type(w.message).__name__, "message": str(w.message)}
            for w in caught
            if isinstance(w.message, JointpoWarning)
        ]
        report["diagnostics"]["warnings"] = collected
        report["schema_version"] = "1"
        report["tool"] = {"name": "jointpo", "version": __version__}
        if args.timing:
            report["timing_seconds"] = time.perf_counter() - started
        _write_report(canonical_json(report), args.output)
        return 0
    except (JointpoError, OSError, UnicodeDecodeError, MemoryError) as exc:
        # A file that cannot be read or written is a usage error, like a
        # malformed one, and so is a --boot or --reps too large to allocate.
        code = _exit_code(exc)
        sys.stderr.write(
            json.dumps(
                {
                    "error": {
                        "type": type(exc).__name__,
                        "message": str(exc),
                        "exit_code": code,
                    }
                },
                sort_keys=True,
            )
            + "\n"
        )
        return code


if __name__ == "__main__":
    raise SystemExit(main())
