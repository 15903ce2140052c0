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
:class:`~jointpo.inference.BatchEstimator` from the command's
``*_estimator`` function, built on :func:`_batch_fit` and
:func:`_stack_transitions` here. Its member 0, a fit of the observed counts,
is the report's point (``parameters.point`` and the estimands); the
bootstrap fits the resamples as one stack. The rest of the report, and
every warning, comes from the same kernels on the observed frequencies
(:func:`~jointpo.data.observed_frequencies`):
:func:`~jointpo.transition.fit_system` of a
:func:`~jointpo.transition.design_system` and the ``*_report`` functions of
:mod:`jointpo.principal`.

A command loads only the modules it uses. This module holds the parser,
:func:`main` and the helpers that several commands share; each command's
body, statistic and ``--plot-data`` writer live in
``jointpo.commands.<command>``, which :func:`main` imports for that command
alone. Importing this module, and ``--version``, load ``data``, ``errors``,
``special``, ``transition``, ``inference`` and ``report``; each command adds
its own module, ``test`` also ``overid``, ``psace`` also ``principal``,
``simulate`` also ``simulate`` (and a ``c4`` study ``principal``). No
command loads ``summaries``, the library's per-dataset object path. The
names the benchmark's tracer wraps in this module stay bound although no
command calls most of them, those of other modules as stand-ins that
import their module at the first call.
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
from pathlib import Path

# No BLAS call jointpo makes is large enough to split across threads, yet
# OpenBLAS starts a worker at ``import numpy`` that busy-waits for about
# 95 ms of CPU, taking the core a second study thread needs. Set before
# numpy loads; a value already in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__, _deferred
from .data import ColumnSchema, frequency_stack, parse_dataset
from .errors import (
    IdentificationError,
    InferenceError,
    JointpoError,
    JointpoWarning,
    ValidationError,
)
from .inference import BatchFit, BootstrapConfig, bootstrap, check_seed
from .report import canonical_json, file_digest
from .transition import (
    fit_system,
    fit_transitions,
    flag_negative_joints,
    joint_tables,
    project_rows,
)

# Unused here, but perfbench/tracing.py times them through this module's names.
from .transition import check_rank, solve_transitions  # noqa: F401

# perfbench/tracing.py wraps these names too; only ``simulate`` calls two.
summarize = _deferred("summaries", "summarize")
build_system = _deferred("summaries", "build_system")
joint_from_transitions = _deferred("summaries", "joint_from_transitions")
derived_estimands = _deferred("summaries", "derived_estimands")
overid_test = _deferred("summaries", "overid_test")
method1_estimate = _deferred("principal", "method1_estimate")
method4_estimate = _deferred("principal", "method4_estimate")
monotone_variant_estimate = _deferred("principal", "monotone_variant_estimate")
principal_scores = _deferred("principal", "principal_scores")
run_study = _deferred("simulate", "run_study")
replicates_to_csv = _deferred("simulate", "replicates_to_csv")

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
        if not key:
            raise ValidationError(
                f"--columns entry {part!r} has an empty name; use name=column"
            )
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


def _write_tsv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


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

    p = sub.add_parser("test", help="overidentification test of transportability")
    _add_common(p)
    p.add_argument("--space", choices=("outcome", "surrogate"), default="outcome")
    p.add_argument("--plot-data", dest="plot_data", default=None, help="TSV output dir")

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

    p = sub.add_parser("target", help="transport to a control-only population")
    _add_common(p)
    p.add_argument("--space", choices=("outcome", "surrogate"), default="outcome")
    p.add_argument("--project", action="store_true")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("simulate", help="Monte Carlo study")
    _add_common(p, needs_input=False)
    p.add_argument("--case", choices=("c1", "c2", "c3", "c4"), default=None)
    p.add_argument("--ng", type=int, default=None, help="per-trial sample size")
    p.add_argument("--m", type=int, default=None, help="number of trials")
    p.add_argument("--reps", type=int, default=None, help="study replicates")
    p.add_argument("--config", default=None, help="JSON key-value study config")
    p.add_argument("--replicates-csv", dest="replicates_csv", default=None)
    p.add_argument("--table", action="store_true", help="print a metrics table to stderr")
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
    # An import statement's path, unlike ``importlib.import_module``'s, shows
    # in ``python -X importtime``.
    name = f"{__package__}.commands.{args.command}"
    __import__(name)
    command = sys.modules[name]
    started = time.perf_counter()
    try:
        _check_flags(args)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", JointpoWarning)
            report = command.run(args)
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
    # The command modules import this module's helpers: under
    # ``python -m jointpo.cli`` they find this copy instead of compiling a second.
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    raise SystemExit(main())
