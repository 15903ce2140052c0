"""``psace``: principal stratification effects."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..cli import (
    _batch_fit,
    _bootstrap,
    _joint_report,
    _load,
    _report,
    _stack_transitions,
    _write_tsv,
)
from ..data import observed_frequencies
from ..errors import ValidationError
from ..inference import BatchEstimator, BatchFit
from ..principal import (
    PSACE_ORDERINGS,
    STRATA,
    composite_report,
    fourway_tables,
    method1_effects,
    method1_report,
    method1_stack,
    psace_tables,
    scores_report,
)
from ..transition import design_system, monotone_mask


def psace_estimator(
    dataset, method: int, *, clip_scores=False, project=False
) -> BatchEstimator:
    """The per-trial stratum effect table of a psace method, flattened."""
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

#: The psace flags that some methods ignore, by the methods that use them.
_FLAG_METHODS = {"force": (2, 3, 4), "project": (2, 3, 4), "clip_scores": (1, 2)}


def run(args) -> dict:
    method = args.method
    for flag, methods in _FLAG_METHODS.items():
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
        _write_plot_data(Path(args.plot_data), table, cells, variance)

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


def _write_plot_data(directory: Path, table, cells, variance) -> None:
    """Write ``psace_intervals.tsv`` and ``joint_cells.tsv``.

    ``cells`` holds each space's per-trial joint harm cell
    P(state0=1, state1=0), in :data:`_CELL_SPACES` order, and ``variance``
    (None without a bootstrap) runs over the psace table, then those cells.
    """

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
