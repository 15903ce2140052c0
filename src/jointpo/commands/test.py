"""``test``: the overidentification test of transition transportability."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..cli import _batch_fit, _bootstrap, _load, _report, _stack_transitions, _write_tsv
from ..data import observed_frequencies
from ..errors import IdentificationError, ValidationError
from ..inference import BatchEstimator
from ..overid import overid_result
from ..transition import binary_transition_params, design_system, fit_system


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


def run(args) -> dict:
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
        _write_plot_data(Path(args.plot_data), system, theta)

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


def _write_plot_data(directory: Path, system, theta) -> None:
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
