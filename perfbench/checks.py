"""Output checks. Each returns a list of problems; an empty list passes.

Point estimates are checked against a normal-equations solve of the counts
the benchmark generated, which shares no code with the package's SVD-based
least squares.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-9


def load_validator(root: Path):
    from jsonschema import Draft202012Validator

    schema_path = root / "src" / "jointpo" / "schemas" / "report.schema.json"
    return Draft202012Validator(json.loads(schema_path.read_text(encoding="utf-8")))


def schema_problems(validator, report: dict) -> list[str]:
    return [f"schema: {e.message}" for e in validator.iter_errors(report)]


def _freqs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    half = counts.shape[1] // 2
    control = counts[:, :half].astype(float)
    treated = counts[:, half:].astype(float)
    return (
        control / control.sum(axis=1, keepdims=True),
        treated / treated.sum(axis=1, keepdims=True),
    )


def _normal_equations(design: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return np.linalg.solve(design.T @ design, design.T @ rhs)


def reference_transition(counts: np.ndarray, *, monotone: bool = False) -> np.ndarray:
    """Least-squares transition from ``(m, 2k)`` counts; ``monotone`` applies
    both composite orderings (``s1 >= s0`` and ``y1 >= y0``) with the terminal
    column completed per row, as the package documents."""
    design, response = _freqs(counts)
    if not monotone:
        return _normal_equations(design, response)
    states = ((0, 0), (0, 1), (1, 0), (1, 1))
    allowed = np.array(
        [[b >= a and d >= c for (b, d) in states] for (a, c) in states]
    )
    k = len(states)
    probs = np.zeros((k, k))
    for col in range(k - 1):
        idx = np.flatnonzero(allowed[:, col])
        probs[idx, col] = _normal_equations(design[:, idx], response[:, col])
    probs[:, k - 1] = 1.0 - probs[:, : k - 1].sum(axis=1)
    return probs


def _close(name: str, got, want) -> list[str]:
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    err = float(np.max(np.abs(got - want)))
    return [] if err <= TOL else [f"{name}: max abs error {err:.3e} > {TOL:g}"]


def estimate_problems(report: dict, counts: np.ndarray, *, monotone: bool = False):
    probs = report["results"]["transition"]["probs"]
    return _close("transition", probs, reference_transition(counts, monotone=monotone))


def overid_problems(report: dict, counts: np.ndarray) -> list[str]:
    res = report["results"]
    want = reference_transition(counts)
    out = _close("transition", res["transition"]["probs"], want)
    out += _close("theta", res["theta"]["point"], want[:, 1])
    if res["df"] != counts.shape[0] - 2 or not math.isfinite(res["j_statistic"]):
        out.append("test: bad df or non-finite J")
    return out


def target_problems(report: dict, counts: np.ndarray, target: np.ndarray):
    probs = reference_transition(counts)
    k = probs.shape[0]
    marginal = target[:k] / target[:k].sum()
    res = report["results"]
    return _close("transition", res["transition"]["probs"], probs) + _close(
        "target joint", res["joint"], marginal[:, None] * probs
    )


def psace_problems(report: dict, m: int, plot_dir: Path | None) -> list[str]:
    est = np.asarray(report["results"]["psace"]["estimates"], dtype=object)
    out = [] if est.shape == (m, 4) else [f"psace: shape {est.shape} != {(m, 4)}"]
    if plot_dir is not None:
        for name, rows in (("psace_intervals.tsv", 4 * m), ("joint_cells.tsv", 2 * m)):
            path = plot_dir / name
            if not path.exists():
                out.append(f"plot data: {name} missing")
            elif len(path.read_text(encoding="utf-8").splitlines()) != rows + 1:
                out.append(f"plot data: {name} has the wrong row count")
    return out


#: Finite-sample bias of each study parameter, in SDs, at n_g = 2000 and
#: m = 10: the estimators regress on estimated frequencies, so they are not
#: unbiased. Measured with ``simulate --reps 20000 --seed 99``, where the
#: Monte Carlo error of each figure is about 0.007 SD.
MEASURED_BIAS_SD = {
    "c1": {"P(Y1=1|Y0=0)": 0.0734, "P(Y1=1|Y0=1)": -0.0732},
    "c3": {
        "P(S1=1|S0=0,Y0=0)": 0.0141,
        "P(S1=1|S0=0,Y0=1)": -0.0137,
        "P(S1=1|S0=1,Y0=0)": 0.0080,
        "P(S1=1|S0=1,Y0=1)": 0.0000,
        "P(Y1=1|S0=0,Y0=0)": 0.0353,
        "P(Y1=1|S0=0,Y0=1)": -0.0095,
        "P(Y1=1|S0=1,Y0=0)": -0.0132,
        "P(Y1=1|S0=1,Y0=1)": 0.0229,
    },
    "c4": {
        "P(Y1=1|S0=0,S1=0)": 0.0131,
        "P(Y1=1|S0=0,S1=1)": 0.0517,
        "P(Y1=1|S0=1,S1=1)": -0.0486,
        "P(Y0=1|S0=0,S1=0)": 0.1114,
        "P(Y0=1|S0=0,S1=1)": -0.1178,
        "P(Y0=1|S0=1,S1=1)": 0.0079,
        "PSACE[00]": -0.1082,
        "PSACE[01]": 0.1279,
        "PSACE[11]": -0.0492,
    },
}
#: Share of each parameter's measured bias allowed on top of Monte Carlo error.
BIAS_ALLOWANCE = 1.5


def simulate_problems(report: dict, case: str, replicates_csv: Path) -> list[str]:
    """Each bias lies within 4 SD / sqrt(R) + 1.5 |measured bias| of zero,
    and the replicate CSV reproduces the report's bias and SD."""
    res = report["results"]
    params = res["parameters"]
    kept = res["config"]["replicates"] - res["n_failed"]
    measured = MEASURED_BIAS_SD[case]
    out = []
    if sorted(p["name"] for p in params) != sorted(measured):
        out.append(f"simulate: parameters differ from those of case {case}")
    for p in params:
        allowance = BIAS_ALLOWANCE * abs(measured.get(p["name"], 0.0))
        bound = p["sd"] * (4.0 / math.sqrt(kept) + allowance)
        if abs(p["bias"]) > bound:
            out.append(f"simulate: |bias| of {p['name']} is {abs(p['bias']):.3g} > {bound:.3g}")
    rows = list(csv.reader(io.StringIO(replicates_csv.read_text(encoding="utf-8"))))
    if rows[0] != ["replicate", "parameter", "estimate", "se"]:
        return out + ["replicates csv: bad header"]
    values = np.array([float(r[2]) for r in rows[1:]]).reshape(kept, len(params))
    truth = np.array([p["truth"] for p in params])
    out += _close("csv bias", [p["bias"] for p in params], values.mean(axis=0) - truth)
    out += _close("csv sd", [p["sd"] for p in params], values.std(axis=0, ddof=1))
    return out


def unit_rows_problems(result: dict, expected: np.ndarray) -> list[str]:
    got = {tid: row for tid, row in zip(result["trial_ids"], result["counts"])}
    want = {str(g + 1): row.tolist() for g, row in enumerate(expected)}
    return [] if got == want else ["parse_unit_rows: aggregated counts differ"]
