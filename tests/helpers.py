"""Shared fixtures and independent oracle implementations.

Oracles deliberately use code paths unrelated to the package internals
(normal equations via LU solves, Poisson sums, dense grid refinement)
so agreement is evidence, not tautology.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from jointpo.data import (
    DEFAULT_SCHEMA,
    ColumnSchema,
    MultiTrialDataset,
    Summaries,
    TrialCellCounts,
    TrialSummary,
    _parse_int,
    summarize,
)
from jointpo.errors import ParseError, SchemaError, ValidationError
from jointpo.inference import replicate_rng, transition_residuals
from jointpo.principal import method1_estimate, method4_estimate, monotone_variant_estimate
from jointpo.simulate import (
    Pipeline,
    _arms_positive,
    _binary_arms,
    dgp_population,
)
from jointpo.special import chi2_sf
from jointpo.transition import (
    binary_transition_params,
    build_system,
    estimand_vectors,
    joint_from_transitions,
    least_squares,
    solve_transitions,
)


def poisson_sum_chi2_sf(x: float, df: int) -> float:
    """Upper chi-square tail for even df via the Poisson-sum identity."""
    assert df % 2 == 0 and df > 0
    lam = x / 2.0
    return math.fsum(
        math.exp(-lam) * lam**i / math.factorial(i) for i in range(df // 2)
    )


def normal_equations_solve(design: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Least squares through the normal equations and an LU solve."""
    gram = design.T @ design
    return np.linalg.solve(gram, design.T @ response)


def grid_refine_solve(design: np.ndarray, response: np.ndarray, rounds: int = 40):
    """Brute-force 2-parameter least squares by iterated dense grid search."""
    assert design.shape[1] == 2
    lo = np.array([-2.0, -2.0])
    hi = np.array([3.0, 3.0])
    best = None
    for _ in range(rounds):
        g0 = np.linspace(lo[0], hi[0], 21)
        g1 = np.linspace(lo[1], hi[1], 21)
        a, b = np.meshgrid(g0, g1, indexing="ij")
        fitted = design[:, 0][:, None, None] * a + design[:, 1][:, None, None] * b
        loss = ((fitted - response[:, None, None]) ** 2).sum(axis=0)
        i, j = np.unravel_index(np.argmin(loss), loss.shape)
        best = np.array([g0[i], g1[j]])
        span = (hi - lo) / 10.0
        lo = best - span
        hi = best + span
    return best


def kron_direct_solve(design: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Square-system solve of response = design @ coef via one Kronecker
    LU factorization of all unknowns jointly."""
    m, k = design.shape
    assert m == k
    big = np.kron(np.eye(k), design)
    vec = np.linalg.solve(big, response.flatten(order="F"))
    return vec.reshape((k, k), order="F")


def binary_trial(trial_id: str, c0: int, c1: int, t0: int, t1: int) -> TrialCellCounts:
    """A binary-outcome trial from (control y=0, control y=1, treated y=0,
    treated y=1) counts."""
    return TrialCellCounts(trial_id=trial_id, counts=np.array([[c0, c1], [t0, t1]]))


def binary_dataset(rows: list[tuple[int, int, int, int]]) -> MultiTrialDataset:
    return MultiTrialDataset(
        trials=tuple(
            binary_trial(str(i + 1), *row) for i, row in enumerate(rows)
        )
    )


def binary_summaries(
    control: np.ndarray,
    treated: np.ndarray,
    arm_sizes=(1, 1),
) -> Summaries:
    """Population-style summaries straight from probability tables.

    ``arm_sizes`` is one (n0, n1) pair for every trial or an (m, 2) array.
    """
    sizes = np.asarray(arm_sizes)
    if sizes.ndim == 1:
        sizes = np.tile(sizes, (len(control), 1))
    trials = tuple(
        TrialSummary(
            trial_id=str(g + 1),
            is_target=False,
            arm_sizes=(int(sizes[g, 0]), int(sizes[g, 1])),
            control_outcome=np.asarray(control[g], dtype=float),
            treated_outcome=np.asarray(treated[g], dtype=float),
        )
        for g in range(len(control))
    )
    return Summaries(
        trials=trials,
        target=None,
        outcome_cardinality=control.shape[1],
        has_surrogate=False,
    )


def composite_summaries(
    control_comp: np.ndarray,
    treated_comp: np.ndarray,
    arm_sizes: tuple[int, int] = (1, 1),
) -> Summaries:
    """Population-style surrogate summaries from composite (s, y) tables."""
    control_comp = np.asarray(control_comp, dtype=float)
    treated_comp = np.asarray(treated_comp, dtype=float)
    trials = []
    for g in range(control_comp.shape[0]):
        cc = control_comp[g].reshape(2, 2)
        tc = treated_comp[g].reshape(2, 2)
        trials.append(
            TrialSummary(
                trial_id=str(g + 1),
                is_target=False,
                arm_sizes=arm_sizes,
                control_outcome=cc.sum(axis=0),
                treated_outcome=tc.sum(axis=0),
                control_surrogate=cc.sum(axis=1),
                treated_surrogate=tc.sum(axis=1),
                control_composite=control_comp[g],
                treated_composite=treated_comp[g],
            )
        )
    return Summaries(
        trials=tuple(trials), target=None, outcome_cardinality=2, has_surrogate=True
    )


def random_stochastic_rows(rng: np.random.Generator, m: int, k: int) -> np.ndarray:
    raw = rng.dirichlet(np.ones(k), size=m)
    return raw


def well_conditioned_system(
    rng: np.random.Generator, m: int, k: int, min_ratio: float = 1e-3
):
    """A random row-stochastic design with decent conditioning plus a
    random row-stochastic transition and its exact response."""
    for _ in range(200):
        design = random_stochastic_rows(rng, m, k)
        sv = np.linalg.svd(design, compute_uv=False)
        if sv[-1] > sv[0] * min_ratio:
            transition = random_stochastic_rows(rng, k, k)
            return design, transition, design @ transition
    raise AssertionError("failed to draw a well-conditioned system")


def reference_parse_rows(
    stream, schema: ColumnSchema = DEFAULT_SCHEMA, with_count: bool = True
) -> MultiTrialDataset:
    """Row-by-row CSV parsing: every line runs the full check chain and
    updates a nested ``trial -> (arm, s, y) -> count`` dict.

    This is the parser the package shipped before it validated each
    distinct row once; it shares only ``_parse_int`` (the integer rule)
    with the package.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("input is empty", 1) from None
    expected = schema.header(with_count)
    if [h.strip() for h in header] != expected:
        raise SchemaError(
            f"expected header {','.join(expected)!r}, got {','.join(header)!r}"
        )
    cells: dict[str, dict[tuple[int, int | None, int], int]] = {}
    order: list[str] = []
    surrogate_seen: bool | None = None
    max_y = -1
    for row in reader:
        line = reader.line_num
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(expected):
            raise ParseError(f"expected {len(expected)} fields, got {len(row)}", line)
        trial = row[0].strip()
        if not trial:
            raise ParseError("empty trial label", line)
        arm = _parse_int(row[1], "arm", line)
        if arm not in (0, 1):
            raise ParseError(f"arm must be 0 or 1, got {arm}", line)
        if row[2].strip() == schema.na_token:
            s = None
        else:
            s = _parse_int(row[2], "surrogate", line)
            if s not in (0, 1):
                raise ParseError(f"surrogate must be 0, 1 or NA, got {s}", line)
        has_s = s is not None
        if surrogate_seen is None:
            surrogate_seen = has_s
        elif surrogate_seen != has_s:
            raise SchemaError(
                f"line {line}: surrogate column mixes values and "
                f"{schema.na_token!r}; presence must be uniform"
            )
        y = _parse_int(row[3], "outcome", line)
        if y < 0:
            raise ParseError(f"outcome must be nonnegative, got {y}", line)
        count = _parse_int(row[4], "count", line) if with_count else 1
        if count < 0:
            raise ValidationError(
                f"line {line}: negative count {count} for trial {trial!r}"
            )
        if count > 2**63 - 1:
            raise ValidationError(
                f"line {line}: count {count} for trial {trial!r} exceeds 2**63 - 1"
            )
        max_y = max(max_y, y)
        if trial not in cells:
            cells[trial] = {}
            order.append(trial)
        key = (arm, s, y)
        cells[trial][key] = cells[trial].get(key, 0) + count
    if not order:
        raise ParseError("no data rows in input", reader.line_num)
    k = max_y + 1
    if k < 2:
        raise ValidationError("the outcome must have at least two categories")
    trials: list[TrialCellCounts] = []
    target: TrialCellCounts | None = None
    for trial_id in order:
        arr = np.zeros((2, 2, k) if surrogate_seen else (2, k), dtype=np.int64)
        for (arm, s, y), c in cells[trial_id].items():
            if surrogate_seen:
                arr[arm, s, y] += c
            else:
                arr[arm, y] += c
        cell = TrialCellCounts(
            trial_id=trial_id, counts=arr, is_target=(trial_id == schema.target_label)
        )
        if cell.is_target:
            target = cell
        else:
            trials.append(cell)
    if not trials:
        raise ValidationError("no experimental trials found in input")
    return MultiTrialDataset(trials=tuple(trials), target=target)


# Per-dataset reference forms of the CLI's bootstrap statistics: each
# evaluates one dataset through the object path (``summarize`` ->
# ``build_system`` -> ``solve_transitions`` -> ``joint_from_transitions``),
# the way the commands build their reports, and raises where ``summarize``
# or a solve rejects the dataset.


def _joint(trans, summary, space: str) -> np.ndarray:
    control = getattr(summary, f"control_{space}")
    return joint_from_transitions(trans, control, summary.trial_id).table


def reference_estimate(space: str, *, mono_s=False, mono_y=False, project=False):
    """``cli.estimate_estimator``: transition parameters, then per-trial THR,
    TBR, persuasion rate and PN when the space has two states."""

    def statistic(ds):
        s = summarize(ds)
        system = build_system(s, space, mono_s=mono_s, mono_y=mono_y)
        t = solve_transitions(system, project_simplex=project, force=True)
        values = list(t.parameter_values())
        if t.k == 2:
            for summary in s.trials:
                values.extend(estimand_vectors(_joint(t, summary, space)))
        return np.array(values)

    return statistic


def reference_overid(space: str, theta: np.ndarray):
    """``cli.overid_estimator``: both transition parameters, then each
    trial's residual against ``theta``."""

    def statistic(ds):
        s = summarize(ds)
        t = solve_transitions(build_system(s, space), force=True)
        residuals = transition_residuals(s, theta, space=space)
        return np.concatenate([binary_transition_params(t), residuals])

    return statistic


def reference_target(space: str, *, project=False):
    """``cli.target_estimator``: transition parameters, the target trial's
    joint table and, with two states, its THR, TBR, persuasion rate and PN."""

    def statistic(ds):
        s = summarize(ds)
        t = solve_transitions(build_system(s, space), project_simplex=project, force=True)
        joint = _joint(t, s.target, space)
        values = list(t.parameter_values()) + list(joint.reshape(-1))
        if t.k == 2:
            values.extend(estimand_vectors(joint))
        return np.array(values)

    return statistic


def reference_psace(method: int, *, clip_scores=False, project=False):
    """``cli.psace_estimator``: the per-trial stratum effect table, flattened."""

    def statistic(ds):
        s = summarize(ds)
        if method == 1:
            _, table = method1_estimate(s, clip_scores=clip_scores)
        elif method in (2, 3):
            variant = f"method{method}"
            _, table = monotone_variant_estimate(s, variant, force=True, project=project)
        else:
            _, table = method4_estimate(s, "none", force=True, project=project)
        return table.estimates.reshape(-1)

    return statistic


def reference_joint_cells(space: str):
    """``cli.joint_cell_estimator``: each trial's joint harm cell
    P(state0=1, state1=0)."""

    def statistic(ds):
        s = summarize(ds)
        t = solve_transitions(build_system(s, space), force=True)
        return np.array([_joint(t, summary, space)[1, 0] for summary in s.trials])

    return statistic


def reference_resample(counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One stratified resample of an ``(n_trials, cells)`` count matrix as the
    CLI bootstrap drew it before it shared a resampler with the Monte Carlo
    studies: one ``multinomial(totals, probs)`` call over the trials with
    units; empty trials stay zero."""
    totals = counts.sum(axis=1)
    live = totals > 0
    out = np.zeros(counts.shape, dtype=np.int64)
    out[live] = rng.multinomial(totals[live], counts[live] / totals[live][:, None])
    return out


# Reference Monte Carlo studies: one replicate at a time, drawing trial by
# trial as ``simulate`` did before it drew each replicate's counts in one
# ``multinomial`` call and fitted replicates in chunks over threads.


def _reference_draws(cell_probs, n_g, n_draws, rng, valid):
    """A replicate's observed counts, its resamples, their keep mask and the
    number of resamples redrawn at least once."""
    m, c = cell_probs.shape
    counts = np.empty((m, c), dtype=np.int64)
    for g in range(m):
        counts[g] = rng.multinomial(n_g, cell_probs[g])
    totals = counts.sum(axis=1)
    probs = counts / totals[:, None]
    batch = np.empty((n_draws, m, c), dtype=np.int64)
    for g in range(m):
        batch[:, g, :] = rng.multinomial(int(totals[g]), probs[g], size=n_draws)
    keep = valid(batch)
    redrawn = ~keep
    for _ in range(100):
        if keep.all():
            break
        bad = np.flatnonzero(~keep)
        for g in range(m):
            batch[bad, g, :] = rng.multinomial(int(totals[g]), probs[g], size=bad.size)
        keep[bad] = valid(batch[bad])
    return counts, batch, keep, int(redrawn.sum())


def reference_run_study(spec, replicates: int, n_draws: int, seed: int):
    """``simulate.run_study`` without its 5% abort: the kept estimates and
    standard errors, the number of failed replicates and the number of
    resamples redrawn."""
    pop = dgp_population(spec)
    pipe = Pipeline(pop)
    width = len(pipe.param_names)
    estimates = np.full((replicates, width), np.nan)
    ses = np.full((replicates, width), np.nan)
    n_redrawn = 0
    for i in range(replicates):
        rng = replicate_rng(seed, i)
        counts, batch, keep, redrawn = _reference_draws(
            pop.cell_probs, spec.n_g, n_draws, rng, pipe.valid
        )
        n_redrawn += redrawn
        with np.errstate(all="ignore"):
            values, ok = pipe.fit(np.concatenate([counts[None], batch]))
        keep = keep & ok[1:]
        if ok[0] and keep.sum() >= 0.9 * n_draws:
            estimates[i], ses[i] = values[0], values[1:][keep].std(axis=0, ddof=1)
    failed = np.isnan(estimates).any(axis=1) | np.isnan(ses).any(axis=1)
    return estimates[~failed], ses[~failed], int(failed.sum()), n_redrawn


def reference_overid_size_study(spec, replicates: int, n_draws: int, seed: int):
    """``simulate.overid_size_study``, one replicate at a time."""
    pop = dgp_population(spec)
    df = pop.cell_probs.shape[0] - 2
    p_values = np.empty(replicates)
    for i in range(replicates):
        rng = replicate_rng(seed, i)
        counts, batch, keep, _ = _reference_draws(
            pop.cell_probs, spec.n_g, n_draws, rng, _arms_positive
        )
        design, response = _binary_arms(np.concatenate([counts[None], batch]))
        coef, ok = least_squares(design, response[..., None])
        assert ok[0]
        residuals = response - (design @ coef[0])[..., 0]
        sigma = residuals[1:][keep & ok[1:]].std(axis=0, ddof=1)
        if (sigma == 0).any():
            p_values[i] = np.nan
        else:
            p_values[i] = chi2_sf(float(np.sum((residuals[0] / sigma) ** 2)), df)
    return p_values
