"""Monte Carlo harness: data-generating processes, dataset simulation
and replication studies with bootstrap-based coverage metrics.

Four named benchmark processes are built in, all with ten trials and a
fair coin treatment:

* ``c1``/``c2``: binary outcome; control success probabilities spread
  evenly from 0.5 to 0.8 across trials and a logistic transition of the
  treated outcome on the control outcome (offset -0.5 or +0.5).
* ``c3``: surrogate and outcome both logistic functions of the control
  pair, estimated through the unconstrained composite system.
* ``c4``: monotone surrogate strata with logistic stratum outcome
  probabilities, estimated through the four-step stratum estimator.

Every case is estimated by a :class:`Pipeline`: the arm frequencies of
:func:`~jointpo.data.frequency_stack` fitted by
:func:`~jointpo.transition.fit_transitions` as ``estimate`` fits them, or by
:func:`~jointpo.principal.method1_stack` as ``psace --method 1`` does, so a
study point is member 0 of the CLI statistic on the same counts, bit for bit.

Replicate ``i`` of a study draws its dataset and, through the resampler
and redraw loop of :mod:`jointpo.inference`, its bootstrap resamples from
``replicate_rng(seed, i)``, so studies are reproducible. Replicates are
drawn and fitted in chunks of at most ``inference._CHUNK`` count cells (at
least one replicate), each chunk's points and resamples as one stack, and
``workers`` threads (by default the usable CPUs), the calling thread among
them, take the chunks in turn: the multinomial draws and the QR
factorizations release the interpreter lock, which pays once a chunk holds
several replicates (at m = 10 and B = 100, 12 for c1 and c2, 6 for c3 and
c4). A chunk builds the frequencies of only the state spaces its estimator
reads. Every kernel works member by member and results land by replicate
index, so studies are bit-identical for any ``workers`` and chunk size.
Coverage uses normal intervals ``point +- 1.96 * se`` with the bootstrap
standard error. A study is written out by :func:`study_to_dict`,
:func:`replicates_to_csv` and :func:`format_study_table`.
"""

from __future__ import annotations

import csv
import io
import os
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import inference
from .data import (
    _MAX_COUNT,
    STATE_SPACES,
    MultiTrialDataset,
    _sum_last,
    frequency_stack,
)
from .errors import InferenceError, ValidationError
from .inference import replicate_rng
from .special import expit
from .transition import fit_transitions

Z95 = 1.96

CASES = ("c1", "c2", "c3", "c4")
#: Largest trial count of the built-in cases: their control success
#: probabilities ``0.5 + g/30`` reach 1 at g = 15.
MAX_CASE_M = 16


@dataclass(frozen=True)
class Population:
    """Population law of the observed cells, one row per trial.

    ``cell_probs`` follows the dataset cell layout: row-major over
    (arm[, surrogate], outcome). ``truth`` holds the target parameter
    vector aligned with ``param_names``, and ``estimator`` names the
    :class:`Pipeline` statistic that estimates it (by default the
    composite transition with a surrogate, else the binary transition).
    """

    cell_probs: np.ndarray
    truth: np.ndarray
    param_names: tuple[str, ...]
    has_surrogate: bool
    outcome_cardinality: int = 2
    control_marginals: np.ndarray | None = None
    treated_marginals: np.ndarray | None = None
    transition: np.ndarray | None = None
    estimator: str | None = None


@dataclass(frozen=True)
class DgpSpec:
    """Configuration of a simulated multi-trial experiment."""

    case: str
    n_g: int
    m: int = 10
    treatment_prob: float = 0.5
    custom: Population | None = None

    def __post_init__(self):
        if self.case not in CASES + ("custom",):
            raise ValidationError(f"unknown simulation case {self.case!r}")
        if self.case == "custom" and self.custom is None:
            raise ValidationError("a custom case needs a Population")
        inference.check_integer("n_g", self.n_g)
        inference.check_integer("m", self.m)
        if self.n_g <= 0:
            raise ValidationError(f"per-trial size must be positive, got {self.n_g}")
        if self.n_g > _MAX_COUNT:
            raise ValidationError(f"per-trial size {self.n_g} exceeds 2**63 - 1")
        if self.m < 2:
            raise ValidationError("at least two trials are required")
        if self.case in CASES and self.m > MAX_CASE_M:
            raise ValidationError(
                f"built-in case {self.case} supports at most m={MAX_CASE_M} trials "
                f"(its control success 0.5 + (m-1)/30 must not exceed 1), got m={self.m}"
            )
        if not 0.0 < self.treatment_prob < 1.0:
            raise ValidationError("treatment probability must lie in (0, 1)")


def _control_success(m: int) -> np.ndarray:
    # Evenly spaced control success probabilities from 0.5 upward in
    # steps of 1/30 (0.5 .. 0.8 for ten trials).
    return 0.5 + np.arange(m) / 30.0


def _binary_population(m: int, t: float, offset: float) -> Population:
    q = _control_success(m)
    theta = np.array([float(expit(offset)), float(expit(1.0 + offset))])
    treated = (1.0 - q) * theta[0] + q * theta[1]
    cells = np.column_stack(
        [(1 - t) * (1 - q), (1 - t) * q, t * (1 - treated), t * treated]
    )
    return Population(
        cell_probs=cells,
        truth=theta,
        param_names=("P(Y1=1|Y0=0)", "P(Y1=1|Y0=1)"),
        has_surrogate=False,
        control_marginals=np.column_stack([1 - q, q]),
        treated_marginals=np.column_stack([1 - treated, treated]),
        transition=np.array([[1 - theta[0], theta[0]], [1 - theta[1], theta[1]]]),
    )


def _c3_population(m: int, t: float) -> Population:
    q = _control_success(m)
    # Control composite law: surrogate and outcome independent within arm 0.
    control = np.empty((m, 4))
    for i, (s, y) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        ps = q if s else 1 - q
        py = q if y else 1 - q
        control[:, i] = ps * py
    # Trial-invariant composite transition, conditionally independent
    # surrogate and outcome moves given the control pair.
    trans = np.empty((4, 4))
    s_rate = {}
    y_rate = {}
    for i, (a, c) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        ps1 = float(expit((a + c - 1) / 2.0))
        py1 = float(expit((a + c + 1) / 2.0))
        s_rate[(a, c)] = ps1
        y_rate[(a, c)] = py1
        for j, (b, d) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            trans[i, j] = (ps1 if b else 1 - ps1) * (py1 if d else 1 - py1)
    treated = control @ trans
    cells = np.concatenate([(1 - t) * control, t * treated], axis=1)
    order = ((0, 0), (0, 1), (1, 0), (1, 1))
    truth = np.array([s_rate[ac] for ac in order] + [y_rate[ac] for ac in order])
    names = tuple(f"P(S1=1|S0={a},Y0={c})" for a, c in order) + tuple(
        f"P(Y1=1|S0={a},Y0={c})" for a, c in order
    )
    return Population(
        cell_probs=cells,
        truth=truth,
        param_names=names,
        has_surrogate=True,
        control_marginals=control,
        treated_marginals=treated,
        transition=trans,
    )


def _c4_population(m: int, t: float) -> Population:
    p = 0.3 + np.arange(m) / 30.0
    q = _control_success(m)
    # Monotone stratum scores: independent draws adjusted so S0 = 0
    # whenever S1 = 0, applied at the level of the joint law.
    d00 = 1.0 - q
    d01 = (1.0 - p) * q
    d11 = p * q
    treated_y = {ab: float(expit((ab[0] + ab[1] + 1) / 2.0)) for ab in
                 ((0, 0), (0, 1), (1, 1))}
    control_y = {ab: float(expit((ab[0] + ab[1] - 1) / 2.0)) for ab in
                 ((0, 0), (0, 1), (1, 1))}
    control = np.empty((m, 4))  # (S0, Y0) composite, order (s, y)
    control[:, 0] = d00 * (1 - control_y[(0, 0)]) + d01 * (1 - control_y[(0, 1)])
    control[:, 1] = d00 * control_y[(0, 0)] + d01 * control_y[(0, 1)]
    control[:, 2] = d11 * (1 - control_y[(1, 1)])
    control[:, 3] = d11 * control_y[(1, 1)]
    treated = np.empty((m, 4))  # (S1, Y1) composite
    treated[:, 0] = d00 * (1 - treated_y[(0, 0)])
    treated[:, 1] = d00 * treated_y[(0, 0)]
    treated[:, 2] = d01 * (1 - treated_y[(0, 1)]) + d11 * (1 - treated_y[(1, 1)])
    treated[:, 3] = d01 * treated_y[(0, 1)] + d11 * treated_y[(1, 1)]
    cells = np.concatenate([(1 - t) * control, t * treated], axis=1)
    strata = ((0, 0), (0, 1), (1, 1))
    truth = np.array(
        [treated_y[ab] for ab in strata]
        + [control_y[ab] for ab in strata]
        + [treated_y[ab] - control_y[ab] for ab in strata]
    )
    names = (
        tuple(f"P(Y1=1|S0={a},S1={b})" for a, b in strata)
        + tuple(f"P(Y0=1|S0={a},S1={b})" for a, b in strata)
        + tuple(f"PSACE[{a}{b}]" for a, b in strata)
    )
    return Population(
        cell_probs=cells,
        truth=truth,
        param_names=names,
        has_surrogate=True,
        control_marginals=control,
        treated_marginals=treated,
        estimator="principal-four-step",
    )


def dgp_population(spec: DgpSpec) -> Population:
    """Population probability tables and true parameters for a case."""
    if spec.case == "custom":
        return spec.custom
    if spec.case == "c1":
        return _binary_population(spec.m, spec.treatment_prob, -0.5)
    if spec.case == "c2":
        return _binary_population(spec.m, spec.treatment_prob, 0.5)
    if spec.case == "c3":
        return _c3_population(spec.m, spec.treatment_prob)
    return _c4_population(spec.m, spec.treatment_prob)


def _draw_counts(
    cell_probs: np.ndarray, n_g: int, rng: np.random.Generator
) -> np.ndarray:
    """One ``(m, cells)`` count matrix, ``n_g`` units per trial, drawn trial
    by trial in one call."""
    return rng.multinomial(n_g, cell_probs)


def _layout(population: Population) -> MultiTrialDataset:
    """The zero-count dataset of trials ``1..m`` laid out like ``cell_probs``."""
    m, cells = population.cell_probs.shape
    shape = (m, 2, 2, cells // 4) if population.has_surrogate else (m, 2, cells // 2)
    return MultiTrialDataset._of_block(np.zeros(shape, np.int64), tuple(map(str, range(1, m + 1))))


def simulate_dataset(spec: DgpSpec, seed: int) -> MultiTrialDataset:
    """Draw one dataset from the process: per trial, n_g units assigned
    by a coin flip, outcomes drawn from the population law of the
    observed cells. Deterministic per seed."""
    inference.check_seed(seed)
    pop = dgp_population(spec)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return _layout(pop).with_counts(_draw_counts(pop.cell_probs, spec.n_g, rng))


def _resample_stacks(
    stacks: np.ndarray,
    rngs: list[np.random.Generator],
    valid: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Fill members ``1:`` of each ``(1 + B, m, cells)`` stack with
    stratified resamples of its member 0, each stack from its own generator.

    Returns the ``(len(stacks), B)`` keep mask: resamples failing ``valid``
    are redrawn up to 100 rounds after the first draw (one draw more than a
    CLI replicate gets) and dropped after.
    """
    n = stacks.shape[1] - 1

    def accept(members: np.ndarray, draws: np.ndarray) -> np.ndarray:
        stacks[members // n, 1 + members % n] = draws
        return valid(draws)

    samplers = [inference._Draws(stack[0]) for stack in stacks]
    tries = inference._redraw(samplers, rngs, n, accept, 1 + inference._MAX_REDRAWS)
    return (tries > 0).reshape(len(stacks), n)


# The redraw predicates run on every redraw round with the interpreter lock
# held, so they sum their short cell axes by slice additions (exact on counts).
def _arms_positive(batch: np.ndarray) -> np.ndarray:
    half = batch.shape[-1] // 2
    return (_sum_last(batch[..., :half]) > 0).all(axis=-1) & (
        _sum_last(batch[..., half:]) > 0
    ).all(axis=-1)


def _four_step_valid(batch: np.ndarray) -> np.ndarray:
    # Pooled step-2 denominators must be positive: treated units with s=0
    # and control units with s=1 somewhere in the batch member.
    treated_s0 = _sum_last(batch[..., 4:6]).sum(axis=-1)
    control_s1 = _sum_last(batch[..., 2:4]).sum(axis=-1)
    return _arms_positive(batch) & (treated_s0 > 0) & (control_s1 > 0)


def _transitions(arms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Unmasked transitions of ``(B, m, 2, k)`` arm frequencies, as ``estimate`` fits them.
    k = arms.shape[-1]
    return fit_transitions(arms[:, :, 0], arms[:, :, 1], np.ones((k, k), dtype=bool))


def _binary_fit(freqs) -> tuple[np.ndarray, np.ndarray]:
    # The whole treated distribution; keep P(Y1=1|Y0=j).
    trans, ok = _transitions(freqs.outcome)
    return trans[..., 1], ok


def _composite_fit(freqs) -> tuple[np.ndarray, np.ndarray]:
    # The unconstrained 16-entry composite transition, reported as the
    # per-source-state rates of the surrogate, then of the outcome. Rows
    # are source states (s, y): sum target columns with s=1, then y=1.
    trans, ok = _transitions(freqs.composite)
    s_rate = trans[..., :, 2] + trans[..., :, 3]
    y_rate = trans[..., :, 1] + trans[..., :, 3]
    return np.concatenate([s_rate, y_rate], axis=-1), ok


def _four_step_fit(freqs) -> tuple[np.ndarray, np.ndarray]:
    # Method 1: the six stratum outcome probabilities, then the three
    # stratum effects (their pairwise differences). Only c4 studies load
    # ``principal``.
    from .principal import method1_stack

    treated, control, status = method1_stack(freqs, freqs.sizes.shape[1])
    return np.concatenate([treated, control, treated - control], axis=-1), status == 0


#: Per estimator name: the predicate a resample must pass (others are
#: redrawn), the fit of a :class:`~jointpo.data.FrequencyStack` and the
#: state spaces that fit reads, the only ones built.
_ESTIMATORS = {
    "binary-transition": (_arms_positive, _binary_fit, ("outcome",)),
    "composite-transition": (_arms_positive, _composite_fit, ("composite",)),
    "principal-four-step": (_four_step_valid, _four_step_fit, STATE_SPACES),
}


class Pipeline:
    """The study estimator of a population's parameters on cell counts.

    ``fit`` maps a ``(B, m, cells)`` stack of count matrices, laid out like
    ``Population.cell_probs``, to ``(B, len(param_names))`` values and a
    ``(B,)`` flag of members with no empty arm that pass the rank check of
    :func:`~jointpo.transition.fit_transitions`; ``valid`` flags the resamples
    the statistic accepts at all.
    """

    def __init__(self, population: Population):
        self.name = population.estimator or (
            "composite-transition" if population.has_surrogate else "binary-transition"
        )
        binary_pair = population.has_surrogate and population.outcome_cardinality == 2
        if self.name != "binary-transition" and not binary_pair:
            raise ValidationError(f"{self.name} requires a surrogate and a binary outcome")
        self.param_names = population.param_names
        self.truth = population.truth
        self.valid, self._fit, self._spaces = _ESTIMATORS[self.name]
        self.layout = _layout(population)

    def fit(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        freqs = frequency_stack(self.layout, counts, self._spaces)
        values, ok = self._fit(freqs)
        return values, ok & ~freqs.empty

    def point(self, counts: np.ndarray) -> np.ndarray:
        values, ok = self.fit(counts[None])
        if not ok[0]:
            raise InferenceError(f"singular design in the {self.name} point estimate")
        return values[0]

    def bootstrap(
        self, counts: np.ndarray, n_draws: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        stack = np.empty((1, 1 + n_draws) + counts.shape, dtype=np.int64)
        stack[0, 0] = counts
        keep = _resample_stacks(stack, [rng], self.valid)[0]
        values, ok = self.fit(stack[0, 1:])
        return values, keep & ok


#: Names of the built-in estimators, kept for their callers; each builds
#: whichever estimator the population names.
BinaryTransitionPipeline = CompositeTransitionPipeline = PrincipalFourStepPipeline = Pipeline


def default_pipeline(spec: DgpSpec, population: Population) -> Pipeline:
    """The estimator used for a case's headline parameters: the one its
    population names (``spec`` adds nothing to that)."""
    return Pipeline(population)


def compute_metrics(
    estimates: np.ndarray, ses: np.ndarray, truth: np.ndarray
) -> dict[str, np.ndarray]:
    """Bias, SD, ESE and CP95 from a replicate matrix.

    ESE is the square root of the mean estimated variance; CP95 counts
    coverage of ``point +- 1.96 * se`` intervals.
    """
    bias = estimates.mean(axis=0) - truth
    sd = estimates.std(axis=0, ddof=1)
    ese = np.sqrt((ses**2).mean(axis=0))
    covered = np.abs(estimates - truth) <= Z95 * ses
    return {"bias": bias, "sd": sd, "ese": ese, "cp95": covered.mean(axis=0)}


@dataclass(frozen=True)
class StudyResult:
    """Replicated-study output: metrics plus the full replicate matrix."""

    spec: DgpSpec
    pipeline: str
    param_names: tuple[str, ...]
    truth: np.ndarray
    replicates: int
    bootstrap_replicates: int
    seed: int
    estimates: np.ndarray
    ses: np.ndarray
    n_failed: int
    metrics: dict[str, np.ndarray] = field(default_factory=dict)


def _check_study(replicates: int, bootstrap_replicates: int, seed: int) -> None:
    inference.check_seed(seed)
    inference.check_integer("replicates", replicates)
    inference.check_integer("bootstrap_replicates", bootstrap_replicates)
    if replicates < 2:
        raise ValidationError("a study needs at least 2 replicates")
    if bootstrap_replicates < 2:
        raise ValidationError("bootstrap needs at least 2 replicates")


def _thread_count(workers: int | None) -> int:
    """Threads a study may use: ``workers``, or by default the CPUs this
    process may run on."""
    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    inference.check_integer("workers", workers)
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    return workers


def _run_chunks(
    cell_probs: np.ndarray,
    n_g: int,
    replicates: int,
    n_draws: int,
    seed: int,
    valid: Callable[[np.ndarray], np.ndarray],
    finish: Callable[[np.ndarray, np.ndarray, np.ndarray], None],
    threads: int,
) -> None:
    """Draw every study replicate and hand its chunk to ``finish``.

    Replicate ``i`` draws its observed counts, then ``n_draws`` resamples
    (redrawing those failing ``valid``), all from ``replicate_rng(seed, i)``.
    Chunks of ``max(1, inference._CHUNK // ((1 + n_draws) * cell_probs.size))``
    replicates (at most ``inference._CHUNK`` count cells unless one replicate
    holds more) are taken in order from one shared iterator by the calling
    thread and ``min(threads, chunks) - 1`` helper threads, so one thread
    starts none; ``finish(index, stacks, keep)`` gets a chunk's replicate
    indices, its ``(len(index), 1 + n_draws, m, cells)`` count stacks and
    ``(len(index), n_draws)`` keep mask, and stores its results by index.
    Once a chunk raises, no thread takes another; every helper is joined and
    the exception of the lowest-numbered failed chunk is raised. Warnings
    would race the caller's ``warnings.catch_warnings``, so floating-point
    ones are silenced.
    """

    def work(index: np.ndarray) -> None:
        rngs = [replicate_rng(seed, int(i)) for i in index]
        stacks = np.empty((len(index), 1 + n_draws) + cell_probs.shape, dtype=np.int64)
        with np.errstate(all="ignore"):
            for stack, rng in zip(stacks, rngs):
                stack[0] = _draw_counts(cell_probs, n_g, rng)
            finish(index, stacks, _resample_stacks(stacks, rngs, valid))

    size = max(1, inference._CHUNK // ((1 + n_draws) * cell_probs.size))
    chunks = [np.arange(i, min(i + size, replicates)) for i in range(0, replicates, size)]
    order = enumerate(chunks)
    lock = threading.Lock()
    errors: dict[int, Exception] = {}
    stopped = False

    def take_chunks() -> None:
        while True:
            with lock:
                if stopped or errors:
                    return
                number, index = next(order, (None, None))
            if index is None:
                return
            try:
                work(index)
            except Exception as exc:
                with lock:
                    errors[number] = exc
                return

    helpers = [
        threading.Thread(target=take_chunks) for _ in range(min(threads, len(chunks)) - 1)
    ]
    try:
        for helper in helpers:
            helper.start()
        take_chunks()
    finally:
        # An interrupt of the calling thread, or a helper that failed to
        # start, also stops the helpers that did.
        stopped = True
        for helper in helpers:
            if helper.ident is not None:
                helper.join()
    if errors:
        raise errors[min(errors)]


def _members(stacks: np.ndarray) -> np.ndarray:
    """The ``(n, 1 + B, m, cells)`` stacks as one ``(n * (1 + B), m, cells)``
    stack of count matrices."""
    return stacks.reshape((-1,) + stacks.shape[2:])


def run_study(
    spec: DgpSpec,
    replicates: int,
    bootstrap_replicates: int,
    seed: int,
    *,
    pipeline=None,
    workers: int | None = None,
) -> StudyResult:
    """Replicate a simulation case and summarize estimator performance.

    Per replicate: draw a dataset, estimate the case parameters, and
    attach bootstrap standard errors from ``bootstrap_replicates``
    stratified resamples. Replicate ``i`` draws everything from
    ``replicate_rng(seed, i)``. The points and resamples of a chunk of
    replicates are fitted as one stack, chunks spread over ``workers``
    threads, the calling thread among them (default: the usable CPUs); the
    result is bit-identical for any ``workers``. ``pipeline`` (default: the
    case's :class:`Pipeline`) needs what a :class:`Pipeline` has: ``name``,
    ``param_names``, ``truth``, ``valid`` (the resamples it accepts, redrawn
    otherwise) and ``fit``. A replicate fails when its point is undefined or
    fewer than 90% of its resamples are kept; more than 5% failed replicates
    abort the study.
    """
    _check_study(replicates, bootstrap_replicates, seed)
    threads = _thread_count(workers)
    population = dgp_population(spec)
    pipe = pipeline if pipeline is not None else default_pipeline(spec, population)
    width = len(pipe.param_names)
    estimates = np.full((replicates, width), np.nan)
    ses = np.full((replicates, width), np.nan)

    def finish(index, stacks, keep):
        values, ok = pipe.fit(_members(stacks))
        values = values.reshape(stacks.shape[:2] + (width,))
        ok = ok.reshape(stacks.shape[:2])
        for i, v, o, k in zip(index, values, ok, keep):
            k = k & o[1:]
            if o[0] and k.sum() >= 0.9 * bootstrap_replicates:
                estimates[i], ses[i] = v[0], v[1:][k].std(axis=0, ddof=1)

    _run_chunks(
        population.cell_probs, spec.n_g, replicates, bootstrap_replicates, seed,
        pipe.valid, finish, threads,
    )

    failed = np.isnan(estimates).any(axis=1) | np.isnan(ses).any(axis=1)
    n_failed = int(failed.sum())
    if n_failed > 0.05 * replicates:
        raise InferenceError(
            f"{n_failed} of {replicates} study replicates failed"
        )
    kept_est = estimates[~failed]
    kept_se = ses[~failed]
    return StudyResult(
        spec=spec,
        pipeline=pipe.name,
        param_names=tuple(pipe.param_names),
        truth=np.asarray(pipe.truth, dtype=float),
        replicates=replicates,
        bootstrap_replicates=bootstrap_replicates,
        seed=seed,
        estimates=kept_est,
        ses=kept_se,
        n_failed=n_failed,
        metrics=compute_metrics(kept_est, kept_se, np.asarray(pipe.truth, float)),
    )


def overid_size_study(
    spec: DgpSpec,
    replicates: int,
    bootstrap_replicates: int,
    seed: int,
    *,
    workers: int | None = None,
) -> np.ndarray:
    """P-values of the overidentification test across simulated replicates,
    each computed as ``test`` computes it: the statistic of
    :func:`~jointpo.summaries.overid_test` on the replicate's point fit.

    Each replicate bootstraps the per-trial residual standard errors: the
    spread, across every kept resample, of each trial's deviation from the
    point fit. A standard error below ``overid._EXACT_FIT_TOL`` counts
    as zero. Replicates are drawn and fitted in chunks over ``workers``
    threads as in :func:`run_study`, with bit-identical p-values for any
    ``workers``. A replicate gets NaN when its point fit is singular, it has
    fewer than 2 kept resamples, or a standard error is zero; every replicate
    gets NaN when the system is just identified (``m = 2``, no degrees of
    freedom).
    """
    from .overid import _j_statistics, chi2_sf

    _check_study(replicates, bootstrap_replicates, seed)
    threads = _thread_count(workers)
    population = dgp_population(spec)
    if population.has_surrogate:
        raise ValidationError("the size study runs on binary-outcome cases")
    pipe = Pipeline(population)
    m = population.cell_probs.shape[0]
    df = m - 2
    p_values = np.full(replicates, np.nan)

    def finish(index, stacks, keep):
        # Only the points are fitted; each resample's residual is its
        # deviation from its replicate's point fit.
        theta = pipe.fit(stacks[:, 0])[0]
        outcome = frequency_stack(pipe.layout, _members(stacks), ("outcome",)).outcome
        outcome = outcome.reshape(stacks.shape[:2] + outcome.shape[1:])
        design, freqs = outcome[..., 0, :], outcome[..., 1, :]
        residuals = freqs[..., 1] - (design @ theta[:, None, :, None])[..., 0]
        sigma = np.full((len(index), m), np.nan)
        for s, r, k in zip(sigma, residuals, keep):
            if k.sum() > 1:
                s[:] = r[1:][k].std(axis=0, ddof=1)
        for i, j in zip(index, _j_statistics(residuals[:, 0], sigma)[0]):
            p_values[i] = chi2_sf(float(j), df)

    if df > 0:
        _run_chunks(
            population.cell_probs, spec.n_g, replicates, bootstrap_replicates, seed,
            _arms_positive, finish, threads,
        )
    return p_values


def study_to_dict(result: StudyResult) -> dict:
    """JSON-ready summary of a study (metrics and configuration echo)."""
    metrics = result.metrics
    return {
        "config": {
            "case": result.spec.case,
            "m": result.spec.m,
            "n_g": result.spec.n_g,
            "treatment_prob": result.spec.treatment_prob,
            "replicates": result.replicates,
            "bootstrap_replicates": result.bootstrap_replicates,
            "seed": result.seed,
            "pipeline": result.pipeline,
        },
        "n_failed": result.n_failed,
        "parameters": [
            {
                "name": name,
                "truth": float(result.truth[j]),
                "bias": float(metrics["bias"][j]),
                "sd": float(metrics["sd"][j]),
                "ese": float(metrics["ese"][j]),
                "cp95": float(metrics["cp95"][j]),
            }
            for j, name in enumerate(result.param_names)
        ],
    }


def replicates_to_csv(result: StudyResult) -> str:
    """Long-format replicate matrix (estimate and bootstrap se per cell).

    Floats are written with ``repr`` so a read-back reproduces them
    bit-for-bit.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["replicate", "parameter", "estimate", "se"])
    for i in range(result.estimates.shape[0]):
        for j, name in enumerate(result.param_names):
            writer.writerow(
                [i, name, repr(float(result.estimates[i, j])), repr(float(result.ses[i, j]))]
            )
    return out.getvalue()


def read_replicates_csv(text: str) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Parse :func:`replicates_to_csv` output back into matrices."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ["replicate", "parameter", "estimate", "se"]:
        raise ValueError("unexpected replicate CSV header")
    cells: dict[tuple[int, str], tuple[float, float]] = {}
    names: list[str] = []
    max_rep = -1
    for rep, name, est, se in reader:
        i = int(rep)
        max_rep = max(max_rep, i)
        if name not in names:
            names.append(name)
        cells[(i, name)] = (float(est), float(se))
    estimates = np.empty((max_rep + 1, len(names)))
    ses = np.empty_like(estimates)
    for (i, name), (est, se) in cells.items():
        j = names.index(name)
        estimates[i, j] = est
        ses[i, j] = se
    return tuple(names), estimates, ses


def format_study_table(result: StudyResult) -> str:
    """Fixed-width text table of a study's Bias/SD/ESE/CP95 metrics."""
    lines = [
        f"case {result.spec.case}  n_g={result.spec.n_g}  "
        f"R={result.replicates}  B={result.bootstrap_replicates}",
        f"{'parameter':<22} {'truth':>8} {'Bias':>8} {'SD':>8} {'ESE':>8} {'CP95':>6}",
    ]
    met = result.metrics
    for j, name in enumerate(result.param_names):
        lines.append(
            f"{name:<22} {result.truth[j]:>8.3f} {met['bias'][j]:>8.3f} "
            f"{met['sd'][j]:>8.3f} {met['ese'][j]:>8.3f} {met['cp95'][j]:>6.3f}"
        )
    return "\n".join(lines) + "\n"
