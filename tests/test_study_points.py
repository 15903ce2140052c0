"""The Monte Carlo studies fit the estimator the CLI ships: a study point
equals member 0 of the CLI statistic on the replicate's counts, bit for bit."""

import numpy as np
import pytest

from jointpo.commands.estimate import estimate_estimator
from jointpo.commands.psace import psace_estimator
from jointpo.data import frequency_stack
from jointpo.errors import ValidationError
from jointpo.inference import replicate_rng
from jointpo.principal import method1_stack
from jointpo.simulate import (
    DgpSpec,
    Pipeline,
    Population,
    _draw_counts,
    dgp_population,
    run_study,
    simulate_dataset,
)

N_G = 500
REPLICATES = 200
SEED = 0


def _cli_point(case, dataset):
    tensor = dataset.counts_tensor()[None]
    if case == "c1":
        fit = estimate_estimator(dataset, "outcome", np.ones((2, 2), dtype=bool)).fit(tensor)
        return fit.values[0][[1, 3]]
    if case == "c3":
        fit = estimate_estimator(dataset, "composite", np.ones((4, 4), dtype=bool)).fit(tensor)
        probs = fit.values[0][:16].reshape(4, 4)
        return np.concatenate([probs[:, 2] + probs[:, 3], probs[:, 1] + probs[:, 3]])
    treated, control, status = method1_stack(frequency_stack(dataset, tensor), dataset.m)
    assert status[0] == 0
    effects = psace_estimator(dataset, 1).fit(tensor).values[0].reshape(dataset.m, 4)
    np.testing.assert_array_equal(effects[0, [0, 1, 3]], treated[0] - control[0])
    return np.concatenate([treated[0], control[0], treated[0] - control[0]])


@pytest.mark.parametrize("case", ("c1", "c3", "c4"))
def test_study_points_equal_cli_member_zero(case):
    spec = DgpSpec(case=case, n_g=N_G)
    population = dgp_population(spec)
    layout = simulate_dataset(spec, 0)
    result = run_study(spec, REPLICATES, 2, SEED, workers=1)
    assert result.n_failed == 0
    differ = 0
    for i, point in enumerate(result.estimates):
        counts = _draw_counts(population.cell_probs, N_G, replicate_rng(SEED, i))
        differ += not np.array_equal(point, _cli_point(case, layout.with_counts(counts)))
    assert differ == 0


def _k3_population(estimator):
    cells = np.random.default_rng(0).dirichlet(np.ones(12), size=10)
    width = 9 if estimator else 8
    return Population(
        cell_probs=cells,
        truth=np.zeros(width),
        param_names=tuple(f"p{i}" for i in range(width)),
        has_surrogate=True,
        outcome_cardinality=3,
        estimator=estimator,
    )


@pytest.mark.parametrize("estimator", (None, "composite-transition", "principal-four-step"))
def test_surrogate_estimators_reject_a_non_binary_outcome(estimator):
    population = _k3_population(estimator)
    with pytest.raises(ValidationError, match="requires a surrogate and a binary outcome"):
        Pipeline(population)
    spec = DgpSpec(case="custom", n_g=300, custom=population)
    with pytest.raises(ValidationError, match="requires a surrogate and a binary outcome"):
        run_study(spec, 4, 4, 1)


def test_surrogate_estimators_reject_a_population_without_surrogate():
    base = dgp_population(DgpSpec(case="c1", n_g=100))
    for estimator in ("composite-transition", "principal-four-step"):
        population = Population(
            cell_probs=base.cell_probs,
            truth=base.truth,
            param_names=base.param_names,
            has_surrogate=False,
            estimator=estimator,
        )
        with pytest.raises(ValidationError, match="requires a surrogate"):
            Pipeline(population)


def test_per_trial_size_beyond_int64_is_rejected():
    assert DgpSpec(case="c1", n_g=2**63 - 1).n_g == 2**63 - 1
    for n_g in (2**63, 10**29):
        with pytest.raises(ValidationError, match="exceeds 2\\*\\*63 - 1"):
            DgpSpec(case="c1", n_g=n_g)
