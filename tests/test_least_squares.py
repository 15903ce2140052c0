"""The batched least-squares kernel against the SVD it stands in for.

``least_squares`` decides rank from a Frobenius bound on the QR factor and
falls back to the SVD only near the tolerance; its decision must still be
exactly ``m >= p`` and ``condition_ratios(design)[1] > 1e-8``, and forced
members must get the SVD minimum-norm solution.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointpo.data import summarize
from jointpo.errors import EstimationError
from jointpo.inference import replicate_rng, resample_dataset
from jointpo.simulate import DgpSpec, simulate_dataset
from jointpo.transition import build_system, check_rank, condition_ratios, least_squares

TOL = 1e-8


def _orthonormal(rng, n, k):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q[:, :k]


def _with_ratio(rng, m, p, ratio):
    """A random m x p design (m >= p) whose singular values run from 1 down
    to ``ratio``."""
    sv = np.geomspace(1.0, ratio, p) if p > 1 else np.ones(1)
    return _orthonormal(rng, m, p) @ np.diag(sv) @ _orthonormal(rng, p, p).T


def _stack(rng, m, p):
    """Designs of every kind the kernel must decide: well conditioned, with
    ratios through the band ``[1e-8 / p, 1e-8]`` where the bound is
    inconclusive and just beside the tolerance, far below it, with an exact
    zero column, a repeated column, and all zero."""
    members = [rng.random((m, p)) for _ in range(4)]
    if m >= p and p > 1:
        band = np.geomspace(TOL / p / 2, TOL * 2, 10)
        edges = TOL * np.array([1 - 1e-6, 1 + 1e-6])
        for ratio in np.concatenate([band, edges, [1e-13, 1e-3]]):
            members.append(_with_ratio(rng, m, p, ratio) * rng.uniform(0.01, 100))
    if p > 1:
        zero_col = rng.random((m, p))
        zero_col[:, rng.integers(p)] = 0.0
        repeated = rng.random((m, p))
        repeated[:, -1] = repeated[:, 0]
        members += [zero_col, repeated]
    members.append(np.zeros((m, p)))
    return np.stack(members)


def _svd_min_norm(design, rhs):
    # The minimum-norm solution with the singular-value cutoff of
    # np.linalg.lstsq, one member at a time.
    out = []
    for a, b in zip(design, rhs):
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        keep = s > np.finfo(float).eps * max(a.shape) * s[0]
        out.append(vt[keep].T @ ((u[:, keep].T @ b) / s[keep, None]))
    return np.stack(out)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.integers(1, 4), extra=st.integers(-2, 8))
def test_rank_decision_and_solutions(seed, p, extra):
    rng = np.random.default_rng(seed)
    m = max(1, p + extra)
    design = _stack(rng, m, p)
    rhs = rng.standard_normal((len(design), m, 2))

    coef, identified = least_squares(design, rhs)
    expected = (m >= p) & (condition_ratios(design)[1] > TOL)
    np.testing.assert_array_equal(identified, expected)
    assert np.isnan(coef[~identified]).all()
    assert np.isfinite(coef[identified]).all()

    # Well-conditioned members solve the normal equations.
    well = identified & (condition_ratios(design)[1] > 1e-3)
    for a, b, x in zip(design[well], rhs[well], coef[well]):
        scale = max(1.0, np.abs(a.T @ b).max())
        np.testing.assert_allclose(a.T @ a @ x, a.T @ b, rtol=0, atol=1e-9 * scale)

    forced, forced_ok = least_squares(design, rhs, force=True)
    np.testing.assert_array_equal(forced_ok, identified)
    np.testing.assert_array_equal(forced[identified], coef[identified])
    reference = _svd_min_norm(design[~identified], rhs[~identified])
    for x, ref in zip(forced[~identified], reference):
        np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max()))


def test_exactly_rank_deficient_forced_matches_lstsq():
    rng = np.random.default_rng(5)
    design = rng.random((3, 6, 3))
    design[0, :, 1] = 0.0
    design[1, :, 2] = design[1, :, 0] + design[1, :, 1]
    rhs = rng.random((3, 6, 1))
    coef, identified = least_squares(design, rhs, force=True)
    np.testing.assert_array_equal(identified, [False, False, True])
    for a, b, x in zip(design, rhs, coef):
        np.testing.assert_allclose(x, np.linalg.lstsq(a, b, rcond=None)[0], atol=1e-12)


def test_more_columns_than_rows_is_never_identified():
    rng = np.random.default_rng(1)
    design = rng.random((4, 3, 4))
    rhs = rng.random((4, 3, 4))
    coef, identified = least_squares(design, rhs)
    assert not identified.any() and np.isnan(coef).all()
    forced, _ = least_squares(design, rhs, force=True)
    for a, b, x in zip(design, rhs, forced):
        np.testing.assert_allclose(x, np.linalg.lstsq(a, b, rcond=None)[0], atol=1e-12)


def test_leading_dimensions_are_kept():
    rng = np.random.default_rng(2)
    coef, identified = least_squares(rng.random((2, 3, 5, 2)), rng.random((2, 3, 5, 1)))
    assert coef.shape == (2, 3, 2, 1) and identified.shape == (2, 3)


# The datasets, seeds and replicate counts of the bootstrap equivalence
# tests that solve transitions: (case, n_g, m, seed, replicates, space,
# mono_s, mono_y).
RESAMPLED = [
    row
    for seed in (3, 11)
    for row in (
        ("c1", 150, 10, seed, 40, "outcome", False, False),
        ("c3", 120, 10, seed, 40, "surrogate", False, False),
        ("c3", 100, 10, seed, 40, "composite", True, True),
        ("c3", 200, 10, seed, 30, "composite", False, False),
        ("c3", 200, 10, seed, 30, "composite", True, True),
    )
] + [
    ("c4", 300, 3, 2, 30, "composite", False, True),
    ("c3", 150, 10, 4, 40, "surrogate", False, False),
    ("c3", 150, 10, 4, 40, "outcome", False, False),
    ("c1", 20, 3, 2, 200, "outcome", False, False),
]


@pytest.mark.parametrize("case, n_g, m, seed, n, space, mono_s, mono_y", RESAMPLED)
def test_decisions_equal_check_rank_on_resamples(case, n_g, m, seed, n, space, mono_s, mono_y):
    # The first draw of every replicate.
    ds = simulate_dataset(DgpSpec(case=case, n_g=n_g, m=m), seed=seed)
    for i in range(n):
        try:
            s = summarize(resample_dataset(ds, replicate_rng(seed, i)))
        except EstimationError:
            continue
        system = build_system(s, space, mono_s=mono_s, mono_y=mono_y)
        diag = check_rank(system)
        if not system.is_masked:
            _, ok = least_squares(system.design[None], system.response[None])
            assert bool(ok[0]) == diag.satisfied
            continue
        for b, column in enumerate(diag.columns[:-1]):
            idx = np.flatnonzero(system.support_mask[:, b])
            design = system.design[None, :, idx]
            _, ok = least_squares(design, system.response[None, :, b, None])
            assert bool(ok[0]) == column.satisfied
