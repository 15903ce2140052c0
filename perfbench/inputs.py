"""Seeded, local input generation for the benchmark workloads.

Every input is drawn from the workload seed alone, so the same seed gives
byte-identical files. Nothing is downloaded. Each generator says why the
input exists.

The built-in simulation cases only cover ``m <= 16`` trials (their control
success ``0.5 + (m - 1) / 30`` must stay at most 1), so the many-trial
tables come from this module's own generator instead of ``simulate_dataset``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

#: Per-trial size and trial count of the built-in-case tables.
CASE_NG = 2000
CASE_M = 10
#: Units per arm and trial counts of the many-trial, three-category tables.
WIDE_UNITS_PER_ARM = 1000
WIDE_M = 2000
WIDE_BOOT_M = 500
WIDE_K = 3
#: Unit-level rows for ``parse_unit_rows``: 10 trials of 50k units each.
UNIT_TRIALS = 10
UNIT_ROWS_PER_TRIAL = 50_000


def derive_seed(seed: int, *path: int) -> int:
    """A 31-bit seed for one input or command, derived from the workload seed."""
    state = np.random.SeedSequence([seed, *path]).generate_state(1)[0]
    return int(state) & 0x7FFFFFFF


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def case_table(case: str, seed: int, workdir: Path, *, with_target: bool = False):
    """A built-in-case table at ``n_g=2000``, ``m=10``.

    Why: these are the sizes of the ROADMAP baseline, so every bootstrap
    replicate costs what a user of the README commands pays. ``with_target``
    appends a control-only trial ``0`` so that ``target`` has a population to
    transport to. Returns the file path and the dataset's counts tensor.
    """
    from jointpo.data import MultiTrialDataset, TrialCellCounts, serialize_dataset
    from jointpo.simulate import DgpSpec, simulate_dataset

    ds = simulate_dataset(DgpSpec(case=case, n_g=CASE_NG, m=CASE_M), seed)
    if with_target:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        control = rng.multinomial(CASE_NG, [0.35, 0.65])
        target = TrialCellCounts(
            trial_id="0",
            counts=np.array([control, [0, 0]]),
            is_target=True,
        )
        ds = MultiTrialDataset(trials=ds.trials, target=target)
    path = _write(workdir / f"{case}.csv", serialize_dataset(ds))
    return path, ds.counts_tensor()


def wide_counts(seed: int, m: int = WIDE_M) -> np.ndarray:
    """Cell counts ``(m, 2 * k)`` of many trials with a three-category outcome.

    Why: the bootstrap's per-replicate cost scales with the trial count, and
    a 1.4 MB report makes serialization visible; ``k = 3`` is covered by no
    other workload. One trial-invariant transition (rows mixed towards
    uniform so no entry sits near 0 or 1) maps Dirichlet control marginals
    to treated ones, with 1000 units per arm. The first ``n`` trials of a
    draw equal the draw at ``m = n``.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    transition = 0.7 * rng.dirichlet(np.full(WIDE_K, 2.0), size=WIDE_K) + 0.1
    out = np.empty((m, 2 * WIDE_K), dtype=np.int64)
    for g in range(m):
        control = rng.dirichlet(np.full(WIDE_K, 2.0))
        out[g, :WIDE_K] = rng.multinomial(WIDE_UNITS_PER_ARM, control)
        out[g, WIDE_K:] = rng.multinomial(WIDE_UNITS_PER_ARM, control @ transition)
    return out


def counts_csv(counts: np.ndarray) -> str:
    """Cell-count CSV of an ``(m, 2 * k)`` tensor without a surrogate."""
    m, cells = counts.shape
    k = cells // 2
    lines = ["trial,arm,s,y,count"]
    for g in range(m):
        for arm in (0, 1):
            for y in range(k):
                lines.append(f"{g + 1},{arm},NA,{y},{counts[g, arm * k + y]}")
    return "\n".join(lines) + "\n"


def wide_tables(seed: int, workdir: Path):
    """The ``m=2000`` table and its ``m=500`` prefix, with their counts."""
    counts = wide_counts(seed)
    big = _write(workdir / "wide2000.csv", counts_csv(counts))
    small_counts = counts[:WIDE_BOOT_M]
    small = _write(workdir / "wide500.csv", counts_csv(small_counts))
    return (big, counts), (small, small_counts)


def unit_rows(seed: int, workdir: Path):
    """500k unit rows (binary outcome, ``s=NA``) in shuffled order.

    Why: ``parse_unit_rows`` walks one CSV row per unit, so this is the
    input size at which parsing, not start-up, sets the time. Returns the
    path and the expected ``(trials, 4)`` aggregated counts.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    n = UNIT_TRIALS * UNIT_ROWS_PER_TRIAL
    trial = np.repeat(np.arange(UNIT_TRIALS), UNIT_ROWS_PER_TRIAL)
    arm = rng.integers(0, 2, size=n)
    success = 0.3 + 0.4 * rng.random(UNIT_TRIALS)
    lift = np.where(arm == 1, 0.1, 0.0)
    y = (rng.random(n) < success[trial] + lift).astype(np.int64)
    order = rng.permutation(n)
    cell = 4 * trial + 2 * arm + y
    table = np.array(
        [f"{g + 1},{a},NA,{v}" for g in range(UNIT_TRIALS) for a in (0, 1) for v in (0, 1)]
    )
    text = "trial,arm,s,y\n" + "\n".join(table[cell[order]].tolist()) + "\n"
    path = _write(workdir / "units.csv", text)
    expected = np.bincount(cell, minlength=4 * UNIT_TRIALS).reshape(UNIT_TRIALS, 4)
    return path, expected
