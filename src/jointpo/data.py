"""Contingency-table data model for multi-trial randomized experiments.

The canonical on-disk format is a CSV of cell counts with the header

    trial,arm,s,y,count

where ``arm`` is 0 (control) or 1 (treated), ``s`` is a binary
post-treatment variable or the literal ``NA`` when no such variable was
recorded (uniformly across the file), ``y`` is the outcome category
``0..k-1`` and ``count`` a nonnegative base-10 integer. Integer fields
must read ``[+-]?[0-9]+`` once surrounding whitespace is stripped (no
digit-group underscores, no non-ASCII digits). Duplicate cell rows are
summed. Counts are held as int64, so a count, and the sum of a trial's
counts, may not exceed ``2**63 - 1``. Trials keep their order of first
appearance.

Parsing validates each distinct raw line (or multi-line record) once, at
its first appearance, and only counts its repeats in blocks, so its Python
work grows with the number of distinct lines rather than of rows, and an
error names the first line holding the offending row.

The package exports its names lazily, and this module imports only
``errors`` from it: ``jointpo.parse_dataset`` and ``jointpo.parse_unit_rows``
load these two submodules and no other.

A trial labeled ``0`` (configurable) designates a control-only target
population: it may contain control rows only and is kept separate from
the experimental trials.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import NamedTuple, TextIO

import numpy as np

from .errors import (
    EstimationError,
    ParseError,
    SchemaError,
    ValidationError,
)

#: Fixed ordering of the composite (S, Y) state space used everywhere a
#: 4-state system appears: index = 2 * s + y.
COMPOSITE_STATES: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))

#: The state spaces of a :class:`FrequencyStack`, in field order.
STATE_SPACES = ("outcome", "surrogate", "composite")

#: Largest count, and largest sum of one trial's counts, that int64 holds.
_MAX_COUNT = 2**63 - 1


class ColumnSchema(NamedTuple):
    """Column naming configuration for tabular inputs."""

    trial: str = "trial"
    arm: str = "arm"
    surrogate: str = "s"
    outcome: str = "y"
    count: str = "count"
    na_token: str = "NA"
    target_label: str = "0"

    def header(self, with_count: bool = True) -> list[str]:
        cols = [self.trial, self.arm, self.surrogate, self.outcome]
        if with_count:
            cols.append(self.count)
        return cols


DEFAULT_SCHEMA = ColumnSchema()


@dataclass(frozen=True)
class TrialCellCounts:
    """Cell counts of one trial.

    ``counts`` has shape ``(2, k)`` without a surrogate or ``(2, 2, k)``
    with one; the leading axis is the treatment arm and, when present,
    the middle axis is the surrogate value.
    """

    trial_id: str
    counts: np.ndarray
    is_target: bool = False

    def __post_init__(self):
        arr = np.asarray(self.counts)
        if not np.issubdtype(arr.dtype, np.integer):
            if not np.all(arr == np.floor(arr)):
                raise ValidationError(
                    f"trial {self.trial_id!r}: cell counts must be integers"
                )
            arr = arr.astype(np.int64)
        else:
            arr = arr.astype(np.int64, copy=True)
        if arr.ndim not in (2, 3) or arr.shape[0] != 2:
            raise ValidationError(
                f"trial {self.trial_id!r}: counts must have shape (2, k) or (2, 2, k)"
            )
        if arr.ndim == 3 and arr.shape[1] != 2:
            raise ValidationError(
                f"trial {self.trial_id!r}: the surrogate axis must be binary"
            )
        if (arr < 0).any():
            raise ValidationError(f"trial {self.trial_id!r}: negative cell count")
        if self.is_target and arr[1].sum() > 0:
            raise ValidationError(
                f"target trial {self.trial_id!r} must contain control rows only"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    @classmethod
    def _parsed(cls, trial_id: str, counts: np.ndarray) -> "TrialCellCounts":
        """An experimental trial over a parser-built block row: a read-only,
        nonnegative int64 array of a valid shape, which ``__post_init__``
        would only copy and re-check."""
        cell = object.__new__(cls)
        object.__setattr__(cell, "trial_id", trial_id)
        object.__setattr__(cell, "counts", counts)
        object.__setattr__(cell, "is_target", False)
        return cell

    @property
    def has_surrogate(self) -> bool:
        return self.counts.ndim == 3

    @property
    def outcome_cardinality(self) -> int:
        return self.counts.shape[-1]

    @property
    def arm_totals(self) -> tuple[int, int]:
        flat = self.counts.reshape(2, -1)
        return int(flat[0].sum()), int(flat[1].sum())

    @property
    def n(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class MultiTrialDataset:
    """An ordered collection of experimental trials plus an optional
    control-only target trial."""

    trials: tuple[TrialCellCounts, ...]
    target: TrialCellCounts | None = None

    def __post_init__(self):
        if not self.trials:
            raise ValidationError("a dataset needs at least one experimental trial")
        labels = [t.trial_id for t in self.trials]
        if self.target is not None:
            labels.append(self.target.trial_id)
        if len(set(labels)) != len(labels):
            raise ValidationError("trial labels must be unique")
        everything = list(self.trials) + ([self.target] if self.target else [])
        k = everything[0].outcome_cardinality
        surr = everything[0].has_surrogate
        for t in everything:
            if t.outcome_cardinality != k:
                raise ValidationError(
                    "outcome cardinality must be identical across trials"
                )
            if t.has_surrogate != surr:
                raise SchemaError(
                    "surrogate presence must be uniform across the dataset"
                )
        if self.target is not None and not self.target.is_target:
            raise ValidationError("the target trial must be flagged as such")

    @property
    def m(self) -> int:
        return len(self.trials)

    @property
    def outcome_cardinality(self) -> int:
        return self.trials[0].outcome_cardinality

    @property
    def has_surrogate(self) -> bool:
        return self.trials[0].has_surrogate

    @property
    def trial_ids(self) -> tuple[str, ...]:
        return tuple(t.trial_id for t in self.trials)

    @property
    def all_trials(self) -> tuple[TrialCellCounts, ...]:
        if self.target is None:
            return self.trials
        return self.trials + (self.target,)

    def counts_tensor(self) -> np.ndarray:
        """All trials' cells as an ``(n_trials, cells)`` integer matrix.

        The target trial, when present, is the last row. Cell order is
        row-major over ``(arm[, surrogate], outcome)``.
        """
        return np.stack([t.counts.reshape(-1) for t in self.all_trials])

    def with_counts(self, tensor: np.ndarray) -> "MultiTrialDataset":
        """Rebuild the dataset with replacement counts from :meth:`counts_tensor` layout."""
        shape = self.trials[0].counts.shape
        new = [
            replace(t, counts=row.reshape(shape))
            for t, row in zip(self.all_trials, np.asarray(tensor))
        ]
        if self.target is not None:
            return MultiTrialDataset(trials=tuple(new[:-1]), target=new[-1])
        return MultiTrialDataset(trials=tuple(new))


class TrialSummary(NamedTuple):
    """Per-trial conditional frequency vectors.

    Each vector is the exact ratio ``cell count / arm total``. The
    treated-side vectors are ``None`` for the control-only target trial.
    Composite vectors follow :data:`COMPOSITE_STATES` ordering.
    """

    trial_id: str
    is_target: bool
    arm_sizes: tuple[int, int]
    control_outcome: np.ndarray
    treated_outcome: np.ndarray | None
    control_surrogate: np.ndarray | None = None
    treated_surrogate: np.ndarray | None = None
    control_composite: np.ndarray | None = None
    treated_composite: np.ndarray | None = None


class Summaries(NamedTuple):
    """Sufficient statistics of a dataset: one :class:`TrialSummary` per
    experimental trial, plus the target trial's control-side summary."""

    trials: tuple[TrialSummary, ...]
    target: TrialSummary | None
    outcome_cardinality: int
    has_surrogate: bool

    @property
    def m(self) -> int:
        return len(self.trials)

    @property
    def trial_ids(self) -> tuple[str, ...]:
        return tuple(t.trial_id for t in self.trials)

    def arm_sizes(self) -> np.ndarray:
        return np.array([t.arm_sizes for t in self.trials], dtype=np.int64)

    def frequencies(self) -> FrequencyStack:
        """The experimental trials' vectors as a :class:`FrequencyStack` of
        one member, the form the estimators take."""

        def arms(space: str):
            if space != "outcome" and not self.has_surrogate:
                return None
            sides = (f"control_{space}", f"treated_{space}")
            return np.array([[getattr(t, side) for side in sides] for t in self.trials])[None]

        empty = np.zeros(1, dtype=bool)
        return FrequencyStack(self.arm_sizes()[None], empty, *map(arms, STATE_SPACES))


def _open_source(source) -> tuple[TextIO, bool]:
    if hasattr(source, "read"):
        return source, False
    if isinstance(source, (str, Path)):
        # "utf-8-sig" drops the byte-order mark of Excel's "CSV UTF-8" export.
        return open(source, "r", encoding="utf-8-sig", newline=""), True
    raise TypeError("source must be a text stream or a path")


def _parse_int(text: str, what: str, line: int) -> int:
    """``text`` as an integer, if it is ``[+-]?[0-9]+`` once stripped.

    ``int`` alone would also take digit-group underscores and non-ASCII
    digits.
    """
    text = text.strip()
    if text.isascii() and "_" not in text:
        try:
            return int(text)
        except ValueError:
            pass
    raise ParseError(f"{what} {text!r} is not a base-10 integer", line)


def _rows_to_dataset(
    parsed: dict[str, tuple[str, int, int, int, int]],
    tally: dict[str, int],
    has_surrogate: bool,
    max_y: int,
    schema: ColumnSchema,
) -> MultiTrialDataset:
    """Fold each distinct record's ``(trial, arm, s, y, count)`` (``s`` is
    0 without a surrogate) times the number of times it appeared into one
    count block per trial, whose sum must fit int64."""
    k = max_y + 1
    if k < 2:
        raise ValidationError("the outcome must have at least two categories")
    shape = (2, 2, k) if has_surrogate else (2, k)
    states = 2 if has_surrogate else 1
    width = 2 * states * k
    index: dict[str, int] = {}
    totals: dict[int, int] = {}
    units: dict[str, int] = {}
    for key, (trial, arm, s, y, count) in parsed.items():
        g = index.setdefault(trial, len(index))
        cell = g * width + (states * arm + s) * k + y
        n = count * tally[key]
        totals[cell] = totals.get(cell, 0) + n
        units[trial] = units.get(trial, 0) + n
    for trial, n in units.items():
        if n > _MAX_COUNT:
            raise ValidationError(
                f"trial {trial!r}: its counts sum to {n}, beyond 2**63 - 1"
            )
    block = np.zeros((len(index),) + shape, dtype=np.int64)
    block.reshape(-1)[list(totals)] = list(totals.values())
    block.flags.writeable = False
    trials: list[TrialCellCounts] = []
    target: TrialCellCounts | None = None
    for trial_id, counts in zip(index, block):
        if trial_id == schema.target_label:
            target = TrialCellCounts(trial_id=trial_id, counts=counts, is_target=True)
        else:
            trials.append(TrialCellCounts._parsed(trial_id, counts))
    if not trials:
        raise ValidationError("no experimental trials found in input")
    return MultiTrialDataset(trials=tuple(trials), target=target)


#: Characters per block that the parser reads with ``readlines``: a block
#: is tallied in one ``Counter`` call, and its lines are small strings.
_BLOCK_HINT = 1 << 16


def _check_row(
    row: list[str],
    line: int,
    schema: ColumnSchema,
    with_count: bool,
    surrogate_seen: bool | None,
) -> tuple[str, int, int, int, int, bool] | None:
    """A row's ``(trial, arm, s, y, count, has_surrogate)``, or None for a
    blank row; raises the first check the row fails, naming ``line``.

    ``surrogate_seen`` is the surrogate presence that the first data row
    fixed (None before it). The checks read nothing else and change
    nothing, so running them again on a row raises the same error.
    """
    if not row or (len(row) == 1 and not row[0].strip()):
        return None
    width = 5 if with_count else 4
    if len(row) != width:
        raise ParseError(f"expected {width} fields, got {len(row)}", line)
    trial = row[0].strip()
    if not trial:
        raise ParseError("empty trial label", line)
    arm = _parse_int(row[1], "arm", line)
    if arm not in (0, 1):
        raise ParseError(f"arm must be 0 or 1, got {arm}", line)
    has_s = row[2].strip() != schema.na_token
    if has_s:
        s = _parse_int(row[2], "surrogate", line)
        if s not in (0, 1):
            raise ParseError(f"surrogate must be 0, 1 or NA, got {s}", line)
    else:
        s = 0
    if surrogate_seen is not None and surrogate_seen != has_s:
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
    if count > _MAX_COUNT:
        raise ValidationError(
            f"line {line}: count {count} for trial {trial!r} exceeds 2**63 - 1"
        )
    return trial, arm, s, y, count, has_s


def _csv_records(lines, offset: int = 0):
    """``(number of its last line, row)`` of each record that ``csv.reader``
    reads from ``lines``, counting lines after ``offset``.

    A ``csv.Error`` (a lone ``\r`` inside a line of a text stream, say) is
    raised as a :class:`ParseError` naming the line it was read from.
    """
    reader = csv.reader(lines)
    try:
        for row in reader:
            yield offset + reader.line_num, row
    except csv.Error as exc:
        raise ParseError(str(exc), offset + reader.line_num) from None


def _quoted_records(stream: TextIO, block: list[str], offset: int):
    """Each record of ``block``, the block after ``offset`` lines, as ``(raw
    text, number of its last line, row)``, for a block holding a quote
    character.

    A quoted field still open at the block's end reads on from ``stream``,
    appending the lines it takes to ``block``, which then ends at the first
    record boundary after its old end.
    """
    end = 0

    def read_on():
        while end < len(block):
            more = stream.readlines(_BLOCK_HINT)
            if not more:
                return
            block.extend(more)
            yield from more

    start = 0
    for line, row in _csv_records(chain(block, read_on()), offset):
        end = line - offset
        yield block[start] if end - start == 1 else "".join(block[start:end]), line, row
        start = end


def _parse_rows(
    source, schema: ColumnSchema, with_count: bool
) -> MultiTrialDataset:
    """Validate each distinct record at its first line, tally the repeats.

    The stream is read in blocks of lines. In the default dialect a line
    without a quote character is exactly one record, and identical lines
    are identical rows, so a block without one is tallied by raw line in
    one ``Counter`` call, and only the first appearance of a line goes
    through ``csv`` and the checks. A block with one goes record by record,
    a multi-line record keyed by its joined lines. Different spellings of
    one row (CRLF against LF, say) are checked apart and fold into one cell.

    Every check depends only on the row and on the surrogate presence the
    first data row fixes, so the first line that fails is the first
    appearance of its record: a repeat needs no second check, and errors
    name the same line as a row-by-row scan would (a multi-line record's
    last line, as ``csv`` counts it).
    """
    stream, owned = _open_source(source)
    try:
        try:
            offset, header = next(_csv_records(stream))
        except StopIteration:
            raise ParseError("input is empty", 1) from None
        expected = schema.header(with_count)
        if [h.strip() for h in header] != expected:
            raise SchemaError(
                f"expected header {','.join(expected)!r}, got {','.join(header)!r}"
            )
        tally: dict[str, int] = {}
        parsed: dict[str, tuple[str, int, int, int, int]] = {}
        surrogate_seen: bool | None = None
        max_y = -1

        def admit(key: str, row: list[str], line: int) -> None:
            nonlocal surrogate_seen, max_y
            checked = _check_row(row, line, schema, with_count, surrogate_seen)
            if checked is not None:
                *cell, surrogate_seen = checked
                max_y = max(max_y, cell[3])
                parsed[key] = tuple(cell)

        # ``offset`` counts the lines before the current block.
        while block := stream.readlines(_BLOCK_HINT):
            counts = Counter(block)
            if any('"' in raw for raw in counts):
                for key, line, row in _quoted_records(stream, block, offset):
                    seen = tally.get(key)
                    tally[key] = (seen or 0) + 1
                    if seen is None:
                        admit(key, row, line)
            else:
                fresh = []
                for raw, n in counts.items():
                    seen = tally.get(raw)
                    if seen is None:
                        fresh.append(raw)
                    tally[raw] = (seen or 0) + n
                rows = csv.reader(fresh)
                try:
                    for raw, row in zip(fresh, rows):
                        try:
                            admit(raw, row, 0)
                        except ValidationError:
                            # The line number is looked up only here;
                            # checking again names it in the same error.
                            admit(raw, row, offset + block.index(raw) + 1)
                            raise
                except csv.Error as exc:
                    # Each of these lines is one record: the reader failed
                    # on line ``rows.line_num`` of ``fresh``.
                    raw = fresh[rows.line_num - 1]
                    raise ParseError(str(exc), offset + block.index(raw) + 1) from None
            offset += len(block)
        if not parsed:
            raise ParseError("no data rows in input", offset)
        return _rows_to_dataset(parsed, tally, bool(surrogate_seen), max_y, schema)
    finally:
        if owned:
            stream.close()


def parse_dataset(source, schema: ColumnSchema = DEFAULT_SCHEMA) -> MultiTrialDataset:
    """Parse a cell-count CSV into a :class:`MultiTrialDataset`.

    ``source`` may be an open text stream or a filesystem path; a path is
    read as UTF-8, skipping a leading byte-order mark.
    """
    return _parse_rows(source, schema, with_count=True)


def parse_unit_rows(source, schema: ColumnSchema = DEFAULT_SCHEMA) -> MultiTrialDataset:
    """Parse long-format unit rows (one row per individual, no count column)
    and aggregate them into cell counts.

    Identical lines are validated once and then only counted, so parsing
    costs little more than reading the CSV when units share few distinct
    lines; an error names the first line holding the offending row.
    """
    return _parse_rows(source, schema, with_count=False)


def serialize_dataset(
    dataset: MultiTrialDataset, schema: ColumnSchema = DEFAULT_SCHEMA
) -> str:
    """Render a dataset back to its canonical CSV representation.

    Every cell is written, including zero counts, so the outcome
    cardinality and surrogate presence survive a round trip.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(schema.header())
    k = dataset.outcome_cardinality
    for trial in dataset.all_trials:
        arms = (0,) if trial.is_target else (0, 1)
        for arm in arms:
            if dataset.has_surrogate:
                for s in (0, 1):
                    for y in range(k):
                        writer.writerow(
                            [trial.trial_id, arm, s, y, int(trial.counts[arm, s, y])]
                        )
            else:
                for y in range(k):
                    writer.writerow(
                        [trial.trial_id, arm, schema.na_token, y, int(trial.counts[arm, y])]
                    )
    return out.getvalue()


class FrequencyStack(NamedTuple):
    """Per-arm state frequencies of a stack of count tensors.

    Every array is indexed ``(member, trial, arm, ...)`` with trials in
    :meth:`MultiTrialDataset.counts_tensor` order (the target trial, when
    present, last). ``sizes`` holds the integer arm totals; the frequency
    arrays are the exact ratios :func:`summarize` computes, NaN for an empty
    arm. ``surrogate`` and ``composite`` are None without a surrogate, and
    any space is None when :func:`frequency_stack` was not asked for it.
    ``empty`` flags the members on which :func:`summarize` raises: an
    experimental trial with an empty arm, or a target with no control units.
    """

    sizes: np.ndarray
    empty: np.ndarray
    outcome: np.ndarray
    surrogate: np.ndarray | None
    composite: np.ndarray | None

    def space(self, name: str) -> np.ndarray:
        return getattr(self, name)

    def select(self, members: np.ndarray) -> "FrequencyStack":
        """The stack of the given members only."""
        arrays = (self.sizes, self.empty, self.outcome, self.surrogate, self.composite)
        return FrequencyStack(*(None if a is None else a[members] for a in arrays))


def _sum_last(counts: np.ndarray) -> np.ndarray:
    """``counts.sum(axis=-1)`` by slice additions, faster than reducing a short axis."""
    total = counts[..., 0]
    for j in range(1, counts.shape[-1]):
        total = total + counts[..., j]
    return total


def frequency_stack(
    dataset: MultiTrialDataset,
    tensor: np.ndarray,
    spaces: tuple[str, ...] = STATE_SPACES,
) -> FrequencyStack:
    """Frequencies of the state ``spaces`` (by default all three) for a
    ``(B, n_trials, cells)`` stack of count tensors laid out like
    ``dataset.counts_tensor()``: the package's one division of counts by arm
    sizes. A space not in ``spaces`` is None; those built are the same
    arrays whichever others are asked for."""
    unknown = set(spaces) - set(STATE_SPACES)
    if unknown:
        raise ValidationError(f"unknown state spaces: {', '.join(sorted(unknown))}")
    tensor = np.asarray(tensor)
    arms = tensor.reshape(tensor.shape[:2] + (2, -1))
    sizes = _sum_last(arms)
    outcome = surrogate = composite = None
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = sizes[..., None]
        if not dataset.has_surrogate:
            if "outcome" in spaces:
                outcome = arms / scale
        else:
            cells = arms.reshape(arms.shape[:3] + (2, -1))
            if "outcome" in spaces:
                outcome = (cells[..., 0, :] + cells[..., 1, :]) / scale
            if "surrogate" in spaces:
                surrogate = _sum_last(cells) / scale
            if "composite" in spaces:
                composite = arms / scale
    m = dataset.m
    empty = (sizes[:, :m] <= 0).any(axis=(1, 2))
    if dataset.target is not None:
        empty |= sizes[:, m, 0] <= 0
    return FrequencyStack(sizes, empty, outcome, surrogate, composite)


def observed_frequencies(dataset: MultiTrialDataset) -> FrequencyStack:
    """:func:`frequency_stack` of the observed counts, a stack of one.

    Raises :class:`EstimationError`, naming the first in order, when a trial
    has an empty arm (for the target trial, an empty control arm).
    """
    freqs = frequency_stack(dataset, dataset.counts_tensor()[None])
    for trial, arm_sizes in zip(dataset.all_trials, freqs.sizes[0]):
        for arm in (0, 1):
            if arm_sizes[arm] <= 0 and not (arm == 1 and trial.is_target):
                raise EstimationError(
                    f"trial {trial.trial_id!r} has no units in arm {arm}; "
                    "frequencies are undefined"
                )
    return freqs


def summarize(dataset: MultiTrialDataset) -> Summaries:
    """Compute per-trial conditional frequencies, those of
    :func:`observed_frequencies`, which raises on an empty arm. For the
    target trial only control-side vectors are produced.
    """
    freqs = observed_frequencies(dataset)
    out = []
    for g, trial in enumerate(dataset.all_trials):
        vectors = {}
        for space in STATE_SPACES:
            arms = freqs.space(space)
            if arms is not None:
                vectors[f"control_{space}"] = arms[0, g, 0]
                vectors[f"treated_{space}"] = None if trial.is_target else arms[0, g, 1]
        sizes = tuple(int(n) for n in freqs.sizes[0, g])
        out.append(TrialSummary(trial.trial_id, trial.is_target, sizes, **vectors))
    return Summaries(
        trials=tuple(out[: dataset.m]),
        target=out[dataset.m] if dataset.target is not None else None,
        outcome_cardinality=dataset.outcome_cardinality,
        has_surrogate=dataset.has_surrogate,
    )
