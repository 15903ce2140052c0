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
work grows with the number of distinct lines rather than of rows. New
records are validated a column at a time, in chunks; only a chunk that
fails a column check is rescanned row by row, to locate the error, so an
error names the first line holding the offending row. The tallied counts
are folded into one array with NumPy.

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
from itertools import chain, compress
from operator import mul
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
    records: _Records, tally: dict[str, int], schema: ColumnSchema
) -> MultiTrialDataset:
    """Fold each distinct record's cell, its count times the number of times
    it appeared, into one count block per trial, whose sum must fit int64.

    The sum is first taken over Python integers; only when it passes
    ``2**63 - 1`` are the trials summed apart, to name the one that does.
    Below that bound every product and every cell fits int64.
    """
    k = max(records.outcomes) + 1
    if k < 2:
        raise ValidationError("the outcome must have at least two categories")
    has_surrogate = bool(records.surrogate_seen)
    shape = (2, 2, k) if has_surrogate else (2, k)
    states = 2 if has_surrogate else 1
    labels = records.trials
    times = list(map(tally.__getitem__, records.keys))
    units = times if records.counts is None else list(map(mul, records.counts, times))
    if sum(units) > _MAX_COUNT:
        sums: dict[str, int] = {}
        for trial, n in zip(labels, units):
            sums[trial] = sums.get(trial, 0) + n
        for trial, n in sums.items():
            if n > _MAX_COUNT:
                raise ValidationError(
                    f"trial {trial!r}: its counts sum to {n}, beyond 2**63 - 1"
                )
    index = {trial: g for g, trial in enumerate(dict.fromkeys(labels))}
    block = np.zeros((len(index),) + shape, dtype=np.int64)
    g = np.fromiter(map(index.__getitem__, labels), np.int64, len(labels))
    arm = np.array(records.arms, dtype=np.int64)
    s = np.array(records.surrogates, dtype=np.int64)
    y = np.array(records.outcomes, dtype=np.int64)
    cell = ((g * 2 + arm) * states + s) * k + y
    np.add.at(block.reshape(-1), cell, np.array(units, dtype=np.int64))
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

#: New records checked together, column by column. It bounds the rows that
#: ``csv`` holds at once, one list and its strings per record.
_CHECK_ROWS = 512


def _is_blank(row: list[str]) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def _check_row(
    row: list[str],
    line: int,
    schema: ColumnSchema,
    with_count: bool,
    surrogate_seen: bool | None,
) -> bool | None:
    """A row's surrogate presence, or None for a blank row; raises the
    first check the row fails, naming ``line``.

    ``surrogate_seen`` is the surrogate presence that the first data row
    fixed (None before it). The checks read nothing else and change
    nothing, so running them again on a row raises the same error.
    """
    if _is_blank(row):
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
    return has_s


def _int_values(texts) -> dict[str, int] | None:
    """Each distinct field of a column with its integer, or None if one of
    them breaks :func:`_parse_int`'s rule."""
    distinct = set(texts)
    stripped = list(map(str.strip, distinct))
    joined = "".join(stripped)
    if not joined.isascii() or "_" in joined:
        return None
    try:
        return dict(zip(distinct, map(int, stripped)))
    except ValueError:
        return None


class _Records:
    """The distinct records admitted so far, one list per column.

    ``keys`` holds each record's raw text, its key in the tally of
    repeats; ``counts`` is None for unit rows, whose records count one
    unit each. ``surrogate_seen`` is the surrogate presence the first data
    row fixed, None before it.
    """

    def __init__(self, schema: ColumnSchema, with_count: bool):
        self.schema = schema
        self.with_count = with_count
        self.width = 5 if with_count else 4
        self.surrogate_seen: bool | None = None
        self.keys: list[str] = []
        self.trials: list[str] = []
        self.arms: list[int] = []
        self.surrogates: list[int] = []
        self.outcomes: list[int] = []
        self.counts: list[int] | None = [] if with_count else None

    def admit(self, keys: list[str], rows: list[list[str]], locate) -> None:
        """Check new records ``rows``, keyed by ``keys``, column by column,
        and add them; blank rows are skipped.

        If a column check fails, :meth:`_raise_first_error` rescans the rows
        to raise the error a row-by-row scan meets first; ``locate(key)``
        gives the line number of the record keyed ``key``.
        """
        full_keys, full = keys, rows
        if set(map(len, rows)) - {self.width}:
            # Only blank rows, which are skipped, may have another width.
            kept = [len(row) == self.width for row in rows]
            if not all(k or _is_blank(row) for k, row in zip(kept, rows)):
                self._raise_first_error(keys, rows, locate)
            full_keys, full = list(compress(keys, kept)), list(compress(rows, kept))
        if not full:
            return
        columns = self._columns(full)
        if columns is None:
            self._raise_first_error(keys, rows, locate)
        self.surrogate_seen, trials, arms, surrogates, outcomes, counts = columns
        self.keys += full_keys
        self.trials += trials
        self.arms += arms
        self.surrogates += surrogates
        self.outcomes += outcomes
        if counts is not None:
            self.counts += counts

    def _columns(self, rows: list[list[str]]):
        """``(has_surrogate, trials, arms, surrogates, outcomes, counts)``
        of ``rows``, each of ``width`` fields, or None if any row fails a
        check of :func:`_check_row`."""
        trial, arm, s, y, *count = zip(*rows)
        trials = list(map(str.strip, trial))
        if "" in trials:
            return None
        arms = _int_values(arm)
        if arms is None or not set(arms.values()) <= {0, 1}:
            return None
        presence = {text.strip() != self.schema.na_token for text in set(s)}
        if len(presence) > 1:
            return None
        has_s = presence.pop()
        if self.surrogate_seen not in (None, has_s):
            return None
        surrogates = _int_values(s) if has_s else {}
        if surrogates is None or not set(surrogates.values()) <= {0, 1}:
            return None
        outcomes = _int_values(y)
        if outcomes is None or min(outcomes.values()) < 0:
            return None
        counts = None
        if count:
            values = _int_values(count[0])
            if values is None:
                return None
            if min(values.values()) < 0 or max(values.values()) > _MAX_COUNT:
                return None
            counts = list(map(values.__getitem__, count[0]))
        return (
            has_s,
            trials,
            list(map(arms.__getitem__, arm)),
            list(map(surrogates.__getitem__, s)) if has_s else [0] * len(s),
            list(map(outcomes.__getitem__, y)),
            counts,
        )

    def _raise_first_error(self, keys: list[str], rows: list[list[str]], locate):
        """Run :func:`_check_row` on each of ``rows`` in turn, from the
        surrogate presence before them, and raise the first error, naming
        the line ``locate`` gives for its key."""
        seen = self.surrogate_seen
        for key, row in zip(keys, rows):
            try:
                has_s = _check_row(row, 0, self.schema, self.with_count, seen)
            except ValidationError:
                # The line number is looked up only here; checking again
                # names it in the same error.
                _check_row(row, locate(key), self.schema, self.with_count, seen)
                raise
            if has_s is not None:
                seen = has_s
        raise RuntimeError("the column checks rejected rows that _check_row accepts")


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
    """Validate each distinct record once, by column; tally the repeats.

    The stream is read in blocks of lines. In the default dialect a line
    without a quote character is exactly one record, and identical lines
    are identical rows, so a block without one is tallied by raw line in
    one ``Counter`` call, and only the lines not seen before go through
    ``csv``. A block with one goes record by record, a multi-line record
    keyed by its joined lines. Different spellings of one row (CRLF against
    LF, say) are checked apart and fold into one cell.

    A block's new records are checked a column at a time, up to
    ``_CHECK_ROWS`` records at once, with the rules of :func:`_check_row`.
    Only records that fail a column check are rescanned row by row, to
    raise the first failing row's error at its line. Every check
    depends only on the row and on the surrogate presence the first data
    row fixes, so the first line that fails is the first appearance of its
    record: a repeat needs no second check, and errors name the same line
    as a row-by-row scan would (a multi-line record's last line, as ``csv``
    counts it). A record ``csv`` cannot read is reported after the block's
    records before it are checked.
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
        records = _Records(schema, with_count)
        # ``offset`` counts the lines before the current block.
        while block := stream.readlines(_BLOCK_HINT):
            counts = Counter(block)
            if '"' in "".join(counts):
                first_lines: dict[str, int] = {}
                keys, rows = [], []
                try:
                    for key, line, row in _quoted_records(stream, block, offset):
                        seen = tally.get(key)
                        tally[key] = (seen or 0) + 1
                        if seen is None:
                            first_lines[key] = line
                            keys.append(key)
                            rows.append(row)
                            if len(rows) == _CHECK_ROWS:
                                records.admit(keys, rows, first_lines.__getitem__)
                                keys, rows = [], []
                except ParseError:
                    # The records before the one csv cannot read come first.
                    records.admit(keys, rows, first_lines.__getitem__)
                    raise
                records.admit(keys, rows, first_lines.__getitem__)
            else:
                repeats = counts.keys() & tally.keys()
                fresh = [raw for raw in counts if raw not in repeats]
                for raw in repeats:
                    counts[raw] += tally[raw]
                tally.update(counts)

                def locate(raw: str) -> int:
                    return offset + block.index(raw) + 1

                for start in range(0, len(fresh), _CHECK_ROWS):
                    lines = fresh[start : start + _CHECK_ROWS]
                    reader = csv.reader(lines)
                    try:
                        rows = list(reader)
                    except csv.Error as exc:
                        # Each of these lines is one record: the reader
                        # failed on ``lines[bad]``.
                        bad = reader.line_num - 1
                        before = lines[:bad]
                        records.admit(before, list(csv.reader(before)), locate)
                        raise ParseError(str(exc), locate(lines[bad])) from None
                    records.admit(lines, rows, locate)
            offset += len(block)
        if not records.keys:
            raise ParseError("no data rows in input", offset)
        return _rows_to_dataset(records, tally, schema)
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
