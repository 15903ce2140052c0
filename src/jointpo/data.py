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

A :class:`MultiTrialDataset` holds its data once, as a read-only int64
``(n_trials, cells)`` count block with the target's row last, beside the
trial labels and the layout (outcome cardinality, surrogate presence).
The parser, :meth:`~MultiTrialDataset.with_counts`, the resampler and the
simulator all build datasets through its one checked constructor, which
checks a whole block at once. The :class:`TrialCellCounts` of its trials
are built from the block's rows, and checked, only when ``trials``,
``target`` or ``all_trials`` is read; no command reads them.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from itertools import chain, compress
from operator import mul
from pathlib import Path
from typing import NamedTuple, TextIO

import numpy as np

from . import _relocated
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


class _Frozen:
    """Base of the checked, immutable records: a subclass lists its
    constructor's arguments in ``_fields``, sets its ``__slots__`` once in its
    constructor with :meth:`_set`, and compares, hashes and prints by its
    fields. A record holding arrays sets ``__hash__ = None``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(self._values(), other._values())
        )

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        # Copies and pickles go through the checked constructor.
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def _first(flags: np.ndarray) -> int | None:
    """The first trial (leading index) with a flag set, or None."""
    hit = flags.reshape(len(flags), -1).any(axis=1)
    return int(hit.argmax()) if hit.any() else None


def _checked_counts(counts: np.ndarray, labels: tuple[str, ...], target: bool) -> np.ndarray:
    """A read-only int64 copy of ``counts``, the ``(n_trials, 2, k)`` or
    ``(n_trials, 2, 2, k)`` cells of the trials ``labels`` (with ``target``,
    the last is the control-only target). Raises the first check that a
    trial fails, naming the first trial that fails it."""
    if not np.issubdtype(counts.dtype, np.integer):
        if (g := _first(~np.isfinite(counts) | (counts != np.floor(counts)))) is not None:
            raise ValidationError(f"trial {labels[g]!r}: cell counts must be integers")
    if counts.ndim not in (3, 4) or counts.shape[1] != 2:
        raise ValidationError(f"trial {labels[0]!r}: counts must have shape (2, k) or (2, 2, k)")
    if counts.ndim == 4 and counts.shape[2] != 2:
        raise ValidationError(f"trial {labels[0]!r}: the surrogate axis must be binary")
    if (g := _first(counts < 0)) is not None:
        raise ValidationError(f"trial {labels[g]!r}: negative cell count")
    rows = counts.reshape(len(counts), -1)
    # With no count negative, bounding a trial's sum bounds each of its
    # counts. Float sums are exact enough to pick the trials to sum exactly.
    for g in np.flatnonzero(rows.sum(axis=1, dtype=np.float64) >= 2.0**62):
        if (n := sum(map(int, rows[g].tolist()))) > _MAX_COUNT:
            raise ValidationError(f"trial {labels[g]!r}: its counts sum to {n}, beyond 2**63 - 1")
    block = counts.astype(np.int64)
    if target and block[-1, 1].any():
        raise ValidationError(f"target trial {labels[-1]!r} must contain control rows only")
    block.flags.writeable = False
    return block


class TrialCellCounts(_Frozen):
    """Cell counts of one trial.

    ``counts`` has shape ``(2, k)`` without a surrogate or ``(2, 2, k)``
    with one; the leading axis is the treatment arm and, when present,
    the middle axis is the surrogate value. The constructor checks them as
    :class:`MultiTrialDataset` checks a block and keeps a read-only copy.
    """

    __slots__ = _fields = ("trial_id", "counts", "is_target")
    __hash__ = None

    def __init__(self, trial_id: str, counts: np.ndarray, is_target: bool = False):
        block = _checked_counts(np.asarray(counts)[None], (trial_id,), is_target)
        self._set(trial_id=trial_id, counts=block[0], is_target=is_target)

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


class MultiTrialDataset(_Frozen):
    """An ordered collection of experimental trials plus an optional
    control-only target trial, held as one read-only int64 count block.

    The block has one row per trial, the target's last, and
    :meth:`counts_tensor` returns it. ``trial_ids`` names the experimental
    trials and ``target_id`` the target (None without one). ``trials``,
    ``target`` and ``all_trials`` build :class:`TrialCellCounts` of the
    block's rows at each access; no command reads them.
    """

    __slots__ = ("_block", "trial_ids", "target_id", "outcome_cardinality", "has_surrogate")
    _fields = ("trials", "target")
    __hash__ = None

    def __init__(
        self, trials: tuple[TrialCellCounts, ...], target: TrialCellCounts | None = None
    ):
        everything = (*trials, *(() if target is None else (target,)))
        if len({t.outcome_cardinality for t in everything}) > 1:
            raise ValidationError("outcome cardinality must be identical across trials")
        if len({t.has_surrogate for t in everything}) > 1:
            raise SchemaError("surrogate presence must be uniform across the dataset")
        if target is not None and not target.is_target:
            raise ValidationError("the target trial must be flagged as such")
        ids = tuple(t.trial_id for t in trials)
        target_id = None if target is None else target.trial_id
        checked = self._of_block([t.counts for t in everything], ids, target_id)
        self._set(**{name: getattr(checked, name) for name in self.__slots__})

    @classmethod
    def _of_block(cls, counts, trial_ids: tuple[str, ...], target_id: str | None = None):
        """The dataset's one checked constructor: the trials ``trial_ids``
        and, in the last row, the target ``target_id`` over ``counts``, their
        ``(n_trials, 2, k)`` or ``(n_trials, 2, 2, k)`` cells."""
        if not trial_ids:
            raise ValidationError("a dataset needs at least one experimental trial")
        labels = trial_ids if target_id is None else trial_ids + (target_id,)
        if len(set(labels)) != len(labels):
            raise ValidationError("trial labels must be unique")
        block = _checked_counts(np.asarray(counts), labels, target_id is not None)
        dataset = object.__new__(cls)
        dataset._set(
            _block=block.reshape(len(block), -1), trial_ids=trial_ids, target_id=target_id,
            outcome_cardinality=block.shape[-1], has_surrogate=block.ndim == 4,
        )
        return dataset

    @property
    def m(self) -> int:
        return len(self.trial_ids)

    @property
    def _labels(self) -> tuple[str, ...]:
        """Every trial's label in block order, the target's last."""
        return self.trial_ids + (() if self.target_id is None else (self.target_id,))

    @property
    def _trial_shape(self) -> tuple[int, ...]:
        k = self.outcome_cardinality
        return (2, 2, k) if self.has_surrogate else (2, k)

    @property
    def all_trials(self) -> tuple[TrialCellCounts, ...]:
        rows = self._block.reshape((-1,) + self._trial_shape)
        return tuple(
            TrialCellCounts(label, row, g == self.m)
            for g, (label, row) in enumerate(zip(self._labels, rows))
        )

    @property
    def trials(self) -> tuple[TrialCellCounts, ...]:
        return self.all_trials[: self.m]

    @property
    def target(self) -> TrialCellCounts | None:
        return None if self.target_id is None else self.all_trials[-1]

    def counts_tensor(self) -> np.ndarray:
        """The dataset's read-only ``(n_trials, cells)`` int64 count block,
        the same array at every call.

        The target trial, when present, is the last row. Cell order is
        row-major over ``(arm[, surrogate], outcome)``.
        """
        return self._block

    def with_counts(self, tensor: np.ndarray) -> "MultiTrialDataset":
        """The dataset with ``tensor``, laid out like :meth:`counts_tensor`,
        as its count block, checked as the constructor checks counts."""
        tensor, shape = np.asarray(tensor), self._block.shape
        if tensor.shape != shape:
            raise ValidationError(f"counts must be (n_trials, cells) {shape}, got {tensor.shape}")
        counts = tensor.reshape((len(tensor),) + self._trial_shape)
        return type(self)._of_block(counts, self.trial_ids, self.target_id)


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
    order = dict.fromkeys(labels)
    if schema.target_label in order:
        # The target trial's row goes last, as in ``counts_tensor``.
        del order[schema.target_label]
        order[schema.target_label] = None
    index = {trial: g for g, trial in enumerate(order)}
    block = np.zeros((len(index),) + shape, dtype=np.int64)
    g = np.fromiter(map(index.__getitem__, labels), np.int64, len(labels))
    arm = np.array(records.arms, dtype=np.int64)
    s = np.array(records.surrogates, dtype=np.int64)
    y = np.array(records.outcomes, dtype=np.int64)
    cell = ((g * 2 + arm) * states + s) * k + y
    np.add.at(block.reshape(-1), cell, np.array(units, dtype=np.int64))
    ids = tuple(index)
    target = ids[-1] if ids[-1] == schema.target_label else None
    trial_ids = ids if target is None else ids[:-1]
    if not trial_ids:
        _checked_counts(block, ids, True)  # a target with treated rows is reported first
        raise ValidationError("no experimental trials found in input")
    return MultiTrialDataset._of_block(block, trial_ids, target)


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
    states = (0, 1) if dataset.has_surrogate else (schema.na_token,)
    outcomes = range(dataset.outcome_cardinality)
    cells = [(arm, s, y) for arm in (0, 1) for s in states for y in outcomes]
    for g, (label, row) in enumerate(zip(dataset._labels, dataset.counts_tensor().tolist())):
        # The target trial's treated cells, the second half, are not written.
        width = len(cells) if g < dataset.m else len(cells) // 2
        writer.writerows([label, *cell, n] for cell, n in zip(cells[:width], row))
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
    sizes. ``dataset`` gives only the layout, so a dataset of zero counts
    serves any stack of its shape. A space not in ``spaces`` is None; those
    built are the same arrays whichever others are asked for."""
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
    if dataset.target_id is not None:
        empty |= sizes[:, m, 0] <= 0
    return FrequencyStack(sizes, empty, outcome, surrogate, composite)


def observed_frequencies(dataset: MultiTrialDataset) -> FrequencyStack:
    """:func:`frequency_stack` of the observed counts, a stack of one.

    Raises :class:`EstimationError`, naming the first in order, when a trial
    has an empty arm (for the target trial, an empty control arm).
    """
    freqs = frequency_stack(dataset, dataset.counts_tensor()[None])
    if freqs.empty[0]:
        # The first empty arm in block order; the target's treated arm,
        # always empty, is last.
        g, arm = np.argwhere(freqs.sizes[0] <= 0)[0]
        raise EstimationError(
            f"trial {dataset._labels[g]!r} has no units in arm {arm}; "
            "frequencies are undefined"
        )
    return freqs


# Library-only names, defined where only their users load them.
__getattr__ = _relocated(
    __name__, dict.fromkeys(("Summaries", "TrialSummary", "summarize"), "summaries")
)
