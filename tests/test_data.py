import io
import itertools
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointpo import data
from jointpo.data import (
    _BLOCK_HINT,
    STATE_SPACES,
    ColumnSchema,
    MultiTrialDataset,
    TrialCellCounts,
    _parse_int,
    frequency_stack,
    parse_dataset,
    parse_unit_rows,
    serialize_dataset,
    summarize,
)
from jointpo.errors import (
    EstimationError,
    JointpoError,
    ParseError,
    SchemaError,
    ValidationError,
)

from helpers import binary_dataset, reference_parse_rows

TOY = """trial,arm,s,y,count
1,0,NA,0,20
1,0,NA,1,30
1,1,NA,0,10
1,1,NA,1,40
"""


def _parse(text, **kwargs):
    return parse_dataset(io.StringIO(text), **kwargs)


class TestParse:
    def test_single_trial_aggregation(self):
        ds = _parse(TOY)
        assert ds.m == 1
        assert ds.outcome_cardinality == 2
        assert not ds.has_surrogate
        np.testing.assert_array_equal(ds.trials[0].counts, [[20, 30], [10, 40]])

    def test_duplicate_cells_are_summed(self):
        text = TOY + "1,0,NA,1,5\n"
        ds = _parse(text)
        assert ds.trials[0].counts[0, 1] == 35

    def test_negative_count_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="negative count"):
            _parse("trial,arm,s,y,count\n1,0,NA,0,-3\n")

    def test_malformed_row_reports_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            _parse("trial,arm,s,y,count\n1,0,NA,0,10\n1,0,NA,zero,10\n")

    def test_wrong_field_count_reports_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            _parse("trial,arm,s,y,count\n1,0,NA,0\n")

    def test_mixed_surrogate_presence_is_a_schema_error(self):
        text = "trial,arm,s,y,count\n1,0,NA,0,10\n1,0,1,0,10\n"
        with pytest.raises(SchemaError, match="uniform"):
            _parse(text)

    def test_header_must_match(self):
        with pytest.raises(SchemaError, match="header"):
            _parse("trial,arm,surr,y,count\n1,0,NA,0,10\n")

    def test_trial_order_is_first_appearance(self):
        text = (
            "trial,arm,s,y,count\n"
            "B,0,NA,0,5\nB,0,NA,1,5\nB,1,NA,0,5\nB,1,NA,1,5\n"
            "A,0,NA,0,5\nA,0,NA,1,5\nA,1,NA,0,5\nA,1,NA,1,5\n"
        )
        ds = _parse(text)
        assert [t.trial_id for t in ds.trials] == ["B", "A"]

    def test_surrogate_parsing(self):
        text = "trial,arm,s,y,count\n" + "".join(
            f"1,{a},{s},{y},{10 + a + s + y}\n"
            for a in (0, 1)
            for s in (0, 1)
            for y in (0, 1)
        )
        ds = _parse(text)
        assert ds.has_surrogate
        assert ds.trials[0].counts.shape == (2, 2, 2)
        assert ds.trials[0].counts[1, 0, 1] == 12

    def test_target_label_zero_is_separated(self):
        text = TOY + "0,0,NA,0,7\n0,0,NA,1,3\n"
        ds = _parse(text)
        assert ds.m == 1
        assert ds.target is not None
        assert ds.target.trial_id == "0"
        assert ds.target.arm_totals == (10, 0)

    def test_target_with_treated_counts_is_rejected(self):
        text = TOY + "0,1,NA,0,7\n"
        with pytest.raises(ValidationError, match="control rows only"):
            _parse(text)

    def test_custom_columns(self):
        text = "study,A,S,Y,n\n1,0,1,0,4\n1,0,0,1,6\n1,1,1,1,5\n1,1,0,0,5\n"
        schema = ColumnSchema(trial="study", arm="A", surrogate="S", outcome="Y", count="n")
        ds = parse_dataset(io.StringIO(text), schema=schema)
        assert ds.has_surrogate
        assert ds.trials[0].n == 20

    def test_unit_rows_aggregate(self):
        text = "trial,arm,s,y\n" + "1,0,NA,0\n" * 3 + "1,0,NA,1\n" + "1,1,NA,1\n" * 2
        ds = parse_unit_rows(io.StringIO(text))
        np.testing.assert_array_equal(ds.trials[0].counts, [[3, 1], [0, 2]])

    def test_single_outcome_category_is_rejected(self):
        with pytest.raises(ValidationError, match="two categories"):
            _parse("trial,arm,s,y,count\n1,0,NA,0,5\n1,1,NA,0,5\n")


UNIT_HEADER = "trial,arm,s,y\n"
GOOD_UNITS = "1,0,NA,0\n1,0,NA,1\n1,1,NA,0\n1,1,NA,1\n"


class TestIntegerFields:
    """Integer fields take ``[+-]?[0-9]+`` after stripping, nothing else."""

    FIELDS = {"arm": 1, "surrogate": 2, "outcome": 3, "count": 4}

    @pytest.mark.parametrize("text", ["1_0", "1_000", "\u0663", "\uff11", "0x1", "1.0"])
    @pytest.mark.parametrize(
        "what, with_count",
        [(what, True) for what in FIELDS]
        + [(what, False) for what in list(FIELDS)[:3]],
    )
    def test_non_decimal_forms_are_parse_errors(self, text, what, with_count):
        fields = ["1", "0", "0", "1", "5"][: 5 if with_count else 4]
        fields[self.FIELDS[what]] = text
        good = "1,0,0,0,5\n1,1,0,1,5\n" if with_count else "1,0,0,0\n1,1,0,1\n"
        header = "trial,arm,s,y,count\n" if with_count else UNIT_HEADER
        stream = io.StringIO(header + good + ",".join(fields) + "\n")
        parse = parse_dataset if with_count else parse_unit_rows
        with pytest.raises(ParseError) as err:
            parse(stream)
        assert err.value.line_number == 4
        assert str(err.value) == f"line 4: {what} {text!r} is not a base-10 integer"

    def test_padding_and_signs_are_accepted(self):
        ds = _parse(
            "trial,arm,s,y,count\n1, +0 ,NA,0, 7 \n1,-0,NA,\t1,+3\n1,1,NA,0,1\n"
        )
        np.testing.assert_array_equal(ds.trials[0].counts, [[7, 3], [1, 0]])

    @given(
        text=st.text(
            alphabet=st.sampled_from(
                "0123456789+-_ \t\n\x0b\x1c\u0663\u00b2\u3000a."
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_accepts_exactly_signed_ascii_digits(self, text):
        if re.fullmatch(r"[+-]?[0-9]+", text.strip()):
            assert _parse_int(text, "count", 7) == int(text.strip())
        else:
            with pytest.raises(ParseError) as err:
                _parse_int(text, "count", 7)
            message = f"line 7: count {text.strip()!r} is not a base-10 integer"
            assert str(err.value) == message


class TestCountRange:
    """Counts are int64: a count, or a trial's sum of counts, beyond
    2**63 - 1 is a validation error, never a wrapped or overflowing sum."""

    HUGE = "99999999999999999999"

    @pytest.mark.parametrize("parse", [parse_dataset, reference_parse_rows])
    def test_count_beyond_int64_names_its_first_line(self, parse):
        text = TOY + f"2,0,NA,0,{self.HUGE}\n" * 2
        with pytest.raises(
            ValidationError, match=f"^line 6: count {self.HUGE} for trial '2' exceeds"
        ):
            parse(io.StringIO(text))

    @pytest.mark.parametrize("parse", [parse_dataset, reference_parse_rows])
    def test_largest_int64_count_is_accepted(self, parse):
        ds = parse(io.StringIO(TOY + f"2,0,NA,0,{2**63 - 1}\n2,1,NA,1,0\n"))
        assert ds.trials[1].counts[0, 0] == 2**63 - 1

    @pytest.mark.parametrize(
        "rows",
        [
            # Two distinct rows whose sum wraps int64.
            [f"2,0,NA,0,{2**62}", f"2,1,NA,1,{2**62}"],
            # One row whose repeats sum beyond int64.
            [f"2,0,NA,1,{2**62}"] * 2 + ["2,1,NA,0,1"],
        ],
    )
    def test_trial_sum_beyond_int64_names_the_trial(self, rows):
        text = TOY + "\n".join(rows) + "\n"
        with pytest.raises(ValidationError, match=r"^trial '2': its counts sum to \d+, beyond 2\*\*63 - 1$"):
            _parse(text)


class TestUnitRowErrors:
    """A bad row is reported at its first line, however often it repeats."""

    BAD_ROWS = [
        ("1,0,NA,x", ParseError, "outcome 'x' is not a base-10 integer"),
        ("1,2,NA,0", ParseError, "arm must be 0 or 1, got 2"),
        ("1,0,1,0", SchemaError, "surrogate column mixes values"),
        ("1,0,NA", ParseError, "expected 4 fields, got 3"),
    ]

    @pytest.mark.parametrize("bad, kind, message", BAD_ROWS)
    def test_repeated_bad_row_names_its_first_line(self, bad, kind, message):
        text = UNIT_HEADER + GOOD_UNITS + (bad + "\n1,0,NA,0\n") * 3
        with pytest.raises(kind, match=f"line 6: {re.escape(message)}"):
            parse_unit_rows(io.StringIO(text))

    def test_blank_and_multiline_rows_shift_the_line(self):
        text = (
            UNIT_HEADER
            + GOOD_UNITS
            + "\n   \n"
            + '"A\nB",0,NA,1\n'
            + "1,0,NA,-1\n" * 2
        )
        with pytest.raises(ParseError) as err:
            parse_unit_rows(io.StringIO(text))
        assert err.value.line_number == 10
        assert str(err.value) == "line 10: outcome must be nonnegative, got -1"
        with pytest.raises(ParseError, match="^line 10: outcome must be nonnegative"):
            reference_parse_rows(io.StringIO(text), with_count=False)


#: Valid and bad texts of each field for generated CSVs. Valid texts come
#: padded, signed or spread over two lines (a quoted multi-line field);
#: bad ones cover every check of a row.
FIELD_TEXTS = {
    "trial": (["1", "2", " 2 ", "A\nB", "0"], ["", " "]),
    "arm": (["0", "1", " 1 ", "+0"], ["2", "-1", "x", "1_0", "\u0663", ""]),
    "s": (["NA", " NA ", "0", "1", "\n1"], ["2", "x", "na"]),
    "y": (["0", "1", "2", " 1 ", "\n2"], ["-1", "1_0", "\u0663", "x"]),
    "count": (["0", "1", "5", "12", " 7 ", "+2"], ["-3", "1_000", "\u0663", "x"]),
}


def _field_text(name: str, surrogate: str):
    good, bad = FIELD_TEXTS[name]
    if name == "s" and surrogate != "mixed":
        good = [t for t in good if (t.strip() == "NA") == (surrogate == "NA")]
    return st.sampled_from(good * 6 + bad)


def _csv_field(text: str, quote: bool) -> str:
    if quote or any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def csv_texts(draw, with_count: bool):
    """A CSV text of repeated rows from a small pool, with blank lines."""
    names = ["trial", "arm", "s", "y"] + (["count"] if with_count else [])
    surrogate = draw(st.sampled_from(["NA", "binary", "mixed"]))
    pool = []
    control_only_target = draw(st.booleans())
    rows: list[list[str]] = []
    for _ in range(draw(st.integers(1, 8))):
        fields = [draw(_field_text(name, surrogate)) for name in names]
        if rows and draw(st.booleans()):
            # A near-duplicate: an earlier row with one field drawn anew.
            column = draw(st.integers(0, len(names) - 1))
            fields = draw(st.sampled_from(rows))[:]
            fields[column] = draw(_field_text(names[column], surrogate))
        rows.append(fields)
        if control_only_target and fields[0] == "0":
            fields[1] = "0"
        n = len(fields)
        width = draw(st.sampled_from([n] * 20 + [n - 1, n + 1]))
        fields = (fields + ["0"])[:width]
        pool.append(",".join(_csv_field(f, draw(st.booleans())) for f in fields))
    lines = draw(
        st.lists(st.sampled_from(pool * 4 + ["", "  "]), min_size=1, max_size=30)
    )
    return ",".join(names) + "\n" + "\n".join(lines) + "\n"


def _outcome(parse, text: str):
    """What parsing ``text`` gives: the dataset's trial ids, target and
    counts, or the error's type, message and line."""
    try:
        ds = parse(io.StringIO(text))
    except JointpoError as err:
        return type(err), str(err), getattr(err, "line_number", None)
    target = None if ds.target is None else ds.target.trial_id
    counts = [t.counts.tolist() for t in ds.all_trials]
    return [t.trial_id for t in ds.trials], target, counts


class TestParserMatchesRowByRowReference:
    """Validating each distinct row once changes no outcome of the
    row-by-row scan: same dataset, or the same error at the same line."""

    @given(text=csv_texts(with_count=True))
    @settings(max_examples=400, deadline=None)
    def test_cell_counts(self, text):
        reference = _outcome(lambda s: reference_parse_rows(s, with_count=True), text)
        assert _outcome(parse_dataset, text) == reference

    @given(text=csv_texts(with_count=False))
    @settings(max_examples=400, deadline=None)
    def test_unit_rows(self, text):
        reference = _outcome(lambda s: reference_parse_rows(s, with_count=False), text)
        assert _outcome(parse_unit_rows, text) == reference


def _read_outcome(parse, source):
    """What parsing ``source`` gives, as ``_outcome`` tells it."""
    try:
        ds = parse(source)
    except JointpoError as err:
        return type(err), str(err), getattr(err, "line_number", None)
    target = None if ds.target is None else ds.target.trial_id
    counts = [t.counts.tolist() for t in ds.all_trials]
    return [t.trial_id for t in ds.trials], target, counts


def _both_outcomes(text: str, with_count: bool):
    """The parser's and the row-by-row reference's outcome on ``text``."""
    parse = parse_dataset if with_count else parse_unit_rows
    mine = _read_outcome(parse, io.StringIO(text))
    reference = _read_outcome(
        lambda s: reference_parse_rows(s, with_count=with_count), io.StringIO(text)
    )
    return mine, reference


def _raw_blocks(text: str, header_lines: int = 1) -> list[list[str]]:
    """The blocks of lines that ``readlines(_BLOCK_HINT)`` gives after the
    header, before the parser extends any of them."""
    stream = io.StringIO(text)
    for _ in range(header_lines):
        stream.readline()
    blocks = []
    while block := stream.readlines(_BLOCK_HINT):
        blocks.append(block)
    return blocks


@st.composite
def terminated_texts(draw, with_count: bool):
    """A ``csv_texts`` text with each line end redrawn as ``\n``, ``\r\n``
    or a lone ``\r`` (inside quoted fields too), the last one possibly
    dropped."""
    lines = draw(csv_texts(with_count)).split("\n")[:-1]
    ends = draw(
        st.lists(
            st.sampled_from(["\n", "\n", "\r\n", "\r\n", "\r"]),
            min_size=len(lines),
            max_size=len(lines),
        )
    )
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[: -len(ends[-1])]
    return text


class TestBlockParserMatchesReference:
    """Tallying raw lines block by block gives the row-by-row scan's
    outcome: across line terminators, block edges and multi-line records."""

    @pytest.mark.parametrize("with_count", [True, False])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_line_terminators_from_a_stream_and_a_file(self, with_count, data):
        text = data.draw(terminated_texts(with_count))
        mine, reference = _both_outcomes(text, with_count)
        assert mine == reference
        parse = parse_dataset if with_count else parse_unit_rows
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.csv"
            path.write_text(text, encoding="utf-8", newline="")
            with open(path, encoding="utf-8", newline="") as stream:
                reference = _read_outcome(
                    lambda s: reference_parse_rows(s, with_count=with_count), stream
                )
            assert _read_outcome(parse, str(path)) == reference

    @pytest.mark.parametrize("arm", ["1", "2"])
    def test_quoted_record_across_a_block_edge(self, arm):
        filler = "1,0,NA,0\n"
        first = '"A' + "x" * len(filler) + "\n"
        record = first + f'B",{arm},NA,1\n'
        n = _BLOCK_HINT // len(filler)
        text = (
            UNIT_HEADER
            + filler * n
            + record
            + "1,1,NA,1\n" * (2 * n)
            + record
            + GOOD_UNITS
        )
        blocks = _raw_blocks(text)
        # The record's first line ends the first block; its repeat starts
        # two or more blocks later.
        assert blocks[0][-1] == first
        assert first not in blocks[1]
        assert any(first in block for block in blocks[2:])
        mine, reference = _both_outcomes(text, with_count=False)
        assert mine == reference
        if arm == "2":
            # Named at the record's last line.
            assert mine[2] == 1 + n + 2
        else:
            assert mine[0] == ["1", "Ax" + "x" * (len(filler) - 1) + "\nB"]
            assert mine[2][1] == [[0, 0], [0, 2]]

    @pytest.mark.parametrize("tail", ["", "1,0,NA,x\n"])
    def test_header_over_two_lines(self, tail):
        text = '"trial\n",arm,s,y\n' + GOOD_UNITS * 2 + tail
        mine, reference = _both_outcomes(text, with_count=False)
        assert mine == reference
        if tail:
            assert mine[2] == 11

    @pytest.mark.parametrize("tail", ["", "7,1,NA,-1,3\n"])
    def test_all_distinct_table_longer_than_a_block(self, tail):
        rows = "".join(
            f"{g},{a},NA,{y},{g + 2 * a + y}\n"
            for g in range(1, 4001)
            for a in (0, 1)
            for y in (0, 1)
        )
        text = "trial,arm,s,y,count\n" + rows + tail
        assert len(_raw_blocks(text)) > 2
        mine, reference = _both_outcomes(text, with_count=True)
        assert mine == reference
        if tail:
            assert mine[2] == 16002
        else:
            assert len(mine[0]) == 4000

    @pytest.mark.parametrize("bad, kind", [row[:2] for row in TestUnitRowErrors.BAD_ROWS])
    def test_bad_row_first_seen_in_a_later_block(self, bad, kind):
        good = GOOD_UNITS * (_BLOCK_HINT // len(GOOD_UNITS) + 1)
        text = UNIT_HEADER + good + "1,1,NA,1\n" + (bad + "\n" + GOOD_UNITS) * 3
        blocks = _raw_blocks(text)
        first_bad = next(i for i, block in enumerate(blocks) if bad + "\n" in block)
        assert first_bad >= 1
        mine, reference = _both_outcomes(text, with_count=False)
        assert mine == reference
        # The header, the good lines and one more good line come before it.
        line = 1 + len(good.splitlines()) + 1 + 1
        assert mine[0] is kind
        assert mine[1].startswith(f"line {line}: ")


def _count_table(trials: int = 4000) -> list[str]:
    """The lines, header first, of an all-distinct count table of
    ``trials`` trials without a surrogate, more than two blocks long."""
    return ["trial,arm,s,y,count\n"] + [
        f"{g},{a},NA,{y},{g + 2 * a + y}\n"
        for g in range(1, trials + 1)
        for a in (0, 1)
        for y in (0, 1)
    ]


def _third_block_line(lines: list[str]) -> int:
    """The 0-based index in ``lines`` of a line deep inside the third block."""
    blocks = _raw_blocks("".join(lines))
    assert len(blocks) > 3
    return 1 + len(blocks[0]) + len(blocks[1]) + len(blocks[2]) // 2


class TestColumnChecks:
    """Blocks are checked a column at a time; rows are checked one by one
    only to name the line of an error."""

    def test_valid_table_runs_no_row_checks(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[1])
            return check_row(*args)

        check_row = data._check_row
        monkeypatch.setattr(data, "_check_row", counted)
        text = "".join(_count_table())
        assert len(_raw_blocks(text)) > 2
        mine, reference = _both_outcomes(text, with_count=True)
        assert mine == reference and len(mine[0]) == 4000
        assert calls == []

    @pytest.mark.parametrize(
        "old, new",
        [
            (",1,NA,0,", ",1,NA,0, 7 \n"),
            (",1,NA,0,", ",1,NA,0,+3\n"),
            (",1,NA,0,", ",-0,NA,0,0007\n"),
            (",1,NA,0,", ",1, NA ,0007,5\n"),
            ("", "A B,1,NA,0,4\n"),
            ("", '"quoted, label",0,NA,1,4\n'),
            (",1,NA,0,", ",1,NA,0,6\r\n"),
        ],
        ids=["padded", "signed", "minus-zero", "zero-led", "inner-space", "quoted", "crlf"],
    )
    def test_odd_spellings_deep_in_the_third_block(self, old, new):
        lines = _count_table()
        at = _third_block_line(lines)
        # ``old`` ends the trial label kept from the line; an empty one
        # replaces the whole line.
        lines[at] = lines[at].split(",")[0] + new if old else new
        mine, reference = _both_outcomes("".join(lines), with_count=True)
        assert mine == reference
        assert len(mine[0]) == 4000 + (not old)

    @pytest.mark.parametrize("bad, kind, message", TestUnitRowErrors.BAD_ROWS)
    def test_bad_row_deep_in_the_third_block(self, bad, kind, message):
        lines = _count_table()
        at = _third_block_line(lines)
        lines[at] = bad + ",5\n"
        mine, reference = _both_outcomes("".join(lines), with_count=True)
        assert mine == reference
        message = message.replace("4 fields, got 3", "5 fields, got 4")
        assert mine[0] is kind
        assert mine[1].startswith(f"line {at + 1}: {message}")

    def test_repeats_in_a_later_block_overflow_a_trial(self):
        lines = _count_table()
        huge = f"7,0,NA,0,{2**62}\n"
        lines[1 + 4 * (7 - 1)] = huge
        lines.insert(_third_block_line(lines), huge)
        blocks = _raw_blocks("".join(lines))
        assert huge in blocks[0] and huge in blocks[2]
        # Trial 7's other three cells hold 8, 9 and 10.
        total = 2 * 2**62 + 8 + 9 + 10
        with pytest.raises(ValidationError) as err:
            _parse("".join(lines))
        assert str(err.value) == f"trial '7': its counts sum to {total}, beyond 2**63 - 1"

    @pytest.mark.parametrize("flipped", ["one line", "every later line"])
    def test_surrogate_flip_at_a_block_edge(self, flipped):
        lines = _count_table()
        at = 1 + len(_raw_blocks("".join(lines))[0])
        last = at + 1 if flipped == "one line" else len(lines)
        lines[at:last] = [line.replace(",NA,", ",1,") for line in lines[at:last]]
        assert len(_raw_blocks("".join(lines))[0]) == at - 1
        mine, reference = _both_outcomes("".join(lines), with_count=True)
        assert mine == reference
        assert mine[0] is SchemaError
        assert mine[1].startswith(f"line {at + 1}: surrogate column mixes values")


class TestLoneCarriageReturn:
    """A lone ``\r`` before more fields of a line read from a text stream is
    a ParseError naming that line; read from a file opened with
    ``newline=""``, as the CLI opens it, the ``\r`` ends the line."""

    def test_example_row(self):
        with pytest.raises(ParseError, match="^line 2: new-line character seen"):
            parse_dataset(io.StringIO("trial,arm,s,y,count\n1,0,NA,0,5\r1,0\n"))

    def test_in_the_header(self):
        with pytest.raises(ParseError, match="^line 1: "):
            parse_unit_rows(io.StringIO("trial,arm\rs,y\n" + GOOD_UNITS))

    @pytest.mark.parametrize("quoted", [False, True])
    @pytest.mark.parametrize("with_count", [True, False])
    def test_names_its_line_in_both_parsers(self, with_count, quoted, tmp_path):
        good = "1,0,NA,0,5\n" if with_count else "1,0,NA,0\n"
        header = "trial,arm,s,y,count\n" if with_count else UNIT_HEADER
        # A quote character sends the block through the record-by-record path.
        first = '"1"' + good[1:] if quoted else good
        text = header + first + good * 2 + good.rstrip("\n") + "\r1,0\n" + good
        parse = parse_dataset if with_count else parse_unit_rows
        with pytest.raises(ParseError) as err:
            parse(io.StringIO(text))
        assert err.value.line_number == 5
        assert str(err.value).startswith("line 5: new-line character seen in unquoted field")
        mine, reference = _both_outcomes(text, with_count)
        assert mine == reference
        path = tmp_path / "input.csv"
        path.write_text(text, encoding="utf-8", newline="")
        fields = 5 if with_count else 4
        with pytest.raises(ParseError, match=f"^line 6: expected {fields} fields, got 2$"):
            parse(path)


class TestByteOrderMark:
    """A file that starts with a UTF-8 byte-order mark, as Excel's "CSV
    UTF-8" export writes it, parses as the same bytes without the mark."""

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_dataset, TOY + "2,0,NA,0,7\n2,0,NA,1,9\n2,1,NA,0,4\n2,1,NA,1,6\n"),
            (parse_unit_rows, UNIT_HEADER + GOOD_UNITS + "2,0,NA,1\n" + GOOD_UNITS),
        ],
        ids=["cell-counts", "unit-rows"],
    )
    def test_marked_file_parses_like_the_unmarked_one(self, parse, text, tmp_path):
        plain = tmp_path / "plain.csv"
        marked = tmp_path / "marked.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        expected, got = parse(plain), parse(marked)
        assert got.trial_ids == expected.trial_ids == ("1", "2")
        np.testing.assert_array_equal(got.counts_tensor(), expected.counts_tensor())
        assert serialize_dataset(got) == serialize_dataset(expected)


class TestConstructorChecks:
    @pytest.mark.parametrize(
        "counts, is_target, message",
        [
            (np.array([[1.5, 2.0], [3.0, 4.0]]), False, "cell counts must be integers"),
            (np.ones((3, 2), dtype=int), False, r"shape \(2, k\) or \(2, 2, k\)"),
            (np.ones(4, dtype=int), False, r"shape \(2, k\) or \(2, 2, k\)"),
            (np.ones((2, 3, 2), dtype=int), False, "surrogate axis must be binary"),
            (np.array([[1, -1], [2, 2]]), False, "negative cell count"),
            (np.array([[5, 5], [0, 1]]), True, "control rows only"),
        ],
        ids=["non-integer", "three-arms", "one-dimensional", "ternary-surrogate",
             "negative", "treated-target"],
    )
    def test_trial_cell_counts_rejects(self, counts, is_target, message):
        with pytest.raises(ValidationError, match=message):
            TrialCellCounts("7", counts, is_target=is_target)

    def test_trial_cell_counts_stores_a_read_only_copy(self):
        for counts in (np.array([[1, 2], [3, 4]]), np.array([[1.0, 2.0], [3.0, 4.0]])):
            trial = TrialCellCounts("1", counts)
            counts[0, 0] = 9
            np.testing.assert_array_equal(trial.counts, [[1, 2], [3, 4]])
            assert trial.counts.dtype == np.int64
            assert not trial.counts.flags.writeable

    @pytest.mark.parametrize(
        "parts, error, message",
        [
            (lambda: ((), None), ValidationError, "at least one experimental trial"),
            (lambda: ((_trial("1"), _trial("1")), None), ValidationError, "labels must be unique"),
            (lambda: ((_trial("1"),), _trial("1", target=True)), ValidationError,
             "labels must be unique"),
            (lambda: ((_trial("1"), _trial("2", k=3)), None), ValidationError,
             "outcome cardinality"),
            (lambda: ((_trial("1"), _trial("2", surrogate=True)), None), SchemaError,
             "surrogate presence"),
            (lambda: ((_trial("1"),), _trial("0")), ValidationError, "flagged"),
        ],
        ids=["no-trials", "duplicate-labels", "target-reuses-label", "mixed-cardinality",
             "mixed-surrogate", "unflagged-target"],
    )
    def test_multi_trial_dataset_rejects(self, parts, error, message):
        trials, target = parts()
        with pytest.raises(error, match=message):
            MultiTrialDataset(trials=trials, target=target)

    def test_multi_trial_dataset_accepts_a_flagged_target(self):
        ds = MultiTrialDataset(trials=(_trial("1"), _trial("2")), target=_trial("0", target=True))
        assert ds.m == 2 and ds.target.is_target


def _trial(label, k=2, surrogate=False, target=False):
    counts = np.ones((2, 2, k) if surrogate else (2, k), dtype=int)
    if target:
        counts[1] = 0
    return TrialCellCounts(label, counts, is_target=target)


class TestSummarize:
    def test_treated_marginal_example(self):
        ds = binary_dataset([(25, 25, 20, 30)])
        s = summarize(ds)
        np.testing.assert_allclose(s.trials[0].treated_outcome, [0.4, 0.6])

    def test_degenerate_zero_cell_is_allowed(self):
        ds = binary_dataset([(0, 50, 10, 40)])
        s = summarize(ds)
        np.testing.assert_array_equal(s.trials[0].control_outcome, [0.0, 1.0])

    def test_empty_arm_names_trial_and_arm(self):
        ds = binary_dataset([(10, 10, 0, 0), (5, 5, 5, 5)])
        with pytest.raises(EstimationError, match=r"trial '1'.*arm 1"):
            summarize(ds)

    def test_target_summary_has_no_treated_side(self):
        text = TOY + "0,0,NA,0,7\n0,0,NA,1,3\n"
        s = summarize(_parse(text))
        assert s.target is not None
        assert s.target.treated_outcome is None
        np.testing.assert_allclose(s.target.control_outcome, [0.7, 0.3])

    def test_frequencies_are_exact_count_ratios(self):
        ds = binary_dataset([(1, 2, 3, 4)])
        s = summarize(ds)
        assert s.trials[0].control_outcome[0] == 1 / 3
        assert s.trials[0].control_outcome[1] == 2 / 3
        assert s.trials[0].arm_sizes == (3, 7)

    def test_composite_ordering_is_s_major(self):
        counts = np.zeros((2, 2, 2), dtype=int)
        counts[0, 0, 0] = 1
        counts[0, 0, 1] = 2
        counts[0, 1, 0] = 3
        counts[0, 1, 1] = 4
        counts[1] = 1
        ds = MultiTrialDataset(
            trials=(TrialCellCounts(trial_id="1", counts=counts),)
        )
        s = summarize(ds)
        np.testing.assert_allclose(
            s.trials[0].control_composite, np.array([1, 2, 3, 4]) / 10
        )
        np.testing.assert_allclose(s.trials[0].control_surrogate, [0.3, 0.7])
        np.testing.assert_allclose(s.trials[0].control_outcome, [0.4, 0.6])


def _summaries_equal(a, b):
    assert a.outcome_cardinality == b.outcome_cardinality
    assert a.has_surrogate == b.has_surrogate
    assert a.trial_ids == b.trial_ids
    for ta, tb in zip(a.trials, b.trials):
        for name in (
            "control_outcome",
            "treated_outcome",
            "control_surrogate",
            "treated_surrogate",
            "control_composite",
            "treated_composite",
        ):
            va, vb = getattr(ta, name), getattr(tb, name)
            if va is None:
                assert vb is None
            else:
                np.testing.assert_array_equal(va, vb)


counts_strategy = st.lists(
    st.tuples(
        st.integers(0, 40), st.integers(1, 40), st.integers(0, 40), st.integers(1, 40)
    ),
    min_size=1,
    max_size=5,
)


class TestProperties:
    @given(rows=counts_strategy)
    @settings(max_examples=60, deadline=None)
    def test_serialize_parse_round_trip(self, rows):
        ds = binary_dataset(rows)
        again = parse_dataset(io.StringIO(serialize_dataset(ds)))
        _summaries_equal(summarize(ds), summarize(again))

    @given(rows=counts_strategy, scale=st.integers(2, 9))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance_is_bitwise(self, rows, scale):
        ds = binary_dataset(rows)
        scaled = binary_dataset([tuple(scale * c for c in row) for row in rows])
        _summaries_equal(summarize(ds), summarize(scaled))

    @given(rows=counts_strategy)
    @settings(max_examples=60, deadline=None)
    def test_permutation_covariance(self, rows):
        ds = binary_dataset(rows)
        perm = list(reversed(range(len(rows))))
        permuted = MultiTrialDataset(trials=tuple(ds.trials[i] for i in perm))
        s = summarize(ds)
        sp = summarize(permuted)
        for i, j in enumerate(perm):
            np.testing.assert_array_equal(
                sp.trials[i].control_outcome, s.trials[j].control_outcome
            )

    def test_counts_tensor_round_trip(self):
        ds = binary_dataset([(1, 2, 3, 4), (5, 6, 7, 8)])
        tensor = ds.counts_tensor()
        rebuilt = ds.with_counts(tensor)
        _summaries_equal(summarize(ds), summarize(rebuilt))


def _layout(m, k, surrogate, target):
    shape = (2, 2, k) if surrogate else (2, k)
    trials = tuple(TrialCellCounts(str(g + 1), np.ones(shape, dtype=int)) for g in range(m))
    if not target:
        return MultiTrialDataset(trials=trials)
    control = np.zeros(shape, dtype=int)
    control[0] = 1
    return MultiTrialDataset(trials=trials, target=TrialCellCounts("0", control, is_target=True))


def _reference_frequencies(dataset, tensor):
    """Sizes, empty flags and outcome, surrogate and composite frequencies
    by plain ``sum`` reductions over the cell axes."""
    k, m = dataset.outcome_cardinality, dataset.m
    if not dataset.has_surrogate:
        arms = tensor.reshape(tensor.shape[:2] + (2, k))
        sizes = arms.sum(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            outcome, surrogate, composite = arms / sizes[..., None], None, None
    else:
        cells = tensor.reshape(tensor.shape[:2] + (2, 2, k))
        sizes = cells.sum(axis=(-2, -1))
        with np.errstate(divide="ignore", invalid="ignore"):
            outcome = cells.sum(axis=-2) / sizes[..., None]
            surrogate = cells.sum(axis=-1) / sizes[..., None]
            composite = cells.reshape(cells.shape[:3] + (2 * k,)) / sizes[..., None]
    empty = (sizes[:, :m] == 0).any(axis=(1, 2))
    if dataset.target is not None:
        empty |= sizes[:, m, 0] == 0
    return sizes, empty, outcome, surrogate, composite


class TestFrequencyStack:
    @pytest.mark.parametrize("target", (False, True))
    @pytest.mark.parametrize("surrogate", (False, True))
    @pytest.mark.parametrize("k", (2, 3))
    def test_equals_plain_reductions_bit_for_bit(self, k, surrogate, target):
        m = 4
        dataset = _layout(m, k, surrogate, target)
        cells = (4 if surrogate else 2) * k
        half = cells // 2
        tensor = np.random.default_rng(k).integers(1, 4, size=(8, m + target, cells))
        tensor[1, 0, half:] = 0  # an empty treated arm
        tensor[2, 3, :half] = 0  # an empty control arm
        tensor[3, :m, 1] = 0  # a zero cell in every trial
        if target:
            tensor[:, m, half:] = 0  # the target has no treated units
            tensor[4, m, :half] = 0  # nor, here, control units
        got = frequency_stack(dataset, tensor)
        want = _reference_frequencies(dataset, tensor)
        for name, a, b in zip(
            ("sizes", "empty", "outcome", "surrogate", "composite"),
            (got.sizes, got.empty, got.outcome, got.surrogate, got.composite),
            want,
        ):
            if b is None:
                assert a is None, name
            else:
                assert a.dtype == b.dtype and a.shape == b.shape, name
                np.testing.assert_array_equal(a, b, err_msg=name)
        assert got.empty.tolist() == [False, True, True, False, target, False, False, False]
        assert np.isnan(got.outcome[1, 0, 1]).all()

    @pytest.mark.parametrize(
        "spaces",
        [spaces for r in range(4) for spaces in itertools.combinations(STATE_SPACES, r)],
    )
    @pytest.mark.parametrize("target", (False, True))
    @pytest.mark.parametrize("surrogate", (False, True))
    def test_requested_spaces_equal_the_full_stack(self, surrogate, target, spaces):
        # The c1 layout (no surrogate) and the c3 layout (a binary surrogate
        # and outcome), with and without a target, one member with an empty
        # arm: a requested space is the full stack's array to the bit, the
        # others are None.
        m = 4
        dataset = _layout(m, 2, surrogate, target)
        cells = 8 if surrogate else 4
        tensor = np.random.default_rng(5).integers(0, 4, size=(6, m + target, cells))
        tensor[2, 1, : cells // 2] = 0  # an empty control arm
        if target:
            tensor[:, m, cells // 2 :] = 0
        full = frequency_stack(dataset, tensor)
        got = frequency_stack(dataset, tensor, spaces)
        assert got.empty[2] and got.empty.tolist() == full.empty.tolist()
        np.testing.assert_array_equal(got.sizes, full.sizes)
        for name in STATE_SPACES:
            want = full.space(name) if name in spaces else None
            if want is None:
                assert got.space(name) is None, name
            else:
                assert got.space(name).dtype == want.dtype, name
                assert got.space(name).shape == want.shape, name
                assert got.space(name).tobytes() == want.tobytes(), name

    def test_unknown_space_rejected(self):
        dataset = _layout(3, 2, True, False)
        with pytest.raises(ValidationError, match="unknown state spaces: joint"):
            frequency_stack(dataset, np.ones((1, 3, 8), dtype=int), ("outcome", "joint"))


class TestCountBounds:
    """Hand-built counts meet the parser's bound: a trial's sum, and so
    each of its counts, at most 2**63 - 1, with no numpy warning on the way."""

    @pytest.mark.parametrize(
        "counts, message",
        [
            (np.array([[2**63, 0], [0, 0]], dtype=np.uint64),
             "its counts sum to 9223372036854775808, beyond 2**63 - 1"),
            (np.array([[1e19, 1.0], [1.0, 1.0]]),
             "its counts sum to 10000000000000000003, beyond 2**63 - 1"),
            (np.array([[2.0**63, 0.0], [0.0, 0.0]]),
             "its counts sum to 9223372036854775808, beyond 2**63 - 1"),
            (np.array([[np.inf, 1.0], [1.0, 1.0]]), "cell counts must be integers"),
            (np.array([[2**62, 2**62], [1, 1]]),
             "its counts sum to 9223372036854775810, beyond 2**63 - 1"),
            (np.array([[2**62, 2**62 - 1], [1, 0]], dtype=np.uint64),
             "its counts sum to 9223372036854775808, beyond 2**63 - 1"),
        ],
        ids=["uint64", "float", "float-2**63", "inf", "control-arm-sum", "uint64-sum"],
    )
    @pytest.mark.filterwarnings("error")
    def test_trial_cell_counts_rejects(self, counts, message):
        with pytest.raises(ValidationError, match=f"^trial '7': {re.escape(message)}$"):
            TrialCellCounts("7", counts)

    @pytest.mark.filterwarnings("error")
    def test_largest_counts_are_accepted(self):
        for counts in (
            np.array([[2**63 - 1, 0], [0, 0]], dtype=np.uint64),
            np.array([[2**62, 2**62 - 1], [0, 0]]),
            np.array([[2.0**62, 2.0**62 - 1024], [0.0, 0.0]]),
        ):
            trial = TrialCellCounts("1", counts)
            assert trial.n == int(counts.astype(object).sum())
            assert trial.arm_totals == (trial.n, 0)

    def test_with_counts_names_the_first_trial_beyond_the_bound(self):
        ds = binary_dataset([(1, 2, 3, 4), (5, 6, 7, 8), (1, 1, 1, 1)])
        tensor = ds.counts_tensor().copy()
        tensor[1:, 0] = 2**62
        tensor[1:, 1] = 2**62
        with pytest.raises(ValidationError, match="^trial '2': its counts sum to"):
            ds.with_counts(tensor)


class TestWithCounts:
    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda t: -t, "trial '1': negative cell count"),
            (lambda t: t + 0.5, "trial '1': cell counts must be integers"),
            (lambda t: t[:, :3], r"\(n_trials, cells\) \(2, 4\), got \(2, 3\)"),
            (lambda t: t[None], r"\(n_trials, cells\) \(2, 4\), got \(1, 2, 4\)"),
        ],
        ids=["negative", "non-integer", "narrow", "stacked"],
    )
    def test_rejects(self, change, message):
        ds = binary_dataset([(1, 2, 3, 4), (5, 6, 7, 8)])
        with pytest.raises(ValidationError, match=message):
            ds.with_counts(change(ds.counts_tensor()))

    def test_keeps_labels_and_target(self):
        control = np.array([[4, 6], [0, 0]])
        ds = MultiTrialDataset(
            binary_dataset([(1, 2, 3, 4), (5, 6, 7, 8)]).trials,
            TrialCellCounts("0", control, is_target=True),
        )
        doubled = ds.with_counts(ds.counts_tensor() * 2)
        assert doubled.trial_ids == ("1", "2") and doubled.target_id == "0"
        np.testing.assert_array_equal(doubled.target.counts, control * 2)
        treated = ds.counts_tensor().copy()
        treated[2, 2] = 1
        with pytest.raises(ValidationError, match="target trial '0' must contain control rows"):
            ds.with_counts(treated)


def _design_system(shift=0.0):
    from jointpo.transition import DesignSystem

    design = np.array([[0.5, 0.5], [0.2, 0.8]])
    response = np.array([[0.4, 0.6], [0.3 + shift, 0.7 - shift]])
    return DesignSystem(design, response, ("0", "1"), np.ones((2, 2), bool), ("1", "2"))


@pytest.mark.parametrize(
    "make",
    [
        lambda change: TrialCellCounts("1", [[1, 2], [3, 4 + change]]),
        lambda change: binary_dataset([(1, 2, 3, 4), (5, 6, 7, 8 + change)]),
        lambda change: _design_system(0.1 * change),
    ],
    ids=["TrialCellCounts", "MultiTrialDataset", "DesignSystem"],
)
def test_array_records_compare_by_value_and_are_unhashable(make):
    import copy
    import pickle

    record = make(0)
    assert record == make(0) and not record != make(0)
    assert record != make(1)
    assert record == copy.deepcopy(record) == pickle.loads(pickle.dumps(record))
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)


def test_block_paths_build_no_trial_objects(monkeypatch):
    """Parsing, swapping counts, resampling, simulating and a study chunk
    work on the count block alone: none builds a TrialCellCounts."""
    from jointpo.inference import replicate_rng, resample_dataset
    from jointpo.simulate import DgpSpec, run_study, simulate_dataset

    built = []
    init = TrialCellCounts.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["trial_id"])
        init(self, *args, **kwargs)

    text = TOY + "2,0,NA,0,5\n2,0,NA,1,5\n2,1,NA,0,5\n2,1,NA,1,5\n0,0,NA,0,3\n0,0,NA,1,4\n"
    monkeypatch.setattr(TrialCellCounts, "__init__", counting_init)
    ds = parse_dataset(io.StringIO(text))
    ds.with_counts(ds.counts_tensor() * 2)
    resample_dataset(ds, replicate_rng(1, 0))
    simulate_dataset(DgpSpec(case="c3", n_g=50, m=3), seed=2)
    run_study(DgpSpec(case="c1", n_g=100, m=3), 2, 5, 1, workers=1)
    assert built == []
    assert ds.trial_ids == ("1", "2") and ds.target_id == "0"
    assert [t.trial_id for t in ds.all_trials] == ["1", "2", "0"]
    assert built == ["1", "2", "0"]
