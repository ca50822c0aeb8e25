import csv
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from telework_impact import cli, report, sweep_writer
from telework_impact.diary import (
    NO_ROW,
    RejectedDay,
    RejectionTable,
    RejectReason,
    in_row_order,
)
from telework_impact.model import DayType
from telework_impact.report import (
    REJECTION_HEADER,
    SWEEP_HEADER,
    rejection_columns,
    rejection_rows,
    sweep_rows,
    sweep_to_dict,
    write_csv,
    write_json,
)
from telework_impact.scenario import SWEEP_PARAMETERS, SweepResult, weekly_net_mj
from telework_impact.sweep_writer import write_sweep

#: Strings that stress the splice: newlines, quotes, escapes, non-ASCII, and
#: the text of the member at which the sweep is spliced into ``report.json``.
_TEXT = (
    st.text(st.sampled_from('a :,{}[]"\\\n\t\r/éß€\u2028\U0001f600'))
    | st.text()
    | st.sampled_from(["sweep", '"sweep": null', '\n  "sweep": null'])
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20,
)


def test_write_json_is_canonical(tmp_path):
    a = write_json(tmp_path / "a.json", {"b": 1, "a": {"y": 0.25, "x": 2}})
    b = write_json(tmp_path / "b.json", {"a": {"x": 2, "y": 0.25}, "b": 1})
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["a"]["y"] == 0.25


def test_rejection_rows():
    rows = rejection_rows(
        [
            RejectedDay(
                reason=RejectReason.PARSE_ERROR, row=7, participant_id="P1", date="x"
            ),
            RejectedDay(reason=RejectReason.WORK_TOO_SHORT, participant_id="P2", date="2024-01-08"),
        ]
    )
    assert rows == [
        ["7", "P1", "x", "PARSE_ERROR"],
        ["", "P2", "2024-01-08", "WORK_TOO_SHORT"],
    ]


_MJ = st.just(0.0) | st.floats(min_value=5e-324, max_value=1e300)


@st.composite
def _sweep_results(draw):
    """Columnar sweeps over either key set, with repeated values and a
    shared baseline, equipment and travel; a co-working-days value stays in
    the (0, 5] a sweep accepts, so the weekly net is finite."""
    parameter = draw(st.sampled_from(SWEEP_PARAMETERS))
    top = 5.0 if parameter == "cw_days_per_week" else 1e300
    values = draw(st.lists(st.floats(min_value=5e-324, max_value=top), min_size=1, max_size=6))
    values = sorted(values + draw(st.lists(st.sampled_from(values), max_size=3)))
    column = st.lists(_MJ, min_size=len(values), max_size=len(values))
    return SweepResult(
        parameter,
        baseline=draw(st.sampled_from(DayType)),
        equipment_mj=draw(_MJ),
        travel_mj=draw(st.just(-0.0) | st.floats(min_value=-1e300, max_value=1e300)),
        values=values,
        facility_mj=draw(column),
        credit_mj=draw(column),
    )


#: One point repeated: every float cell repeats, 5e-324, -0.0 and 1e300 among them.
_REPEATED = SweepResult(
    "cw_days_per_week", DayType.HOME, 0.0, -0.0, (2.5, 2.5), (5e-324, 5e-324), (1e300, 1e300)
)
#: 0.0 and -0.0 in turn in the facility and credit columns.
_SIGNED_ZEROS = SweepResult(
    "coworker_count", DayType.COWORKING, 0.0, -0.0, (1.0, 2.0, 3.0), (0.0, -0.0, 0.0),
    (-0.0, 0.0, -0.0),
)
_REPORT = {"command": "sweep", "scenario": 'say "hi"\nZürich', "tool": {"name": "t"}}


def _expected_csv(result: SweepResult) -> str:
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    for value, d in result.points:
        floats = (value, d.facility_mj, d.equipment_mj, d.travel_mj, d.credit_mj, d.net_mj)
        writer.writerow([result.parameter, *map(repr, floats)])
    return expected.getvalue()


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    result=_sweep_results(),
    formats=st.sampled_from(["csv", "json", "both"]),
    batch=st.integers(1, 5),
    run_report=st.dictionaries(_TEXT, _JSON, max_size=5),
)
# Across a batch boundary.
@example(result=_REPEATED, formats="both", batch=1, run_report=_REPORT)
@example(result=_SIGNED_ZEROS, formats="both", batch=2, run_report=_REPORT)
# The member's text in a value, and a member of that name deeper in, before it.
@example(
    result=_SIGNED_ZEROS,
    formats="csv",
    batch=2,
    run_report={"a": {"sweep": None, "x": '\n  "sweep": null'}, "sweep": 1, "z": []},
)
def test_sweep_writer_matches_json_and_csv_modules(tmp_path, result, formats, batch, run_report):
    """The streamed sweep artifacts equal what ``json`` and ``csv`` write
    for the whole sweep, whatever the block size and the rest of the report;
    every point's value text (its repr) and net reach ``echo`` once, in
    order, in blocks of at most that size, and the console gets its texts in that order."""
    # A directory per example: a leftover sweep.csv would hide a missing one.
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    batches, console = [], io.StringIO()

    def echo(texts, nets):
        batches.append((texts, nets))
        return "".join(f"{text}\n" for text in texts)

    with mock.patch.object(sweep_writer, "_SWEEP_BLOCK", batch):
        write_sweep(out, result, run_report, formats, echo, console)
    as_dict = sweep_to_dict(result)
    assert [p for b in batches for p in zip(*b)] == list(zip(map(repr, result.values), result.net_mj))
    assert all(0 < len(values) == len(nets) <= batch for values, nets in batches)
    assert console.getvalue() == "".join(f"{value!r}\n" for value in result.values)

    expected = json.dumps({**run_report, "sweep": as_dict}, indent=2, sort_keys=True) + "\n"
    assert (out / "report.json").read_text(encoding="utf-8") == expected
    document = out / "sweep.json"
    if formats == "csv":
        assert not document.exists()
    else:
        expected = json.dumps(as_dict, indent=2, sort_keys=True) + "\n"
        assert document.read_text(encoding="utf-8") == expected
    table = out / "sweep.csv"
    if formats == "json":
        assert not table.exists()
    else:
        assert table.read_bytes() == _expected_csv(result).encode("utf-8")
    # The rows of breakeven.csv are the same cells.
    written = write_csv(tmp_path / "rows.csv", SWEEP_HEADER, sweep_rows(result))
    assert written.read_bytes() == _expected_csv(result).encode("utf-8")


@given(_sweep_results())
@example(_REPEATED)
@example(_SIGNED_ZEROS)
def test_weekly_net_column_of_a_sweep_built_directly(result):
    """A ``cw_days_per_week`` sweep's weekly net is :func:`weekly_net_mj` of
    each point, bit for bit; the other parameters' sweeps have none."""
    if result.parameter != "cw_days_per_week":
        assert result.weekly_net_mj is None
    else:
        expected = [weekly_net_mj(delta, value).hex() for value, delta in result.points]
        assert [weekly.hex() for weekly in result.weekly_net_mj] == expected


def test_a_sweep_past_the_most_blocks_has_larger_blocks(tmp_path):
    """Past ``_MAX_BLOCKS`` blocks the blocks grow, so that the pipe of
    claims, a byte per block, is filled before either process reads it;
    the files are the same."""
    result = SweepResult(
        "coworker_count", DayType.EMPLOYER_OFFICE, 1.5, 2.5, tuple(map(float, range(1, 11))),
        tuple(map(float, range(10))), (0.0,) * 10,
    )
    sizes = []

    def echo(texts, nets):
        sizes.append(len(texts))
        return ""

    default = sweep_writer._SWEEP_BLOCK, sweep_writer._MAX_BLOCKS
    for side, block, most in (("small", 1, 3), ("default", *default)):
        (tmp_path / side).mkdir()
        with mock.patch.multiple(sweep_writer, _SWEEP_BLOCK=block, _MAX_BLOCKS=most):
            write_sweep(tmp_path / side, result, _REPORT, "both", echo, io.StringIO())
    assert sizes == [4, 4, 2, 10]
    for name in ("report.json", "sweep.csv", "sweep.json"):
        assert (tmp_path / "small" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()


#: Cells that need quoting (``,``, ``"``, ``\r``, ``\n``), empty cells and
#: non-ASCII text among plain ones; rows of no cell and of one.
_CELL = st.text(st.sampled_from('ab1.,"\r\n é€\U0001f600'), max_size=4) | st.text(max_size=4)
#: ``_CELL`` less the texts csv.writer refuses before Python 3.11, those
#: holding NUL, which the layout of columns writes as later versions do.
_WRITABLE_CELL = _CELL if sys.version_info >= (3, 11) else _CELL.filter(lambda c: "\0" not in c)


def _csv_bytes(header, rows) -> bytes:
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return expected.getvalue().encode("utf-8")


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    header=st.lists(_WRITABLE_CELL, min_size=1, max_size=4),
    rows=st.lists(st.lists(_WRITABLE_CELL, max_size=4), max_size=12),
)
# Every cell or row that needs quoting, and a row of no cell.
@example(
    header=["a"],
    rows=[["x,y"], ['say "hi"'], ["cr\r"], ["two\nlines"], [""], [], ["", ""], ["plain"]],
)
def test_write_csv_matches_csv_writer(tmp_path, header, rows):
    written = write_csv(tmp_path / "table.csv", header, rows)
    assert written.read_bytes() == _csv_bytes(header, rows)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    columns=st.integers(1, 4).flatmap(
        lambda width: st.integers(0, 9).flatmap(
            lambda size: st.lists(
                st.lists(_WRITABLE_CELL, min_size=size, max_size=size),
                min_size=width,
                max_size=width,
            )
        )
    ),
    batch=st.integers(1, 5),
)
# One column with an empty cell, which csv.writer quotes, beside plain ones.
@example(columns=[["a", "", "b"]], batch=2)
@example(columns=[["", "x"], ["", ""]], batch=1)
def test_columns_are_written_as_csv_writer_writes_their_rows(tmp_path, columns, batch):
    source = report.CsvColumns(
        len(columns[0]), lambda start, stop: [column[start:stop] for column in columns]
    )
    header = [f"h{j}" for j in range(len(columns))]
    with mock.patch.object(report, "_CSV_BATCH_ROWS", batch):
        written = write_csv(tmp_path / "columns.csv", header, source)
    assert written.read_bytes() == _csv_bytes(header, zip(*columns))


#: Ids and dates with cells that need quoting, empty ones and plain ones.
_ID = st.sampled_from(["P1", "", "a,b", 'say "hi"', "cr\r", "two\nlines", "é"]) | _WRITABLE_CELL


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
@given(
    st.lists(
        st.builds(
            RejectedDay,
            st.sampled_from(RejectReason),
            st.none() | st.integers(0, 10**6),
            _ID,
            _ID,
        ),
        max_size=14,
    ),
    st.integers(1, 5),
)
@example([RejectedDay(RejectReason.PARSE_ERROR, None, "", "")], 4096)
@example(
    [RejectedDay(RejectReason.DUPLICATE_DAY, 3, "P,1", "2024-01-08"),
     RejectedDay(RejectReason.PARSE_ERROR, 4, "P2", "2024-01-09"),
     RejectedDay(RejectReason.MODE_MISMATCH, None, "P\r\n3", '"')],
    1,
)
def test_rejections_csv_from_columns_is_what_csv_writer_writes(tmp_path, rejected, batch):
    """rejections.csv, laid out from the columns of a RejectionTable in
    batches, is byte for byte what csv.writer writes for its rows, with an
    empty row cell for a rejection without a row."""
    rows = [
        ["" if item.row is None else str(item.row), item.participant_id, item.date,
         item.reason.value]
        for item in rejected
    ]
    table = RejectionTable.from_rejected(rejected)
    with mock.patch.object(report, "_CSV_BATCH_ROWS", batch):
        written = write_csv(tmp_path / "rejections.csv", REJECTION_HEADER, rejection_columns(table))
    assert written.read_bytes() == _csv_bytes(REJECTION_HEADER, rows)
    assert rejection_rows(table) == rows


def _in_row_order(rejected):
    """A copy of ``rejected`` sorted by row, NO_ROW first, as a table."""
    ordered = sorted(rejected, key=lambda item: NO_ROW if item.row is None else item.row)
    return RejectionTable.from_rejected(ordered)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
@given(
    st.lists(
        st.lists(
            st.builds(
                RejectedDay,
                st.sampled_from(RejectReason),
                st.none() | st.integers(0, 6),
                _ID,
                _ID,
            ),
            max_size=9,
        ).map(_in_row_order),
        min_size=1,
        max_size=4,
    ),
    st.integers(1, 5),
)
@example([RejectionTable.from_rejected([])], 1)
@example(
    [_in_row_order([RejectedDay(RejectReason.PARSE_ERROR, row, f"a{row}") for row in (None, 2, 2)]),
     RejectionTable.from_rejected([]),
     _in_row_order([RejectedDay(RejectReason.MODE_MISMATCH, row, f"b{row}") for row in (2, None)])],
    2,
)
def test_rejections_of_several_tables_are_written_in_row_order(tmp_path, tables, batch):
    """Tables in row order, read through one order of their rows without
    being joined, give the rejections.csv bytes and the input summary of
    their join by ``in_row_order``: ties across tables keep the order of
    the tables, NO_ROW comes first, and an empty table adds nothing."""
    _assert_written_as_joined(tmp_path, tables, batch)


def _assert_written_as_joined(tmp_path, tables, batch):
    joined = in_row_order(*tables)
    assert rejection_columns(*tables).size == len(joined)
    with mock.patch.object(report, "_CSV_BATCH_ROWS", batch):
        written = write_csv(tmp_path / "several.csv", REJECTION_HEADER, rejection_columns(*tables))
        expected = write_csv(tmp_path / "joined.csv", REJECTION_HEADER, rejection_columns(joined))
    assert written.read_bytes() == expected.read_bytes()
    summary = report.input_summary("diaries.csv", 40, 30, *tables)
    assert summary == report.input_summary("diaries.csv", 40, 30, joined)


@pytest.mark.parametrize("batch", [1, 7, 4096])
def test_pipeline_rejections_are_written_in_row_order(
    tmp_path, ref_config, ref_diaries_path, batch
):
    """The read's and the filter's tables as the CLI hands them over, for
    the reference diaries with a bad date, a short row, a duplicate day and
    days that fail a rule planted among them, interleave by row and are
    written as their join."""
    header, *rows = Path(ref_diaries_path).read_text(encoding="utf-8").splitlines()
    rows[40:40] = ["P9,2019-02-30,office,60,480,30,30,10,10,40,0,0", "P9,2019-09-03"]
    rows.insert(120, rows[100])
    for at, location, work in ((10, "multiple", 480), (80, "office", 30), (200, "home", 30)):
        rows.insert(at, f"Q{at},2019-09-02,{location},60,{work},30,30,10,10,40,0,0")
    path = tmp_path / "diaries.csv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    _, _, tables = cli._run_pipeline(mock.Mock(diaries=path), ref_config)
    reasons = [{item.reason for item in table} for table in tables]
    assert reasons[0] == {RejectReason.PARSE_ERROR, RejectReason.DUPLICATE_DAY}
    assert reasons[1] and RejectReason.PARSE_ERROR not in reasons[1]
    rows = [table.rows for table in tables]
    assert rows[0].min() < rows[1].max() and rows[1].min() < rows[0].max()
    _assert_written_as_joined(tmp_path, tables, batch)
