import csv
import datetime as dt
import gc
import io
import logging
import math
import random
import re
import tempfile
import warnings
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_day, naive_failing_rules, random_valid_day
from telework_impact import (
    Activity,
    DayType,
    TransportMode,
    apply_quality_filter,
    parse_diary_file,
)
from telework_impact.diary import DiaryTable, RejectedDay, RejectionTable, RejectReason
from telework_impact.errors import DiaryFormatError
from telework_impact.model import DiaryDay
from telework_impact.quality import QualityRules
from telework_impact.report import rejection_rows
from telework_impact import diary, split_read
from telework_impact.diary import DIARY_HEADER, LOCATION_VOCABULARY

HEADER = ",".join(DIARY_HEADER)


def parse_text(text):
    return parse_diary_file(io.StringIO(text))


class TestParse:
    def test_empty_file_with_header(self):
        days, rejected = parse_text(HEADER + "\n")
        assert len(days) == 0 and list(rejected) == []

    def test_missing_header_aborts(self):
        with pytest.raises(DiaryFormatError):
            parse_text("")
        with pytest.raises(DiaryFormatError, match="header"):
            parse_text("a,b,c\n1,2,3\n")

    def test_negative_minutes_rejected_per_row(self):
        text = HEADER + "\nP1,2024-01-08,office,60,480,30,30,10,10,-40,0,0\n"
        days, rejected = parse_text(text)
        assert len(days) == 0
        assert len(rejected) == 1
        assert rejected[0].reason is RejectReason.PARSE_ERROR
        assert rejected[0].row == 2

    def test_three_valid_one_bad_date(self):
        rows = [
            "P1,2024-01-08,office,60,480,30,30,10,10,40,0,0",
            "P1,2024-01-09,coworking,30,500,30,30,10,10,10,0,0",
            "P1,not-a-date,home,10,490,60,30,0,0,10,0,0",
            "P2,2024-01-08,home,20,470,90,60,0,0,20,0,0",
        ]
        days, rejected = parse_text(HEADER + "\n" + "\n".join(rows) + "\n")
        assert len(days) == 3
        assert len(rejected) == 1
        assert rejected[0].reason is RejectReason.PARSE_ERROR
        assert rejected[0].row == 4
        assert rejected[0].participant_id == "P1"

    def test_wrong_field_count_is_row_error(self):
        text = HEADER + "\nP1,2024-01-08,office,60\n"
        days, rejected = parse_text(text)
        assert not days
        assert rejected[0].reason is RejectReason.PARSE_ERROR

    def test_binary_stream_accepted(self):
        data = (HEADER + "\nP1,2024-01-08,office,60,480,30,30,10,10,40,0,0\n").encode()
        stream = io.BytesIO(data)
        days, rejected = parse_diary_file(stream)
        assert len(days) == 1 and not rejected
        gc.collect()
        assert not stream.closed

    def test_byte_order_mark_before_the_header_is_skipped(self, tmp_path):
        # As a spreadsheet saves "CSV UTF-8".
        text = f"{HEADER}\r\nP\ufeff1,2024-01-08,office,60,480,30,30,10,10,40,0,0\r\n"
        expected = _outcome(parse_text, text)
        assert expected[0][0] == ["P\ufeff1"]
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert _outcome(diary.parse_diary_path, path) == expected
        assert _outcome(parse_diary_file, io.BytesIO(path.read_bytes())) == expected
        assert _outcome(parse_text, "\ufeff" + text) == expected

    def test_unknown_locations_fold_into_one_warning(self, caplog):
        rows = [f"P{i},2024-01-08,cafe {i},60,480,30,30,10,10,40,0,0" for i in range(7)]
        rows[3] = "P3,2024-01-08,bus depot,abc,480,30,30,10,10,40,0,0"
        rows.insert(1, "P9,2024-01-08,office,60,480,30,30,10,10,40,0,0")
        rows.append("P8,2024-01-08,tram stop,60,480,30,30,10,10,-40,0,0")
        with caplog.at_level(logging.WARNING, logger="telework_impact.diary"):
            days, rejected = parse_text(HEADER + "\n" + "\n".join(rows) + "\n")
        assert len(days) == 7
        assert [r.row for r in rejected] == [6, 10]
        assert {d.day_type for d in days} == {DayType.OTHER_LOCATION, DayType.EMPLOYER_OFFICE}
        records = [r for r in caplog.records if r.name == "telework_impact.diary"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        message = records[0].getMessage()
        # Rows rejected as PARSE_ERROR (6: non-numeric, 10: negative) are not counted.
        assert message.startswith("6 rows with an unknown location")
        assert message.endswith("(first rows: 2, 4, 5, 7, 8)")

    def test_known_locations_log_nothing(self, caplog):
        text = HEADER + "\nP1,2024-01-08, office ,60,480,30,30,10,10,40,0,0\n"
        with caplog.at_level(logging.WARNING, logger="telework_impact.diary"):
            days, _ = parse_text(text)
        assert days[0].day_type is DayType.EMPLOYER_OFFICE
        assert not caplog.records

    @pytest.mark.parametrize("from_path", [False, True])
    def test_padded_fields_are_stripped(self, tmp_path, from_path):
        rows = [
            " P1 , 2024-01-08 , office ,60,480,30,30,10,10,40,0,0",
            " P2 , 2024-02-30 ,home,60,480,30,30,10,10,40,0,0",
            "\tP3 ,2024-01-08,home,60,480,30,30,10,10,-40,0,0",
        ]
        text = HEADER + "\n" + "\n".join(rows) + "\n"
        if from_path:
            path = tmp_path / "padded.csv"
            path.write_text(text, encoding="utf-8")
            days, rejected = diary.parse_diary_path(path)
        else:
            days, rejected = parse_text(text)
        assert [(d.participant_id, d.date, d.day_type) for d in days] == [
            ("P1", dt.date(2024, 1, 8), DayType.EMPLOYER_OFFICE)
        ]
        assert [(r.row, r.participant_id, r.date) for r in rejected] == [
            (3, "P2", "2024-02-30"),
            (4, "P3", "2024-01-08"),
        ]

    def test_row_numbers_and_order_preserved(self):
        rows = [
            "P1,2024-01-08,office,60,480,30,30,10,10,40,0,0",
            "P2,2024-01-08,home,20,470,90,60,0,0,20,0,0",
        ]
        days, _ = parse_text(HEADER + "\n" + "\n".join(rows) + "\n")
        assert [d.source_row for d in days] == [2, 3]
        assert [d.participant_id for d in days] == ["P1", "P2"]


class TestQualityFilter:
    def test_work_too_short(self):
        day = make_day(work=230.0, modes={"car": 60.0}, chores=120, leisure=120)
        kept, rejected = apply_quality_filter([day])
        assert not kept
        assert rejected[0].reason is RejectReason.WORK_TOO_SHORT

    def test_mode_mismatch(self):
        day = make_day(work=500.0, travel=120.0, modes={"car": 10.0}, chores=60, leisure=60)
        kept, rejected = apply_quality_filter([day])
        assert rejected[0].reason is RejectReason.MODE_MISMATCH

    def test_clean_office_day_kept(self):
        day = make_day(
            day_type=DayType.EMPLOYER_OFFICE,
            work=522.0,
            travel=133.0,
            modes={"public_transport": 133.0},
            chores=100.0,
            leisure=145.0,
        )
        assert day.activity_total() == 900.0
        kept, rejected = apply_quality_filter([day])
        assert list(kept) == [day] and not rejected

    def test_total_too_short(self):
        day = make_day(work=300.0, travel=20.0, modes={"car": 20.0}, chores=50, leisure=100)
        assert day.activity_total() == 470.0
        kept, rejected = apply_quality_filter([day])
        assert rejected[0].reason is RejectReason.TOTAL_TOO_SHORT

    def test_thresholds_are_inclusive_boundaries(self):
        # Exactly 240 work / 480 total / 100 min mismatch all pass.
        day = make_day(work=240.0, travel=200.0, modes={"car": 100.0}, chores=20, leisure=20)
        kept, rejected = apply_quality_filter([day])
        assert list(kept) == [day]

    def test_excluded_locations(self):
        days = [
            make_day(day_type=DayType.OTHER_LOCATION, modes={"car": 30.0}),
            make_day(day_type=DayType.MULTI_LOCATION, modes={"car": 30.0}),
        ]
        kept, rejected = apply_quality_filter(days)
        assert not kept
        assert {r.reason for r in rejected} == {RejectReason.EXCLUDED_LOCATION}

    def test_multi_location_kept_when_rule_disabled(self):
        rules = QualityRules(exclude_multi_location=False)
        day = make_day(day_type=DayType.MULTI_LOCATION, modes={"car": 30.0})
        kept, rejected = apply_quality_filter([day], rules)
        assert list(kept) == [day]

    def test_first_failing_rule_is_primary_and_all_attached(self):
        day = make_day(
            day_type=DayType.OTHER_LOCATION,
            work=100.0,
            travel=200.0,
            modes={"car": 10.0},
            chores=0,
            leisure=0,
        )
        _, rejected = apply_quality_filter([day])
        assert rejected[0].reason is RejectReason.WORK_TOO_SHORT
        assert rejected[0].failures == (
            RejectReason.WORK_TOO_SHORT,
            RejectReason.TOTAL_TOO_SHORT,
            RejectReason.MODE_MISMATCH,
            RejectReason.EXCLUDED_LOCATION,
        )

    def test_negative_thresholds_rejected(self):
        with pytest.raises(ValueError):
            QualityRules(min_work_minutes=-1.0)

    @pytest.mark.parametrize("as_table", [False, True])
    def test_every_combination_of_failing_rules(self, as_table):
        # One day per combination; bit k fails rule k in RejectReason order.
        parts = (
            "work 199.5 < 240 min",
            "total 470.25 < 480 min",
            "|travel - modes| = 110.5 > 100 min",
            "day type other_location excluded",
        )
        days = []
        for combination in range(16):
            fails = [bool(combination >> k & 1) for k in range(4)]
            work = 199.5 if fails[0] else 250.0
            total = 470.25 if fails[1] else 600.0
            days.append(
                make_day(
                    day_type=DayType.OTHER_LOCATION if fails[3] else DayType.HOME,
                    work=work,
                    travel=120.0,
                    modes={"car": 9.5 if fails[2] else 120.0},
                    chores=total - work - 120.0,
                    leisure=0.0,
                    pid=f"P{combination}",
                    date=dt.date(2024, 1, 1 + combination),
                    row=combination + 2,
                )
            )
        given = DiaryTable.from_days(days) if as_table else days
        kept, rejected = apply_quality_filter(given)
        assert [day.participant_id for day in kept] == ["P0"]
        assert len(rejected) == 15
        rules = tuple(RejectReason)[:4]
        for combination, item in enumerate(rejected, 1):
            fails = [bool(combination >> k & 1) for k in range(4)]
            failures = tuple(reason for reason, fail in zip(rules, fails) if fail)
            assert item.reason is failures[0]
            assert item.failures == failures
            assert item.detail == "; ".join(part for part, fail in zip(parts, fails) if fail)
            assert (item.row, item.participant_id) == (combination + 2, f"P{combination}")
            assert type(item.row) is int
            assert item.date == f"2024-01-{1 + combination:02d}"


class TestFilterProperties:
    def make_population(self, seed, n=300):
        rng = random.Random(seed)
        days = []
        for row in range(2, n + 2):
            days.append(
                make_day(
                    row=row,
                    day_type=rng.choice(list(DayType)),
                    work=rng.uniform(0, 700),
                    travel=rng.uniform(0, 300),
                    modes={"car": rng.uniform(0, 150), "walk": rng.uniform(0, 60)},
                    chores=rng.uniform(0, 200),
                    leisure=rng.uniform(0, 200),
                )
            )
        return days

    def test_partition(self):
        days = self.make_population(99)
        kept, rejected = apply_quality_filter(days)
        assert len(kept) + len(rejected) == len(days)
        rows = [d.source_row for d in kept] + [r.row for r in rejected]
        assert sorted(rows) == [d.source_row for d in days]

    def test_idempotence(self):
        days = self.make_population(7)
        kept, _ = apply_quality_filter(days)
        kept2, rejected2 = apply_quality_filter(kept)
        assert list(kept2) == list(kept) and not rejected2

    def test_monotone_in_work_threshold(self):
        days = self.make_population(13)
        sizes = []
        for threshold in (0, 120, 240, 360, 480):
            kept, _ = apply_quality_filter(days, QualityRules(min_work_minutes=threshold))
            sizes.append(len(kept))
        assert sizes == sorted(sizes, reverse=True)

    def test_order_independence(self):
        days = self.make_population(21)
        shuffled = days[:]
        random.Random(5).shuffle(shuffled)
        kept_a, _ = apply_quality_filter(days)
        kept_b, _ = apply_quality_filter(shuffled)
        assert sorted(d.source_row for d in kept_a) == sorted(d.source_row for d in kept_b)


class TestDiaryTable:
    def rows(self):
        return [
            "P1,2024-01-08,office,60,480,30,30,10,10,40,0,0",
            "P2,2024-01-09,coworking,30,500,30,30,10,10,10,0,0",
            "P3,2024-01-10,home,10,490,60,30,0,0,10,0,0",
        ]

    def test_sequence_of_days(self):
        table, _ = parse_text(HEADER + "\n" + "\n".join(self.rows()) + "\n")
        assert isinstance(table, DiaryTable) and len(table) == 3
        days = list(table)
        assert all(isinstance(d, DiaryDay) for d in days)
        assert table[-1] == days[2] and table[-1].source_row == 4
        assert [d.participant_id for d in table[1:]] == ["P2", "P3"]
        with pytest.raises(IndexError):
            table[3]

    def test_read_only(self):
        table, _ = parse_text(HEADER + "\n" + "\n".join(self.rows()) + "\n")
        with pytest.raises(ValueError):
            table.minutes[0, 0] = 1.0

    def test_from_days_keeps_order_and_rows(self):
        days = [make_day(modes={"car": 10.0}, pid=f"P{i}", row=i + 5) for i in range(4)]
        table = DiaryTable.from_days(days)
        assert list(table) == days
        assert [d.source_row for d in table] == [5, 6, 7, 8]
        assert DiaryTable.from_days(table) is table

    def test_filter_gives_tables_for_any_days(self):
        table, _ = parse_text(HEADER + "\n" + "\n".join(self.rows()) + "\n")
        rules = QualityRules(min_work_minutes=495.0)
        kept_table, rejected_table = apply_quality_filter(table, rules)
        kept_list, rejected_list = apply_quality_filter(list(table), rules)
        for kept, rejected in ((kept_table, rejected_table), (kept_list, rejected_list)):
            assert isinstance(kept, DiaryTable) and isinstance(rejected, RejectionTable)
            assert list(kept) == [table[1]]
            assert [r.row for r in rejected] == [2, 4]
        assert list(rejected_table) == list(rejected_list)


# Minutes small enough that no total exceeds a day. The fixed values reach the
# default thresholds exactly: 240 work, 4 x 120 = 480 total, 100 mismatch.
MINUTES = st.one_of(
    st.floats(min_value=0.0, max_value=280.0),
    st.sampled_from([0.0, 100.0, 120.0, 240.0, math.nextafter(100.0, math.inf)]),
)


@st.composite
def diary_days(draw, allow_nan=False):
    values = MINUTES | st.just(math.nan) if allow_nan else MINUTES
    return DiaryDay(
        participant_id=draw(st.text("ABCXYZ0189-", min_size=1, max_size=6)),
        date=draw(st.dates(min_value=dt.date(1900, 1, 1))),
        day_type=draw(st.sampled_from(list(DayType))),
        activity_minutes={a: draw(values) for a in Activity},
        mode_minutes={m: draw(values) for m in TransportMode},
    )


def _near(draw, value):
    """``value``, one ulp either side of it, or any threshold."""
    choices = [st.floats(min_value=0.0, max_value=1440.0)]
    if math.isfinite(value):
        edges = [value, math.nextafter(value, -math.inf), math.nextafter(value, math.inf)]
        choices.append(st.sampled_from([max(edge, 0.0) for edge in edges]))
    return draw(st.one_of(*choices))


@st.composite
def days_and_rules(draw):
    """Days, and rules whose thresholds sit on or next to one day's values."""
    days = draw(st.lists(diary_days(allow_nan=True), min_size=1, max_size=12))
    pivot = draw(st.sampled_from(days))
    rules = QualityRules(
        min_work_minutes=_near(draw, pivot.activity(Activity.WORK)),
        min_total_minutes=_near(draw, pivot.activity_total()),
        max_mode_mismatch_minutes=_near(
            draw, abs(pivot.activity(Activity.TRAVEL) - pivot.mode_total())
        ),
        exclude_multi_location=draw(st.booleans()),
    )
    return days, rules


# Summed left to right the activities total 0.6000000000000001, exactly the
# threshold, so the day is kept; summed right to left they total 0.6.
_ORDER_SENSITIVE = (
    [make_day(work=0.2, chores=0.3, leisure=0.0, travel=0.1, modes={"car": 0.1})],
    QualityRules(
        min_work_minutes=0.0, min_total_minutes=0.1 + 0.2 + 0.3, max_mode_mismatch_minutes=0.0
    ),
)


@settings(max_examples=200, deadline=None)
@given(days_and_rules())
@example(_ORDER_SENSITIVE)
def test_masks_agree_with_row_wise_reference(case):
    days, rules = case
    for given_days in (days, DiaryTable.from_days(days)):
        kept, rejected = apply_quality_filter(given_days, rules)
        verdicts = [naive_failing_rules(day, rules) for day in days]
        assert len(kept) == sum(1 for failures in verdicts if not failures)
        assert len(rejected) == len(days) - len(kept)
        flagged = iter(rejected)
        for day, failures in zip(days, verdicts):
            if not failures:
                continue
            item = next(flagged)
            assert (item.participant_id, item.date) == (day.participant_id, day.date.isoformat())
            assert item.row == day.source_row
            assert item.reason is failures[0][0]
            assert item.failures == tuple(reason for reason, _ in failures)
            assert item.detail == "; ".join(detail for _, detail in failures)


_RAW_LOCATION = {day_type: raw for raw, day_type in LOCATION_VOCABULARY.items()}


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(diary_days(), st.integers(0, 2)),
        max_size=15,
        unique_by=lambda pair: (pair[0].participant_id, pair[0].date),
    )
)
def test_csv_round_trip(days_and_blanks):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(DIARY_HEADER)
    expected_rows, line = [], 1
    for day, blank_lines in days_and_blanks:
        buffer.write("\n" * blank_lines)
        line += blank_lines + 1
        expected_rows.append(line)
        writer.writerow(
            [day.participant_id, day.date.isoformat(), _RAW_LOCATION[day.day_type]]
            + [repr(day.activity(a)) for a in Activity]
            + [repr(day.mode(m)) for m in TransportMode]
        )
    table, rejected = parse_diary_file(io.StringIO(buffer.getvalue()))
    assert not rejected
    assert list(table) == [day for day, _ in days_and_blanks]
    assert [day.source_row for day in table] == expected_rows


def test_random_valid_days_always_kept():
    rng = random.Random(1234)
    days = [random_valid_day(rng) for _ in range(200)]
    kept, rejected = apply_quality_filter(days)
    assert not rejected and len(kept) == 200


# --- The reader against the row loop ----------------------------------------


def row_loop(stream):
    """The diary read one csv record at a time: the reference that
    ``parse_diary_file`` and ``parse_diary_path`` must match in table, row
    numbers, rejections and warning."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        raise DiaryFormatError("diary file is empty (missing header)")
    if tuple(h.strip() for h in header) != DIARY_HEADER:
        raise DiaryFormatError("unexpected diary header; expected exactly: " + HEADER)
    days, rejected, unknown_rows, first_rows = [], [], [], {}
    for values in reader:
        if not values:
            continue
        row, participant_id = reader.line_num, values[0].strip()
        try:
            if len(values) != len(DIARY_HEADER):
                raise ValueError(f"expected {len(DIARY_HEADER)} fields, got {len(values)}")
            date_text = values[1].strip()
            if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", date_text):
                raise ValueError(f"Invalid isoformat string: {date_text!r}")
            date = dt.date.fromisoformat(date_text)
            minutes = [float(value) for value in values[3:]]
            location = values[2].strip()
            day = DiaryDay(
                participant_id,
                date,
                LOCATION_VOCABULARY.get(location, DayType.OTHER_LOCATION),
                dict(zip(Activity, minutes)),
                dict(zip(TransportMode, minutes[len(Activity):])),
                row,
            )
        except ValueError as exc:
            date_text = values[1].strip() if len(values) > 1 else ""
            reason = RejectReason.PARSE_ERROR
            detail = str(exc)
            rejected.append(RejectedDay(reason, row, participant_id, date_text, detail, (reason,)))
            continue
        first_row = first_rows.setdefault((participant_id, date), row)
        if first_row != row:
            reason = RejectReason.DUPLICATE_DAY
            detail = f"duplicate of row {first_row}"
            rejected.append(
                RejectedDay(reason, row, participant_id, date.isoformat(), detail, (reason,))
            )
            continue
        if location not in LOCATION_VOCABULARY:
            unknown_rows.append(row)
        days.append(day)
    if unknown_rows:
        logging.getLogger("telework_impact.diary").warning(
            "%d rows with an unknown location classified as other_location (first rows: %s)",
            len(unknown_rows),
            ", ".join(map(str, unknown_rows[:5])),
        )
    return DiaryTable.from_days(days), rejected


#: Number spellings that ``float()`` and ``np.loadtxt`` both accept, among
#: them values the minute screen rejects.
_SPELLINGS = (" 5 ", "+.5", "5.", "1e400", "-0", "nan", "-nan", "inf", "-3", "2000")
#: Spellings only ``float()`` accepts, then ones neither accepts; the last
#: two are digits and dots alone.
_REFUSED_SPELLINGS = ("1_000", "\u0665\u0660", "abc", "", ".", "1.2.3")
_LOCATIONS = (*LOCATION_VOCABULARY, " home ", "\toffice", "cafe", "Office", "")
_QUOTED_TEXTS = ("a,b", 'say ""hi""', "two\nlines", "cr\rhere")
#: Lines that np.loadtxt refuses or misreads, which csv reads one by one,
#: and repeats of earlier lines.
_LINE_KINDS = ("blank", "spaces", "quoted", "arity", "spelling", "bad date", "repeat")


@st.composite
def diary_texts(draw):
    """CSV text of a diary file.

    Half the files hold only rows ``np.loadtxt`` reads: padded and special
    number spellings, padded dates, padded and unknown locations, and any
    mix of line endings. In the other half some rows are of one kind that
    the reader parses with csv: blank or whitespace-only lines, quoted
    fields (some spanning lines), wrong field counts, number spellings
    ``np.loadtxt`` rejects, or bad dates; or they repeat an earlier line.
    Some headers are quoted, and some are wrong.
    """
    header = draw(
        st.sampled_from(
            [HEADER] * 6
            + [" , ".join(DIARY_HEADER), '"participant_id",' + HEADER.split(",", 1)[1], "a,b"]
        )
    )
    kinds = ("row",) * 3
    if draw(st.booleans()):
        kinds += (draw(st.sampled_from(_LINE_KINDS)),)
    lines = [header]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("blank", "spaces"):
            lines.append("" if kind == "blank" else draw(st.sampled_from([" ", "\t", "  "])))
            continue
        if kind == "repeat" and len(lines) > 1:
            lines.append(draw(st.sampled_from(lines[1:])))
            continue
        date = draw(
            st.one_of(
                st.dates(min_value=dt.date(1900, 1, 1)).map(dt.date.isoformat),
                st.sampled_from([" 2024-01-08 ", "20240108"]),
            )
        )
        minute = st.one_of(
            st.floats(0.0, 300.0).map(repr),
            st.integers(0, 300).map(str),
            st.sampled_from(_SPELLINGS),
        )
        fields = [
            draw(st.text("AB19 \u00e9-_", max_size=5)),
            date,
            draw(st.sampled_from(_LOCATIONS)),
            *draw(st.lists(minute, min_size=9, max_size=9)),
        ]
        if kind == "quoted":
            at = draw(st.sampled_from([0, 0, 1, 2, 2, 3]))
            text = draw(st.sampled_from(_QUOTED_TEXTS)) if at == 0 else fields[at]
            fields[at] = f'"{text}"'
        elif kind == "arity":
            fields = fields[:-1] if draw(st.booleans()) else fields + ["0"]
        elif kind == "spelling":
            fields[draw(st.integers(3, 11))] = draw(st.sampled_from(_REFUSED_SPELLINGS))
        elif kind == "bad date":
            fields[1] = draw(st.sampled_from(["2024-13-01", "not-a-date", ""]))
        lines.append(",".join(fields))
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(endings) for line in lines[:-1]) + lines[-1]
    return text + draw(st.sampled_from(["", "\n", "\r\n"]))


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append((record.levelno, record.getMessage()))


def _outcome(parse, source):
    """Every column of the table (minutes as their bits), its distinct ids
    and dates in their order, the rejections and the logged warnings of one
    parse, or the error it raised."""
    logger = logging.getLogger("telework_impact.diary")
    handler = _Messages()
    logger.addHandler(handler)
    try:
        table, rejected = parse(source)
    except DiaryFormatError as exc:
        return "error", str(exc)
    finally:
        logger.removeHandler(handler)
    _check_layout(table)
    columns = (
        list(table.participant_ids),
        list(table.dates),
        table.source_rows.tolist(),
        table.day_types.tolist(),
        table.minutes.shape,
        table.minutes.view(np.int64).tolist(),
        table.distinct_ids,
        table.distinct_dates,
    )
    return columns, list(rejected), handler.messages


def _check_layout(table):
    """The coded layout of a table: int32 codes into tuples that hold each
    distinct id and date once, int64 rows, and no object column."""
    assert table.participant_codes.dtype == np.int32 and table.date_codes.dtype == np.int32
    assert table.source_rows.dtype == np.int64 and table.day_types.dtype == np.int8
    assert table.minutes.dtype == np.float64
    for values in (table.distinct_ids, table.distinct_dates):
        assert type(values) is tuple and len(set(values)) == len(values)
    assert all(type(value) is str for value in table.distinct_ids)
    assert all(type(value) is dt.date for value in table.distinct_dates)


class _NonSeekable(io.RawIOBase):
    """Binary stream of ``data`` that can be read once and not seeked."""

    def __init__(self, data):
        self._data = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, buffer):
        return self._data.readinto(buffer)


_ROW = "P1,2024-01-08,office,60,480,30,30,10,10,40,0,0"
_ROW2 = "P2,2024-01-09,home,60,480,30,30,10,10,40,0,0"


@settings(max_examples=200, deadline=None)
@given(diary_texts(), st.integers(1, 4))
# A quoted known location and a quoted id with a doubled quote both pass
# np.loadtxt, which would read the quotes as text.
@example(f'{HEADER}\n{_ROW}\nP2,2024-01-08,"office",60,480,30,30,10,10,40,0,0\n', 4)
@example(f'{HEADER}\n"P""2",2024-01-08,home,60,480,30,30,10,10,40,0,0\n', 4)
# A blank line inside a pass, which np.loadtxt skips, and one that starts a
# pass, which it would warn about.
@example(f"{HEADER}\n{_ROW}\n\n{_ROW2}\n", 4)
@example(f"{HEADER}\n{_ROW}\n\n\n", 1)
# A quoted minute holding the delimiter, a short row and a date that does
# not exist, each among rows np.loadtxt reads.
@example(f'{HEADER}\n{_ROW}\nP2,2024-01-08,home,60,480,30,30,10,"12,5",0,0,0\n{_ROW2}\n', 4)
@example(f"{HEADER}\n{_ROW}\nP2,2024-01-08,home,60,480\n{_ROW2}\n", 4)
@example(f"{HEADER}\n{_ROW}\nP2,2019-02-30,home,60,480,30,30,10,10,40,0,0\n{_ROW2}\n", 4)
# A line kept by the row parse ahead of one np.loadtxt reads, in a pass
# with a refused line; and digits and dots that do not make a number.
@example(f'{HEADER}\nP1,2024-01-08,"home",60,480,30,30,10,10,40,0,0\n{_ROW2}\nP3,x\n', 4)
@example(f"{HEADER}\n{_ROW}\nP2,2024-01-08,home,60,480,30,30,10,10,1.2.3,0,0\n{_ROW2}\n", 4)
# A quoted record that spans lines, last in the file and inside it; one
# left open to the end of the file.
@example(f'{HEADER}\n{_ROW}\n"two\nlines",2024-01-08,home,60,480,30,30,10,10,40,0,0\n', 2)
@example(f'{HEADER}\n{_ROW}\n"open,{_ROW}\n{_ROW}\n{_ROW2}', 4)
# Records that span lines across the end of a pass.
@example(f'{HEADER}\n{_ROW}\n"P\n\n2",2024-01-09,home,60,480,30,30,10,10,40,0,0\n{_ROW2}\n', 1)
@example(f'{HEADER}\n{_ROW}\n"P\n2",2024-01-09,home,60,480,30,30,10,10,40,0,0\n{_ROW2}\n', 2)
@example(f'{HEADER}\n"a\nb",{_ROW2}\n{_ROW}\n"c\nd",{_ROW2}\n{_ROW}\n', 2)
# A quoted header, and one whose quoted field spans lines.
@example(f'"participant_id",{HEADER.split(",", 1)[1]}\n{_ROW}\n', 1)
@example(f'"participant_id\n",{HEADER.split(",", 1)[1]}\n{_ROW}\n{_ROW2}\n', 2)
# Duplicate days: a repeat, one spelled with padding, one after a rejected
# first row, and one whose first row is in an earlier pass.
@example(f"{HEADER}\n{_ROW}\n{_ROW}\n P1 , 2024-01-08,cafe,60,480,30,30,10,10,40,0,0\n", 4)
@example(f"{HEADER}\nP1,2024-01-08,home,-1,0,0,0,0,0,0,0,0\n{_ROW}\n{_ROW}\n", 1)
@example(f"{HEADER}\n{_ROW}\n{_ROW2}\n{_ROW2}\n{_ROW}\n", 2)
# One date spelt two ways, the second row refused by the minute screen: its
# rejection keeps the text it was given.
@example(f"{HEADER}\n{_ROW}\nP2, 20240108,home,-1,480,30,30,10,10,40,0,0\n", 4)
# A pass that np.loadtxt refuses on its last line, after coding that pass's
# new dates and locations.
@example(
    f"{HEADER}\nP1,2024-02-01,coworking,60,480,30,30,10,10,40,0,0\n"
    "P2,2024-02-02,cafe,60,480,30,30,10,10,40,0,0\n"
    f"P3,2024-02-03,multiple,60,480,30,30,10,10,40,0,abc\n{_ROW2}\n",
    3,
)
# A padded known location and a padded unknown one.
@example(f"{HEADER}\nP1,2024-01-08, home ,60,480,30,30,10,10,40,0,0\n"
         "P2,2024-01-08, cafe ,60,480,30,30,10,10,40,0,0\n", 4)
def test_bulk_read_equals_row_loop(tmp_path_factory, text, chunk_rows):
    expected = _outcome(row_loop, io.StringIO(text, newline=""))
    path = tmp_path_factory.getbasetemp() / "bulk_read.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(diary, "CHUNK_ROWS", chunk_rows), warnings.catch_warnings():
        # np.loadtxt warns on input it skips; the read must not let it.
        warnings.simplefilter("error")
        assert _outcome(diary.parse_diary_path, path) == expected
        stream = _NonSeekable(text.encode("utf-8"))
        assert _outcome(parse_diary_file, stream) == expected


def _line_ends(data: bytes) -> list[int]:
    """Byte offset after each line of ``data``, as a text read splits it."""
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    return list(accumulate(len(line.encode("utf-8")) for line in lines))


_SPAN = '"P\n\n3",2024-01-10,home,60,480,30,30,10,10,40,0,0'


@settings(max_examples=200, deadline=None)
@given(diary_texts(), st.integers(1, 4), st.integers(0, 10**6), st.booleans())
# A cut inside a quoted record that spans lines, and one after it.
@example(f"{HEADER}\n{_ROW}\n{_SPAN}\n{_ROW2}\n", 1, 2, False)
@example(f"{HEADER}\n{_ROW}\n{_SPAN}\n{_ROW2}\n", 4, 3, False)
@example(f"{HEADER}\n{_ROW}\n{_SPAN}\n{_ROW2}\n", 4, 4, True)
# A record left open to the end of the file.
@example(f'{HEADER}\n{_ROW}\n"open,{_ROW}\n{_ROW2}\n{_ROW}', 2, 2, False)
# A pass whose quoted line csv reads after np.loadtxt has coded the date of
# the next line.
@example(f'{HEADER}\n"P1",2024-01-08,home,60,480,30,30,10,10,40,0,0\n{_ROW2}\n', 4, 1, False)
# A duplicate day across the cut, a bad row and an unknown location on each
# side, and a new id and a new date only after it.
@example(
    f"{HEADER}\r\n{_ROW}\rP2,2019-02-30,cafe,60,480,30,30,10,10,40,0,0\r\n"
    "P\u00e9,2024-01-08,bar,60,480,30,30,10,10,40,0,0\n"
    f"P3,x\r\n{_ROW}\rP4,2024-03-01,library,60,480,30,30,10,10,40,0,0\n\n",
    2, 3, False,
)
def test_two_ranges_equal_one(text, chunk_rows, split, bom):
    data = b"\xef\xbb\xbf" * bom + text.encode("utf-8")
    ends = _line_ends(data)
    cut = ends[split % len(ends)] + 3 * bom
    with mock.patch.object(diary, "CHUNK_ROWS", chunk_rows), warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = _outcome(parse_diary_file, io.BytesIO(data))
        with tempfile.TemporaryFile() as file:
            file.write(data)
            file.flush()
            # No fork: this process reads both ranges, the second after the first.
            two_ranges = _outcome(lambda fd: split_read.read_split(fd, cut), file.fileno())
        assert two_ranges == expected


def test_duplicate_days_keep_the_first_row():
    rows = [_ROW, _ROW, _ROW2, " P1 ,2024-01-08,home,0,500,0,0,0,0,0,0,0", _ROW2]
    days, rejected = parse_text(HEADER + "\n" + "\n".join(rows) + "\n")
    assert [(d.participant_id, d.source_row) for d in days] == [("P1", 2), ("P2", 4)]
    assert [(r.reason, r.row, r.participant_id, r.date, r.detail) for r in rejected] == [
        (RejectReason.DUPLICATE_DAY, 3, "P1", "2024-01-08", "duplicate of row 2"),
        (RejectReason.DUPLICATE_DAY, 5, "P1", "2024-01-08", "duplicate of row 2"),
        (RejectReason.DUPLICATE_DAY, 6, "P2", "2024-01-09", "duplicate of row 4"),
    ]
    assert all(r.failures == (RejectReason.DUPLICATE_DAY,) for r in rejected)


def _sub_tables(draw, n):
    """Every kind of sub-table index: a boolean mask, a slice and an index
    array (repeats and negative indices allowed)."""
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    bounds = st.none() | st.integers(-n - 1, n + 1)
    step = st.none() | st.integers(1, 3) | st.integers(-3, -1)
    positions = st.lists(st.integers(-n, n - 1), max_size=2 * n) if n else st.just([])
    return [
        mask,
        slice(draw(bounds), draw(bounds), draw(step)),
        np.array(draw(positions), dtype=np.intp),
    ]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_coded_table_decodes_to_its_days(data):
    days = data.draw(st.lists(diary_days(), max_size=12))
    rows = st.none() | st.integers(2, 10**12)
    rows = data.draw(st.lists(rows, min_size=len(days), max_size=len(days)))
    days = [
        DiaryDay(d.participant_id, d.date, d.day_type, d.activity_minutes, d.mode_minutes, row)
        for d, row in zip(days, rows)
    ]
    table = DiaryTable.from_days(days)
    _check_layout(table)
    assert table.distinct_ids == tuple(dict.fromkeys(d.participant_id for d in days))
    assert table.distinct_dates == tuple(dict.fromkeys(d.date for d in days))
    n = len(days)
    for item in [slice(None), *_sub_tables(data.draw, n)]:
        sub = table[item]
        reference = [days[i] for i in np.arange(n)[item].tolist()]
        _check_layout(sub)
        assert list(sub.participant_ids) == [d.participant_id for d in reference]
        assert list(sub.dates) == [d.date for d in reference]
        expected_rows = [diary.NO_ROW if d.source_row is None else d.source_row for d in reference]
        assert sub.source_rows.tolist() == expected_rows
        assert [sub[i] for i in range(len(sub))] == reference
        assert [sub[i].source_row for i in range(len(sub))] == [d.source_row for d in reference]


def _fail_row_parse(values, row, *codes):
    raise AssertionError("a line went to the row parse")


def test_clean_file_is_read_without_the_row_loop(monkeypatch, ref_diaries_path):
    with open(ref_diaries_path, encoding="utf-8", newline="") as handle:
        expected = _outcome(row_loop, handle)
    monkeypatch.setattr(diary, "_parse_record", _fail_row_parse)
    monkeypatch.setattr(diary, "CHUNK_ROWS", 64)
    assert _outcome(diary.parse_diary_path, ref_diaries_path) == expected
    assert len(expected[0][0]) == 250


def _dirty_rows(reference, rng):
    """Reference rows, each with a fault of the kinds a dirty diary file
    holds or none: bad dates, non-numeric and quoted minutes, short rows,
    unknown and excluded locations, negative minutes and days over 1440
    minutes."""
    for i in range(600):
        fields = [f"V{i:04d}", *rng.choice(reference)[1:]]
        kind = rng.randrange(10)
        if kind == 0:
            fields[1] = rng.choice(["2019-02-30", "2019/09/02", "02.09.2019", ""])
        elif kind == 1:
            fields[rng.randrange(3, 12)] = rng.choice(["abc", "n/a", "12,5", "-", ""])
        elif kind == 2:
            del fields[rng.randint(5, 11):]
        elif kind == 3:
            fields[2] = rng.choice(["cafe", "library", " home ", "multiple", "other"])
        elif kind == 4:
            fields[rng.randrange(3, 12)] = rng.choice(["-5", "1500"])
        yield fields


def test_dirty_file_is_read_without_the_row_loop(monkeypatch, tmp_path, ref_diaries_path):
    with open(ref_diaries_path, encoding="utf-8", newline="") as handle:
        reference = list(csv.reader(handle))[1:]
    path = tmp_path / "dirty.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(DIARY_HEADER)
        writer.writerows(_dirty_rows(reference, random.Random(8)))
    with open(path, encoding="utf-8", newline="") as handle:
        expected = _outcome(row_loop, handle)
    monkeypatch.setattr(diary, "CHUNK_ROWS", 64)
    assert _outcome(diary.parse_diary_path, path) == expected
    _, rejected, messages = expected
    assert len(rejected) > 150 and len(messages) == 1
    assert {item.date for item in rejected} >= {"2019-02-30", "2019/09/02", ""}
    assert any("12,5" in item.detail for item in rejected)
    assert any("must be in [0, 1440], got -" in item.detail for item in rejected)


def test_bad_dates_read_in_bulk_skip_the_row_parse(monkeypatch, tmp_path, ref_diaries_path):
    with open(ref_diaries_path, encoding="utf-8", newline="") as handle:
        reference = list(csv.reader(handle))[1:]
    rng = random.Random(9)
    rows, bad_rows = [], set()
    for i in range(200):
        fields = [f"V{i:04d}", *rng.choice(reference)[1:]]
        if i % 7 == 3:
            fields[1] = ("2019-02-30", "2019/09/02", "")[i % 3]
            bad_rows.add(i + 2)
        rows.append(fields)
    # A refused line splits the second pass; the others are read whole.
    rows[81] = rows[81][:6]
    path = tmp_path / "dates.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(DIARY_HEADER)
        writer.writerows(rows)
    with open(path, encoding="utf-8", newline="") as handle:
        expected = _outcome(row_loop, handle)

    parse_record, parsed_rows = diary._parse_record, []

    def record_row(values, row, *codes):
        parsed_rows.append(row)
        return parse_record(values, row, *codes)

    monkeypatch.setattr(diary, "_parse_record", record_row)
    monkeypatch.setattr(diary, "CHUNK_ROWS", 64)
    assert _outcome(diary.parse_diary_path, path) == expected
    assert parsed_rows == [83]
    rejected = expected[1]
    assert {item.row for item in rejected} == bad_rows | {83}
    bad_dates = {item.date for item in rejected if item.row in bad_rows}
    assert bad_dates == {"2019-02-30", "2019/09/02", ""}


#: ISO-8601 spellings of 2019-09-02 that ``date.fromisoformat`` takes from
#: Python 3.11 on, but that are not YYYY-MM-DD.
_OTHER_ISO_DATES = ("20190902", "2019-W36-1", "2019W361")


@pytest.mark.parametrize("quoted", [False, True], ids=["bulk", "csv"])
def test_only_yyyy_mm_dd_is_a_date(monkeypatch, tmp_path, ref_diaries_path, quoted):
    """The other spellings of a date are a PARSE_ERROR on every Python, read
    in a bulk pass or, quoted, on the csv path. Beside the participant's
    2019-09-02 row, such a row is not a DUPLICATE_DAY of it."""
    with open(ref_diaries_path, encoding="utf-8", newline="") as handle:
        header, first, *rest = csv.reader(handle)
    assert first[:2] == ["P01", "2019-09-02"]
    spelled = [[first[0], f'"{text}"' if quoted else text, *first[2:]] for text in _OTHER_ISO_DATES]
    path = tmp_path / "dates.csv"
    path.write_text("".join(f"{','.join(fields)}\n" for fields in [header, first, *spelled, *rest]),
                    encoding="utf-8")
    with open(path, encoding="utf-8", newline="") as handle:
        expected = _outcome(row_loop, handle)
    if not quoted:
        monkeypatch.setattr(diary, "_parse_record", _fail_row_parse)
    assert _outcome(diary.parse_diary_path, path) == expected
    (ids, *_), rejected, _ = expected
    assert len(ids) == 250
    assert [(item.row, item.reason, item.date, item.detail) for item in rejected] == [
        (row, RejectReason.PARSE_ERROR, text, f"Invalid isoformat string: {text!r}")
        for row, text in enumerate(_OTHER_ISO_DATES, start=3)
    ]


# --- Rejections as columns ----------------------------------------------------


_REASONS = st.sampled_from(list(RejectReason))


@st.composite
def rejected_days(draw):
    """Any rejection a table holds: failures in any order, and a reason that
    need not be among them."""
    return RejectedDay(
        draw(_REASONS),
        draw(st.none() | st.integers(0, 2**53)),
        draw(st.text(max_size=5)),
        draw(st.text(max_size=10)),
        draw(st.text(max_size=12)),
        tuple(draw(st.lists(_REASONS, max_size=4))),
    )


def per_object_rejection_rows(rejected):
    """``report.rejection_rows`` as it read each rejection object: the
    reference for the columns."""
    return [
        ["" if item.row is None else str(item.row), item.participant_id, item.date,
         item.reason.value]
        for item in rejected
    ]


_UNORDERED = (
    RejectedDay(RejectReason.TOTAL_TOO_SHORT, None, "P1", "2024-01-08", "why",
                (RejectReason.MODE_MISMATCH, RejectReason.WORK_TOO_SHORT)),
    RejectedDay(RejectReason.PARSE_ERROR, 0, "", "", "", ()),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(rejected_days(), max_size=12), st.data())
@example(list(_UNORDERED), None)
def test_rejection_table_holds_its_rejections(rejected, data):
    table = RejectionTable.from_rejected(rejected)
    assert list(table) == rejected
    assert all(type(item.row) in (int, type(None)) for item in table)
    assert RejectionTable.from_rejected(table) is table
    assert rejection_rows(table) == rejection_rows(rejected) == per_object_rejection_rows(rejected)
    with pytest.raises(ValueError):
        table.rows[:1] = 7
    n = len(rejected)
    for item in _sub_tables(data.draw, n) if data is not None else []:
        assert list(table[item]) == [rejected[i] for i in np.arange(n)[item].tolist()]
    halves = rejected[::2], rejected[1::2]
    joined = diary.in_row_order(*map(RejectionTable.from_rejected, halves))
    by_row = sorted(halves[0] + halves[1], key=lambda r: diary.NO_ROW if r.row is None else r.row)
    assert list(joined) == by_row
