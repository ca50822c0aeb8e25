"""Shared fixtures and test-only helpers.

``naive_profiles`` is an independent re-implementation of the aggregation
(plain sums and divisions, no numpy) used as an oracle; keep it free of any
imports from the aggregation module's internals. ``naive_failing_rules`` is
the row-wise reference for the quality filter's boolean masks.
"""

from __future__ import annotations

import datetime as dt
import random

import pytest

from telework_impact import Activity, DayType, TransportMode, load_config
from telework_impact.aggregation import aggregate_profiles
from telework_impact.config import shipped_config_path, shipped_diaries_path
from telework_impact.diary import RejectReason
from telework_impact.model import DiaryDay


def make_day(
    day_type=DayType.COWORKING,
    work=522.0,
    chores=60.0,
    leisure=120.0,
    modes=None,
    travel=None,
    pid="P01",
    date=dt.date(2024, 1, 8),
    row=None,
):
    """Diary day with sane defaults; travel defaults to the mode-minute sum."""
    modes = dict(modes or {})
    if travel is None:
        travel = sum(modes.values())
    return DiaryDay(
        participant_id=pid,
        date=date,
        day_type=day_type,
        activity_minutes={
            Activity.TRAVEL: travel,
            Activity.WORK: work,
            Activity.EVERYDAY_CHORES: chores,
            Activity.LEISURE: leisure,
        },
        mode_minutes=modes,
        source_row=row,
    )


def random_valid_day(rng: random.Random) -> DiaryDay:
    """A quality-filter-passing day with random minutes (total >= 480)."""
    modes = {m: rng.uniform(0, 60) for m in TransportMode}
    return make_day(
        day_type=rng.choice(
            [DayType.EMPLOYER_OFFICE, DayType.COWORKING, DayType.HOME]
        ),
        work=rng.uniform(300, 600),
        chores=rng.uniform(80, 180),
        leisure=rng.uniform(120, 240),
        modes=modes,
        pid=f"P{rng.randrange(40):02d}",
    )


def naive_profiles(days):
    """Independent mean/share recomputation: plain sum / count arithmetic."""
    comparable = (DayType.EMPLOYER_OFFICE, DayType.COWORKING, DayType.HOME)
    out = {}
    for day_type in comparable:
        bucket = [d for d in days if d.day_type == day_type]
        n = len(bucket)
        mean_activity = {}
        for activity in Activity:
            total = 0.0
            for day in bucket:
                total += day.activity_minutes.get(activity, 0.0)
            mean_activity[activity] = total / n if n else 0.0
        mean_mode = {}
        for mode in TransportMode:
            total = 0.0
            for day in bucket:
                total += day.mode_minutes.get(mode, 0.0)
            mean_mode[mode] = total / n if n else 0.0
        grand = 0.0
        for mode in TransportMode:
            grand += mean_mode[mode]
        share = {
            mode: (mean_mode[mode] / grand if grand > 0 else 0.0) for mode in TransportMode
        }
        out[day_type] = {
            "day_count": n,
            "mean_activity_minutes": mean_activity,
            "mean_mode_minutes": mean_mode,
            "mode_share": share,
        }
    return out


def naive_failing_rules(day, rules):
    """Every quality rule ``day`` fails, as (reason, detail) pairs in
    RejectReason order, checked one day at a time.

    Totals come from ``DiaryDay.activity_total``/``mode_total``, which sum
    left to right in column order on every supported Python.
    """
    failures = []
    work = day.activity(Activity.WORK)
    if work < rules.min_work_minutes:
        failures.append(
            (RejectReason.WORK_TOO_SHORT, f"work {work:g} < {rules.min_work_minutes:g} min")
        )
    total = day.activity_total()
    if total < rules.min_total_minutes:
        failures.append(
            (RejectReason.TOTAL_TOO_SHORT, f"total {total:g} < {rules.min_total_minutes:g} min")
        )
    mismatch = abs(day.activity(Activity.TRAVEL) - day.mode_total())
    if mismatch > rules.max_mode_mismatch_minutes:
        failures.append(
            (
                RejectReason.MODE_MISMATCH,
                f"|travel - modes| = {mismatch:g} > {rules.max_mode_mismatch_minutes:g} min",
            )
        )
    if rules.exclude_multi_location and day.day_type in (
        DayType.OTHER_LOCATION,
        DayType.MULTI_LOCATION,
    ):
        failures.append(
            (RejectReason.EXCLUDED_LOCATION, f"day type {day.day_type.value} excluded")
        )
    return failures


def rel_err(actual: float, expected: float) -> float:
    if actual == expected:
        return 0.0
    return abs(actual - expected) / max(abs(actual), abs(expected))


@pytest.fixture(scope="session")
def ref_config_path():
    return shipped_config_path()


@pytest.fixture(scope="session")
def ref_diaries_path():
    return shipped_diaries_path()


@pytest.fixture(scope="session")
def ref_config(ref_config_path):
    return load_config(ref_config_path)


@pytest.fixture(scope="session")
def ref_inventory(ref_config):
    return ref_config.inventory


@pytest.fixture(scope="session")
def ref_factors(ref_config):
    return ref_config.factors


@pytest.fixture(scope="session")
def ref_profiles(ref_diaries_path, ref_config):
    from telework_impact import apply_quality_filter, parse_diary_path

    days, rejected = parse_diary_path(ref_diaries_path)
    assert not rejected
    kept, dropped = apply_quality_filter(days, ref_config.quality_rules)
    assert not dropped
    return aggregate_profiles(kept)
