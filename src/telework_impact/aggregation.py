"""Per-day-type statistics over quality-filtered diaries.

Produces, for each comparable day type (employer office, co-working, home),
the arithmetic mean minutes per activity and per transport mode, plus the
modal split as a share of mean travel-mode time. Shares are computed from
means of minutes (equivalently, totals), not as means of per-day shares, so
short-travel days are weighted by their actual travel time.

numpy and :mod:`.diary` are imported by :func:`aggregate_profiles` and
:func:`day_counts`, not by this module: loading stored profiles
(``sweep``/``breakeven --profiles``) needs neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from .model import (
    COMPARABLE_DAY_TYPES,
    COUNT,
    DAY_TYPES,
    NON_NEGATIVE,
    Activity,
    DayType,
    DiaryDay,
    TransportMode,
    _sum_in_order,
    check_fields,
    checked,
    declared,
)

#: How far a stored share may lie from the one its mean minutes give.
SHARE_SUM_TOLERANCE = 1e-9


def mode_shares(mode_minutes: Mapping[TransportMode, float]) -> dict[TransportMode, float]:
    """Share of each mode in the total; all zeros when the total is zero."""
    total = _sum_in_order(mode_minutes.get(m, 0.0) for m in TransportMode)
    if total <= 0.0:
        return {m: 0.0 for m in TransportMode}
    return {m: mode_minutes.get(m, 0.0) / total for m in TransportMode}


@dataclass(frozen=True)
class DayTypeProfile:
    """Aggregated mean activity minutes and modal profile for one day type;
    ``mode_share`` is not an input but derived from ``mean_mode_minutes``."""

    day_type: DayType
    day_count: int = declared(COUNT)
    mean_activity_minutes: Mapping[Activity, float] = declared(
        NON_NEGATIVE, (Activity,), "mean for {1}"
    )
    mean_mode_minutes: Mapping[TransportMode, float] = declared(
        NON_NEGATIVE, (TransportMode,), "mean for {1}"
    )
    mode_share: Mapping[TransportMode, float] = field(init=False)

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "mode_share", mode_shares(self.mean_mode_minutes))

    def with_mode_minutes(self, mode_minutes: Mapping[TransportMode, float]) -> "DayTypeProfile":
        """Copy of this profile with a replaced modal profile (missing modes
        mean zero), and the shares derived from it."""
        return replace(self, mean_mode_minutes={m: mode_minutes.get(m, 0.0) for m in TransportMode})


def _empty_profile(day_type: DayType) -> DayTypeProfile:
    modes = dict.fromkeys(TransportMode, 0.0)
    return DayTypeProfile(day_type, 0, dict.fromkeys(Activity, 0.0), modes)


def aggregate_profiles(days: Iterable[DiaryDay]) -> dict[DayType, DayTypeProfile]:
    """Mean activity and mode minutes per comparable day type.

    Input is expected to be quality-filtered already; days of other types are
    ignored. Day types without any days get a zero profile with day_count 0.
    Takes a :class:`DiaryTable` or any iterable of days; each mean is one
    ``np.mean`` over the day type's values of a column, in row order,
    gathered with one index of the type's rows.
    """
    import numpy as np

    from .diary import DiaryTable

    table = DiaryTable.from_days(days)
    profiles: dict[DayType, DayTypeProfile] = {}
    for day_type in COMPARABLE_DAY_TYPES:
        rows = np.flatnonzero(table.day_types == DAY_TYPES.index(day_type))
        day_count = len(rows)
        if not day_count:
            profiles[day_type] = _empty_profile(day_type)
            continue
        means = [float(np.mean(column[rows])) for column in table.minutes.T]
        profiles[day_type] = DayTypeProfile(
            day_type=day_type,
            day_count=day_count,
            mean_activity_minutes=dict(zip(Activity, means)),
            mean_mode_minutes=dict(zip(TransportMode, means[len(Activity):])),
        )
    return profiles


def day_counts(days: Iterable[DiaryDay]) -> dict[DayType, int]:
    """Exact day counts by classified type, zero-filled for all types."""
    import numpy as np

    from .diary import DiaryTable

    counts = np.bincount(DiaryTable.from_days(days).day_types, minlength=len(DAY_TYPES))
    return dict(zip(DAY_TYPES, counts.tolist()))


def profiles_to_dict(profiles: Mapping[DayType, DayTypeProfile]) -> dict:
    """JSON-ready mirror of the profiles, keyed by day-type value."""
    return {
        day_type.value: {
            "day_count": profile.day_count,
            "mean_activity_minutes": {
                a.value: profile.mean_activity_minutes[a] for a in Activity
            },
            "mean_mode_minutes": {
                m.value: profile.mean_mode_minutes[m] for m in TransportMode
            },
            "mode_share": {m.value: profile.mode_share[m] for m in TransportMode},
        }
        for day_type, profile in profiles.items()
    }


def profiles_from_dict(payload: Mapping) -> dict[DayType, DayTypeProfile]:
    """Inverse of :func:`profiles_to_dict`; used when diaries are not
    re-processed and profiles are loaded from a previous run.

    The modal split is derived from the stored mean mode minutes with
    :func:`mode_shares`, as :func:`aggregate_profiles` derives it. A stored
    ``mode_share`` is only checked against it: one that differs by more
    than ``SHARE_SUM_TOLERANCE`` is refused, naming the day type and mode.
    """
    profiles: dict[DayType, DayTypeProfile] = {}
    for day_type_value, body in payload.items():
        day_type = DayType(day_type_value)
        activities, modes = body["mean_activity_minutes"], body["mean_mode_minutes"]
        profile = profiles[day_type] = DayTypeProfile(
            day_type=day_type,
            day_count=body["day_count"],
            mean_activity_minutes={a: activities.get(a.value, 0.0) for a in Activity},
            mean_mode_minutes={m: modes.get(m.value, 0.0) for m in TransportMode},
        )
        stored = body.get("mode_share")
        if stored:
            for mode in TransportMode:
                share = checked(f"share for {mode.value}", stored[mode.value], NON_NEGATIVE)
                if not abs(share - profile.mode_share[mode]) <= SHARE_SUM_TOLERANCE:
                    raise ValueError(
                        f"{day_type.value} mode_share for {mode.value} is {share}, but its"
                        f" mean mode minutes give {profile.mode_share[mode]}"
                    )
    for day_type in COMPARABLE_DAY_TYPES:
        profiles.setdefault(day_type, _empty_profile(day_type))
    return profiles
