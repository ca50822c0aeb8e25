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

from dataclasses import dataclass, field
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
    read_object,
)

#: How far a stored share may lie from the one its mean minutes give.
SHARE_SUM_TOLERANCE = 1e-9

#: The maps of a :class:`DayTypeProfile`, each with the enum of its keys, in
#: the order the artifacts list them.
PROFILE_MAPS = (
    ("mean_activity_minutes", Activity),
    ("mean_mode_minutes", TransportMode),
    ("mode_share", TransportMode),
)


def mode_shares(mode_minutes: Mapping[TransportMode, float]) -> dict[TransportMode, float]:
    """Share of each mode in the total; all zeros when the total is zero."""
    total = _sum_in_order(mode_minutes.get(m, 0.0) for m in TransportMode)
    if total <= 0.0:
        return {m: 0.0 for m in TransportMode}
    return {m: mode_minutes.get(m, 0.0) / total for m in TransportMode}


@dataclass(frozen=True)
class DayTypeProfile:
    """Aggregated mean activity minutes and modal profile for one day type;
    ``mode_share`` is not an input but derived from ``mean_mode_minutes``.
    A mean missing from a map is 0.0; a refusal starts with the day type."""

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
        try:
            check_fields(self)
        except ValueError as exc:  # a DomainError or an unknown key
            raise type(exc)(f"{getattr(self.day_type, 'value', self.day_type)} {exc}") from None
        object.__setattr__(self, "mode_share", mode_shares(self.mean_mode_minutes))


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
            profiles[day_type] = DayTypeProfile(day_type, 0, {}, {})
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

    # count_nonzero reads the int8 codes as they are; bincount copies them
    # to intp.
    day_types = DiaryTable.from_days(days).day_types
    return {t: int(np.count_nonzero(day_types == code)) for code, t in enumerate(DAY_TYPES)}


def profiles_to_dict(profiles: Mapping[DayType, DayTypeProfile]) -> dict:
    """JSON-ready mirror of the profiles, keyed by day-type value."""
    return {
        day_type.value: {
            "day_count": profile.day_count,
            **{
                name: {key.value: getattr(profile, name)[key] for key in keys}
                for name, keys in PROFILE_MAPS
            },
        }
        for day_type, profile in profiles.items()
    }


def profiles_from_dict(payload: Mapping) -> dict[DayType, DayTypeProfile]:
    """Inverse of :func:`profiles_to_dict`; used when diaries are not
    re-processed and profiles are loaded from a previous run.

    Each body is read by :func:`~.model.read_object`. The modal split is
    derived from the stored mean mode minutes with :func:`mode_shares`, as
    :func:`aggregate_profiles` derives it. A stored ``mode_share`` is
    optional and only checked against it: one that differs by more than
    ``SHARE_SUM_TOLERANCE`` is refused, naming the day type and mode.
    """
    profiles: dict[DayType, DayTypeProfile] = {}
    for day_type_value, body in {**payload}.items():  # TypeError unless a mapping
        day_type = DayType(day_type_value)
        body = {**body}
        stored = body.pop("mode_share", None) or {}
        profile = profiles[day_type] = read_object(DayTypeProfile, body, day_type.value, day_type)
        stored = {TransportMode(key): share for key, share in stored.items()}
        for mode in filter(stored.__contains__, TransportMode):  # in mode order
            share = checked(f"share for {mode.value}", stored[mode], NON_NEGATIVE)
            if not abs(share - profile.mode_share[mode]) <= SHARE_SUM_TOLERANCE:
                raise ValueError(
                    f"{day_type.value} mode_share for {mode.value} is {share}, but its"
                    f" mean mode minutes give {profile.mode_share[mode]}"
                )
    for day_type in COMPARABLE_DAY_TYPES:
        profiles.setdefault(day_type, DayTypeProfile(day_type, 0, {}, {}))
    return profiles
