"""The quality filter: rules that exclude low-quality diary entries and
untypical workdays, checked on the columns of a :class:`DiaryTable`.

:func:`apply_quality_filter` returns the kind of container it is given: a
table for a table, and for any other iterable of days a list of the very
same objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import TYPE_CHECKING, Iterable

from .diary import DAY_TYPES, NO_ROW, DiaryTable, RejectedDay, RejectReason, row_sums
from .model import Activity, DayType, DiaryDay, finite_at_least

if TYPE_CHECKING:
    import numpy as np

_ACTIVITIES = tuple(Activity)
_TRAVEL = _ACTIVITIES.index(Activity.TRAVEL)
_WORK = _ACTIVITIES.index(Activity.WORK)
_DAY_TYPE_VALUES = tuple(day_type.value for day_type in DAY_TYPES)
_EXCLUDED_CODES = [DAY_TYPES.index(t) for t in (DayType.OTHER_LOCATION, DayType.MULTI_LOCATION)]

#: Reasons of the quality rules, in the order the rules are checked, and the
#: detail text of each. Formatting with the rules gives a template whose
#: fields are a day's work, total, mismatch and day type.
_RULE_REASONS = tuple(RejectReason)[:4]
_RULE_DETAILS = (
    "work {{0:g}} < {rules.min_work_minutes:g} min",
    "total {{1:g}} < {rules.min_total_minutes:g} min",
    "|travel - modes| = {{2:g}} > {rules.max_mode_mismatch_minutes:g} min",
    "day type {{3}} excluded",
)


def _total(minutes: np.ndarray) -> np.ndarray:
    """Activity total of each row of a minute matrix."""
    return row_sums(minutes[:, :len(_ACTIVITIES)])


def _mismatch(minutes: np.ndarray) -> np.ndarray:
    """|travel - modes| of each row of a minute matrix."""
    import numpy as np

    mismatch = row_sums(minutes[:, len(_ACTIVITIES):])
    return np.abs(np.subtract(minutes[:, _TRAVEL], mismatch, out=mismatch), out=mismatch)


@dataclass(frozen=True)
class QualityRules:
    """Thresholds for excluding low-quality entries and untypical workdays.

    Defaults: at least 4 h of work, at least 8 h recorded in total, and at
    most 100 min absolute difference between the travel activity and the sum
    of the per-mode times.
    """

    min_work_minutes: float = 240.0
    min_total_minutes: float = 480.0
    max_mode_mismatch_minutes: float = 100.0
    exclude_multi_location: bool = True

    def __post_init__(self):
        for name in ("min_work_minutes", "min_total_minutes", "max_mode_mismatch_minutes"):
            object.__setattr__(self, name, finite_at_least(name, getattr(self, name)))
        if not isinstance(self.exclude_multi_location, bool):
            value = self.exclude_multi_location
            raise ValueError(f"exclude_multi_location must be true or false, got {value!r}")


def apply_quality_filter(
    days: Iterable[DiaryDay], rules: QualityRules | None = None
) -> tuple[DiaryTable | list[DiaryDay], list[RejectedDay]]:
    """Partition days into (kept, rejected) according to the quality rules.

    The first failing rule (in :class:`RejectReason` order) is the primary
    reason; all failing rules are attached. ``kept`` is the kind of
    container given: a :class:`DiaryTable` for a table, otherwise a list of
    the very same day objects. Rejections are described from the table's
    columns; no day object is built for them.
    """
    import numpy as np

    rules = rules or QualityRules()
    if not isinstance(days, DiaryTable):
        days = list(days)
    table = DiaryTable.from_days(days)
    # One rule column at a time, so that a large table holds one float
    # column beyond its own at once.
    failing = np.empty((len(table), len(_RULE_REASONS)), dtype=bool)
    failing[:, 0] = table.minutes[:, _WORK] < rules.min_work_minutes
    failing[:, 1] = _total(table.minutes) < rules.min_total_minutes
    failing[:, 2] = _mismatch(table.minutes) > rules.max_mode_mismatch_minutes
    failing[:, 3] = np.isin(table.day_types, _EXCLUDED_CODES) & rules.exclude_multi_location
    rejected_at = np.flatnonzero(failing.any(axis=1))
    minutes = table.minutes[rejected_at]
    # The reason, failures and detail template of each combination of
    # failing rules, built once; bit k of a combination is rule k.
    combinations = failing[rejected_at] @ (1 << np.arange(len(_RULE_REASONS)))
    outcomes = {}
    for combination in set(combinations.tolist()):
        flags = [combination >> k & 1 for k in range(len(_RULE_REASONS))]
        failures = tuple(compress(_RULE_REASONS, flags))
        details = (text.format(rules=rules) for text in compress(_RULE_DETAILS, flags))
        outcomes[combination] = failures[0], failures, "; ".join(details)
    date_codes = table.date_codes[rejected_at].tolist()
    iso_dates = {code: table.distinct_dates[code].isoformat() for code in set(date_codes)}

    rejected: list[RejectedDay] = []
    for row, id_code, date_code, code, combination, work_i, total_i, mismatch_i in zip(
        table.source_rows[rejected_at].tolist(),
        table.participant_codes[rejected_at].tolist(),
        date_codes,
        table.day_types[rejected_at].tolist(),
        combinations.tolist(),
        minutes[:, _WORK].tolist(),
        _total(minutes).tolist(),
        _mismatch(minutes).tolist(),
    ):
        reason, failures, template = outcomes[combination]
        detail = template.format(work_i, total_i, mismatch_i, _DAY_TYPE_VALUES[code])
        participant_id, date = table.distinct_ids[id_code], iso_dates[date_code]
        row = None if row == NO_ROW else row
        rejected.append(RejectedDay(reason, row, participant_id, date, detail, failures))

    keep = np.ones(len(table), dtype=bool)
    keep[rejected_at] = False
    if isinstance(days, DiaryTable):
        return (days[keep] if rejected else days), rejected
    return list(compress(days, keep.tolist())), rejected
