"""The quality filter: rules that exclude low-quality diary entries and
untypical workdays, checked on the columns of a :class:`DiaryTable`.

:func:`apply_quality_filter` gives the kept days as a :class:`DiaryTable`
and the rejected ones as a :class:`RejectionTable`, whatever iterable of
days it is given. Its thresholds, :class:`QualityRules`, live in
:mod:`.config`, which reads them without importing this module.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable

import numpy as np

from .config import QualityRules
from .diary import DiaryTable, RejectionTable, RejectReason, identities, row_sums
from .model import DAY_TYPES, Activity, DayType, DiaryDay

_ACTIVITIES = tuple(Activity)
_TRAVEL = _ACTIVITIES.index(Activity.TRAVEL)
_WORK = _ACTIVITIES.index(Activity.WORK)
_EXCLUDED_CODES = [DAY_TYPES.index(t) for t in (DayType.OTHER_LOCATION, DayType.MULTI_LOCATION)]

#: Reasons of the quality rules, in the order the rules are checked, and the
#: detail text of each. Formatting with the rules and a day type gives a
#: template whose fields are a day's work, total and mismatch.
_RULE_REASONS = tuple(RejectReason)[:4]
_RULE_DETAILS = (
    "work {{0:g}} < {rules.min_work_minutes:g} min",
    "total {{1:g}} < {rules.min_total_minutes:g} min",
    "|travel - modes| = {{2:g}} > {rules.max_mode_mismatch_minutes:g} min",
    "day type {day_type} excluded",
)


#: Rows per block of the rule pass; bounds the float columns it holds at once.
_RULE_BLOCK = 8192


def _check_block(
    minutes: np.ndarray, day_types: np.ndarray, rules: QualityRules, failing: np.ndarray
) -> np.ndarray:
    """The rules on a block of rows: sets bit k of each row's entry of
    ``failing`` where rule k fails, and gives the work, activity total and
    |travel - modes| of the rows that fail one, a row each."""
    work = minutes[:, _WORK]
    total = row_sums(minutes[:, :len(_ACTIVITIES)])
    mismatch = row_sums(minutes[:, len(_ACTIVITIES):])
    np.abs(np.subtract(minutes[:, _TRAVEL], mismatch, out=mismatch), out=mismatch)
    fails = (
        work < rules.min_work_minutes,
        total < rules.min_total_minutes,
        mismatch > rules.max_mode_mismatch_minutes,
        np.isin(day_types, _EXCLUDED_CODES) & rules.exclude_multi_location,
    )
    for k, rule_fails in enumerate(fails):
        failing |= rule_fails.view(np.uint8) << k
    at = np.flatnonzero(failing)
    return np.column_stack([work[at], total[at], mismatch[at]])


def apply_quality_filter(
    days: Iterable[DiaryDay], rules: QualityRules | None = None
) -> tuple[DiaryTable, RejectionTable]:
    """Partition days into (kept, rejected) according to the quality rules.

    The first failing rule (in :class:`RejectReason` order) is the primary
    reason; all failing rules are attached. Any iterable of days is taken as
    a :class:`DiaryTable` (see :meth:`DiaryTable.from_days`), and ``kept`` is
    that table or, where a day is rejected, the selection of it that
    ``np.flatnonzero`` indexes. The rules are checked in one pass over
    blocks of :data:`_RULE_BLOCK` rows, which takes each rejected day's
    work, total and mismatch from its block; the rejections are gathered
    from the table's columns, with no object per rejected day and no copy of
    their minutes, and a rule's detail is formatted only when a
    :class:`RejectedDay` is built from them.
    """
    rules = rules or QualityRules()
    table = DiaryTable.from_days(days)
    # Bit k of a row's combination is set where rule k fails.
    failing = np.zeros(len(table), dtype=np.uint8)
    measures = [np.empty((0, 3))]
    for start in range(0, len(table), _RULE_BLOCK):
        block = slice(start, start + _RULE_BLOCK)
        measures.append(_check_block(table.minutes[block], table.day_types[block], rules,
                                     failing[block]))
    measures = np.concatenate(measures)
    rejected_at = np.flatnonzero(failing)
    rejected_days = table[rejected_at]
    # The first failing rule, the failures and the detail template of each
    # combination of failing rules and day type, built once.
    combinations = failing[rejected_at].astype(np.intp) * len(DAY_TYPES) + rejected_days.day_types
    keys, outcome = np.unique(combinations, return_inverse=True)
    firsts, failures, details = [], [], []
    for key in keys.tolist():
        combination, code = divmod(key, len(DAY_TYPES))
        flags = [combination >> k & 1 for k in range(len(_RULE_REASONS))]
        firsts.append(flags.index(1))
        failures.append(tuple(compress(_RULE_REASONS, flags)))
        texts = compress(_RULE_DETAILS, flags)
        template = "; ".join(t.format(rules=rules, day_type=DAY_TYPES[code].value) for t in texts)
        details.append(template.format)
    rejected = RejectionTable(
        *identities(rejected_days),
        np.fromiter(details, object, len(details))[outcome],
        np.array(firsts, dtype=np.int8)[outcome],
        np.fromiter(failures, object, len(failures))[outcome],
        measures,
    )
    if not len(rejected):
        return table, rejected
    return table[np.flatnonzero(failing == 0)], rejected
