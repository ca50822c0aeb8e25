"""Core domain types and units.

Conventions used everywhere in the package:

* time in diaries is **minutes**, energy is **MJ**,
* facility intensity is MJ/(m2*year), device energy is MJ/(device*day),
* mode speed is km/h, mode energy is MJ per person-km,
* all values are immutable after construction and safe to share across
  threads.

Missing entries in the minute maps of a :class:`DiaryDay` mean zero.
"""

from __future__ import annotations

import datetime as _dt
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

from .errors import MissingFactorError, NegativeFactorError, NonFiniteError

MINUTES_PER_DAY = 1440.0

#: Facility intensity components, all required in a factor table.
FACILITY_COMPONENTS = ("heating", "cooling", "lighting")

#: Named device kinds. Device kinds are open-ended strings; any other name
#: (coffee machine, projector, ...) is allowed as long as the factor table
#: carries a daily-energy value for it.
SCREEN = "screen"
DESKTOP_COMPUTER = "desktop_computer"
PRINTER = "printer"
TV = "tv"


class Activity(str, Enum):
    """The four recorded diary activities. Unrecorded time is simply absent."""

    TRAVEL = "travel"
    WORK = "work"
    EVERYDAY_CHORES = "everyday_chores"
    LEISURE = "leisure"


class TransportMode(str, Enum):
    """Closed set of transport modes; 'bike' includes e-bikes, 'other' covers
    anything else (boats, ...)."""

    WALK = "walk"
    BIKE = "bike"
    CAR = "car"
    PUBLIC_TRANSPORT = "public_transport"
    OTHER = "other"


class DayType(str, Enum):
    """Work location of a participant-day."""

    EMPLOYER_OFFICE = "employer_office"
    COWORKING = "coworking"
    HOME = "home"
    OTHER_LOCATION = "other_location"
    MULTI_LOCATION = "multi_location"


#: Day types that take part in aggregation and energy comparison.
COMPARABLE_DAY_TYPES = (DayType.EMPLOYER_OFFICE, DayType.COWORKING, DayType.HOME)


#: Minute-map key -> member; members hash and compare equal to their values,
#: so one lookup serves both spellings.
_MINUTE_KEYS = {kind: {m.value: m for m in kind} for kind in (Activity, TransportMode)}


def _sum_in_order(values: Iterable[float]) -> float:
    """Plain left-to-right float sum from 0.0. Unlike ``sum``, which uses
    compensated summation for floats from Python 3.12 on, it gives the same
    bits on every supported Python."""
    total = 0.0
    for value in values:
        total += value
    return total


def _check_minutes(name: str, minutes: Mapping, kind: type[Enum]) -> dict:
    """Validated copy of a minute map with every member of ``kind`` as a
    key, in declaration order; missing entries become 0.0. Keys may be
    members or their string values; a value must be a real number and not a
    bool (text such as ``"12"`` is refused, not converted).

    The total is summed left to right in that order, the same order in which
    the columnar diary tables sum a row, so both agree to the last bit.
    """
    keys = _MINUTE_KEYS[kind]
    out = dict.fromkeys(keys.values(), 0.0)
    for key, value in minutes.items():
        member = keys.get(key)
        if member is None:
            raise ValueError(f"{name} has unknown key {key!r}")
        out[member] = _real(f"{name}[{member.value}]", value)
    total = 0.0
    for member, value in out.items():
        if value < 0:
            raise ValueError(f"{name}[{member.value}] is negative: {value}")
        total += value
    if total > MINUTES_PER_DAY:
        raise ValueError(f"{name} total {total} exceeds {MINUTES_PER_DAY} minutes")
    return out


@dataclass(frozen=True)
class DiaryDay:
    """One participant-day of a time-use diary.

    ``source_row`` is the physical line number in the source CSV (header is
    line 1); it is metadata only and excluded from equality. The minute maps
    hold every :class:`Activity` and :class:`TransportMode`, in declaration
    order (missing entries are stored as 0.0), so days that mean the same
    compare equal and ``activity_total``/``mode_total`` sum in column order.
    """

    participant_id: str
    date: _dt.date
    day_type: DayType
    activity_minutes: Mapping[Activity, float]
    mode_minutes: Mapping[TransportMode, float]
    source_row: int | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "activity_minutes",
            _check_minutes("activity_minutes", self.activity_minutes, Activity),
        )
        object.__setattr__(
            self, "mode_minutes", _check_minutes("mode_minutes", self.mode_minutes, TransportMode)
        )

    def activity(self, activity: Activity) -> float:
        return self.activity_minutes.get(activity, 0.0)

    def mode(self, mode: TransportMode) -> float:
        return self.mode_minutes.get(mode, 0.0)

    def activity_total(self) -> float:
        return _sum_in_order(self.activity_minutes.values())

    def mode_total(self) -> float:
        return _sum_in_order(self.mode_minutes.values())


@dataclass(frozen=True)
class SiteInventory:
    """Physical description of the co-working site used for allocation."""

    floor_area_m2: float
    workplace_count: int
    device_counts: Mapping[str, int]
    coworker_count: int
    workdays_per_year: int

    def __post_init__(self):
        area = finite_at_least("floor_area_m2", self.floor_area_m2, -math.inf)
        if area <= 0:
            raise ValueError(f"floor_area_m2 must be > 0, got {self.floor_area_m2}")
        workplaces = _whole_number("workplace_count", self.workplace_count)
        coworkers = _whole_number("coworker_count", self.coworker_count)
        workdays = _whole_number("workdays_per_year", self.workdays_per_year)
        if workplaces < 1:
            raise ValueError(f"workplace_count must be >= 1, got {self.workplace_count}")
        if coworkers < 1:
            raise ValueError(f"coworker_count must be >= 1, got {self.coworker_count}")
        if not 1 <= workdays <= 366:
            raise ValueError(
                f"workdays_per_year must be in [1, 366], got {self.workdays_per_year}"
            )
        counts = {}
        for kind, count in self.device_counts.items():
            count = _whole_number(f"device_counts[{kind}]", count)
            if count < 0:
                raise ValueError(f"device_counts[{kind}] is negative: {count}")
            counts[str(kind)] = count
        object.__setattr__(self, "floor_area_m2", area)
        object.__setattr__(self, "workplace_count", workplaces)
        object.__setattr__(self, "coworker_count", coworkers)
        object.__setattr__(self, "workdays_per_year", workdays)
        object.__setattr__(self, "device_counts", counts)


def _real(name: str, value) -> float:
    """``value`` as a float when it is a real number and not a bool (an int
    too large for a float is inf); otherwise :class:`ValueError` naming
    ``name``. Text such as ``"0.5"`` is refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf


def finite_at_least(name: str, value, minimum: float = 0.0) -> float:
    """``value`` as a float when it is a real number, not a bool, finite and
    at least ``minimum``; otherwise :class:`ValueError` naming ``name``."""
    number = _real(name, value)
    if not math.isfinite(number):
        raise ValueError(f"{name} is not finite: {value!r}")
    if number < minimum:
        raise ValueError(f"{name} must be >= {minimum:g}")
    return number


def _whole_number(name: str, value) -> int:
    """``value`` as an int; a bool, a non-number such as ``"7"`` or a number
    with a fractional part is refused rather than converted or truncated.
    Integral floats such as 14.0 pass."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    )
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class FactorTable:
    """All energy coefficients in one place, checked when built.

    Every value must be a real number and not a bool (else
    :class:`ValueError` naming its ``group.key``). Every facility component
    and every transport mode must have its factors, else
    :class:`MissingFactorError` lists every missing key. Then the first
    value that is NaN or infinite raises :class:`NonFiniteError`, and the
    first negative one :class:`NegativeFactorError`. Device kinds are open:
    :func:`~telework_impact.config.load_config` checks those of the
    inventory.
    """

    facility_intensity: Mapping[str, float]
    device_daily_energy: Mapping[str, float]
    mode_speed: Mapping[TransportMode, float]
    mode_energy: Mapping[TransportMode, float]

    def __post_init__(self):
        named = {}
        for group, key_type in (
            ("facility_intensity", str),
            ("device_daily_energy", str),
            ("mode_speed", TransportMode),
            ("mode_energy", TransportMode),
        ):
            numbers_by_key = {}
            for key, value in getattr(self, group).items():
                key = key_type(key)
                name = f"{group}.{getattr(key, 'value', key)}"
                numbers_by_key[key] = named[name] = _real(name, value)
            object.__setattr__(self, group, numbers_by_key)
        required = [f"facility_intensity.{c}" for c in FACILITY_COMPONENTS] + [
            f"{group}.{mode.value}"
            for mode in TransportMode
            for group in ("mode_speed", "mode_energy")
        ]
        missing = [name for name in required if name not in named]
        if missing:
            raise MissingFactorError(missing)
        for name, value in named.items():
            if not math.isfinite(value):
                raise NonFiniteError(f"{name} is not finite: {value}")
            if value < 0:
                raise NegativeFactorError(name, value)

    def facility_intensity_total(self) -> float:
        """Summed heating + cooling + lighting intensity, MJ/(m2*year)."""
        return sum(self.facility_intensity[c] for c in FACILITY_COMPONENTS)


_DELTA_COMPONENTS = ("facility_mj", "equipment_mj", "travel_mj", "credit_mj")


@dataclass(frozen=True)
class EnergyDelta:
    """Component-wise MJ change of one co-working day versus a baseline day.

    Facility and equipment are direct contributions of the co-working site
    and therefore never negative; the travel component is signed. A scenario
    may claim a floor-space credit (heated space saved elsewhere), reported
    as its own non-negative component. ``net_mj`` is always exactly
    facility + equipment + travel - credit; a plain day-type comparison has
    credit 0. A component or net that is not finite raises
    :class:`NonFiniteError`.
    """

    baseline: DayType
    facility_mj: float
    equipment_mj: float
    travel_mj: float
    credit_mj: float = 0.0
    net_mj: float = field(init=False)

    def __post_init__(self):
        for name in _DELTA_COMPONENTS:
            value = getattr(self, name)
            if not math.isfinite(_real(name, value)):
                raise NonFiniteError(f"{name} is not finite: {value}")
            finite_at_least(name, value, -math.inf if name == "travel_mj" else 0.0)
        net = self.facility_mj + self.equipment_mj + self.travel_mj - self.credit_mj
        if not math.isfinite(net):
            raise NonFiniteError(f"net_mj is not finite: {net}")
        object.__setattr__(self, "net_mj", net)
