"""Core domain types and units.

Conventions used everywhere in the package:

* time in diaries is **minutes**, energy is **MJ**,
* facility intensity is MJ/(m2*year), device energy is MJ/(device*day),
* mode speed is km/h, mode energy is MJ per person-km,
* all values are immutable after construction and safe to share across
  threads.

Missing entries in the minute maps of a :class:`DiaryDay` mean zero.

Every number field declares its :class:`Domain` once (:func:`declared`), as
does each parameter :mod:`.scenario` sweeps. :func:`checked`, the one check
of a number, whose range test is :meth:`Domain.allows`, checks it from
``__post_init__`` and names it in a refusal: :class:`~.errors.DomainError`,
a :class:`ValueError`, unless the class documents its own errors.
"""

from __future__ import annotations

import datetime as _dt
import functools
import math
import numbers
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Iterable, Mapping, NamedTuple

from .errors import DomainError, MissingFactorError, NegativeFactorError, NonFiniteError

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


#: Day types in code order; ``DiaryTable.day_types`` holds indices into it.
DAY_TYPES = tuple(DayType)

#: Day types that take part in aggregation and energy comparison.
COMPARABLE_DAY_TYPES = (DayType.EMPLOYER_OFFICE, DayType.COWORKING, DayType.HOME)


#: The minute maps of a :class:`DiaryDay` and the keys each holds, in order.
_MINUTE_MAPS = (("activity_minutes", tuple(Activity)), ("mode_minutes", tuple(TransportMode)))


def _sum_in_order(values: Iterable[float]) -> float:
    """Plain left-to-right float sum from 0.0. Unlike ``sum``, which uses
    compensated summation for floats from Python 3.12 on, it gives the same
    bits on every supported Python."""
    total = 0.0
    for value in values:
        total += value
    return total


#: The largest whole number a field takes: up to it, ``float()`` of one is exact.
WHOLE_MAX = 2**53


class Domain(NamedTuple):
    """The numbers a field takes: whole numbers (kept as ints, at most
    :data:`WHOLE_MAX`) or reals (kept as floats, finite when ``finite``),
    from ``low`` (excluded when ``open``) up to ``high``."""

    whole: bool
    low: float
    high: float = math.inf
    open: bool = False
    finite: bool = True

    def allows(self, number: float) -> bool:
        """Whether ``number`` is within the bounds; NaN is (:func:`checked` refuses it)."""
        return not (number < self.low or self.open and number == self.low or number > self.high)

    def __str__(self) -> str:
        if self.high == math.inf:
            return f"{'>' if self.open else '>='} {self.low:g}"
        return f"in {'(' if self.open else '['}{self.low:g}, {self.high:g}]"


#: The domains fields declare.
REAL = Domain(False, -math.inf)
NON_NEGATIVE = Domain(False, 0.0)
POSITIVE = Domain(False, 0.0, open=True)
COUNT = Domain(True, 0)
AT_LEAST_ONE = Domain(True, 1)
#: A diary minute. NaN is still taken, so the read keeps a row holding one
#: (ROADMAP item 1); an infinite minute is out of range.
MINUTE = Domain(False, 0.0, MINUTES_PER_DAY, finite=False)

#: What :func:`checked` raises for a value of the wrong kind, one not finite
#: and one out of range; an MJ figure not finite is an overflow.
DOMAIN_ERRORS = (DomainError, DomainError, DomainError)
MJ_ERRORS = (DomainError, NonFiniteError, DomainError)


def _shown(value) -> str:
    """``repr(value)``, but a whole number beyond :data:`WHOLE_MAX` as ``1.000000e+400``."""
    if isinstance(value, numbers.Integral) and abs(value) > WHOLE_MAX:
        from decimal import Decimal

        return f"{Decimal(int(value)):.6e}"
    return repr(value)


def checked(name: str, value, domain: Domain, errors: tuple = DOMAIN_ERRORS):
    """``value`` as the number it is in ``domain``: an int for a whole
    number (14.0 gives 14), else a float. Otherwise, with a text that starts
    with ``name``, it raises ``errors[0]`` for a bool, text such as ``"1"``
    or a fraction where a whole number is declared; ``errors[1]`` for a
    real that is not finite in a finite domain; ``errors[2]`` out of range."""
    whole = domain.whole
    plain = type(value) in (float, int)  # needs no test of the abstract types
    if not plain and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise errors[0](f"{name} must be a {'whole ' if whole else ''}number, got {_shown(value)}")
    if not whole:
        try:
            number = value if type(value) is float else float(value)
        except OverflowError:  # an int too large for a float
            number = math.inf if value > 0 else -math.inf
    elif type(value) is int or isinstance(value, numbers.Integral) or (
        math.isfinite(value) and value % 1 == 0
    ):
        number = int(value)
    else:
        raise errors[0](f"{name} must be a whole number, got {_shown(value)}")
    if domain.finite and not whole and not math.isfinite(number):
        raise errors[1](f"{name} is not finite: {_shown(value)}")
    if not domain.allows(number):
        raise errors[2](f"{name} must be {domain}, got {_shown(value)}")
    if whole and number > WHOLE_MAX:
        raise errors[2](f"{name} must be <= 2**53, got {_shown(value)}")
    return number


def declared(domain: Domain, keys: tuple = (), name: str = "", **options):
    """A dataclass field whose numbers lie in ``domain``: its value or, with
    ``keys`` (a key type per level), the values of mappings that deep.
    ``name`` formats the field and keys into the name a refusal gives
    (``field[key]...``). Its metadata holds ``"declared": (domain, keys, name)``."""
    name = name or "{0}" + "".join(f"[{{{level}}}]" for level in range(1, len(keys) + 1))
    return field(metadata={"declared": (domain, keys, name)}, **options)


@functools.cache
def _declarations(cls) -> tuple:
    """``(field name, (domain, keys, name), default is None)`` of each
    declared field of the dataclass ``cls``."""
    return tuple(
        (f.name, f.metadata["declared"], f.default is None)
        for f in fields(cls) if "declared" in f.metadata
    )


def check_fields(obj, errors: tuple = DOMAIN_ERRORS) -> None:
    """Replace each declared field of the frozen dataclass ``obj`` by what
    :func:`checked` gives for it, a mapping by a dict of its keys as their
    types; a field whose default is None may be None."""
    for name, declaration, optional in _declarations(type(obj)):
        value = getattr(obj, name)
        if value is None and optional:
            continue
        if declaration[1]:  # a mapping
            value = _checked(declaration, (name,), value, errors)
        else:
            value = checked(name, value, declaration[0], errors)
        object.__setattr__(obj, name, value)


def _checked(declaration: tuple, names: tuple, mapping, errors: tuple) -> dict:
    """``mapping`` with its keys as their level's key type and its values
    checked; ``names`` are the field and the keys that lead to it."""
    domain, keys, template = declaration
    key_type, deeper = keys[len(names) - 1], len(names) < len(keys)
    out = {}
    for key, value in mapping.items():
        try:
            key = key if type(key) is key_type else key_type(key)
        except ValueError:
            raise ValueError(f"{names[0]} has unknown key {key!r}") from None
        named = (*names, getattr(key, "_value_", key))  # an enum member's value
        out[key] = (_checked(declaration, named, value, errors) if deeper
                    else checked(template.format(*named), value, domain, errors))
    return out


@dataclass(frozen=True)
class DiaryDay:
    """One participant-day of a time-use diary.

    ``source_row``, ``None`` or the line number of the CSV record (the
    header's is 1), is metadata only and excluded from equality. The minute
    maps hold every :class:`Activity` and :class:`TransportMode`, in order
    (missing entries are stored as 0.0), so days that mean the same compare
    equal and ``activity_total``/``mode_total`` sum in column order, as the
    columnar diary tables sum a row. A map's total is at most a day.
    """

    participant_id: str
    date: _dt.date
    day_type: DayType
    activity_minutes: Mapping[Activity, float] = declared(MINUTE, (Activity,))
    mode_minutes: Mapping[TransportMode, float] = declared(MINUTE, (TransportMode,))
    source_row: int | None = declared(COUNT, default=None, compare=False)

    def __post_init__(self):
        check_fields(self)
        for name, members in _MINUTE_MAPS:
            minutes = {**dict.fromkeys(members, 0.0), **getattr(self, name)}
            object.__setattr__(self, name, minutes)
            total = _sum_in_order(minutes.values())
            if total > MINUTE.high:
                raise ValueError(f"{name} total {total} exceeds {MINUTES_PER_DAY} minutes")

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

    floor_area_m2: float = declared(POSITIVE)
    workplace_count: int = declared(AT_LEAST_ONE)
    device_counts: Mapping[str, int] = declared(COUNT, (str,))
    coworker_count: int = declared(AT_LEAST_ONE)
    workdays_per_year: int = declared(Domain(True, 1, 366))

    def __post_init__(self):
        check_fields(self)


class _Negative(Exception):
    """A factor below 0: a :class:`NegativeFactorError` once no key is missing."""


@dataclass(frozen=True)
class FactorTable:
    """All energy coefficients in one place, each a finite real >= 0.

    Refusals name ``group.key``, in this order: the first value that is a
    bool or not a number (:class:`DomainError`), every missing facility
    component and mode factor (:class:`MissingFactorError`), then the first
    value that is NaN or infinite (:class:`NonFiniteError`) or negative
    (:class:`NegativeFactorError`). Device kinds are open:
    :func:`~telework_impact.config.load_config` checks the inventory's.
    """

    facility_intensity: Mapping[str, float] = declared(NON_NEGATIVE, (str,), "{0}.{1}")
    device_daily_energy: Mapping[str, float] = declared(NON_NEGATIVE, (str,), "{0}.{1}")
    mode_speed: Mapping[TransportMode, float] = declared(NON_NEGATIVE, (TransportMode,), "{0}.{1}")
    mode_energy: Mapping[TransportMode, float] = declared(NON_NEGATIVE, (TransportMode,), "{0}.{1}")

    def __post_init__(self):
        named, refused, errors = set(), [], (DomainError, NonFiniteError, _Negative)
        for group, (domain, (key_type,), template), _ in _declarations(FactorTable):
            numbers_by_key = {}
            for key, value in getattr(self, group).items():
                key = key_type(key)
                name = template.format(group, getattr(key, "_value_", key))
                named.add(name)
                try:
                    numbers_by_key[key] = checked(name, value, domain, errors)
                except NonFiniteError as exc:
                    refused.append(exc)
                except _Negative:
                    refused.append(NegativeFactorError(name, float(value)))
            object.__setattr__(self, group, numbers_by_key)
        required = [f"facility_intensity.{c}" for c in FACILITY_COMPONENTS] + [
            f"{group}.{mode.value}"
            for mode in TransportMode
            for group in ("mode_speed", "mode_energy")
        ]
        missing = [name for name in required if name not in named]
        if missing:
            raise MissingFactorError(missing)
        if refused:
            raise refused[0]

    def facility_intensity_total(self) -> float:
        """Summed heating + cooling + lighting intensity, MJ/(m2*year)."""
        return _sum_in_order(self.facility_intensity[c] for c in FACILITY_COMPONENTS)


@dataclass(frozen=True)
class EnergyDelta:
    """Component-wise MJ change of one co-working day versus a baseline day.

    Facility and equipment are direct contributions of the co-working site
    and therefore never negative; the travel component is signed. A scenario
    may claim a floor-space credit (heated space saved elsewhere), reported
    as its own non-negative component. ``net_mj`` is always exactly
    facility + equipment + travel - credit; a plain day-type comparison has
    credit 0. A component or net that is not finite raises
    :class:`NonFiniteError`, a negative facility, equipment or credit
    :class:`DomainError`.
    """

    baseline: DayType
    facility_mj: float = declared(NON_NEGATIVE)
    equipment_mj: float = declared(NON_NEGATIVE)
    travel_mj: float = declared(REAL)
    credit_mj: float = declared(NON_NEGATIVE, default=0.0)
    net_mj: float = field(init=False)

    def __post_init__(self):
        check_fields(self, MJ_ERRORS)
        net = self.facility_mj + self.equipment_mj + self.travel_mj - self.credit_mj
        object.__setattr__(self, "net_mj", checked("net_mj", net, REAL, MJ_ERRORS))
