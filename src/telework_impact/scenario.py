"""What-if analysis: overrides, floor-space credits, sweeps, break-even.

A scenario can override inventory fields, replace the modal profile of a day
type, and claim an explicit floor-space credit (net reduction of heated
space elsewhere, valued at a user-supplied intensity and allocated like the
facility component). A scenario's delta is an :class:`EnergyDelta` whose
``credit_mj`` is reported as its own component, so the three-way
facility/equipment/travel split stays comparable; its net subtracts it.

Every evaluation first takes the terms that do not depend on the swept
value (effective inventory, intensities, and the equipment and travel MJ of
one :func:`compare_day_types` call), once per call; a point then only
allocates facility and credit energy over coworkers x workdays with
:func:`~telework_impact.energy.allocate`, the function that allocates the
facility of :func:`direct_components`. A sweep evaluates one parameter over
a list of values as columns (a :class:`SweepResult`, no delta per point).
Break-even needs no search: the net is ``a + b*x`` in floor area and
floor-space credit and ``a + b/x`` in coworkers and workdays, so its root is
``-a/b`` or ``-b/a`` with ``a`` and ``b`` read from the terms.
Integer-valued inventory parameters are relaxed to reals for sweeping and
root finding (round up for planning).
A :class:`Scenario` declares its numbers' domains (see :mod:`.model`) and
refuses one outside with :class:`InvalidOverrideError` naming the key, as
it refuses an override outside the inventory field's domain or a swept
value outside the :class:`~.model.Domain` its parameter declares.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence as SequenceABC
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import le, mul
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .aggregation import DayTypeProfile
from .config import read_json
from .energy import allocate, compare_day_types, direct_components
from .errors import (
    ConfigError,
    InvalidOverrideError,
    MissingProfileError,
    NonFiniteError,
    NoRootError,
    SweepPointError,
    TeleworkImpactError,
)
from .model import (
    MJ_ERRORS,
    NON_NEGATIVE,
    POSITIVE,
    REAL,
    DayType,
    Domain,
    EnergyDelta,
    FactorTable,
    SiteInventory,
    TransportMode,
    check_fields,
    checked,
    declared,
)

_INVENTORY_FIELDS = tuple(f.name for f in dataclasses.fields(SiteInventory))

#: What a scenario refuses, it refuses with InvalidOverrideError.
_OVERRIDE_ERRORS = (InvalidOverrideError,) * 3

MAX_CW_DAYS_PER_WEEK = 5.0


class _Parameter(NamedTuple):
    """How a swept parameter enters a point: the :class:`_Terms` field a
    value replaces (None: the per-day net does not depend on it), the
    :class:`~.model.Domain` of its values, and the form of the net in it,
    ``a + b/x`` when ``reciprocal``, else ``a + b*x``."""

    field: str | None
    domain: Domain
    reciprocal: bool = False


_PARAMETERS = {
    "coworker_count": _Parameter("coworkers", POSITIVE, reciprocal=True),
    "workdays_per_year": _Parameter("workdays", POSITIVE, reciprocal=True),
    "floor_area_m2": _Parameter("area", POSITIVE),
    "floor_space_credit_m2": _Parameter("credit_m2", NON_NEGATIVE),
    "cw_days_per_week": _Parameter(None, Domain(False, 0.0, MAX_CW_DAYS_PER_WEEK, open=True)),
}

#: Parameters supported by sweep(); break_even() takes all but
#: cw_days_per_week, on which the per-day net does not depend.
SWEEP_PARAMETERS = tuple(_PARAMETERS)


@dataclass(frozen=True)
class Scenario:
    """One what-if configuration; the default instance changes nothing.
    Every number is finite and >= 0."""

    name: str = "baseline"
    overrides: Mapping[str, object] = field(default_factory=dict)
    modal_override: Mapping[DayType, Mapping[TransportMode, float]] | None = declared(
        NON_NEGATIVE, (DayType, TransportMode), default=None
    )
    floor_space_credit_m2: float = declared(NON_NEGATIVE, default=0.0)
    credit_intensity_mj_per_m2_year: float = declared(NON_NEGATIVE, default=0.0)

    def __post_init__(self):
        unknown = set(self.overrides) - set(_INVENTORY_FIELDS)
        if unknown:
            raise InvalidOverrideError(
                f"unknown inventory fields in overrides: {sorted(unknown)}"
            )
        check_fields(self, _OVERRIDE_ERRORS)


@dataclass(frozen=True)
class SweepResult:
    """One sweep of a supported parameter as columns, ordered by value; the
    points share the baseline and the equipment and travel MJ. The net is
    computed here, as :class:`EnergyDelta` computes it. What a point's
    evaluation refuses is refused: a value outside the domain, a non-finite
    MJ or weekly net, a negative facility, equipment or credit."""

    parameter: str
    baseline: DayType
    equipment_mj: float
    travel_mj: float
    values: tuple[float, ...]
    facility_mj: tuple[float, ...]
    credit_mj: tuple[float, ...]
    net_mj: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        spec = _parameter(self.parameter)
        values, facility, credit = map(tuple, (self.values, self.facility_mj, self.credit_mj))
        if not (values and len(values) == len(facility) == len(credit)):
            raise ValueError("sweep columns must have one length, not 0")
        # Sorted finite values lie in an interval domain when both ends do.
        ordered = all(map(math.isfinite, values)) and all(map(le, values, values[1:]))
        if not (ordered and spec.domain.allows(values[0]) and spec.domain.allows(values[-1])):
            raise ValueError(f"sweep values must be finite, ascending and {spec.domain}")
        equipment, travel = self.equipment_mj, self.travel_mj
        net = tuple([f + equipment + travel - c for f, c in zip(facility, credit)])
        weekly = map(mul, values, net) if spec.field is None else ()  # cw_days_per_week
        # A non-finite component makes the net non-finite too.
        finite = all(map(math.isfinite, chain(net, weekly)))
        if not (finite and min(facility) >= 0 and equipment >= 0 and min(credit) >= 0):
            raise ValueError("sweep MJ must be finite; facility, equipment, credit >= 0")
        columns = {"values": values, "facility_mj": facility, "credit_mj": credit, "net_mj": net}
        for name, column in columns.items():
            object.__setattr__(self, name, column)

    @property
    def points(self) -> Sequence[tuple[float, EnergyDelta]]:
        """``(value, EnergyDelta)`` per point, each built when it is read."""
        return _Points(self)


class _Points(SequenceABC):
    """The points of a :class:`SweepResult`; ``len`` builds no delta."""

    def __init__(self, result: SweepResult):
        self._result = result

    def __len__(self) -> int:
        return len(self._result.values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        r = self._result
        delta = EnergyDelta(
            r.baseline, r.facility_mj[index], r.equipment_mj, r.travel_mj, r.credit_mj[index]
        )
        return r.values[index], delta


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario JSON document; unknown keys are rejected."""
    path = Path(path)
    payload = read_json(path, "scenario")
    if not isinstance(payload, dict):
        raise ConfigError(f"scenario file {path} must contain a JSON object")
    unknown = set(payload) - {f.name for f in dataclasses.fields(Scenario)}
    if unknown:
        raise ConfigError(f"unknown scenario keys in {path}: {sorted(unknown)}")
    try:
        return Scenario(**{**payload, "name": str(payload.get("name", path.stem))})
    except (AttributeError, TypeError, ValueError, KeyError) as exc:
        # AttributeError: a modal override that is not an object of objects.
        raise ConfigError(f"invalid scenario in {path}: {exc}") from exc


def apply_scenario(inventory: SiteInventory, scenario: Scenario) -> SiteInventory:
    """The inventory with the scenario's overrides applied."""
    if not scenario.overrides:
        return inventory
    try:
        return dataclasses.replace(inventory, **dict(scenario.overrides))
    except (TypeError, ValueError) as exc:
        raise InvalidOverrideError(str(exc)) from exc


def _profile(
    profiles: Mapping[DayType, DayTypeProfile], scenario: Scenario, day_type: DayType
) -> DayTypeProfile:
    """The day type's profile with the scenario's modal override applied."""
    profile = profiles.get(day_type)
    if profile is None:
        raise MissingProfileError(day_type)
    minutes = (scenario.modal_override or {}).get(day_type)
    return profile if minutes is None else profile.with_mode_minutes(minutes)


@dataclass(frozen=True)
class _Terms:
    """Everything a scenario point needs that does not depend on the swept
    value: the effective inventory's allocation inputs, the facility and
    credit intensities, and the value-independent equipment and travel MJ."""

    baseline: DayType
    area: float
    coworkers: float
    workdays: float
    credit_m2: float
    credit_intensity: float
    facility_intensity: float
    equipment_mj: float
    travel_mj: float

    def coefficients(self, field: str) -> tuple[float, float]:
        """``(a, b)`` of the net's form in ``field`` up to a common positive
        factor: the linear forms are multiplied through by coworkers x
        workdays."""
        direct = self.equipment_mj + self.travel_mj
        facility = self.area * self.facility_intensity
        credit = self.credit_m2 * self.credit_intensity
        if field == "coworkers":
            return direct, (facility - credit) / self.workdays
        if field == "workdays":
            return direct, (facility - credit) / self.coworkers
        scaled = direct * self.coworkers * self.workdays
        if field == "area":
            return scaled - credit, self.facility_intensity
        return scaled + facility, -self.credit_intensity

    def at(self, field: str | None = None, value: float = 0.0) -> EnergyDelta:
        """The delta with the allocation input ``field`` (area, coworkers,
        workdays or credit_m2) replaced by ``value``: one point of
        :meth:`columns`."""
        (facility,), (credit,) = self.columns(field, [value])
        return EnergyDelta(self.baseline, facility, self.equipment_mj, self.travel_mj, credit)

    def columns(self, field: str | None, values: list[float]) -> tuple[list, list]:
        """The facility and credit MJ, as :func:`allocate` allocates them,
        with the allocation input ``field`` replaced by each of ``values``, a
        column each."""
        area, coworkers, workdays, credit_m2 = (
            values if field == name else [getattr(self, name)] * len(values)
            for name in ("area", "coworkers", "workdays", "credit_m2")
        )
        intensity, credit_intensity = repeat(self.facility_intensity), repeat(self.credit_intensity)
        return (
            list(map(allocate, area, intensity, coworkers, workdays)),
            list(map(allocate, credit_m2, credit_intensity, coworkers, workdays)),
        )


def _terms(
    inventory: SiteInventory,
    factors: FactorTable,
    profiles: Mapping[DayType, DayTypeProfile],
    scenario: Scenario,
    baseline: DayType,
) -> _Terms:
    inventory = apply_scenario(inventory, scenario)
    delta = compare_day_types(
        _profile(profiles, scenario, DayType.COWORKING),
        _profile(profiles, scenario, baseline),
        direct_components(inventory, factors),
        factors,
    )
    return _Terms(
        baseline=delta.baseline,
        area=inventory.floor_area_m2,
        coworkers=float(inventory.coworker_count),
        workdays=float(inventory.workdays_per_year),
        credit_m2=scenario.floor_space_credit_m2,
        credit_intensity=scenario.credit_intensity_mj_per_m2_year,
        facility_intensity=factors.facility_intensity_total(),
        equipment_mj=delta.equipment_mj,
        travel_mj=delta.travel_mj,
    )


def _parameter(parameter: str) -> _Parameter:
    if parameter not in _PARAMETERS:
        raise InvalidOverrideError(
            f"unsupported parameter {parameter!r}; supported: {', '.join(SWEEP_PARAMETERS)}"
        )
    return _PARAMETERS[parameter]


def evaluate_scenario(
    inventory: SiteInventory,
    factors: FactorTable,
    profiles: Mapping[DayType, DayTypeProfile],
    scenario: Scenario,
    baseline: DayType = DayType.EMPLOYER_OFFICE,
) -> EnergyDelta:
    """Energy delta of one scenario against one baseline day type; with the
    default :class:`Scenario` it equals :func:`compare_day_types`."""
    return _terms(inventory, factors, profiles, scenario, baseline).at()


def weekly_net_mj(delta: EnergyDelta, cw_days_per_week: float) -> float:
    """Weekly aggregate: one co-working day avoids one commute, so the weekly
    net scales linearly with the number of co-working days. A product that
    overflows raises :class:`NonFiniteError`."""
    return checked("weekly_net_mj", cw_days_per_week * delta.net_mj, REAL, MJ_ERRORS)


def sweep(
    inventory: SiteInventory,
    factors: FactorTable,
    profiles: Mapping[DayType, DayTypeProfile],
    scenario: Scenario,
    parameter: str,
    values: Sequence[float],
    baseline: DayType = DayType.EMPLOYER_OFFICE,
) -> SweepResult:
    """Evaluate one parameter over a list of values, in ascending order:
    the value-independent terms once, then the points as columns. A value
    that is a bool or not a real number (``"60"``) raises
    :class:`InvalidOverrideError`; the first failing point (outside the
    domain, or with an MJ figure that is not finite) :class:`SweepPointError`
    with its value."""
    _parameter(parameter)
    if not values:
        raise InvalidOverrideError("sweep needs at least one value")
    # Plain floats, as the CLI passes, need no test one by one.
    if not all(type(value) is float for value in values):
        any_real = Domain(False, -math.inf, finite=False)  # _PARAMETERS test the rest
        values = [checked(parameter, value, any_real, _OVERRIDE_ERRORS) for value in values]
    terms = _terms(inventory, factors, profiles, scenario, baseline)
    return _sweep(terms, parameter, sorted(values))


def _sweep(terms: _Terms, parameter: str, ordered: list[float]) -> SweepResult:
    """The sweep over the sorted ``ordered`` on ``terms``; see :func:`sweep`."""
    spec = _PARAMETERS[parameter]
    with suppress(ValueError, ZeroDivisionError):
        columns = terms.columns(spec.field, ordered)
        shared = terms.baseline, terms.equipment_mj, terms.travel_mj
        return SweepResult(parameter, *shared, ordered, *columns)
    # A point fails: evaluate them alone, in order, to raise its own error.
    for value in ordered:
        try:
            delta = terms.at(spec.field, checked(parameter, value, spec.domain, _OVERRIDE_ERRORS))
            if spec.field is None:
                weekly_net_mj(delta, value)
        except TeleworkImpactError as exc:
            raise SweepPointError(parameter, value, exc) from exc
    raise AssertionError(f"the {parameter} sweep failed a check that none of its points fails")


class BreakEven(float):
    """A break-even root, with ``at_root``: the one-point sweep at it."""

    def __new__(cls, root: float, at_root: SweepResult):
        self = super().__new__(cls, root)
        self.at_root = at_root
        return self

    def __getnewargs__(self):  # for copy and pickle
        return float(self), self.at_root


def break_even(
    inventory: SiteInventory,
    factors: FactorTable,
    profiles: Mapping[DayType, DayTypeProfile],
    scenario: Scenario,
    parameter: str,
    bounds: tuple[float, float],
    tolerance: float = 1e-6,
    baseline: DayType = DayType.EMPLOYER_OFFICE,
) -> BreakEven:
    """Parameter value at which the scenario net energy delta crosses zero:
    ``-a/b`` for a net ``a + b*x``, ``-b/a`` for ``a + b/x``, clamped to the
    bounds, or a bound where the net is exactly 0. The root is exact up to
    rounding, so it always meets ``tolerance``, which is only validated. It
    comes with the one-point sweep at it, on the same terms (:class:`BreakEven`).

    Raises :class:`InvalidOverrideError` before any evaluation when a bound
    is a bool or not a real number, is not finite, ``lo >= hi``, or the
    tolerance is not a finite positive number; :class:`NonFiniteError` when
    a bound is outside the parameter's domain or the net there is not
    finite; :class:`NoRootError` when the net has one sign at both bounds.
    """
    spec = _parameter(parameter)
    if spec.field is None:
        raise InvalidOverrideError(
            f"break-even on {parameter} has no root: the per-day net does not depend on it"
        )
    lo = checked(f"{parameter} lower bound", bounds[0], REAL, _OVERRIDE_ERRORS)
    hi = checked(f"{parameter} upper bound", bounds[1], REAL, _OVERRIDE_ERRORS)
    if not lo < hi:
        raise InvalidOverrideError(f"bounds must satisfy lo < hi, got [{lo}, {hi}]")
    checked("tolerance", tolerance, POSITIVE, _OVERRIDE_ERRORS)
    terms = _terms(inventory, factors, profiles, scenario, baseline)
    try:
        f_lo, f_hi = _sweep(terms, parameter, [lo, hi]).net_mj
    except SweepPointError as exc:
        raise NonFiniteError(f"evaluation failed at {exc.value}: {exc.cause}") from exc.cause
    if f_lo == 0.0 or f_hi == 0.0:
        root = lo if f_lo == 0.0 else hi
    elif (f_lo > 0) == (f_hi > 0):
        raise NoRootError(lo, hi, f_lo, f_hi)
    else:
        a, b = terms.coefficients(spec.field)
        numerator, denominator = (b, a) if spec.reciprocal else (a, b)
        if denominator == 0:
            # The exact net is constant or b/x: only rounding made the signs differ.
            root = lo if abs(f_lo) <= abs(f_hi) else hi
        else:
            root = min(max(-numerator / denominator, lo), hi)
    return BreakEven(root, _sweep(terms, parameter, [root]))
