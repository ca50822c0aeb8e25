"""What-if analysis: overrides, floor-space credits, sweeps, break-even.

A scenario can override inventory fields, replace the modal profile of a day
type, and claim an explicit floor-space credit (net reduction of heated
space elsewhere, valued at a user-supplied intensity and allocated like the
facility component). A scenario point is an :class:`EnergyDelta` whose
``credit_mj`` is reported as its own component, so the three-way
facility/equipment/travel split stays comparable; its net subtracts it.

Every evaluation first takes the terms that do not depend on the swept
value (effective inventory, intensities, and the equipment and travel MJ of
one :func:`compare_day_types` call), once per call; a point then only
allocates facility and credit energy over coworkers x workdays. Sweeps
evaluate one parameter over a list of values. Break-even needs no search:
the net is ``a + b*x`` in floor area and floor-space credit and ``a + b/x``
in coworkers and workdays, so its root is ``-a/b`` or ``-b/a`` with ``a``
and ``b`` read from the terms. Integer-valued inventory parameters are
relaxed to reals for sweeping and root finding (round up for planning).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

from .aggregation import DayTypeProfile
from .energy import compare_day_types, direct_components
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
    DayType,
    EnergyDelta,
    FactorTable,
    SiteInventory,
    TransportMode,
    finite_at_least,
)

_INVENTORY_FIELDS = tuple(f.name for f in dataclasses.fields(SiteInventory))

MAX_CW_DAYS_PER_WEEK = 5.0


class _Parameter(NamedTuple):
    """How a swept parameter enters a point: the :class:`_Terms` field a
    value replaces (None: the per-day net does not depend on it), the values
    it takes (``domain`` as errors state it, tested by ``allows``), and the
    form of the net in it, ``a + b/x`` when ``reciprocal``, else ``a + b*x``."""

    field: str | None
    domain: str
    allows: Callable[[float], bool]
    reciprocal: bool = False

    def check(self, name: str, value: float) -> float:
        if not math.isfinite(value):
            raise InvalidOverrideError(f"{name} must be finite, got {value}")
        if not self.allows(value):
            raise InvalidOverrideError(f"{name} must be {self.domain}, got {value}")
        return value


_PARAMETERS = {
    "coworker_count": _Parameter("coworkers", "> 0", lambda v: v > 0, reciprocal=True),
    "workdays_per_year": _Parameter("workdays", "> 0", lambda v: v > 0, reciprocal=True),
    "floor_area_m2": _Parameter("area", "> 0", lambda v: v > 0),
    "floor_space_credit_m2": _Parameter("credit_m2", ">= 0", lambda v: v >= 0),
    "cw_days_per_week": _Parameter(
        None, f"in (0, {MAX_CW_DAYS_PER_WEEK:g}]", lambda v: 0 < v <= MAX_CW_DAYS_PER_WEEK
    ),
}

#: Parameters supported by sweep(); break_even() takes all but
#: cw_days_per_week, on which the per-day net does not depend.
SWEEP_PARAMETERS = tuple(_PARAMETERS)


@dataclass(frozen=True)
class Scenario:
    """One what-if configuration; the default instance changes nothing."""

    name: str = "baseline"
    overrides: Mapping[str, object] = field(default_factory=dict)
    modal_override: Mapping[DayType, Mapping[TransportMode, float]] | None = None
    floor_space_credit_m2: float = 0.0
    credit_intensity_mj_per_m2_year: float = 0.0

    def __post_init__(self):
        unknown = set(self.overrides) - set(_INVENTORY_FIELDS)
        if unknown:
            raise InvalidOverrideError(
                f"unknown inventory fields in overrides: {sorted(unknown)}"
            )
        for name in ("floor_space_credit_m2", "credit_intensity_mj_per_m2_year"):
            value = _finite(name, getattr(self, name))
            if value < 0:
                raise InvalidOverrideError(f"{name} must be >= 0")
            object.__setattr__(self, name, value)
        if self.modal_override is not None:
            normalized = {}
            for day_type, profile in self.modal_override.items():
                day_type = DayType(day_type)
                normalized[day_type] = {}
                for mode, minutes in profile.items():
                    mode = TransportMode(mode)
                    name = f"modal_override[{day_type.value}][{mode.value}]"
                    minutes = _finite(name, minutes)
                    if minutes < 0:
                        raise InvalidOverrideError(f"{name} is negative")
                    normalized[day_type][mode] = minutes
            object.__setattr__(self, "modal_override", normalized)


def _finite(name: str, value) -> float:
    """``value`` as a float when it is a finite real number and not a bool;
    text such as ``"20"`` is refused, not converted. Otherwise
    :class:`InvalidOverrideError` naming ``name``."""
    try:
        return finite_at_least(name, value, -math.inf)
    except ValueError as exc:
        raise InvalidOverrideError(str(exc)) from None


@dataclass(frozen=True)
class SweepResult:
    """Deltas of one sweep of a supported parameter, ordered by value."""

    parameter: str
    points: tuple[tuple[float, EnergyDelta], ...]

    def __post_init__(self):
        _parameter(self.parameter)
        if not self.points:
            raise ValueError("sweep produced no points")
        values = [value for value, _ in self.points]
        if not all(map(math.isfinite, values)):
            raise ValueError("sweep point values must be finite")
        if values != sorted(values):
            raise ValueError("sweep points must be ordered by parameter value")


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario JSON document; unknown keys are rejected."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario file {path} is not valid JSON: {exc}") from exc
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
        workdays or credit_m2) replaced by ``value``."""
        area = value if field == "area" else self.area
        coworkers = value if field == "coworkers" else self.coworkers
        workdays = value if field == "workdays" else self.workdays
        credit_m2 = value if field == "credit_m2" else self.credit_m2
        divisor = coworkers * workdays
        return EnergyDelta(
            baseline=self.baseline,
            facility_mj=area * self.facility_intensity / divisor,
            equipment_mj=self.equipment_mj,
            travel_mj=self.travel_mj,
            credit_mj=credit_m2 * self.credit_intensity / divisor,
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
    weekly = cw_days_per_week * delta.net_mj
    if not math.isfinite(weekly):
        raise NonFiniteError(f"weekly_net_mj is not finite: {weekly}")
    return weekly


def sweep(
    inventory: SiteInventory,
    factors: FactorTable,
    profiles: Mapping[DayType, DayTypeProfile],
    scenario: Scenario,
    parameter: str,
    values: Sequence[float],
    baseline: DayType = DayType.EMPLOYER_OFFICE,
) -> SweepResult:
    """Evaluate one parameter over a list of values, in ascending order.

    The value-independent terms are computed once; a failing point, one
    whose MJ figures are not finite among them, raises
    :class:`SweepPointError` with its value.
    """
    spec = _parameter(parameter)
    if not values:
        raise InvalidOverrideError("sweep needs at least one value")
    ordered = sorted(float(v) for v in values)
    terms = _terms(inventory, factors, profiles, scenario, baseline)
    deltas = []
    for value in ordered:
        try:
            deltas.append(terms.at(spec.field, spec.check(parameter, value)))
            if parameter == "cw_days_per_week":
                weekly_net_mj(deltas[-1], value)
        except TeleworkImpactError as exc:
            raise SweepPointError(parameter, value, exc) from exc
    return SweepResult(parameter=parameter, points=tuple(zip(ordered, deltas)))


def break_even(
    inventory: SiteInventory,
    factors: FactorTable,
    profiles: Mapping[DayType, DayTypeProfile],
    scenario: Scenario,
    parameter: str,
    bounds: tuple[float, float],
    tolerance: float = 1e-6,
    baseline: DayType = DayType.EMPLOYER_OFFICE,
) -> float:
    """Parameter value at which the scenario net energy delta crosses zero:
    ``-a/b`` for a net ``a + b*x``, ``-b/a`` for ``a + b/x``, clamped to the
    bounds, or a bound where the net is exactly 0. The root is exact up to
    rounding, so it always meets ``tolerance``, which is only validated.

    Raises :class:`InvalidOverrideError` before any evaluation when a bound
    is not finite, ``lo >= hi``, or the tolerance is not a finite positive
    number; :class:`NonFiniteError` when a bound is outside the parameter's
    domain or the net there is not finite; :class:`NoRootError` when the net
    has one sign at both bounds.
    """
    spec = _parameter(parameter)
    if spec.field is None:
        raise InvalidOverrideError(
            f"break-even on {parameter} has no root: the per-day net does not depend on it"
        )
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidOverrideError(f"bounds must be finite, got [{lo}, {hi}]")
    if not lo < hi:
        raise InvalidOverrideError(f"bounds must satisfy lo < hi, got [{lo}, {hi}]")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise InvalidOverrideError(f"tolerance must be finite and > 0, got {tolerance}")
    terms = _terms(inventory, factors, profiles, scenario, baseline)

    def net(value: float) -> float:
        try:
            return terms.at(spec.field, spec.check(parameter, value)).net_mj
        except TeleworkImpactError as exc:
            raise NonFiniteError(f"evaluation failed at {value}: {exc}") from exc

    f_lo, f_hi = net(lo), net(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise NoRootError(lo, hi, f_lo, f_hi)
    a, b = terms.coefficients(spec.field)
    numerator, denominator = (b, a) if spec.reciprocal else (a, b)
    if denominator == 0:
        # The exact net is constant or b/x: only rounding made the signs differ.
        return lo if abs(f_lo) <= abs(f_hi) else hi
    return min(max(-numerator / denominator, lo), hi)
