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
evaluate one parameter over a list of values; break-even bisects the
scenario net over a bracket. Integer-valued inventory parameters are
relaxed to reals for sweeping and root finding (round up for planning).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .aggregation import DayTypeProfile
from .energy import compare_day_types, direct_components, per_coworker_day
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

#: Parameters supported by sweep(); break_even() takes all but
#: cw_days_per_week, on which the per-day net does not depend.
SWEEP_PARAMETERS = (
    "coworker_count",
    "workdays_per_year",
    "floor_area_m2",
    "floor_space_credit_m2",
    "cw_days_per_week",
)

_INVENTORY_FIELDS = tuple(f.name for f in dataclasses.fields(SiteInventory))

MAX_CW_DAYS_PER_WEEK = 5.0


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
        _check_parameter(self.parameter)
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
    known = {
        "name",
        "overrides",
        "modal_override",
        "floor_space_credit_m2",
        "credit_intensity_mj_per_m2_year",
    }
    unknown = set(payload) - known
    if unknown:
        raise ConfigError(f"unknown scenario keys in {path}: {sorted(unknown)}")
    try:
        return Scenario(
            name=str(payload.get("name", path.stem)),
            overrides=payload.get("overrides", {}),
            modal_override=payload.get("modal_override"),
            floor_space_credit_m2=payload.get("floor_space_credit_m2", 0.0),
            credit_intensity_mj_per_m2_year=payload.get("credit_intensity_mj_per_m2_year", 0.0),
        )
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

    def at(self, parameter: str | None = None, value: float | None = None) -> EnergyDelta:
        """The delta with one parameter optionally forced to a finite real value
        (the relaxed space used by sweeps and root finding)."""
        area, coworkers, workdays = self.area, self.coworkers, self.workdays
        credit_m2 = self.credit_m2
        if parameter is not None:
            value = float(value)
            if not math.isfinite(value):
                raise InvalidOverrideError(f"{parameter} must be finite, got {value}")
            if parameter == "floor_area_m2":
                if value <= 0:
                    raise InvalidOverrideError(f"floor_area_m2 must be > 0, got {value}")
                area = value
            elif parameter == "coworker_count":
                if value <= 0:
                    raise InvalidOverrideError(f"coworker_count must be > 0, got {value}")
                coworkers = value
            elif parameter == "workdays_per_year":
                if value <= 0:
                    raise InvalidOverrideError(f"workdays_per_year must be > 0, got {value}")
                workdays = value
            elif parameter == "floor_space_credit_m2":
                if value < 0:
                    raise InvalidOverrideError(f"floor_space_credit_m2 must be >= 0, got {value}")
                credit_m2 = value
            elif parameter == "cw_days_per_week":
                if not 0.0 < value <= MAX_CW_DAYS_PER_WEEK:
                    raise InvalidOverrideError(
                        f"cw_days_per_week must be in (0, {MAX_CW_DAYS_PER_WEEK:g}], got {value}"
                    )
                # Affects the weekly aggregate only, never the per-day delta.
            else:
                _check_parameter(parameter)
        return EnergyDelta(
            baseline=self.baseline,
            facility_mj=per_coworker_day(area * self.facility_intensity, coworkers, workdays),
            equipment_mj=self.equipment_mj,
            travel_mj=self.travel_mj,
            credit_mj=per_coworker_day(credit_m2 * self.credit_intensity, coworkers, workdays),
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


def _check_parameter(parameter: str) -> None:
    if parameter not in SWEEP_PARAMETERS:
        raise InvalidOverrideError(
            f"unsupported parameter {parameter!r}; supported: {', '.join(SWEEP_PARAMETERS)}"
        )


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
    _check_parameter(parameter)
    if not values:
        raise InvalidOverrideError("sweep needs at least one value")
    ordered = sorted(float(v) for v in values)
    terms = _terms(inventory, factors, profiles, scenario, baseline)
    deltas = []
    for value in ordered:
        try:
            deltas.append(terms.at(parameter, value))
            if parameter == "cw_days_per_week":
                weekly_net_mj(deltas[-1], value)
        except TeleworkImpactError as exc:
            raise SweepPointError(parameter, value, exc) from exc
    return SweepResult(parameter=parameter, points=tuple(zip(ordered, deltas)))


def bisect_root(
    f: Callable[[float], float], lo: float, hi: float, tolerance: float = 1e-6
) -> float:
    """Bisection on f over [lo, hi] until the bracket is narrower than
    ``tolerance``; returns the bracket midpoint.

    Raises :class:`NoRootError` when the endpoints have the same sign and
    :class:`NonFiniteError` when an evaluation fails or is not finite.
    Assumes f is monotone enough for bisection to be meaningful.
    """
    if not lo < hi:
        raise ValueError(f"bounds must satisfy lo < hi, got [{lo}, {hi}]")
    if not tolerance > 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")

    def safe_eval(x: float) -> float:
        try:
            y = f(x)
        except TeleworkImpactError as exc:
            raise NonFiniteError(f"evaluation failed at {x}: {exc}") from exc
        if not math.isfinite(y):
            raise NonFiniteError(f"evaluation at {x} is not finite: {y}")
        return y

    f_lo = safe_eval(lo)
    f_hi = safe_eval(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise NoRootError(lo, hi, f_lo, f_hi)

    while hi - lo >= tolerance:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket at float resolution
        f_mid = safe_eval(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


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
    """Parameter value at which the scenario net energy delta crosses zero.

    Raises :class:`InvalidOverrideError` before any evaluation when a bound
    is not finite, ``lo >= hi``, or the tolerance is not a finite positive
    number.
    """
    _check_parameter(parameter)
    if parameter == "cw_days_per_week":
        raise InvalidOverrideError(
            "break-even on cw_days_per_week has no root: the per-day net does not depend on it"
        )
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidOverrideError(f"bounds must be finite, got [{lo}, {hi}]")
    if not lo < hi:
        raise InvalidOverrideError(f"bounds must satisfy lo < hi, got [{lo}, {hi}]")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise InvalidOverrideError(f"tolerance must be finite and > 0, got {tolerance}")
    terms = _terms(inventory, factors, profiles, scenario, baseline)
    return bisect_root(lambda value: terms.at(parameter, value).net_mj, lo, hi, tolerance)
