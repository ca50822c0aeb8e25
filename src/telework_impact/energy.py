"""Per-coworker-day energy model.

Three components are quantified:

* facility: heating + cooling + lighting of the shared space, allocated as
  ``floor_area * intensity / (coworkers * workdays_per_year)``,
* equipment: daily device energy summed over the inventory, allocated per
  workplace,
* travel: ``minutes/60 * speed * energy_per_person_km`` summed over modes,
  applied to the mean modal profile of a day type.

A day-type comparison charges the full facility and equipment components to
the co-working day and takes the travel difference between the co-working
and baseline modal profiles. Energy changes at the employer's office or at
home are never inferred; they only enter as an explicit scenario credit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .aggregation import DayTypeProfile
from .errors import DivisionDomainError, MissingFactorError, MissingProfileError
from .model import EnergyDelta, FactorTable, SiteInventory, TransportMode, finite_at_least


def per_coworker_day(annual_mj: float, coworker_count: float, workdays_per_year: float) -> float:
    """Allocate an annual MJ total down to one coworker-day."""
    if coworker_count <= 0 or workdays_per_year <= 0:
        raise DivisionDomainError(
            f"allocation requires positive divisors, got coworkers={coworker_count}, "
            f"workdays={workdays_per_year}"
        )
    return annual_mj / (coworker_count * workdays_per_year)


def annual_facility_energy(floor_area_m2: float, factors: FactorTable) -> float:
    """Yearly heating + cooling + lighting energy of the space, MJ."""
    return floor_area_m2 * factors.facility_intensity_total()


@dataclass(frozen=True)
class DirectComponents:
    """The two always-positive direct contributions of a co-working day."""

    facility_mj_per_coworker_day: float
    equipment_mj_per_coworker_day: float

    def __post_init__(self):
        for name in ("facility_mj_per_coworker_day", "equipment_mj_per_coworker_day"):
            finite_at_least(name, getattr(self, name))


def facility_energy(inventory: SiteInventory, factors: FactorTable) -> float:
    """Facility energy in MJ per coworker-day."""
    return per_coworker_day(
        annual_facility_energy(inventory.floor_area_m2, factors),
        inventory.coworker_count,
        inventory.workdays_per_year,
    )


def equipment_energy(inventory: SiteInventory, factors: FactorTable) -> float:
    """Device operation energy in MJ per coworker-day, allocated per workplace.
    A device kind without a factor raises :class:`MissingFactorError` listing
    every such kind."""
    total = 0.0
    missing = []
    for kind, count in inventory.device_counts.items():
        if kind not in factors.device_daily_energy:
            missing.append(f"device_daily_energy.{kind}")
            continue
        total += count * factors.device_daily_energy[kind]
    if missing:
        raise MissingFactorError(missing)
    return total / inventory.workplace_count


def direct_components(inventory: SiteInventory, factors: FactorTable) -> DirectComponents:
    return DirectComponents(
        facility_mj_per_coworker_day=facility_energy(inventory, factors),
        equipment_mj_per_coworker_day=equipment_energy(inventory, factors),
    )


def travel_energy(mode_minutes: Mapping[TransportMode, float], factors: FactorTable) -> float:
    """Energy of a modal time profile in MJ.

    Covers all recorded travel of the day, not only commuting, so day-type
    differences implicitly include travel-behaviour rebound.
    """
    total = 0.0
    for mode, minutes in mode_minutes.items():
        mode = TransportMode(mode)
        minutes = finite_at_least(f"mode_minutes[{mode.value}]", minutes)
        total += (minutes / 60.0) * factors.mode_speed[mode] * factors.mode_energy[mode]
    return total


def compare_day_types(
    cw_profile: DayTypeProfile,
    baseline_profile: DayTypeProfile,
    direct: DirectComponents,
    factors: FactorTable,
) -> EnergyDelta:
    """Energy change of one co-working day versus one baseline day.

    Positive components increase energy use on the co-working day. The
    baseline's own facility or home energy is not credited here.
    """
    if cw_profile.day_count == 0:
        raise MissingProfileError(cw_profile.day_type)
    if baseline_profile.day_count == 0:
        raise MissingProfileError(baseline_profile.day_type)
    travel_delta = travel_energy(cw_profile.mean_mode_minutes, factors) - travel_energy(
        baseline_profile.mean_mode_minutes, factors
    )
    return EnergyDelta(
        baseline=baseline_profile.day_type,
        facility_mj=direct.facility_mj_per_coworker_day,
        equipment_mj=direct.equipment_mj_per_coworker_day,
        travel_mj=travel_delta,
    )
