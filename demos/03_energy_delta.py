#!/usr/bin/env python3
"""Per-coworker-day energy change of co-working, component by component.

Uses the bundled reference site (170 m2, 14 workplaces, 60 members) and the
bundled diary set. Facility and equipment energy are charged to the
co-working day; the travel component is the difference between the mean
modal profiles of the compared day types.
"""

from telework_impact import (
    DayType,
    aggregate_profiles,
    apply_quality_filter,
    compare_day_types,
    direct_components,
    load_config,
    parse_diary_path,
)
from telework_impact.config import shipped_config_path, shipped_diaries_path


def main():
    config = load_config(shipped_config_path())
    days, _ = parse_diary_path(shipped_diaries_path())
    kept, _ = apply_quality_filter(days, config.quality_rules)
    profiles = aggregate_profiles(kept)
    direct = direct_components(config.inventory, config.factors)

    print("=" * 64)
    print("Energy change of one co-working day (MJ per coworker-day)")
    print("=" * 64)
    print(
        f"\nsite: {config.inventory.floor_area_m2:.0f} m2, "
        f"{config.inventory.coworker_count} members, "
        f"{config.inventory.workdays_per_year} workdays/yr"
    )

    for baseline in (DayType.EMPLOYER_OFFICE, DayType.HOME):
        delta = compare_day_types(
            profiles[DayType.COWORKING], profiles[baseline], direct, config.factors
        )
        print(f"\nversus {baseline.value} days:")
        print(f"  facility (heat/cool/light)  {delta.facility_mj:+8.2f}")
        print(f"  equipment (devices)         {delta.equipment_mj:+8.2f}")
        print(f"  travel (modal profiles)     {delta.travel_mj:+8.2f}")
        print(f"  net                         {delta.net_mj:+8.2f}")

    print(
        "\nAgainst office days the space operation and the travel savings"
        "\nroughly cancel; energy changes at the employer's office or at home"
        "\nare never inferred, they only enter as an explicit scenario credit"
        "\n(see 04_scenario_sweep.py)."
    )


if __name__ == "__main__":
    main()
