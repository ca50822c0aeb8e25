#!/usr/bin/env python3
"""Break-even analysis: where does the net energy delta cross zero?

Solves the net per-coworker-day energy for one parameter. Occupancy is
the classic case: facility energy falls with 1/N while the travel saving
per day is constant, so the net is a + b/N and there is a member count,
-b/a, at which co-working becomes energy-neutral versus office days. The
library's root is cross-checked against the same root worked out by hand
from the energy components.
"""

from telework_impact import (
    DayType,
    Scenario,
    aggregate_profiles,
    apply_quality_filter,
    break_even,
    equipment_energy,
    load_config,
    parse_diary_path,
    travel_energy,
)
from telework_impact.config import shipped_config_path, shipped_diaries_path
from telework_impact.energy import annual_facility_energy


def main():
    config = load_config(shipped_config_path())
    days, _ = parse_diary_path(shipped_diaries_path())
    kept, _ = apply_quality_filter(days, config.quality_rules)
    profiles = aggregate_profiles(kept)
    inventory, factors = config.inventory, config.factors

    print("=" * 64)
    print("Break-even occupancy (baseline: employer office)")
    print("=" * 64)

    root = break_even(
        inventory, factors, profiles, Scenario(), "coworker_count", (30.0, 120.0),
        tolerance=1e-6,
    )

    # Closed form: annual facility energy per workday / (travel saving - equipment).
    per_workday = annual_facility_energy(inventory.floor_area_m2, factors) / (
        inventory.workdays_per_year
    )
    travel = travel_energy(
        profiles[DayType.COWORKING].mean_mode_minutes, factors
    ) - travel_energy(profiles[DayType.EMPLOYER_OFFICE].mean_mode_minutes, factors)
    analytic = per_workday / -(equipment_energy(inventory, factors) + travel)

    print(f"\n  break_even root: {root:.4f} members")
    print(f"  by hand:         {analytic:.4f} members")
    print(f"  difference:      {abs(root - analytic):.2e}")
    print(
        f"\nwith {inventory.coworker_count} members the site sits below the"
        f" break-even point;\nround up for planning: from"
        f" {int(analytic) + 1} members onward a co-working day saves energy."
    )

    print("\nbreak-even floor-space credit at current occupancy")
    credit_scenario = Scenario(
        credit_intensity_mj_per_m2_year=factors.facility_intensity_total()
    )
    credit_root = break_even(
        inventory, factors, profiles, credit_scenario,
        "floor_space_credit_m2", (0.0, 200.0), tolerance=1e-6,
    )
    print(
        f"  a net reduction of {credit_root:.1f} m2 of heated space elsewhere"
        " makes the day energy-neutral."
    )


if __name__ == "__main__":
    main()
