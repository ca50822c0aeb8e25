#!/usr/bin/env python3
"""Scenario levers: occupancy, floor-space credits, and weekly frequency.

Sweeps the member count (facility energy is allocated per person, so it
falls with 1/N), then prices in an explicit floor-space credit, then shows
how the weekly aggregate scales with the number of co-working days.
"""

from telework_impact import (
    Scenario,
    aggregate_profiles,
    apply_quality_filter,
    evaluate_scenario,
    load_config,
    parse_diary_path,
    sweep,
    weekly_net_mj,
)
from telework_impact.calibration import shipped_config_path, shipped_diaries_path


def main():
    config = load_config(shipped_config_path())
    days, _ = parse_diary_path(shipped_diaries_path())
    kept, _ = apply_quality_filter(days, config.quality_rules)
    profiles = aggregate_profiles(kept)

    print("=" * 64)
    print("Occupancy sweep (net MJ per coworker-day vs office baseline)")
    print("=" * 64)
    result = sweep(
        config.inventory, config.factors, profiles, Scenario(),
        "coworker_count", [15, 30, 60, 90, 120, 240],
    )
    # A sweep is columns: one value, facility, credit and net MJ per point.
    for value, facility, net in zip(result.values, result.facility_mj, result.net_mj):
        bar = "#" * max(0, int(round(net)))
        print(f"  {value:6.0f} members: facility {facility:7.2f}, net {net:+7.2f}  {bar}")
    print(
        f"  (equipment {result.equipment_mj:.2f} and travel {result.travel_mj:+.2f} MJ"
        " at every occupancy)"
    )

    print("\nfloor-space credit: 20 m2 of heated space saved elsewhere,")
    print("valued at the site's own intensity and allocated the same way")
    credit_scenario = Scenario(
        name="20 m2 credit",
        floor_space_credit_m2=20.0,
        credit_intensity_mj_per_m2_year=config.factors.facility_intensity_total(),
    )
    plain = evaluate_scenario(config.inventory, config.factors, profiles, Scenario())
    credited = evaluate_scenario(config.inventory, config.factors, profiles, credit_scenario)
    print(f"  without credit: net {plain.net_mj:+.2f} MJ")
    print(f"  with credit:    net {credited.net_mj:+.2f} MJ (credit {credited.credit_mj:.2f} MJ)")

    print("\nweekly aggregate: one co-working day avoids one commute")
    for cw_days in (1.0, 2.0, 3.0, 5.0):
        print(f"  {cw_days:.0f} day(s)/week: {weekly_net_mj(plain, cw_days):+8.2f} MJ/week")


if __name__ == "__main__":
    main()
