#!/usr/bin/env python3
"""Aggregate the bundled 250-day diary set into per-day-type profiles.

Prints mean minutes per activity (how a workday is spent depending on the
work location) and the modal split of travel time, both as minutes and as
shares.
"""

from telework_impact import (
    Activity,
    TransportMode,
    aggregate_profiles,
    apply_quality_filter,
    parse_diary_path,
)
from telework_impact.config import shipped_diaries_path


def main():
    days, _ = parse_diary_path(shipped_diaries_path())
    kept, _ = apply_quality_filter(days)
    profiles = aggregate_profiles(kept)

    print("=" * 64)
    print(f"Day-type profiles from {len(kept)} kept diary days")
    print("=" * 64)

    print("\nmean minutes per activity")
    print(f"{'activity':18}" + "".join(f"{t.value:>18}" for t in profiles))
    for activity in Activity:
        cells = "".join(
            f"{p.mean_activity_minutes[activity]:18.1f}" for p in profiles.values()
        )
        print(f"{activity.value:18}{cells}")

    print("\nmodal split of travel time (minutes, share)")
    print(f"{'mode':18}" + "".join(f"{t.value:>18}" for t in profiles))
    for mode in TransportMode:
        cells = "".join(
            f"{p.mean_mode_minutes[mode]:9.1f} ({p.mode_share[mode]:5.1%})"
            for p in profiles.values()
        )
        print(f"{mode.value:18}{cells}")

    office, coworking, home = profiles.values()
    saved_office = (
        office.mean_activity_minutes[Activity.TRAVEL]
        - coworking.mean_activity_minutes[Activity.TRAVEL]
    )
    saved_home = (
        coworking.mean_activity_minutes[Activity.TRAVEL]
        - home.mean_activity_minutes[Activity.TRAVEL]
    )
    print(
        f"\na co-working day shortens travel by {saved_office:.0f} min versus an"
        f" office day,\nbut lengthens it by {saved_home:.0f} min versus a home day."
    )


if __name__ == "__main__":
    main()
