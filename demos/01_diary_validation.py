#!/usr/bin/env python3
"""Walk through diary parsing and quality filtering on a tiny inline dataset.

Shows how malformed rows become row-level rejections, how the three
quantitative quality rules fire, and how work-location strings map to day
types. Both kinds of rejections come as a ``RejectionTable``, a sequence of
``RejectedDay``; ``list(...)`` gives a list of them.
"""

import io

from telework_impact import apply_quality_filter, parse_diary_file
from telework_impact.diary import LOCATION_VOCABULARY

DIARY_CSV = """\
participant_id,date,location,travel_min,work_min,chores_min,leisure_min,walk_min,bike_min,car_min,pt_min,other_mode_min
A,2024-03-04,office,120,510,60,90,10,10,40,60,0
A,2024-03-05,coworking,60,505,70,100,20,20,10,10,0
A,2024-03-06,home,30,490,120,120,0,0,30,0,0
B,2024-03-04,office,120,230,300,200,0,0,120,0,0
B,2024-03-05,office,20,300,50,100,0,0,20,0,0
B,2024-03-06,office,120,500,100,100,0,0,10,0,0
C,2024-03-04,multiple,60,500,100,100,0,0,60,0,0
C,2024-03-05,office,60,500,100,100,0,0,sixty,0,0
"""


def main():
    print("=" * 64)
    print("Diary validation walkthrough")
    print("=" * 64)

    days, parse_rejected = parse_diary_file(io.StringIO(DIARY_CSV))
    print(f"\nparsed {len(days)} well-formed rows, {len(parse_rejected)} parse rejections")
    for item in parse_rejected:
        print(f"  row {item.row}: {item.detail}")

    kept, rejected = apply_quality_filter(days)
    print(f"\nquality filter kept {len(kept)} of {len(days)} days")
    for item in rejected:
        print(f"  {item.participant_id} {item.date}: {item.reason.value} ({item.detail})")

    print("\nwork-location vocabulary (any other text reads as other_location):")
    for raw, day_type in LOCATION_VOCABULARY.items():
        print(f"  {raw!r:12} -> {day_type.value}")


if __name__ == "__main__":
    main()
