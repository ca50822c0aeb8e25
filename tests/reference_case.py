"""Bundled reference case: a fully worked site configuration and diary set.

The repository ships one end-to-end example, a 170 m2 co-working site with
14 bookable workplaces, 60 registered members and a small device park,
together with a synthetic diary set of 250 kept workdays. The calibration
targets below are the per-component energy figures this example is built to
reproduce; factor values that the targets do not pin down are plausible
round numbers, the remaining ones are back-solved here so the engine output
matches the targets to float precision. Regenerating the shipped files and
comparing them byte for byte is part of the test suite, which keeps the
derivation executable rather than documented prose. Regenerate the files
into a directory with::

    PYTHONPATH=src python3 tests/reference_case.py --out some_dir

Documented assumptions:

* ``workdays_per_year = 230``; the allocation needs it and it is not part of
  the site data.
* Allocation divides by all 60 registered members, not only the subset that
  filled in diaries.
* Walking and cycling carry zero direct energy; e-bike charging energy is
  not counted.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
from pathlib import Path

from telework_impact.config import shipped_config_path, shipped_diaries_path
from telework_impact.diary import DIARY_HEADER
from telework_impact.model import (
    DESKTOP_COMPUTER,
    PRINTER,
    SCREEN,
    TV,
    Activity,
    DayType,
    FactorTable,
    TransportMode,
)

# Per-coworker-day targets the reference case reproduces (MJ). Travel is the
# change on a co-working day versus an employer-office day.
FACILITY_TARGET_MJ = 23.97
EQUIPMENT_TARGET_MJ = 2.03
TRAVEL_TARGET_MJ = -21.95
NET_TARGET_MJ = FACILITY_TARGET_MJ + EQUIPMENT_TARGET_MJ + TRAVEL_TARGET_MJ

WORKDAYS_PER_YEAR = 230

FLOOR_AREA_M2 = 170.0
WORKPLACE_COUNT = 14
COWORKER_COUNT = 60
DEVICE_COUNTS = {SCREEN: 18, DESKTOP_COMPUTER: 1, PRINTER: 1, TV: 1}

# Mean minutes per day type the synthetic diaries are constructed around.
# Travel sums: office 133, co-working 65 (-68), home 41 (-92). Office car
# share is exactly 19% and walk+bike exactly 27%; home car share is 80%.
MEAN_MODE_MINUTES = {
    DayType.EMPLOYER_OFFICE: {
        TransportMode.WALK: 17.29,
        TransportMode.BIKE: 18.62,
        TransportMode.CAR: 25.27,
        TransportMode.PUBLIC_TRANSPORT: 69.16,
        TransportMode.OTHER: 2.66,
    },
    DayType.COWORKING: {
        TransportMode.WALK: 13.0,
        TransportMode.BIKE: 13.0,
        TransportMode.CAR: 19.5,
        TransportMode.PUBLIC_TRANSPORT: 18.2,
        TransportMode.OTHER: 1.3,
    },
    DayType.HOME: {
        TransportMode.WALK: 2.87,
        TransportMode.BIKE: 2.05,
        TransportMode.CAR: 32.8,
        TransportMode.PUBLIC_TRANSPORT: 2.46,
        TransportMode.OTHER: 0.82,
    },
}

MEAN_ACTIVITY_MINUTES = {
    DayType.EMPLOYER_OFFICE: {
        Activity.TRAVEL: 133.0,
        Activity.WORK: 522.0,
        Activity.EVERYDAY_CHORES: 60.0,
        Activity.LEISURE: 120.0,
    },
    DayType.COWORKING: {
        Activity.TRAVEL: 65.0,
        Activity.WORK: 508.0,
        Activity.EVERYDAY_CHORES: 80.0,
        Activity.LEISURE: 150.0,
    },
    DayType.HOME: {
        Activity.TRAVEL: 41.0,
        Activity.WORK: 508.0,
        Activity.EVERYDAY_CHORES: 110.0,
        Activity.LEISURE: 180.0,
    },
}

DAY_COUNTS = {DayType.EMPLOYER_OFFICE: 120, DayType.COWORKING: 80, DayType.HOME: 50}
PARTICIPANT_COUNT = 20

# Chosen round values (km/h and MJ per person-km).
MODE_SPEED_KMH = {
    TransportMode.WALK: 5.0,
    TransportMode.BIKE: 15.0,
    TransportMode.CAR: 40.0,
    TransportMode.PUBLIC_TRANSPORT: 30.0,
    TransportMode.OTHER: 20.0,
}
_CHOSEN_MODE_ENERGY = {
    TransportMode.WALK: 0.0,
    TransportMode.BIKE: 0.0,
    TransportMode.CAR: 2.5,
    TransportMode.OTHER: 1.5,
}

# Chosen parts of the back-solved splits.
_HEATING_MJ_M2_YEAR = 1500.0
_LIGHTING_MJ_M2_YEAR = 400.0
_CHOSEN_DEVICE_ENERGY = {SCREEN: 1.08, DESKTOP_COMPUTER: 3.6, PRINTER: 2.5}


def facility_intensity() -> dict[str, float]:
    """Back-solve the intensity total from the facility target, then split it
    into mostly heating and lighting with a small cooling remainder."""
    total = FACILITY_TARGET_MJ * COWORKER_COUNT * WORKDAYS_PER_YEAR / FLOOR_AREA_M2
    cooling = total - _HEATING_MJ_M2_YEAR - _LIGHTING_MJ_M2_YEAR
    return {"heating": _HEATING_MJ_M2_YEAR, "cooling": cooling, "lighting": _LIGHTING_MJ_M2_YEAR}


def device_daily_energy() -> dict[str, float]:
    """Back-solve the TV figure so the device sum equals the equipment target
    times the workplace count."""
    device_sum = EQUIPMENT_TARGET_MJ * WORKPLACE_COUNT
    fixed = sum(DEVICE_COUNTS[k] * v for k, v in _CHOSEN_DEVICE_ENERGY.items())
    return {**_CHOSEN_DEVICE_ENERGY, TV: (device_sum - fixed) / DEVICE_COUNTS[TV]}


def mode_energy_mj_per_pkm() -> dict[TransportMode, float]:
    """Back-solve the public-transport energy factor from the travel target.

    The office-versus-co-working travel delta is linear in each factor, so
    the one remaining unknown follows directly from the target.
    """
    office = MEAN_MODE_MINUTES[DayType.EMPLOYER_OFFICE]
    coworking = MEAN_MODE_MINUTES[DayType.COWORKING]
    known = sum(
        (coworking[m] - office[m]) / 60.0 * MODE_SPEED_KMH[m] * energy
        for m, energy in _CHOSEN_MODE_ENERGY.items()
    )
    pt = TransportMode.PUBLIC_TRANSPORT
    pt_pkm_delta = (coworking[pt] - office[pt]) / 60.0 * MODE_SPEED_KMH[pt]
    return {**_CHOSEN_MODE_ENERGY, pt: (TRAVEL_TARGET_MJ - known) / pt_pkm_delta}


def reference_factor_table() -> FactorTable:
    return FactorTable(
        facility_intensity=facility_intensity(),
        device_daily_energy=device_daily_energy(),
        mode_speed=dict(MODE_SPEED_KMH),
        mode_energy=mode_energy_mj_per_pkm(),
    )


def build_config_payload() -> dict:
    """JSON-ready configuration document for the reference case."""
    return {
        "site_inventory": {
            "floor_area_m2": FLOOR_AREA_M2,
            "workplace_count": WORKPLACE_COUNT,
            "device_counts": dict(DEVICE_COUNTS),
            "coworker_count": COWORKER_COUNT,
            "workdays_per_year": WORKDAYS_PER_YEAR,
        },
        "factor_table": {
            "facility_intensity": facility_intensity(),
            "device_daily_energy": device_daily_energy(),
            "mode_speed": {m.value: v for m, v in MODE_SPEED_KMH.items()},
            "mode_energy": {m.value: v for m, v in mode_energy_mj_per_pkm().items()},
        },
    }


def render_config_json() -> str:
    return json.dumps(build_config_payload(), indent=2, sort_keys=True) + "\n"


# Jitter amplitudes per day type; scaled by 0.25/0.5/0.75/1.0 and applied as
# +x then -x on consecutive row pairs, so per-type means stay exact while
# individual days vary. Amplitudes keep every value non-negative, keep every
# row inside the default quality rules, and are multiples of 0.04 so that the
# scaled jitter survives two-decimal CSV formatting without rounding.
_MODE_JITTER = {
    DayType.EMPLOYER_OFFICE: {
        TransportMode.WALK: 4.0,
        TransportMode.BIKE: 4.0,
        TransportMode.CAR: 6.0,
        TransportMode.PUBLIC_TRANSPORT: 10.0,
        TransportMode.OTHER: 0.4,
    },
    DayType.COWORKING: {
        TransportMode.WALK: 4.0,
        TransportMode.BIKE: 4.0,
        TransportMode.CAR: 5.0,
        TransportMode.PUBLIC_TRANSPORT: 5.0,
        TransportMode.OTHER: 0.2,
    },
    DayType.HOME: {
        TransportMode.WALK: 0.6,
        TransportMode.BIKE: 0.4,
        TransportMode.CAR: 8.0,
        TransportMode.PUBLIC_TRANSPORT: 0.6,
        TransportMode.OTHER: 0.2,
    },
}
_ACTIVITY_JITTER = {Activity.WORK: 8.0, Activity.EVERYDAY_CHORES: 5.0, Activity.LEISURE: 10.0}

_LOCATION_BY_DAY_TYPE = {
    DayType.EMPLOYER_OFFICE: "office",
    DayType.COWORKING: "coworking",
    DayType.HOME: "home",
}

_START_DATE = _dt.date(2019, 9, 2)  # a Monday


def _next_weekday(day: _dt.date) -> _dt.date:
    day += _dt.timedelta(days=1)
    while day.weekday() >= 5:
        day += _dt.timedelta(days=1)
    return day


def build_diary_rows() -> list[list[str]]:
    """The 250 synthetic diary rows, header excluded.

    Rows are grouped by day type; within a group, consecutive pairs carry
    opposite jitter so the per-type mean of every field equals the configured
    mean. Each date hosts each participant at most once.
    """
    dates = [_START_DATE]
    while len(dates) * PARTICIPANT_COUNT < sum(DAY_COUNTS.values()):
        dates.append(_next_weekday(dates[-1]))

    rows: list[list[str]] = []
    k = 0
    for day_type, count in DAY_COUNTS.items():
        means_m = MEAN_MODE_MINUTES[day_type]
        means_a = MEAN_ACTIVITY_MINUTES[day_type]
        for i in range(count):
            sign = 1.0 if i % 2 == 0 else -1.0
            scale = ((i // 2) % 4 + 1) / 4.0
            modes = {
                m: means_m[m] + sign * scale * _MODE_JITTER[day_type][m]
                for m in TransportMode
            }
            work = means_a[Activity.WORK] + sign * scale * _ACTIVITY_JITTER[Activity.WORK]
            chores = (
                means_a[Activity.EVERYDAY_CHORES]
                + sign * scale * _ACTIVITY_JITTER[Activity.EVERYDAY_CHORES]
            )
            leisure = (
                means_a[Activity.LEISURE] + sign * scale * _ACTIVITY_JITTER[Activity.LEISURE]
            )
            travel = sum(modes.values())
            rows.append(
                [
                    f"P{k % PARTICIPANT_COUNT + 1:02d}",
                    dates[k // PARTICIPANT_COUNT].isoformat(),
                    _LOCATION_BY_DAY_TYPE[day_type],
                    f"{travel:.2f}",
                    f"{work:.2f}",
                    f"{chores:.2f}",
                    f"{leisure:.2f}",
                    f"{modes[TransportMode.WALK]:.2f}",
                    f"{modes[TransportMode.BIKE]:.2f}",
                    f"{modes[TransportMode.CAR]:.2f}",
                    f"{modes[TransportMode.PUBLIC_TRANSPORT]:.2f}",
                    f"{modes[TransportMode.OTHER]:.2f}",
                ]
            )
            k += 1
    return rows


def render_diary_csv() -> str:
    lines = [",".join(DIARY_HEADER)]
    lines.extend(",".join(row) for row in build_diary_rows())
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the bundled reference configuration and diary set."
    )
    parser.add_argument("--out", default=".", help="output directory")
    out = Path(parser.parse_args(argv).out)
    out.mkdir(parents=True, exist_ok=True)
    for shipped, text in (
        (shipped_config_path(), render_config_json()),
        (shipped_diaries_path(), render_diary_csv()),
    ):
        (out / shipped.name).write_text(text, encoding="utf-8")
        print(f"wrote {out / shipped.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
