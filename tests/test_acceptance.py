"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Tolerances are fixed here and nowhere else:

1. Reference-case delta vs office: each component within 0.01 MJ, < 1 s.
2. 12-row filter fixture: exact partition with exact reason codes.
3. Aggregation vs naive oracle on 1,000 random days: rel error < 1e-12,
   shares sum to 1 within 1e-9.
4. Shipped 250-day fixture: anchor stats within 0.5 min / 0.5 percentage
   points, plus the travel and car-share orderings.
5. 10,000 randomized allocation property checks, all within 1e-12 relative.
6. Break-even occupancy within 1e-4 of the analytic root; exit 3 on
   same-sign bounds.
7. Byte-identical artifacts across repeated runs (sidecar excluded).
"""

import io
import json
import random
import time
from contextlib import contextmanager

import pytest

from conftest import naive_profiles, random_valid_day, rel_err
from telework_impact import (
    Activity,
    DayType,
    TransportMode,
    aggregate_profiles,
    apply_quality_filter,
    break_even,
    cli,
    compare_day_types,
    equipment_energy,
    parse_diary_file,
    parse_diary_path,
    travel_energy,
)
from telework_impact.aggregation import DayTypeProfile
from telework_impact.diary import DIARY_HEADER, RejectReason
from telework_impact.energy import DirectComponents, allocate
from telework_impact.model import FactorTable, SiteInventory
from telework_impact.scenario import Scenario


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_reference_delta(tmp_path, ref_config_path, ref_diaries_path, capsys):
    with criterion(1, "reference-case delta reproduction"):
        out = tmp_path / "out"
        start = time.perf_counter()
        code = cli.main(
            [
                "delta",
                "--config", str(ref_config_path),
                "--diaries", str(ref_diaries_path),
                "--baseline", "office",
                "--out", str(out),
            ]
        )
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert code == 0
        (delta,) = json.loads((out / "delta.json").read_text())["deltas"]
        assert abs(delta["facility_mj"] - 23.97) <= 0.01
        assert abs(delta["equipment_mj"] - 2.03) <= 0.01
        assert abs(delta["travel_mj"] - -21.95) <= 0.01
        assert abs(delta["net_mj"] - 4.05) <= 0.01
        assert elapsed < 1.0


FILTER_FIXTURE_ROWS = [
    # kept
    ("P01", "P01,2024-03-04,office,120,510,60,90,10,10,40,60,0", None),
    ("P02", "P02,2024-03-04,coworking,60,505,70,100,20,20,10,10,0", None),
    ("P03", "P03,2024-03-04,home,30,490,120,120,0,0,30,0,0", None),
    # exact thresholds still pass: work 240, total 480, mismatch 100
    ("P04", "P04,2024-03-04,office,200,240,20,20,0,0,100,0,0", None),
    # rejected, one reason each
    ("P05", "P05,2024-03-04,office,120,230,300,200,0,0,120,0,0", RejectReason.WORK_TOO_SHORT),
    ("P06", "P06,2024-03-04,office,20,300,50,100,0,0,20,0,0", RejectReason.TOTAL_TOO_SHORT),
    ("P07", "P07,2024-03-04,office,120,500,100,100,0,0,10,0,0", RejectReason.MODE_MISMATCH),
    ("P08", "P08,2024-03-04,other,60,500,100,100,0,0,60,0,0", RejectReason.EXCLUDED_LOCATION),
    ("P09", "P09,2024-03-04,multiple,60,500,100,100,0,0,60,0,0", RejectReason.EXCLUDED_LOCATION),
    ("P10", "P10,2024-13-99,office,60,500,100,100,0,0,60,0,0", RejectReason.PARSE_ERROR),
    ("P11", "P11,2024-03-04,office,60,500,100,-5,0,0,60,0,0", RejectReason.PARSE_ERROR),
    ("P12", "P12,2024-03-04,office,60,500", RejectReason.PARSE_ERROR),
]


def test_criterion_2_filter_fixture_exactness():
    with criterion(2, "filter fixture exactness"):
        text = ",".join(DIARY_HEADER) + "\n" + "\n".join(r[1] for r in FILTER_FIXTURE_ROWS) + "\n"
        days, parse_rejected = parse_diary_file(io.StringIO(text))
        kept, quality_rejected = apply_quality_filter(days)

        expected_kept = {pid for pid, _, reason in FILTER_FIXTURE_ROWS if reason is None}
        expected_rejected = {
            (pid, reason) for pid, _, reason in FILTER_FIXTURE_ROWS if reason is not None
        }
        actual_kept = {day.participant_id for day in kept}
        actual_rejected = {
            (item.participant_id, item.reason)
            for item in list(parse_rejected) + list(quality_rejected)
        }
        assert actual_kept == expected_kept
        assert actual_rejected == expected_rejected
        assert len(kept) + len(parse_rejected) + len(quality_rejected) == 12


def test_criterion_3_aggregation_oracle_equivalence():
    with criterion(3, "aggregation oracle equivalence"):
        rng = random.Random(73)
        days = [random_valid_day(rng) for _ in range(1000)]
        engine = aggregate_profiles(days)
        oracle = naive_profiles(days)
        for day_type, expected in oracle.items():
            profile = engine[day_type]
            assert profile.day_count == expected["day_count"]
            for activity in Activity:
                assert (
                    rel_err(
                        profile.mean_activity_minutes[activity],
                        expected["mean_activity_minutes"][activity],
                    )
                    < 1e-12
                )
            for mode in TransportMode:
                assert (
                    rel_err(
                        profile.mean_mode_minutes[mode],
                        expected["mean_mode_minutes"][mode],
                    )
                    < 1e-12
                )
                assert (
                    rel_err(profile.mode_share[mode], expected["mode_share"][mode]) < 1e-12
                )
            assert abs(sum(profile.mode_share.values()) - 1.0) <= 1e-9


def test_criterion_4_paper_shaped_regression(ref_diaries_path, ref_config):
    with criterion(4, "250-day fixture qualitative regression"):
        days, rejected = parse_diary_path(ref_diaries_path)
        assert not rejected
        kept, dropped = apply_quality_filter(days, ref_config.quality_rules)
        assert not dropped
        assert len(kept) == 250
        profiles = aggregate_profiles(kept)
        office = profiles[DayType.EMPLOYER_OFFICE]
        coworking = profiles[DayType.COWORKING]
        home = profiles[DayType.HOME]

        travel = {p.day_type: p.mean_activity_minutes[Activity.TRAVEL] for p in (office, coworking, home)}
        assert abs(travel[DayType.EMPLOYER_OFFICE] - 133.0) <= 0.5
        assert abs(travel[DayType.COWORKING] - (133.0 - 68.0)) <= 0.5
        assert abs(travel[DayType.HOME] - (133.0 - 92.0)) <= 0.5

        walk_bike = (
            office.mode_share[TransportMode.WALK] + office.mode_share[TransportMode.BIKE]
        )
        assert abs(walk_bike - 0.27) <= 0.005
        assert abs(office.mode_share[TransportMode.CAR] - 0.19) <= 0.005
        assert abs(home.mode_share[TransportMode.CAR] - 0.80) <= 0.005

        assert (
            travel[DayType.EMPLOYER_OFFICE]
            > travel[DayType.COWORKING]
            > travel[DayType.HOME]
        )
        assert (
            home.mode_share[TransportMode.CAR]
            > coworking.mode_share[TransportMode.CAR]
            > office.mode_share[TransportMode.CAR]
        )


def _random_profile(rng, day_type):
    minutes = {m: rng.uniform(0, 120) for m in TransportMode}
    return DayTypeProfile(
        day_type=day_type,
        day_count=1,
        mean_activity_minutes={a: rng.uniform(0, 300) for a in Activity},
        mean_mode_minutes=minutes,
    )


def test_criterion_5_allocation_property_suite():
    with criterion(5, "allocation property suite (10,000 checks)"):
        rng = random.Random(424242)
        factors = FactorTable(
            facility_intensity={"heating": 0, "cooling": 0, "lighting": 0},
            device_daily_energy={},
            mode_speed={m: 0.0 for m in TransportMode},
            mode_energy={m: 0.0 for m in TransportMode},
        )
        direct = DirectComponents(1.0, 1.0)
        for _ in range(10_000):
            area = rng.uniform(1, 2000)
            intensity = rng.uniform(0, 3000)
            coworkers = rng.randrange(1, 400)
            workdays = rng.randrange(1, 367)
            k = rng.randrange(1, 10)

            # facility scales with area and with 1/occupancy
            base = intensity * area / (coworkers * workdays)
            scaled = allocate(k * area, intensity, coworkers, workdays)
            assert rel_err(scaled, k * base) < 1e-12
            more_people = allocate(area, intensity, k * coworkers, workdays)
            assert rel_err(more_people * (k * coworkers), base * coworkers) < 1e-12

            # equipment linear in device counts
            count = rng.randrange(0, 40)
            device_mj = rng.uniform(0, 8)
            inventory = SiteInventory(
                floor_area_m2=area,
                workplace_count=max(1, coworkers // 4),
                device_counts={"screen": count},
                coworker_count=coworkers,
                workdays_per_year=workdays,
            )
            scaled_inventory = SiteInventory(
                floor_area_m2=area,
                workplace_count=max(1, coworkers // 4),
                device_counts={"screen": k * count},
                coworker_count=coworkers,
                workdays_per_year=workdays,
            )
            table = FactorTable(
                facility_intensity={"heating": 0, "cooling": 0, "lighting": 0},
                device_daily_energy={"screen": device_mj},
                mode_speed={m: 0.0 for m in TransportMode},
                mode_energy={m: 0.0 for m in TransportMode},
            )
            assert (
                rel_err(
                    equipment_energy(scaled_inventory, table),
                    k * equipment_energy(inventory, table),
                )
                < 1e-12
            )

            # travel linear per mode
            speed = rng.uniform(1, 80)
            energy = rng.uniform(0, 4)
            minutes = rng.uniform(0, 200)
            mode_table = FactorTable(
                facility_intensity={"heating": 0, "cooling": 0, "lighting": 0},
                device_daily_energy={},
                mode_speed={m: speed for m in TransportMode},
                mode_energy={m: energy for m in TransportMode},
            )
            single = travel_energy({TransportMode.CAR: minutes}, mode_table)
            assert rel_err(
                travel_energy({TransportMode.CAR: k * minutes}, mode_table), k * single
            ) < 1e-12

            # delta antisymmetry and net additivity
            a = _random_profile(rng, DayType.COWORKING)
            b = _random_profile(rng, DayType.EMPLOYER_OFFICE)
            forward = compare_day_types(a, b, direct, mode_table)
            backward = compare_day_types(b, a, direct, mode_table)
            assert forward.travel_mj == -backward.travel_mj
            total = forward.facility_mj + forward.equipment_mj + forward.travel_mj
            assert rel_err(forward.net_mj, total) < 1e-12 or forward.net_mj == total

            # identity profiles give zero travel delta
            identical = compare_day_types(a, a, direct, mode_table)
            assert identical.travel_mj == 0.0


def test_criterion_6_break_even(ref_inventory, ref_factors, ref_profiles, tmp_path,
                                ref_config_path, ref_diaries_path, capsys):
    with criterion(6, "break-even correctness"):
        root = break_even(
            ref_inventory,
            ref_factors,
            ref_profiles,
            Scenario(),
            "coworker_count",
            (30.0, 120.0),
            tolerance=1e-6,
        )
        annual_per_workday = (
            ref_inventory.floor_area_m2 * ref_factors.facility_intensity_total()
        ) / ref_inventory.workdays_per_year
        travel = travel_energy(
            ref_profiles[DayType.COWORKING].mean_mode_minutes, ref_factors
        ) - travel_energy(
            ref_profiles[DayType.EMPLOYER_OFFICE].mean_mode_minutes, ref_factors
        )
        equipment = equipment_energy(ref_inventory, ref_factors)
        analytic = annual_per_workday / -(equipment + travel)
        assert abs(root - analytic) <= 1e-4
        assert analytic == pytest.approx(72.19879518072289, abs=1e-3)

        code = cli.main(
            [
                "breakeven",
                "--config", str(ref_config_path),
                "--diaries", str(ref_diaries_path),
                "--parameter", "coworker_count",
                "--bounds", "100", "120",
                "--out", str(tmp_path / "noroot"),
            ]
        )
        capsys.readouterr()
        assert code == 3


def test_criterion_7_determinism(tmp_path, ref_config_path, ref_diaries_path, capsys):
    with criterion(7, "byte-identical repeated runs"):
        for command, extra in (
            ("delta", ["--baseline", "both"]),
            ("profile", []),
            ("sweep", ["--parameter", "coworker_count", "--values", "30", "60", "120"]),
        ):
            outs = [tmp_path / f"{command}_{i}" for i in (1, 2)]
            for out in outs:
                code = cli.main(
                    [
                        command,
                        "--config", str(ref_config_path),
                        "--diaries", str(ref_diaries_path),
                        "--out", str(out),
                    ]
                    + extra
                )
                assert code == 0
            capsys.readouterr()
            names = sorted(p.name for p in outs[0].iterdir())
            assert names == sorted(p.name for p in outs[1].iterdir())
            for name in names:
                if name == "run_info.json":
                    continue
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (
                    f"{command}/{name} differs between runs"
                )
