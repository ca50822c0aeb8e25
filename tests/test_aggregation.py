import dataclasses
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_day, naive_profiles, random_valid_day, rel_err
from telework_impact import Activity, DayType, TransportMode, aggregate_profiles
from telework_impact.aggregation import (
    SHARE_SUM_TOLERANCE,
    DayTypeProfile,
    day_counts,
    mode_shares,
    profiles_from_dict,
    profiles_to_dict,
)
from telework_impact.diary import DiaryTable
from telework_impact.model import COMPARABLE_DAY_TYPES


def office_day(travel, work=522.0):
    return make_day(
        day_type=DayType.EMPLOYER_OFFICE,
        work=work,
        travel=travel,
        modes={TransportMode.PUBLIC_TRANSPORT: travel},
        chores=80,
        leisure=120,
    )


def test_mean_activity_minutes():
    profiles = aggregate_profiles([office_day(120.0), office_day(146.0)])
    office = profiles[DayType.EMPLOYER_OFFICE]
    assert office.day_count == 2
    assert office.mean_activity_minutes[Activity.TRAVEL] == pytest.approx(133.0, abs=1e-12)


def test_mean_modes_and_shares():
    days = [
        make_day(modes={TransportMode.CAR: 30.0, TransportMode.WALK: 30.0}),
        make_day(modes={TransportMode.CAR: 10.0, TransportMode.PUBLIC_TRANSPORT: 30.0}),
    ]
    cw = aggregate_profiles(days)[DayType.COWORKING]
    assert cw.mean_mode_minutes[TransportMode.CAR] == pytest.approx(20.0)
    assert cw.mean_mode_minutes[TransportMode.WALK] == pytest.approx(15.0)
    assert cw.mean_mode_minutes[TransportMode.PUBLIC_TRANSPORT] == pytest.approx(15.0)
    assert cw.mode_share[TransportMode.CAR] == pytest.approx(0.4)
    assert cw.mode_share[TransportMode.WALK] == pytest.approx(0.3)
    assert cw.mode_share[TransportMode.PUBLIC_TRANSPORT] == pytest.approx(0.3)
    assert cw.mode_share[TransportMode.BIKE] == 0.0


def test_empty_input_gives_zero_profiles():
    profiles = aggregate_profiles([])
    assert set(profiles) == {DayType.EMPLOYER_OFFICE, DayType.COWORKING, DayType.HOME}
    for profile in profiles.values():
        assert profile.day_count == 0
        assert all(v == 0.0 for v in profile.mean_activity_minutes.values())
        assert all(v == 0.0 for v in profile.mean_mode_minutes.values())
        assert all(v == 0.0 for v in profile.mode_share.values())


def test_non_comparable_day_types_ignored():
    days = [
        make_day(modes={TransportMode.CAR: 30.0}),
        make_day(day_type=DayType.OTHER_LOCATION, modes={TransportMode.CAR: 300.0}),
    ]
    profiles = aggregate_profiles(days)
    assert profiles[DayType.COWORKING].day_count == 1
    assert DayType.OTHER_LOCATION not in profiles


def test_duplication_leaves_means_unchanged():
    rng = random.Random(42)
    days = [random_valid_day(rng) for _ in range(50)]
    once = aggregate_profiles(days)
    twice = aggregate_profiles(days + days)
    for day_type, profile in once.items():
        doubled = twice[day_type]
        assert doubled.day_count == 2 * profile.day_count
        for activity in Activity:
            assert rel_err(
                doubled.mean_activity_minutes[activity],
                profile.mean_activity_minutes[activity],
            ) < 1e-12
        for mode in TransportMode:
            assert rel_err(
                doubled.mode_share[mode], profile.mode_share[mode]
            ) < 1e-12


def test_shares_sum_to_one():
    rng = random.Random(77)
    for _ in range(200):
        days = [random_valid_day(rng) for _ in range(rng.randrange(1, 8))]
        for profile in aggregate_profiles(days).values():
            total = sum(profile.mode_share.values())
            if sum(profile.mean_mode_minutes.values()) > 0:
                assert abs(total - 1.0) <= 1e-9
            else:
                assert total == 0.0


def test_mode_shares_divide_by_the_left_to_right_total():
    """The bits of every Python: ``sum`` compensates from Python 3.12 on
    and would give the car a share of 0.5."""
    minutes = {TransportMode.WALK: 0.1, TransportMode.BIKE: 0.2, TransportMode.CAR: 0.3}
    assert mode_shares(minutes)[TransportMode.CAR] == 0.3 / ((0.1 + 0.2) + 0.3)
    assert mode_shares(minutes)[TransportMode.CAR] == 0.4999999999999999


def test_oracle_equivalence():
    rng = random.Random(2024)
    days = [random_valid_day(rng) for _ in range(400)]
    engine = aggregate_profiles(days)
    oracle = naive_profiles(days)
    for day_type, expected in oracle.items():
        profile = engine[day_type]
        assert profile.day_count == expected["day_count"]
        for activity in Activity:
            assert rel_err(
                profile.mean_activity_minutes[activity],
                expected["mean_activity_minutes"][activity],
            ) < 1e-12
        for mode in TransportMode:
            assert rel_err(
                profile.mean_mode_minutes[mode], expected["mean_mode_minutes"][mode]
            ) < 1e-12
            assert rel_err(profile.mode_share[mode], expected["mode_share"][mode]) < 1e-12


def test_means_equal_np_mean_over_day_objects():
    """The columnar means are bit-identical to one np.mean per key over the
    day objects of a type, in input order, for a list, a table and a strided
    sub-table of the same days."""
    rng = random.Random(77)
    days = [random_valid_day(rng) for _ in range(1000)]
    twice = DiaryTable.from_days([day for day in days for _ in range(2)])
    for given in (days, DiaryTable.from_days(days), twice[::2]):
        profiles = aggregate_profiles(given)
        for day_type, profile in profiles.items():
            bucket = [d for d in days if d.day_type == day_type]
            assert profile.day_count == len(bucket)
            for activity in Activity:
                expected = float(np.mean([d.activity(activity) for d in bucket]))
                assert repr(profile.mean_activity_minutes[activity]) == repr(expected)
            for mode in TransportMode:
                expected = float(np.mean([d.mode(mode) for d in bucket]))
                assert repr(profile.mean_mode_minutes[mode]) == repr(expected)


class TestDayCounts:
    def test_counts(self):
        days = (
            [office_day(60.0) for _ in range(10)]
            + [make_day(modes={TransportMode.CAR: 10.0}) for _ in range(6)]
            + [
                make_day(day_type=DayType.HOME, modes={TransportMode.CAR: 10.0})
                for _ in range(4)
            ]
        )
        counts = day_counts(days)
        assert counts[DayType.EMPLOYER_OFFICE] == 10
        assert counts[DayType.COWORKING] == 6
        assert counts[DayType.HOME] == 4
        assert counts[DayType.OTHER_LOCATION] == 0

    def test_empty(self):
        assert all(v == 0 for v in day_counts([]).values())


def test_profiles_dict_roundtrip():
    rng = random.Random(11)
    days = [random_valid_day(rng) for _ in range(30)]
    profiles = aggregate_profiles(days)
    restored = profiles_from_dict(profiles_to_dict(profiles))
    assert restored == profiles


def test_stored_profile_missing_a_name_reads_it_as_zero():
    """A mean a stored profile lacks is 0.0, as a diary minute is; the
    stored shares, which it changes, are left out too."""
    rng = random.Random(11)
    profile = aggregate_profiles([random_valid_day(rng) for _ in range(30)])[DayType.COWORKING]
    payload = profiles_to_dict({DayType.COWORKING: profile})
    body = payload["coworking"]
    del body["mean_activity_minutes"]["leisure"], body["mean_mode_minutes"]["car"]
    del body["mode_share"]
    restored = profiles_from_dict(payload)[DayType.COWORKING]
    assert restored == dataclasses.replace(
        profile,
        mean_activity_minutes={**profile.mean_activity_minutes, Activity.LEISURE: 0.0},
        mean_mode_minutes={**profile.mean_mode_minutes, TransportMode.CAR: 0.0},
    )
    assert list(restored.mean_mode_minutes) == list(TransportMode)
    assert restored.mode_share[TransportMode.CAR] == 0.0


def _coworking_with(section, key, value):
    """The ways to a co-working profile whose ``section[key]`` is ``value``:
    read back from a stored payload, and for the means built directly (a
    profile derives its shares, so only a stored file holds them)."""
    rng = random.Random(11)
    profiles = aggregate_profiles([random_valid_day(rng) for _ in range(30)])
    payload = profiles_to_dict(profiles)
    payload["coworking"][section][key] = value
    profile = profiles[DayType.COWORKING]
    mapping = {k: value if k.value == key else v for k, v in getattr(profile, section).items()}
    builds = [lambda: profiles_from_dict(payload)]
    if section != "mode_share":
        builds.append(lambda: dataclasses.replace(profile, **{section: mapping}))
    return builds


@pytest.mark.parametrize("section", ["mean_activity_minutes", "mean_mode_minutes", "mode_share"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_stored_profile_rejects_non_finite_values(section, value):
    key = "work" if section == "mean_activity_minutes" else "walk"
    label = "share" if section == "mode_share" else "mean"
    for build in _coworking_with(section, key, value):
        with pytest.raises(ValueError, match=f"{label} for {key} is not finite"):
            build()


@pytest.mark.parametrize("section", ["mean_activity_minutes", "mean_mode_minutes", "mode_share"])
@pytest.mark.parametrize("value", ["12", True, None])
def test_stored_profile_refuses_text_and_bools(section, value):
    key = "work" if section == "mean_activity_minutes" else "walk"
    label = "share" if section == "mode_share" else "mean"
    for build in _coworking_with(section, key, value):
        with pytest.raises(ValueError, match=re.escape(f"{label} for {key} must be a number, got")):
            build()


@pytest.mark.parametrize("section", ["mean_activity_minutes", "mean_mode_minutes", "mode_share"])
def test_profile_stores_floats_and_refuses_negative_values(section):
    key = "work" if section == "mean_activity_minutes" else "walk"
    label = "share" if section == "mode_share" else "mean"
    for build in _coworking_with(section, key, -1):
        with pytest.raises(ValueError, match=re.escape(f"{label} for {key} must be >= 0")):
            build()
    profile = _coworking_with("mean_activity_minutes", "work", 500)[1]()
    assert type(profile.mean_activity_minutes[Activity.WORK]) is float


def test_stored_mode_share_must_match_the_mean_minutes():
    rng = random.Random(11)
    profiles = aggregate_profiles([random_valid_day(rng) for _ in range(30)])
    payload = profiles_to_dict(profiles)
    shares = payload["home"]["mode_share"]
    assert shares["walk"] != shares["car"]
    shares["walk"], shares["car"] = shares["car"], shares["walk"]
    with pytest.raises(ValueError, match="^home mode_share for walk is "):
        profiles_from_dict(payload)
    # Off by the tolerance passes, and the shares used are the derived ones.
    shares["walk"], shares["car"] = shares["car"] + SHARE_SUM_TOLERANCE / 2, shares["walk"]
    assert profiles_from_dict(payload) == profiles
    shares["walk"] += SHARE_SUM_TOLERANCE
    with pytest.raises(ValueError, match="^home mode_share for walk is "):
        profiles_from_dict(payload)
    # Without stored shares, they are derived.
    for body in payload.values():
        del body["mode_share"]
    assert profiles_from_dict(payload) == profiles


def test_shares_are_not_an_input():
    """Before, a profile took shares that contradict its minutes (walk 1.0
    for minutes all by car) and wrote them to the profile tables."""
    activities = dict.fromkeys(Activity, 60.0)
    car = {**dict.fromkeys(TransportMode, 0.0), TransportMode.CAR: 10.0}
    with pytest.raises(TypeError):
        DayTypeProfile(DayType.HOME, 1, activities, car, {TransportMode.WALK: 1.0})
    with pytest.raises(TypeError):
        DayTypeProfile(DayType.HOME, 1, activities, car, mode_share={TransportMode.WALK: 1.0})
    profile = DayTypeProfile(DayType.HOME, 1, activities, car)
    assert profile.mode_share == {**dict.fromkeys(TransportMode, 0.0), TransportMode.CAR: 1.0}
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(profile, mode_share=profile.mode_share)


_MEAN = st.floats(0.0, 1440.0, allow_subnormal=True)


@settings(max_examples=150, deadline=None)
@given(
    minutes=st.fixed_dictionaries({m: _MEAN for m in TransportMode}),
    replaced=st.dictionaries(st.sampled_from(list(TransportMode)), _MEAN),
    days=st.lists(st.builds(
        lambda day_type, modes: make_day(day_type=day_type, modes=modes),
        st.sampled_from(list(COMPARABLE_DAY_TYPES)),
        st.fixed_dictionaries({m: st.floats(0.0, 140.0) for m in TransportMode}),
    ), max_size=20),
)
def test_every_profile_derives_its_shares_from_its_minutes(minutes, replaced, days):
    """However a profile is made, its shares are those of its mean mode
    minutes, bit for bit: built directly, with its mode minutes replaced, by
    ``aggregate_profiles`` and read back by ``profiles_from_dict``."""
    direct = DayTypeProfile(DayType.COWORKING, 2, dict.fromkeys(Activity, 0.0), minutes)
    aggregated = aggregate_profiles(days)
    profiles = [direct, dataclasses.replace(direct, mean_mode_minutes=replaced),
                *aggregated.values(),
                *profiles_from_dict(profiles_to_dict(aggregated)).values()]
    for profile in profiles:
        expected = mode_shares(profile.mean_mode_minutes)
        assert [x.hex() for x in profile.mode_share.values()] == [
            x.hex() for x in expected.values()
        ]
        assert list(profile.mode_share) == list(TransportMode)


@pytest.mark.parametrize(
    "value,message",
    [
        (-3, "day_count must be >= 0, got -3"),
        (2.5, "day_count must be a whole number, got 2.5"),
        (True, "day_count must be a whole number, got True"),
        ("7", "day_count must be a whole number, got '7'"),
        (float("nan"), "day_count must be a whole number, got nan"),
    ],
    ids=["negative", "fraction", "bool", "text", "nan"],
)
def test_stored_day_count_must_be_a_non_negative_whole_number(value, message):
    rng = random.Random(11)
    payload = profiles_to_dict(aggregate_profiles([random_valid_day(rng) for _ in range(30)]))
    payload["coworking"]["day_count"] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        profiles_from_dict(payload)
    payload["coworking"]["day_count"] = 7.0
    stored = profiles_from_dict(payload)[DayType.COWORKING].day_count
    assert stored == 7 and type(stored) is int


_MINUTES = st.floats(0.0, 288.0, allow_subnormal=False)


@st.composite
def _days(draw):
    return make_day(
        day_type=draw(st.sampled_from(list(DayType))),
        travel=draw(_MINUTES),
        work=draw(_MINUTES),
        chores=draw(_MINUTES),
        leisure=draw(_MINUTES),
        modes={mode: draw(_MINUTES) for mode in TransportMode},
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data(), days=st.lists(_days(), max_size=300))
def test_profiles_do_not_depend_on_row_order(data, days):
    shuffled = data.draw(st.permutations(days))
    expected, actual = aggregate_profiles(days), aggregate_profiles(shuffled)
    assert expected.keys() == actual.keys()
    for day_type, profile in expected.items():
        other = actual[day_type]
        assert other.day_count == profile.day_count
        # np.mean sums pairwise, so the order moves the last bits only.
        for name in ("mean_activity_minutes", "mean_mode_minutes", "mode_share"):
            for key, value in getattr(profile, name).items():
                assert rel_err(getattr(other, name)[key], value) <= 1e-12
