import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_day
from reference_case import build_config_payload
from telework_impact import Activity, DayType, Scenario, TransportMode, load_config
from telework_impact.aggregation import profiles_from_dict, profiles_to_dict
from telework_impact.errors import (
    MissingFactorError,
    NegativeFactorError,
    NonFiniteError,
    TeleworkImpactError,
)
from telework_impact.model import DiaryDay, EnergyDelta, FactorTable, SiteInventory


def full_factor_table(**overrides):
    table = {
        "facility_intensity": {"heating": 200.0, "cooling": 30.0, "lighting": 100.0},
        "device_daily_energy": {"screen": 1.4, "desktop_computer": 3.6},
        "mode_speed": {m.value: 20.0 for m in TransportMode},
        "mode_energy": {m.value: 1.0 for m in TransportMode},
    }
    table.update(overrides)
    return FactorTable(**table)


def small_inventory(**overrides):
    fields = dict(
        floor_area_m2=100.0,
        workplace_count=7,
        device_counts={"screen": 2},
        coworker_count=30,
        workdays_per_year=220,
    )
    fields.update(overrides)
    return SiteInventory(**fields)


class TestDiaryDay:
    def test_missing_entries_mean_zero(self):
        day = make_day(modes={TransportMode.CAR: 30.0})
        assert day.mode(TransportMode.WALK) == 0.0
        assert day.activity(Activity.TRAVEL) == 30.0

    def test_negative_minutes_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            make_day(modes={TransportMode.CAR: -1.0})
        with pytest.raises(ValueError, match="negative"):
            make_day(work=-5.0)

    def test_totals_capped_at_one_day(self):
        with pytest.raises(ValueError, match="exceeds"):
            make_day(work=1300.0, leisure=200.0)
        with pytest.raises(ValueError, match="exceeds"):
            make_day(modes={TransportMode.CAR: 1441.0}, work=240.0)

    def test_frozen(self):
        day = make_day(modes={TransportMode.CAR: 10.0})
        with pytest.raises(AttributeError):
            day.participant_id = "other"

    def test_maps_hold_every_member_in_order(self):
        sparse = make_day(modes={"car": 10.0, TransportMode.WALK: 5.0})
        assert list(sparse.mode_minutes) == list(TransportMode)
        assert sparse.mode_minutes[TransportMode.BIKE] == 0.0
        given = {"car": 10.0, "walk": 5.0}
        dense = make_day(modes={m: given.get(m.value, 0.0) for m in TransportMode})
        assert sparse == dense

    @pytest.mark.parametrize("value", [True, False, "12", None])
    def test_bool_or_text_minutes_refused(self, value):
        refused = f"must be a number, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(f"activity_minutes[leisure] {refused}")):
            make_day(leisure=value)
        with pytest.raises(ValueError, match=re.escape(f"mode_minutes[car] {refused}")):
            make_day(modes={"car": value}, travel=0.0)

    def test_unknown_minute_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key 'boat'"):
            make_day(modes={"boat": 5.0})

    def test_totals_sum_left_to_right(self):
        # (0.1 + 0.2) + 0.3 is 0.6000000000000001; a compensated sum gives 0.6.
        day = make_day(
            work=0.2, chores=0.3, leisure=0.0, travel=0.1,
            modes={TransportMode.WALK: 0.1, TransportMode.BIKE: 0.2, TransportMode.CAR: 0.3},
        )
        assert day.activity_total() == (0.1 + 0.2) + 0.3
        assert day.mode_total() == (0.1 + 0.2) + 0.3

    def test_source_row_not_part_of_identity(self):
        a = make_day(modes={TransportMode.CAR: 10.0}, row=2)
        b = make_day(modes={TransportMode.CAR: 10.0}, row=99)
        assert a == b


class TestSiteInventory:
    def test_valid(self):
        inv = small_inventory()
        assert inv.device_counts == {"screen": 2}

    @pytest.mark.parametrize(
        "field,value",
        [
            ("floor_area_m2", 0.0),
            ("floor_area_m2", -10.0),
            ("workplace_count", 0),
            ("coworker_count", 0),
            ("workdays_per_year", 0),
            ("workdays_per_year", 367),
        ],
    )
    def test_invariants(self, field, value):
        with pytest.raises(ValueError):
            small_inventory(**{field: value})

    @pytest.mark.parametrize("value", [14.9, True, float("nan"), float("inf"), "14", None])
    @pytest.mark.parametrize(
        "field", ["workplace_count", "coworker_count", "workdays_per_year", "device_counts"]
    )
    def test_counts_must_be_whole_numbers(self, field, value):
        given = {"screen": value} if field == "device_counts" else value
        with pytest.raises(ValueError, match="must be a whole number"):
            small_inventory(**{field: given})
        accepted = {"screen": 14.0} if field == "device_counts" else 14.0
        inventory = small_inventory(**{field: accepted})
        stored = getattr(inventory, field)
        stored = stored["screen"] if field == "device_counts" else stored
        assert stored == 14 and type(stored) is int

    @pytest.mark.parametrize("value", [True, float("inf"), float("nan"), "170", 0, -1])
    def test_bad_floor_area_is_refused(self, value):
        with pytest.raises(ValueError, match="floor_area_m2"):
            small_inventory(floor_area_m2=value)

    def test_negative_device_count(self):
        with pytest.raises(ValueError, match="negative"):
            small_inventory(device_counts={"screen": -1})

    def test_open_device_kinds(self):
        inv = small_inventory(device_counts={"coffee_machine": 1, "screen": 3})
        assert inv.device_counts["coffee_machine"] == 1


class TestValidateFactorTable:
    """A :class:`FactorTable` is checked when it is built; the device kinds
    of an inventory are checked by ``load_config``."""

    def test_identity_on_valid_input(self):
        table = full_factor_table(mode_speed={m: 20 for m in TransportMode})
        assert table.mode_speed == {m: 20.0 for m in TransportMode}
        assert table == full_factor_table()

    def test_missing_mode_energy(self):
        energy = {m.value: 1.0 for m in TransportMode}
        del energy["walk"]
        with pytest.raises(MissingFactorError) as exc:
            full_factor_table(mode_energy=energy)
        assert exc.value.keys == ["mode_energy.walk"]

    def test_unknown_device_kind_needs_factor(self, tmp_path):
        payload = build_config_payload()
        payload["site_inventory"]["device_counts"]["projector"] = 1
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(MissingFactorError) as exc:
            load_config(path)
        assert exc.value.keys == ["device_daily_energy.projector"]

    def test_every_missing_key_listed(self):
        with pytest.raises(MissingFactorError) as exc:
            FactorTable(
                facility_intensity={"heating": 1.0},
                device_daily_energy={},
                mode_speed={"car": 40.0},
                mode_energy={},
            )
        assert exc.value.keys == [
            "facility_intensity.cooling",
            "facility_intensity.lighting",
            "mode_speed.walk",
            "mode_energy.walk",
            "mode_speed.bike",
            "mode_energy.bike",
            "mode_energy.car",
            "mode_speed.public_transport",
            "mode_energy.public_transport",
            "mode_speed.other",
            "mode_energy.other",
        ]

    def test_negative_factor(self):
        with pytest.raises(
            NegativeFactorError, match="^negative factor facility_intensity.heating = -1.0$"
        ):
            full_factor_table(
                facility_intensity={"heating": -1.0, "cooling": 0.0, "lighting": 0.0}
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_factor(self, value):
        with pytest.raises(NonFiniteError, match=f"^mode_energy.walk is not finite: {value}$"):
            full_factor_table(mode_energy={m.value: value for m in TransportMode})

    @pytest.mark.parametrize(
        "value", [True, False, "0.5", None, [1.0], math.nan, math.inf, -math.inf, -1.0]
    )
    @pytest.mark.parametrize(
        "group, key",
        [
            ("facility_intensity", "heating"),
            ("device_daily_energy", "screen"),
            ("mode_speed", "car"),
            ("mode_energy", "car"),
        ],
    )
    def test_bool_or_text_factor_refused_at_construction(self, group, key, value):
        tables = {
            "facility_intensity": {"heating": 200.0, "cooling": 30.0, "lighting": 100.0},
            "device_daily_energy": {"screen": 1.4},
            "mode_speed": {m.value: 20.0 for m in TransportMode},
            "mode_energy": {m.value: 1.0 for m in TransportMode},
        }
        name = f"{group}.{key}"
        if not isinstance(value, float):
            error, message = ValueError, f"{name} must be a number, got {value!r}"
        elif math.isfinite(value):
            error, message = NegativeFactorError, f"negative factor {name} = {value}"
        else:
            error, message = NonFiniteError, f"{name} is not finite: {value}"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            full_factor_table(**{group: {**tables[group], key: value}})

    def test_real_factors_are_stored_as_floats(self):
        table = full_factor_table(device_daily_energy={"screen": 2, "desktop_computer": 3})
        assert table.device_daily_energy == {"screen": 2.0, "desktop_computer": 3.0}
        assert all(type(v) is float for v in table.device_daily_energy.values())
        # An int too large for a float is inf, and so not finite.
        with pytest.raises(NonFiniteError, match="^device_daily_energy.desktop_computer"):
            full_factor_table(device_daily_energy={"screen": 2, "desktop_computer": 10**400})

    def test_zero_factors_allowed(self):
        table = full_factor_table(
            facility_intensity={"heating": 0.0, "cooling": 0.0, "lighting": 0.0}
        )
        assert table.facility_intensity_total() == 0.0


class TestEnergyDelta:
    def test_net_is_component_sum(self):
        delta = EnergyDelta(
            baseline=DayType.EMPLOYER_OFFICE,
            facility_mj=23.97,
            equipment_mj=2.03,
            travel_mj=-21.95,
        )
        assert delta.net_mj == 23.97 + 2.03 + -21.95

    def test_net_sum_property(self):
        rng = random.Random(1847)
        for _ in range(1000):
            delta = EnergyDelta(
                baseline=DayType.HOME,
                facility_mj=rng.uniform(0, 500),
                equipment_mj=rng.uniform(0, 50),
                travel_mj=rng.uniform(-300, 300),
            )
            total = delta.facility_mj + delta.equipment_mj + delta.travel_mj
            assert abs(delta.net_mj - total) <= 1e-12 * max(1.0, abs(total))

    def test_direct_components_nonnegative(self):
        with pytest.raises(ValueError):
            EnergyDelta(DayType.HOME, facility_mj=-0.1, equipment_mj=0.0, travel_mj=0.0)
        with pytest.raises(ValueError):
            EnergyDelta(DayType.HOME, facility_mj=0.0, equipment_mj=-0.1, travel_mj=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["facility_mj", "equipment_mj", "travel_mj", "credit_mj"])
    def test_non_finite_component_named(self, name, value):
        components = {"facility_mj": 1.0, "equipment_mj": 1.0, "travel_mj": -1.0, name: value}
        with pytest.raises(NonFiniteError, match=f"^{name} is not finite"):
            EnergyDelta(DayType.HOME, **components)

    def test_overflowing_net_named(self):
        with pytest.raises(NonFiniteError, match="^net_mj is not finite: inf$"):
            EnergyDelta(DayType.HOME, facility_mj=1e308, equipment_mj=1e308, travel_mj=0.0)


def test_enumerations_are_closed():
    assert {a.value for a in Activity} == {"travel", "work", "everyday_chores", "leisure"}
    assert {m.value for m in TransportMode} == {
        "walk",
        "bike",
        "car",
        "public_transport",
        "other",
    }
    assert {d.value for d in DayType} == {
        "employer_office",
        "coworking",
        "home",
        "other_location",
        "multi_location",
    }


def _config_with(path, value):
    """``load_config`` on the reference document with ``path`` set to ``value``."""

    def build(directory):
        payload = build_config_payload()
        *sections, key = path
        section = payload
        for name in sections:
            section = section.setdefault(name, {})
        section[key] = value
        config = directory / "config.json"
        config.write_text(json.dumps(payload), encoding="utf-8")  # NaN and Infinity as such
        return load_config(config)

    return build


def _profiles_with(profiles, section, key, value):
    payload = profiles_to_dict(profiles)
    body = payload["coworking"]
    if key is None:
        body[section] = value
    else:
        body[section][key] = value
    return profiles_from_dict(payload)


_BAD_NUMBERS = [True, False, math.nan, math.inf, -math.inf]

#: (name the refusal must carry, the values it is tried with, build(value,
#: directory, profiles)): a config factor, count or area, a quality-rule
#: threshold, a scenario field, a stored profile, a diary minute, which is
#: tried with bools only (non-finite minutes are still taken), and the signed
#: travel component of an energy delta, also tried with text.
_PLACES = [
    *(
        (name, _BAD_NUMBERS, lambda v, d, p, path=path: _config_with(path, v)(d))
        for name, path in [
            ("facility_intensity.heating", ("factor_table", "facility_intensity", "heating")),
            ("device_daily_energy.screen", ("factor_table", "device_daily_energy", "screen")),
            ("mode_speed.walk", ("factor_table", "mode_speed", "walk")),
            ("mode_energy.car", ("factor_table", "mode_energy", "car")),
            ("floor_area_m2", ("site_inventory", "floor_area_m2")),
            ("workplace_count", ("site_inventory", "workplace_count")),
            ("coworker_count", ("site_inventory", "coworker_count")),
            ("workdays_per_year", ("site_inventory", "workdays_per_year")),
            ("device_counts[screen]", ("site_inventory", "device_counts", "screen")),
            ("min_work_minutes", ("quality_rules", "min_work_minutes")),
        ]
    ),
    ("floor_space_credit_m2", _BAD_NUMBERS,
     lambda v, d, p: Scenario(floor_space_credit_m2=v)),
    ("credit_intensity_mj_per_m2_year", _BAD_NUMBERS,
     lambda v, d, p: Scenario(credit_intensity_mj_per_m2_year=v)),
    ("modal_override[coworking][car]", _BAD_NUMBERS,
     lambda v, d, p: Scenario(modal_override={"coworking": {"car": v}})),
    *(
        (name, _BAD_NUMBERS, lambda v, d, p, where=where: _profiles_with(p, *where, v))
        for name, where in [
            ("mean for work", ("mean_activity_minutes", "work")),
            ("mean for walk", ("mean_mode_minutes", "walk")),
            ("share for walk", ("mode_share", "walk")),
            ("day_count", ("day_count", None)),
        ]
    ),
    ("activity_minutes[work]", [True, False], lambda v, d, p: make_day(work=v)),
    ("mode_minutes[car]", [True, False], lambda v, d, p: make_day(modes={"car": v}, travel=0.0)),
    ("travel_mj", [*_BAD_NUMBERS, "1.0"],
     lambda v, d, p: EnergyDelta(DayType.HOME, 1.0, 1.0, v)),
]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bad_number_anywhere_is_refused_by_name(tmp_path_factory, ref_profiles, data):
    """A bool or a value that is not finite is refused wherever a number
    enters, and the refusal names the key it was given for."""
    name, values, build = data.draw(st.sampled_from(_PLACES), label="place")
    value = data.draw(st.sampled_from(values), label="value")
    with pytest.raises((TeleworkImpactError, ValueError)) as caught:
        build(value, tmp_path_factory.mktemp("config"), ref_profiles)
    assert name in str(caught.value)
