import dataclasses
import datetime as dt
import json
import math
import random
import re
from functools import partial

import pytest

from conftest import make_day
from reference_case import build_config_payload
from telework_impact import Activity, DayType, Scenario, TransportMode, load_config
from telework_impact.aggregation import DayTypeProfile
from telework_impact.config import QualityRules
from telework_impact.energy import DirectComponents
from telework_impact.errors import (
    InvalidOverrideError,
    MissingFactorError,
    NegativeFactorError,
    NonFiniteError,
    TeleworkImpactError,
)
from telework_impact.diary import RejectedDay, RejectionTable, RejectReason
from telework_impact.model import (
    COMPARABLE_DAY_TYPES,
    COUNT,
    WHOLE_MAX,
    DiaryDay,
    EnergyDelta,
    FactorTable,
    SiteInventory,
)


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
        with pytest.raises(ValueError, match=r"^mode_minutes\[car\] must be in \[0, 1440\]"):
            make_day(modes={TransportMode.CAR: -1.0}, travel=0.0)
        with pytest.raises(ValueError, match=r"^activity_minutes\[work\] must be in \[0, 1440\]"):
            make_day(work=-5.0)

    def test_totals_capped_at_one_day(self):
        with pytest.raises(ValueError, match="^activity_minutes total 1560.0 exceeds"):
            make_day(work=1300.0, leisure=200.0)
        with pytest.raises(ValueError, match="^mode_minutes total 1441.0 exceeds"):
            make_day(modes={TransportMode.CAR: 1000.0, TransportMode.WALK: 441.0}, travel=0.0)
        # One minute over a day is out of its domain whatever the other minutes are.
        with pytest.raises(ValueError, match=r"^mode_minutes\[car\] must be in \[0, 1440\]"):
            make_day(modes={TransportMode.CAR: 1441.0, TransportMode.WALK: math.nan}, work=240.0)

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
        with pytest.raises(ValueError, match=r"^device_counts\[screen\] must be >= 0, got -1$"):
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

    def test_facility_intensity_total_sums_left_to_right(self):
        """The bits of every Python: ``sum`` compensates from Python 3.12 on
        and would give 0.6."""
        table = full_factor_table(
            facility_intensity={"heating": 0.1, "cooling": 0.2, "lighting": 0.3}
        )
        assert table.facility_intensity_total() == (0.1 + 0.2) + 0.3 == 0.6000000000000001


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


#: A valid instance of each class whose numbers declare their domain, as
#: keyword arguments; a mapping field holds every key it may have.
_VALID = {
    SiteInventory: dict(
        floor_area_m2=100.0, workplace_count=7, device_counts={"screen": 2, "printer": 1},
        coworker_count=30, workdays_per_year=220,
    ),
    FactorTable: dict(
        facility_intensity={"heating": 200.0, "cooling": 30.0, "lighting": 100.0},
        device_daily_energy={"screen": 1.4},
        mode_speed={m: 20.0 for m in TransportMode},
        mode_energy={m: 1.0 for m in TransportMode},
    ),
    QualityRules: {},
    Scenario: dict(
        modal_override={d: {m: 10.0 for m in TransportMode} for d in COMPARABLE_DAY_TYPES},
        floor_space_credit_m2=5.0, credit_intensity_mj_per_m2_year=100.0,
    ),
    DayTypeProfile: dict(
        day_type=DayType.HOME, day_count=3, mean_activity_minutes={a: 60.0 for a in Activity},
        mean_mode_minutes={m: 6.0 for m in TransportMode},
        mode_share={m: 0.2 for m in TransportMode},
    ),
    DiaryDay: dict(
        participant_id="P01", date=dt.date(2024, 1, 8), day_type=DayType.COWORKING,
        activity_minutes={a: 60.0 for a in Activity},
        mode_minutes={m: 6.0 for m in TransportMode}, source_row=2,
    ),
    EnergyDelta: dict(
        baseline=DayType.HOME, facility_mj=1.0, equipment_mj=1.0, travel_mj=-1.0, credit_mj=0.5
    ),
    DirectComponents: dict(facility_mj_per_coworker_day=1.0, equipment_mj_per_coworker_day=1.0),
}


def _at(mapping, path):
    for key in path:
        mapping = mapping[key]
    return mapping


def _with(mapping, path, value):
    """``mapping`` with the number at ``path`` (a key per level) replaced."""
    key, *rest = path
    return {**mapping, key: _with(mapping[key], rest, value) if rest else value}


def _build(cls, valid, path, value):
    return cls(**_with(valid, path, value))


def _declared_places():
    """(name a refusal gives, class, domain, build(value), the valid value)
    of every number that a declared field of the classes above holds: each
    scalar field and each key of a mapping field."""
    places = []
    for cls, valid in _VALID.items():
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        valid = {**{k: v for k, v in defaults.items() if v is not dataclasses.MISSING}, **valid}
        for f in dataclasses.fields(cls):
            if "declared" not in f.metadata:
                continue
            domain, keys, template = f.metadata["declared"]
            paths = [(f.name,)]
            for _ in keys:
                paths = [(*path, key) for path in paths for key in _at(valid, path)]
            for path in paths:
                name = template.format(*(getattr(key, "value", key) for key in path))
                build = partial(_build, cls, valid, path)
                places.append((name, cls, domain, build, _at(valid, path)))
    return places


_PLACES = _declared_places()

#: The places the hand-written list of places named before it was derived
#: from the declarations; none may drop out.
_NAMED_BEFORE = [
    "facility_intensity.heating", "device_daily_energy.screen", "mode_speed.walk",
    "mode_energy.car", "floor_area_m2", "workplace_count", "coworker_count",
    "workdays_per_year", "device_counts[screen]", "min_work_minutes", "floor_space_credit_m2",
    "credit_intensity_mj_per_m2_year", "modal_override[coworking][car]", "mean for work",
    "mean for walk", "share for walk", "day_count", "activity_minutes[work]",
    "mode_minutes[car]", "travel_mj", "source_row", "row",
]

#: A row number of a rejection is a place too, though no dataclass declares it.
_PLACES.append((
    "row", RejectionTable, COUNT,
    lambda value: RejectionTable.from_rejected([RejectedDay(RejectReason.PARSE_ERROR, value)]),
    7,
))


def _excluded(domain):
    """Values outside ``domain``: bools, text, NaN (for a domain that is
    finite or whole), infinities, 10**400, fractions of a whole number, and
    the numbers just past each bound, 2**53 + 1 for a whole number."""
    values = [True, False, "1", math.inf, -math.inf, 10**400, -(10**400)]
    if domain.finite or domain.whole:
        values.append(math.nan)
    if domain.whole:
        values += [domain.low + 0.5, WHOLE_MAX + 1]
    if math.isfinite(domain.low):
        values.append(domain.low if domain.open else domain.low - 1)
    if math.isfinite(domain.high):
        values.append(domain.high + 1)
    return values


@pytest.mark.parametrize("name, cls, domain, build, valid", _PLACES, ids=[p[0] for p in _PLACES])
def test_every_value_a_domain_excludes_is_refused_by_name(name, cls, domain, build, valid):
    """Each value outside the declared domain is refused wherever the
    number enters, with a package error (a scenario's InvalidOverrideError)
    whose text names the number; the valid value is taken."""
    build(valid)
    expected = InvalidOverrideError if cls is Scenario else TeleworkImpactError
    for value in _excluded(domain):
        with pytest.raises(expected) as caught:
            build(value)
        assert name in str(caught.value), (value, str(caught.value))


def test_places_cover_those_named_before():
    names = [place[0] for place in _PLACES]
    assert set(_NAMED_BEFORE) <= set(names) and len(set(names)) == len(names)


def test_every_number_field_declares_its_domain():
    """A field whose type holds a float or an int declares its domain,
    except a field computed from the others (``EnergyDelta.net_mj``)."""
    for cls in _VALID:
        for f in dataclasses.fields(cls):
            if f.init and re.search(r"\b(float|int)\b", str(f.type)):
                assert "declared" in f.metadata, f"{cls.__name__}.{f.name}"


@pytest.mark.parametrize("value", [-1, 2.7, True, "3", 2**53 + 1, 2**63])
def test_row_a_table_cannot_hold_is_refused_by_name(value):
    """Before, ``DiaryDay`` kept such a ``source_row``: -1 read back as no
    row through a table, 2.7 as 2, and True stayed True."""
    with pytest.raises(ValueError, match="^source_row "):
        make_day(row=value)
    with pytest.raises(ValueError, match="^row "):
        RejectionTable.from_rejected([RejectedDay(RejectReason.PARSE_ERROR, value)])


def test_whole_rows_are_kept_as_ints():
    for value in (0, 3.0, 2**53):
        assert type(make_day(row=value).source_row) is int
        [item] = RejectionTable.from_rejected([RejectedDay(RejectReason.PARSE_ERROR, value)])
        assert item.row == value and type(item.row) is int
