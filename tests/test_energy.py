import random

import pytest

import reference_case
from conftest import make_day, rel_err
from telework_impact import (
    DayType,
    TransportMode,
    aggregate_profiles,
    compare_day_types,
    direct_components,
    equipment_energy,
    travel_energy,
)
from telework_impact.energy import annual_facility_energy, facility_energy, per_coworker_day
from telework_impact.errors import DivisionDomainError, MissingFactorError, MissingProfileError
from telework_impact.model import FactorTable, SiteInventory


def table(intensity=(200.0, 30.0, 100.0), devices=None, speed=None, energy=None):
    return FactorTable(
        facility_intensity={
            "heating": intensity[0],
            "cooling": intensity[1],
            "lighting": intensity[2],
        },
        device_daily_energy=devices or {"screen": 1.4},
        mode_speed=speed or {m.value: 20.0 for m in TransportMode},
        mode_energy=energy or {m.value: 1.0 for m in TransportMode},
    )


def inventory(**overrides):
    fields = dict(
        floor_area_m2=100.0,
        workplace_count=7,
        device_counts={"screen": 2},
        coworker_count=30,
        workdays_per_year=220,
    )
    fields.update(overrides)
    return SiteInventory(**fields)


class TestFacilityEnergy:
    def test_hand_example(self):
        # 100 m2 * 330 MJ/m2yr / (30 coworkers * 220 workdays) = 5 MJ
        value = facility_energy(inventory(), table(intensity=(300.0, 10.0, 20.0)))
        assert value == pytest.approx(5.0, rel=1e-12)

    def test_area_zero_limit(self):
        assert annual_facility_energy(0.0, table()) == 0.0
        assert per_coworker_day(0.0, 30, 220) == 0.0

    def test_division_domain_guard(self):
        with pytest.raises(DivisionDomainError):
            per_coworker_day(100.0, 0, 220)
        with pytest.raises(DivisionDomainError):
            per_coworker_day(100.0, 30, 0)

    def test_reference_calibration(self, ref_inventory, ref_factors):
        value = facility_energy(ref_inventory, ref_factors)
        assert value == pytest.approx(reference_case.FACILITY_TARGET_MJ, abs=1e-9)


class TestEquipmentEnergy:
    def test_hand_example(self):
        # 2 screens * 1.4 MJ/day / 7 workplaces = 0.4 MJ
        value = equipment_energy(inventory(), table())
        assert value == pytest.approx(0.4, rel=1e-12)

    def test_empty_inventory(self):
        assert equipment_energy(inventory(device_counts={}), table()) == 0.0

    def test_missing_device_factor_surfaces(self):
        bad = inventory(device_counts={"screen": 2, "projector": 1})
        with pytest.raises(MissingFactorError) as exc:
            equipment_energy(bad, table())
        assert exc.value.keys == ["device_daily_energy.projector"]

    def test_reference_calibration(self, ref_inventory, ref_factors):
        value = equipment_energy(ref_inventory, ref_factors)
        assert value == pytest.approx(reference_case.EQUIPMENT_TARGET_MJ, abs=1e-9)


class TestTravelEnergy:
    def test_hand_example(self):
        # 30 min at 40 km/h and 2 MJ/pkm: 0.5 h * 40 km/h * 2 = 40 MJ
        factors = table(
            speed={m.value: 40.0 for m in TransportMode},
            energy={m.value: 2.0 for m in TransportMode},
        )
        assert travel_energy({TransportMode.CAR: 30.0}, factors) == pytest.approx(40.0)

    def test_zero_profile(self):
        assert travel_energy({m: 0.0 for m in TransportMode}, table()) == 0.0

    def test_zero_factor_mode(self):
        factors = table(energy={**{m.value: 1.0 for m in TransportMode}, "walk": 0.0})
        assert travel_energy({TransportMode.WALK: 60.0}, factors) == 0.0

    def test_negative_minutes_rejected(self):
        with pytest.raises(ValueError):
            travel_energy({TransportMode.CAR: -1.0}, table())

    @pytest.mark.parametrize("value", ["30", True, float("nan"), float("inf")])
    def test_minutes_must_be_finite_numbers(self, value):
        with pytest.raises(ValueError, match=r"^mode_minutes\[car\] "):
            travel_energy({TransportMode.CAR: value}, table())

    def test_missing_mode_factor(self):
        # A table without every mode's factors cannot be built, so no
        # travel figure is ever computed from one.
        with pytest.raises(MissingFactorError) as exc:
            FactorTable(
                facility_intensity={"heating": 0, "cooling": 0, "lighting": 0},
                device_daily_energy={},
                mode_speed={"car": 40.0},
                mode_energy={},
            )
        assert "mode_energy.car" in exc.value.keys


def profile_pair(cw_modes, base_modes, baseline=DayType.EMPLOYER_OFFICE):
    days = [
        make_day(day_type=DayType.COWORKING, modes=cw_modes),
        make_day(day_type=baseline, modes=base_modes),
    ]
    profiles = aggregate_profiles(days)
    return profiles[DayType.COWORKING], profiles[baseline]


class TestCompareDayTypes:
    def test_reference_components(self, ref_inventory, ref_factors, ref_profiles):
        direct = direct_components(ref_inventory, ref_factors)
        delta = compare_day_types(
            ref_profiles[DayType.COWORKING],
            ref_profiles[DayType.EMPLOYER_OFFICE],
            direct,
            ref_factors,
        )
        assert delta.facility_mj == pytest.approx(reference_case.FACILITY_TARGET_MJ, abs=1e-9)
        assert delta.equipment_mj == pytest.approx(reference_case.EQUIPMENT_TARGET_MJ, abs=1e-9)
        assert delta.travel_mj == pytest.approx(reference_case.TRAVEL_TARGET_MJ, abs=1e-9)
        assert delta.net_mj == pytest.approx(reference_case.NET_TARGET_MJ, abs=1e-9)
        assert 0.0 < delta.net_mj <= 5.0
        # Travel energy also falls against the home baseline.
        home_delta = compare_day_types(
            ref_profiles[DayType.COWORKING], ref_profiles[DayType.HOME], direct, ref_factors
        )
        assert home_delta.travel_mj < 0

    def test_identity_profiles(self, ref_inventory, ref_factors):
        direct = direct_components(ref_inventory, ref_factors)
        cw, office = profile_pair(
            {TransportMode.CAR: 30.0}, {TransportMode.CAR: 30.0}
        )
        delta = compare_day_types(cw, office, direct, ref_factors)
        assert delta.travel_mj == 0.0
        assert delta.net_mj == delta.facility_mj + delta.equipment_mj

    def test_longer_but_greener_travel_can_reduce_energy(self, ref_inventory, ref_factors):
        # Car-heavy short home day vs longer walk/bike co-working day.
        direct = direct_components(ref_inventory, ref_factors)
        cw, home = profile_pair(
            {TransportMode.WALK: 120.0, TransportMode.BIKE: 60.0},
            {TransportMode.CAR: 60.0},
            baseline=DayType.HOME,
        )
        assert sum(cw.mean_mode_minutes.values()) > sum(home.mean_mode_minutes.values())
        delta = compare_day_types(cw, home, direct, ref_factors)
        assert delta.travel_mj < 0

    def test_missing_profile(self, ref_inventory, ref_factors):
        direct = direct_components(ref_inventory, ref_factors)
        profiles = aggregate_profiles([make_day(modes={TransportMode.CAR: 10.0})])
        with pytest.raises(MissingProfileError, match="employer_office"):
            compare_day_types(
                profiles[DayType.COWORKING],
                profiles[DayType.EMPLOYER_OFFICE],
                direct,
                ref_factors,
            )


class TestLinearity:
    def test_facility_scaling(self):
        rng = random.Random(3)
        for _ in range(500):
            area = rng.uniform(10, 1000)
            heat, cool, light = (rng.uniform(0, 2000) for _ in range(3))
            n = rng.randrange(1, 500)
            w = rng.randrange(1, 366)
            k = rng.randrange(1, 9)  # rational scaling
            base = per_coworker_day(
                annual_facility_energy(area, table(intensity=(heat, cool, light))), n, w
            )
            scaled_area = per_coworker_day(
                annual_facility_energy(k * area, table(intensity=(heat, cool, light))), n, w
            )
            assert rel_err(scaled_area, k * base) < 1e-12
            occupancy = per_coworker_day(
                annual_facility_energy(area, table(intensity=(heat, cool, light))), k * n, w
            )
            assert rel_err(occupancy * (k * n), base * n) < 1e-12

    def test_equipment_linear_in_counts(self):
        rng = random.Random(4)
        for _ in range(500):
            count = rng.randrange(0, 50)
            k = rng.randrange(1, 7)
            factors = table(devices={"screen": rng.uniform(0, 10)})
            a = equipment_energy(inventory(device_counts={"screen": count}), factors)
            b = equipment_energy(inventory(device_counts={"screen": k * count}), factors)
            assert rel_err(b, k * a) < 1e-12

    def test_travel_linear_per_mode(self):
        rng = random.Random(5)
        factors = table(
            speed={m.value: rng.uniform(1, 60) for m in TransportMode},
            energy={m.value: rng.uniform(0, 3) for m in TransportMode},
        )
        for _ in range(500):
            minutes = {m: rng.uniform(0, 120) for m in TransportMode}
            k = rng.randrange(1, 9)
            a = travel_energy(minutes, factors)
            b = travel_energy({m: k * v for m, v in minutes.items()}, factors)
            assert rel_err(b, k * a) < 1e-11

    def test_antisymmetry(self, ref_inventory, ref_factors):
        rng = random.Random(6)
        direct = direct_components(ref_inventory, ref_factors)
        for _ in range(200):
            cw, office = profile_pair(
                {m: rng.uniform(0, 90) for m in TransportMode},
                {m: rng.uniform(0, 90) for m in TransportMode},
            )
            forward = compare_day_types(cw, office, direct, ref_factors)
            # Swap roles: the same two profiles compared the other way round.
            backward = compare_day_types(office, cw, direct, ref_factors)
            assert forward.travel_mj == pytest.approx(-backward.travel_mj, abs=1e-12)
