import copy
import dataclasses
import json
import math
import pickle
import re
import random
from fractions import Fraction
from itertools import repeat

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference_case
from conftest import rel_err
from telework_impact import (
    DayType,
    Scenario,
    TransportMode,
    break_even,
    compare_day_types,
    direct_components,
    evaluate_scenario,
    sweep,
    weekly_net_mj,
)
from telework_impact.errors import (
    ConfigError,
    InvalidOverrideError,
    MissingProfileError,
    NonFiniteError,
    NoRootError,
    SweepPointError,
    TeleworkImpactError,
)
from telework_impact.model import EnergyDelta, FactorTable, SiteInventory, checked
from telework_impact.scenario import apply_scenario, load_scenario
from telework_impact import energy as energy_module
from telework_impact import scenario as scenario_module


@pytest.fixture()
def base(ref_inventory, ref_factors, ref_profiles):
    return ref_inventory, ref_factors, ref_profiles


def analytic_occupancy_root(inventory, factors, profiles):
    """Solve area*intensity/W / N + equipment + travel = 0 for N by hand."""
    from telework_impact.energy import equipment_energy, travel_energy

    annual_per_workday = (
        inventory.floor_area_m2 * factors.facility_intensity_total()
    ) / inventory.workdays_per_year
    travel = travel_energy(
        profiles[DayType.COWORKING].mean_mode_minutes, factors
    ) - travel_energy(profiles[DayType.EMPLOYER_OFFICE].mean_mode_minutes, factors)
    equipment = equipment_energy(inventory, factors)
    return annual_per_workday / -(equipment + travel)


_MJ_FACTOR = st.floats(0.0, 1e4)


@st.composite
def sites(draw):
    """A valid inventory and factor table, with a factor for every device."""
    kinds = st.sampled_from(["screen", "printer", "tv"])
    devices = draw(st.dictionaries(kinds, st.integers(0, 50)))
    inventory = SiteInventory(
        floor_area_m2=draw(st.floats(1e-3, 1e6)),
        workplace_count=draw(st.integers(1, 1000)),
        device_counts=devices,
        coworker_count=draw(st.integers(1, 10**6)),
        workdays_per_year=draw(st.integers(1, 366)),
    )
    factors = FactorTable(
        facility_intensity={c: draw(_MJ_FACTOR) for c in ("heating", "cooling", "lighting")},
        device_daily_energy={kind: draw(_MJ_FACTOR) for kind in devices},
        mode_speed={m: draw(st.floats(0.0, 100.0)) for m in TransportMode},
        mode_energy={m: draw(st.floats(0.0, 10.0)) for m in TransportMode},
    )
    return inventory, factors


class TestApplyScenario:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
    @given(site=sites())
    def test_empty_scenario_is_identity(self, ref_profiles, site):
        """Bit for bit: the default scenario evaluates to the day-type
        comparison, and a sweep at the inventory's own allocation inputs
        allocates its facility as :func:`direct_components` does."""
        inventory, factors = site
        assert apply_scenario(inventory, Scenario()) == inventory
        direct = direct_components(inventory, factors)
        for baseline in (DayType.EMPLOYER_OFFICE, DayType.HOME):
            plain = compare_day_types(
                ref_profiles[DayType.COWORKING], ref_profiles[baseline], direct, factors
            )
            scen = evaluate_scenario(inventory, factors, ref_profiles, Scenario(), baseline)
            assert scen == plain
            assert scen.credit_mj == 0.0
        for parameter in ("floor_area_m2", "coworker_count", "workdays_per_year"):
            own = getattr(inventory, parameter)
            result = sweep(inventory, factors, ref_profiles, Scenario(), parameter, [own])
            assert result.facility_mj == (direct.facility_mj_per_coworker_day,)

    def test_doubling_coworkers_halves_facility(self, base):
        inventory, factors, profiles = base
        doubled = evaluate_scenario(
            inventory, factors, profiles, Scenario(overrides={"coworker_count": 120})
        )
        plain = evaluate_scenario(inventory, factors, profiles, Scenario())
        assert doubled.facility_mj == pytest.approx(plain.facility_mj / 2, rel=1e-12)
        assert doubled.equipment_mj == plain.equipment_mj

    def test_floor_space_credit(self, base):
        inventory, factors, profiles = base
        scenario = Scenario(
            floor_space_credit_m2=20.0,
            credit_intensity_mj_per_m2_year=factors.facility_intensity_total(),
        )
        delta = evaluate_scenario(inventory, factors, profiles, scenario)
        expected = 20.0 / 170.0 * reference_case.FACILITY_TARGET_MJ
        assert delta.credit_mj == pytest.approx(expected, abs=1e-9)
        assert delta.credit_mj == pytest.approx(2.82, abs=1e-9)
        assert delta.net_mj == pytest.approx(
            delta.facility_mj + delta.equipment_mj + delta.travel_mj - delta.credit_mj, abs=1e-12
        )

    def test_unknown_override_field(self):
        with pytest.raises(InvalidOverrideError, match="unknown"):
            Scenario(overrides={"floor_area_ft2": 10})

    def test_invalid_override_value(self, base):
        inventory, _, _ = base
        with pytest.raises(InvalidOverrideError):
            apply_scenario(inventory, Scenario(overrides={"coworker_count": 0}))

    def test_modal_override_replaces_profile(self, base):
        inventory, factors, profiles = base
        scenario = Scenario(
            modal_override={DayType.COWORKING: {TransportMode.WALK: 65.0}}
        )
        delta = evaluate_scenario(inventory, factors, profiles, scenario)
        # Walking carries zero energy in the reference factors, so the whole
        # co-working travel energy disappears.
        from telework_impact import travel_energy

        office_energy = travel_energy(
            profiles[DayType.EMPLOYER_OFFICE].mean_mode_minutes, factors
        )
        assert delta.travel_mj == pytest.approx(-office_energy, rel=1e-12)

    def test_negative_credit_rejected(self):
        with pytest.raises(InvalidOverrideError):
            Scenario(floor_space_credit_m2=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field", ["floor_space_credit_m2", "credit_intensity_mj_per_m2_year"]
    )
    def test_non_finite_credit_rejected(self, field, value):
        with pytest.raises(InvalidOverrideError, match=f"{field} is not finite"):
            Scenario(**{field: value})

    def test_non_finite_modal_override_rejected(self):
        with pytest.raises(InvalidOverrideError, match=r"\[coworking\]\[walk\] is not finite"):
            Scenario(modal_override={"coworking": {"walk": math.nan}})


class TestSweep:
    def test_occupancy_sweep_values(self, base):
        inventory, factors, profiles = base
        result = sweep(
            inventory, factors, profiles, Scenario(), "coworker_count", [30, 60, 120]
        )
        facility = [delta.facility_mj for _, delta in result.points]
        assert facility == pytest.approx([47.94, 23.97, 11.985], abs=1e-9)

    def test_single_point_equals_direct_evaluation(self, base):
        inventory, factors, profiles = base
        result = sweep(
            inventory, factors, profiles, Scenario(), "floor_area_m2", [170.0]
        )
        direct = evaluate_scenario(inventory, factors, profiles, Scenario())
        assert result.points[0][1] == direct

    def test_values_are_sorted(self, base):
        inventory, factors, profiles = base
        result = sweep(
            inventory, factors, profiles, Scenario(), "coworker_count", [120, 30, 60]
        )
        assert [v for v, _ in result.points] == [30.0, 60.0, 120.0]

    def test_cw_days_sweep_constant_per_day_linear_weekly(self, base):
        inventory, factors, profiles = base
        result = sweep(
            inventory, factors, profiles, Scenario(), "cw_days_per_week", [1, 2, 4]
        )
        deltas = [delta for _, delta in result.points]
        assert deltas[0] == deltas[1] == deltas[2]
        weekly = [weekly_net_mj(d, v) for v, d in result.points]
        assert weekly[1] == pytest.approx(2 * weekly[0], rel=1e-12)
        assert weekly[2] == pytest.approx(4 * weekly[0], rel=1e-12)

    def test_repeatable(self, base):
        inventory, factors, profiles = base
        a = sweep(inventory, factors, profiles, Scenario(), "workdays_per_year", [100, 230])
        b = sweep(inventory, factors, profiles, Scenario(), "workdays_per_year", [100, 230])
        assert a == b

    def test_point_error_carries_value(self, base):
        inventory, factors, profiles = base
        with pytest.raises(SweepPointError, match="coworker_count=-5"):
            sweep(inventory, factors, profiles, Scenario(), "coworker_count", [-5.0])
        with pytest.raises(SweepPointError, match="floor_area_m2=0.0: floor_area_m2 must be > 0"):
            sweep(inventory, factors, profiles, Scenario(), "floor_area_m2", [0.0])

    def test_unsupported_parameter(self, base):
        inventory, factors, profiles = base
        with pytest.raises(InvalidOverrideError, match="unsupported"):
            sweep(inventory, factors, profiles, Scenario(), "workplace_count", [1])
        # Nor can a result be built for one: its CSV cells could need quoting.
        r = sweep(inventory, factors, profiles, Scenario(), "coworker_count", [1])
        with pytest.raises(InvalidOverrideError, match="unsupported"):
            scenario_module.SweepResult(
                "a,b", r.baseline, r.equipment_mj, r.travel_mj, r.values, r.facility_mj,
                r.credit_mj,
            )

    def test_missing_profile_is_not_a_point_error(self, base):
        inventory, factors, profiles = base
        without_coworking = {t: p for t, p in profiles.items() if t != DayType.COWORKING}
        with pytest.raises(MissingProfileError, match="coworking"):
            sweep(inventory, factors, without_coworking, Scenario(), "coworker_count", [-5.0])

    def test_travel_energy_runs_twice_per_sweep(self, base, monkeypatch):
        inventory, factors, profiles = base
        calls = []
        real = energy_module.travel_energy

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(energy_module, "travel_energy", counting)
        for n in (1, 10, 1000):
            calls.clear()
            sweep(inventory, factors, profiles, Scenario(), "coworker_count", range(1, n + 1))
            assert len(calls) == 2

    def test_empty_values(self, base):
        inventory, factors, profiles = base
        with pytest.raises(InvalidOverrideError):
            sweep(inventory, factors, profiles, Scenario(), "coworker_count", [])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("parameter", scenario_module.SWEEP_PARAMETERS)
    def test_non_finite_value_rejected(self, base, parameter, value):
        inventory, factors, profiles = base
        with pytest.raises(SweepPointError, match=f"{parameter} is not finite: ") as info:
            sweep(inventory, factors, profiles, Scenario(), parameter, [2.0, value])
        assert isinstance(info.value.cause, InvalidOverrideError)

    @pytest.mark.parametrize(
        "parameter, value", [("coworker_count", 5e-324), ("floor_area_m2", 1e308)]
    )
    def test_overflowing_point_rejected(self, base, parameter, value):
        inventory, factors, profiles = base
        with pytest.raises(SweepPointError, match="facility_mj is not finite: inf") as info:
            sweep(inventory, factors, profiles, Scenario(), parameter, [2.0, value])
        assert isinstance(info.value.cause, NonFiniteError)

    @pytest.mark.parametrize("value", ["60", True, None, 1j])
    def test_text_or_bool_value_is_refused(self, base, monkeypatch, value):
        inventory, factors, profiles = base
        monkeypatch.setattr(scenario_module, "_terms", None)  # refused before the terms
        with pytest.raises(
            InvalidOverrideError, match=re.escape(f"coworker_count must be a number, got {value!r}")
        ):
            sweep(inventory, factors, profiles, Scenario(), "coworker_count", [30.0, value])

    def test_int_and_numpy_values_are_taken_as_floats(self, base):
        inventory, factors, profiles = base
        mixed = [120, np.float64(30.0), np.float32(90.0), np.int64(60)]
        result = sweep(inventory, factors, profiles, Scenario(), "coworker_count", mixed)
        assert [type(value) for value in result.values] == [float] * 4
        floats = [120.0, 30.0, 90.0, 60.0]
        assert result == sweep(inventory, factors, profiles, Scenario(), "coworker_count", floats)

    def test_points_are_built_on_access(self, base, monkeypatch):
        inventory, factors, profiles = base
        result = sweep(inventory, factors, profiles, Scenario(), "coworker_count", [30, 60, 120])
        built = []
        monkeypatch.setattr(scenario_module, "EnergyDelta", lambda *a: built.append(a) or a)
        assert len(result.points) == 3 and built == []
        assert result.points[-1][0] == 120.0 and len(built) == 1
        assert [value for value, _ in result.points[:2]] == [30.0, 60.0]

    def test_columns_must_have_equal_lengths(self, base):
        inventory, factors, profiles = base
        r = sweep(inventory, factors, profiles, Scenario(), "coworker_count", [30, 60])
        with pytest.raises(ValueError, match="one length"):
            scenario_module.SweepResult(
                r.parameter, r.baseline, r.equipment_mj, r.travel_mj, r.values,
                r.facility_mj, r.credit_mj[:1],
            )

    def test_overflowing_weekly_net_rejected(self, base):
        inventory, factors, profiles = base
        # Facility alone is ~1e308 MJ per coworker-day: finite, but not five times over.
        huge = Scenario(
            overrides={"floor_area_m2": 5e304, "coworker_count": 1, "workdays_per_year": 1}
        )
        sweep(inventory, factors, profiles, huge, "cw_days_per_week", [1.0])
        with pytest.raises(SweepPointError, match="=5.0: weekly_net_mj is not finite"):
            sweep(inventory, factors, profiles, huge, "cw_days_per_week", [1.0, 5.0])


def bisect_root(f, lo: float, hi: float, tolerance: float = 1e-6) -> float:
    """Reference root finder for :func:`break_even`: bisection on f over
    [lo, hi] until the bracket is narrower than ``tolerance``; returns the
    bracket midpoint.

    Raises :class:`NoRootError` when the endpoints have the same sign and
    :class:`NonFiniteError` when an evaluation fails or is not finite.
    Assumes f is monotone enough for bisection to be meaningful.
    """
    if not lo < hi:
        raise ValueError(f"bounds must satisfy lo < hi, got [{lo}, {hi}]")
    if not tolerance > 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")

    def safe_eval(x: float) -> float:
        try:
            y = f(x)
        except TeleworkImpactError as exc:
            raise NonFiniteError(f"evaluation failed at {x}: {exc}") from exc
        if not math.isfinite(y):
            raise NonFiniteError(f"evaluation at {x} is not finite: {y}")
        return y

    f_lo = safe_eval(lo)
    f_hi = safe_eval(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise NoRootError(lo, hi, f_lo, f_hi)

    while hi - lo >= tolerance:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket at float resolution
        f_mid = safe_eval(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


class TestBisectRoot:
    def test_linear_fixture(self):
        root = bisect_root(lambda x: x - 42.0, 0.0, 100.0, tolerance=1e-6)
        assert abs(root - 42.0) <= 1e-6

    def test_same_sign_raises(self):
        with pytest.raises(NoRootError) as exc:
            bisect_root(lambda x: x + 10.0, 0.0, 5.0, tolerance=1e-6)
        assert exc.value.f_lo == 10.0 and exc.value.f_hi == 15.0

    def test_exact_zero_at_endpoint(self):
        assert bisect_root(lambda x: x, 0.0, 1.0) == 0.0
        assert bisect_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_non_finite(self):
        with pytest.raises(NonFiniteError):
            bisect_root(lambda x: math.nan, 0.0, 1.0)

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            bisect_root(lambda x: x, 1.0, 0.0)
        with pytest.raises(ValueError):
            bisect_root(lambda x: x, 0.0, 1.0, tolerance=0.0)

    def test_random_monotone_roots(self):
        rng = random.Random(8)
        for _ in range(100):
            slope = rng.uniform(0.1, 10.0)
            zero = rng.uniform(-50.0, 50.0)
            root = bisect_root(lambda x: slope * (x - zero), -60.0, 60.0, tolerance=1e-8)
            assert abs(root - zero) <= 1e-8


class TestBreakEven:
    def test_occupancy_root_matches_analytic(self, base):
        inventory, factors, profiles = base
        root = break_even(
            inventory, factors, profiles, Scenario(), "coworker_count", (30.0, 120.0),
            tolerance=1e-6,
        )
        expected = analytic_occupancy_root(inventory, factors, profiles)
        assert abs(root - expected) <= 1e-4
        assert root == pytest.approx(72.19879518072289, abs=1e-3)

    def test_net_is_small_at_root(self, base):
        # |net(root)| <= |net(lo) - net(hi)| * tolerance / (hi - lo) + 1e-9
        inventory, factors, profiles = base
        lo, hi, tolerance = 30.0, 120.0, 1e-9

        def net(value):
            return sweep(
                inventory, factors, profiles, Scenario(), "coworker_count", [value]
            ).points[0][1].net_mj

        root = break_even(
            inventory, factors, profiles, Scenario(), "coworker_count", (lo, hi),
            tolerance=tolerance,
        )
        bound = abs(net(lo) - net(hi)) * tolerance / (hi - lo) + 1e-9
        assert abs(net(root)) <= bound

    def test_credit_root_matches_analytic(self, base):
        inventory, factors, profiles = base
        scenario = Scenario(
            credit_intensity_mj_per_m2_year=factors.facility_intensity_total()
        )
        root = break_even(
            inventory, factors, profiles, scenario, "floor_space_credit_m2", (0.0, 200.0),
            tolerance=1e-7,
        )
        plain = evaluate_scenario(inventory, factors, profiles, Scenario())
        per_m2 = factors.facility_intensity_total() / (
            inventory.coworker_count * inventory.workdays_per_year
        )
        assert abs(root - plain.net_mj / per_m2) <= 1e-4

    def test_same_sign_bounds(self, base):
        inventory, factors, profiles = base
        with pytest.raises(NoRootError):
            break_even(
                inventory, factors, profiles, Scenario(), "coworker_count", (100.0, 120.0)
            )

    def test_invalid_region_is_non_finite(self, base):
        inventory, factors, profiles = base
        with pytest.raises(NonFiniteError):
            break_even(
                inventory, factors, profiles, Scenario(), "coworker_count", (0.0, 120.0)
            )

    def test_cw_days_per_week_rejected(self, base):
        inventory, factors, profiles = base
        with pytest.raises(InvalidOverrideError, match="does not depend"):
            break_even(
                inventory, factors, profiles, Scenario(), "cw_days_per_week", (1.0, 5.0)
            )

    @pytest.mark.parametrize(
        "bounds, tolerance, message",
        [
            ((120.0, 30.0), 1e-6, "lo < hi"),
            ((60.0, 60.0), 1e-6, "lo < hi"),
            ((30.0, math.nan), 1e-6, "finite"),
            ((-math.inf, 120.0), 1e-6, "finite"),
            ((30.0, 120.0), 0.0, "tolerance"),
            ((30.0, 120.0), -1e-6, "tolerance"),
            ((30.0, 120.0), math.nan, "tolerance"),
            ((30.0, 120.0), math.inf, "tolerance"),
            ((True, 120.0), 1e-6, "coworker_count lower bound must be a number, got True"),
            ((30.0, "120"), 1e-6, "coworker_count upper bound must be a number, got '120'"),
        ],
    )
    def test_bad_bracket_or_tolerance_rejected_before_terms(
        self, base, monkeypatch, bounds, tolerance, message
    ):
        inventory, factors, profiles = base

        def no_terms(*args):
            raise AssertionError("terms built before the bracket was checked")

        monkeypatch.setattr(scenario_module, "_terms", no_terms)
        with pytest.raises(InvalidOverrideError, match=message):
            break_even(
                inventory, factors, profiles, Scenario(), "coworker_count", bounds, tolerance
            )

    def test_root_carries_the_sweep_at_it(self, base):
        inventory, factors, profiles = base
        root = break_even(inventory, factors, profiles, Scenario(), "coworker_count", (30, 120))
        assert isinstance(root, float) and root.at_root.values == (float(root),)
        assert root.at_root == sweep(
            inventory, factors, profiles, Scenario(), "coworker_count", [float(root)]
        )
        for copied in (copy.deepcopy(root), pickle.loads(pickle.dumps(root))):
            assert copied == root and copied.at_root == root.at_root

    def test_missing_profile_raised_before_any_evaluation(self, base):
        inventory, factors, profiles = base
        without_office = {t: p for t, p in profiles.items() if t != DayType.EMPLOYER_OFFICE}
        with pytest.raises(MissingProfileError, match="employer_office"):
            break_even(
                inventory, factors, without_office, Scenario(), "coworker_count", (30.0, 120.0)
            )


def made_up_terms(**fields):
    """Scenario terms of a made-up site: 10 MJ of facility and 0 of credit
    per coworker-day, 2 MJ of equipment and -4 MJ of travel."""
    base = dict(
        baseline=DayType.EMPLOYER_OFFICE, area=100.0, coworkers=10.0, workdays=10.0,
        credit_m2=0.0, credit_intensity=100.0, facility_intensity=10.0,
        equipment_mj=2.0, travel_mj=-4.0,
    )
    return scenario_module._Terms(**{**base, **fields})


def _with_terms(monkeypatch, terms):
    """Make every scenario evaluation use ``terms``."""
    monkeypatch.setattr(scenario_module, "_terms", lambda *args: terms)


def _net(parameter, value):
    """Net MJ of one sweep point on the scenario terms in use."""
    return sweep(None, None, None, Scenario(), parameter, [value]).points[0][1].net_mj


def bisect_break_even(parameter, bounds, tolerance):
    """break_even() as it was before the closed forms: the same checks of
    the parameter, bounds and tolerance, then bisect_root() on the net of a
    one-point sweep."""
    if parameter == "cw_days_per_week":
        raise InvalidOverrideError("the per-day net does not depend on cw_days_per_week")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidOverrideError(f"bad bounds [{lo}, {hi}]")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise InvalidOverrideError(f"bad tolerance {tolerance}")
    return bisect_root(lambda value: _net(parameter, value), lo, hi, tolerance)


class TestExactRoot:
    @pytest.mark.parametrize(
        "parameter, zero_at",
        [
            ("coworker_count", 50.0),  # (100*10)/(N*10) + 2 - 4 = 0
            ("workdays_per_year", 50.0),
            ("floor_area_m2", 20.0),  # (A*10)/100 + 2 - 4 = 0
            ("floor_space_credit_m2", 8.0),  # 10 + 2 - 4 - (C*100)/100 = 0
        ],
    )
    def test_bound_with_zero_net_is_returned(self, monkeypatch, parameter, zero_at):
        _with_terms(monkeypatch, made_up_terms())
        assert _net(parameter, zero_at) == 0.0
        for bounds in ((zero_at, 4 * zero_at), (zero_at / 4, zero_at)):
            assert break_even(None, None, None, Scenario(), parameter, bounds) == zero_at
            assert bisect_break_even(parameter, bounds, 1e-6) == zero_at

    def test_net_constant_up_to_rounding_returns_the_smaller_bound(self, monkeypatch):
        # Equipment and travel cancel, and so do facility and credit: the
        # exact net is 0 everywhere, but its rounding has a different sign
        # at each bound, and a = b = 0 leaves nothing to divide.
        terms = made_up_terms(
            area=1.0, credit_m2=1.0, facility_intensity=1.0, credit_intensity=1.0,
            workdays=1.0, equipment_mj=0.1, travel_mj=-0.1,
        )
        _with_terms(monkeypatch, terms)
        lo, hi = 0.25, 3.0
        assert _net("coworker_count", lo) < 0 < _net("coworker_count", hi)
        assert terms.coefficients("coworkers") == (0.0, 0.0)
        assert abs(_net("coworker_count", hi)) < abs(_net("coworker_count", lo))
        assert break_even(None, None, None, Scenario(), "coworker_count", (lo, hi)) == hi


def _exact_root(terms, parameter):
    """Root of the net in ``parameter`` in rational arithmetic, or None."""
    field = scenario_module._PARAMETERS[parameter].field
    if field is None:
        return None

    def net(x):
        values = {
            name: Fraction(getattr(terms, name))
            for name in ("area", "coworkers", "workdays", "credit_m2")
        }
        values[field] = Fraction(x)
        allocated = (
            values["area"] * Fraction(terms.facility_intensity)
            - values["credit_m2"] * Fraction(terms.credit_intensity)
        )
        direct = Fraction(terms.equipment_mj) + Fraction(terms.travel_mj)
        return direct + allocated / (values["coworkers"] * values["workdays"])

    if field in ("coworkers", "workdays"):  # a + b/x
        b = 2 * (net(1) - net(2))
        a = net(1) - b
        return -b / a if a else None
    a, b = net(0), net(1) - net(0)  # a + b*x
    return -a / b if b else None


@st.composite
def break_even_cases(draw):
    """Random positive terms, a parameter and a bracket: around the root
    when there is one, often with both bounds on one side of it, and now and
    then an empty bracket, a bound outside the domain or a bad tolerance."""
    equipment = draw(st.floats(0.0, 50.0))
    terms = scenario_module._Terms(
        baseline=DayType.EMPLOYER_OFFICE,
        area=draw(st.floats(1.0, 1e4)),
        coworkers=float(draw(st.integers(1, 1000))),
        workdays=float(draw(st.integers(1, 366))),
        credit_m2=draw(st.floats(0.0, 1e3)),
        credit_intensity=draw(st.floats(0.0, 2000.0)),
        facility_intensity=draw(st.floats(1.0, 2000.0)),
        equipment_mj=equipment,
        # Travel mostly saves more than the equipment costs, as on the
        # reference site, so that most occupancies have a root.
        travel_mj=draw(st.floats(-100.0, 20.0).filter(lambda mj: abs(mj) > 1e-3)) - equipment,
    )
    parameter = draw(st.sampled_from(scenario_module.SWEEP_PARAMETERS))
    root = _exact_root(terms, parameter)
    if root is not None and 0 < root < 1e300 and draw(st.integers(0, 9)) < 9:
        around = ((0.25, 0.999999), (1.000001, 4.0))
        below, above = ((0.1, 0.5), (0.6, 0.99)), ((1.01, 2.0), (2.5, 4.0))
        factors = draw(st.sampled_from([around, around, around, below, above]))
        lo, hi = (float(root) * draw(st.floats(*factor)) for factor in factors)
    else:
        lo = draw(st.floats(-10.0, 1e4))
        hi = lo + draw(st.floats(1e-3, 1e4))
    if draw(st.integers(0, 19)) == 19:
        hi = lo
    if draw(st.integers(0, 19)) < 19:
        tolerance = draw(st.floats(1e-9, 1e-3)) * max(abs(lo), abs(hi), 1.0)
    else:
        tolerance = draw(st.sampled_from([0.0, -1e-6, math.nan, math.inf]))
    return terms, parameter, (lo, hi), tolerance


def _summands(delta):
    return delta.facility_mj, delta.equipment_mj, delta.travel_mj, delta.credit_mj


def _conditioning(parameter, root):
    """How much the rounding of the net's summands moves its root, relative
    to the root: their magnitudes over that of the part that varies."""
    delta = sweep(None, None, None, Scenario(), parameter, [root]).points[0][1]
    varying = {
        "floor_area_m2": delta.facility_mj,
        "floor_space_credit_m2": delta.credit_mj,
    }.get(parameter, delta.facility_mj - delta.credit_mj)
    return sum(map(abs, _summands(delta))) / abs(varying) if varying else math.inf


def _outcome(solve, *args):
    """The root ``solve`` returns, or the class of the error it raises."""
    try:
        return solve(*args)
    except (NoRootError, NonFiniteError, InvalidOverrideError) as exc:
        return type(exc)


@settings(max_examples=500, deadline=None)
@given(case=break_even_cases())
def test_exact_root_agrees_with_bisection(case):
    terms, parameter, bounds, tolerance = case
    with pytest.MonkeyPatch.context() as patch:
        _with_terms(patch, terms)
        closed = _outcome(break_even, None, None, None, Scenario(), parameter, bounds, tolerance)
        bisected = _outcome(bisect_break_even, parameter, bounds, tolerance)
        if isinstance(closed, type) or isinstance(bisected, type):
            assert closed is bisected
            return
        lo, hi = bounds
        assert lo <= closed <= hi
        # Bisection places the root no better than the rounding of the net
        # allows; where that blurs it by more than the tolerance, the
        # distance says nothing about the closed form.
        if _conditioning(parameter, closed) * 1e-13 * abs(closed) < tolerance:
            assert abs(closed - bisected) <= tolerance
        at_closed = sweep(None, None, None, Scenario(), parameter, [closed]).points[0][1]
        scale = sum(map(abs, _summands(at_closed)))
        assert abs(at_closed.net_mj) <= abs(_net(parameter, bisected)) + 1e-12 * scale


def per_point_sweep(terms, parameter, values):
    """sweep() as it was before the columns: one delta per point, each
    allocated on its own, in ascending order, where the first failing point
    raises."""
    spec = scenario_module._PARAMETERS[parameter]
    points = []
    for value in sorted(values):
        try:
            value = checked(parameter, value, spec.domain, (InvalidOverrideError,) * 3)
            area = value if spec.field == "area" else terms.area
            coworkers = value if spec.field == "coworkers" else terms.coworkers
            workdays = value if spec.field == "workdays" else terms.workdays
            credit_m2 = value if spec.field == "credit_m2" else terms.credit_m2
            divisor = coworkers * workdays
            delta = EnergyDelta(
                baseline=terms.baseline,
                facility_mj=area * terms.facility_intensity / divisor,
                equipment_mj=terms.equipment_mj,
                travel_mj=terms.travel_mj,
                credit_mj=credit_m2 * terms.credit_intensity / divisor,
            )
            if parameter == "cw_days_per_week":
                weekly_net_mj(delta, value)
        except TeleworkImpactError as exc:
            raise SweepPointError(parameter, value, exc) from exc
        points.append((value, delta))
    return points


def _bits(points):
    """Value, baseline, summands and net of each point, every float as its
    hex text, so that 0.0 and -0.0 differ."""
    return [
        (value.hex(), delta.baseline, *(x.hex() for x in (*_summands(delta), delta.net_mj)))
        for value, delta in points
    ]


def _column_bits(result):
    """:func:`_bits` of a sweep's columns, which must be those of its points."""
    shared = (repeat(result.baseline), repeat(result.equipment_mj), repeat(result.travel_mj))
    rows = zip(result.values, *shared, result.facility_mj, result.credit_mj, result.net_mj)
    columns = [
        (value.hex(), baseline, *(x.hex() for x in (facility, equipment, travel, credit, net)))
        for value, baseline, equipment, travel, facility, credit, net in rows
    ]
    assert columns == _bits(result.points)
    return columns


def _sweep_outcome(sweeper):
    """What ``sweeper()`` returns, or the class, message and value of the
    error it raises: any error, since the reference raises ``ValueError``
    and ``ZeroDivisionError`` too."""
    try:
        return sweeper()
    except AssertionError:
        raise
    except Exception as exc:
        return type(exc), str(exc), repr(getattr(exc, "value", None))


#: Terms and values that make a point fail: overflow and underflow, a
#: negative intensity or equipment (terms built here directly; a factor
#: table refuses a negative factor), a value outside the domain.
_EXTREME_TERMS = (5e-324, 1e-300, 1e300, 1e308, 0.0, -1.0)
_EXTREME_VALUES = (0.0, -0.0, -1.0, 5e-324, 1e308, 5.000000000000001, math.nan, math.inf, -math.inf)


@st.composite
def sweep_cases(draw):
    """Random terms, a parameter and values: mostly a sweep whose every point
    evaluates, now and then one extreme term or value."""
    fields = {
        "area": draw(st.floats(1.0, 1e4)),
        "coworkers": float(draw(st.integers(1, 1000))),
        "workdays": float(draw(st.integers(1, 366))),
        "credit_m2": draw(st.floats(0.0, 1e3)),
        "credit_intensity": draw(st.floats(0.0, 2000.0)),
        "facility_intensity": draw(st.floats(0.0, 2000.0)),
        "equipment_mj": draw(st.floats(0.0, 50.0)),
        "travel_mj": draw(st.floats(-100.0, 20.0)),
    }
    if draw(st.integers(0, 3)) == 0:
        fields[draw(st.sampled_from(sorted(fields)))] = draw(st.sampled_from(_EXTREME_TERMS))
    terms = scenario_module._Terms(baseline=draw(st.sampled_from(DayType)), **fields)
    parameter = draw(st.sampled_from(scenario_module.SWEEP_PARAMETERS))
    top = 5.0 if parameter == "cw_days_per_week" else 1e4
    values = draw(st.lists(st.floats(1e-3, top), min_size=1, max_size=8))
    values += draw(st.lists(st.sampled_from(values), max_size=2))
    if draw(st.integers(0, 2)) == 0:
        values.insert(draw(st.integers(0, len(values))), draw(st.sampled_from(_EXTREME_VALUES)))
    return terms, parameter, values


_OVERFLOWING_WEEK = made_up_terms(area=1e308, facility_intensity=1.0, coworkers=1.0, workdays=1.0)


@settings(max_examples=400, deadline=None)
@given(case=sweep_cases())
@example(case=(made_up_terms(), "coworker_count", [2.0, 5e-324]))
@example(case=(made_up_terms(), "floor_area_m2", [1e308, 2.0]))
@example(case=(made_up_terms(), "cw_days_per_week", [1.0, 2.5, 6.0]))
@example(case=(made_up_terms(), "coworker_count", [3.0, math.inf, 2.0, math.nan]))
@example(case=(made_up_terms(facility_intensity=-1.0), "workdays_per_year", [30.0, 60.0]))
@example(case=(made_up_terms(credit_intensity=-1.0), "floor_space_credit_m2", [0.0, 2.0]))
@example(case=(_OVERFLOWING_WEEK, "cw_days_per_week", [1.0, 5.0]))
@example(case=(made_up_terms(), "floor_space_credit_m2", [0.0, -0.0, 3.0, -0.0]))
def test_columns_equal_a_per_point_sweep(case):
    """The columnar sweep returns the points of the per-point one to the
    bit, and fails where it fails: the same class, message and value."""
    terms, parameter, values = case
    with pytest.MonkeyPatch.context() as patch:
        _with_terms(patch, terms)
        columnar = _sweep_outcome(
            lambda: _column_bits(sweep(None, None, None, Scenario(), parameter, values))
        )
    reference = _sweep_outcome(lambda: _bits(per_point_sweep(terms, parameter, values)))
    assert columnar == reference


#: Values a sweep point and a scenario override can both express.
_SETTABLE_VALUES = {
    "coworker_count": st.integers(1, 10**6),
    "workdays_per_year": st.integers(1, 366),
    "floor_area_m2": st.integers(1, 10**6),
    "floor_space_credit_m2": st.floats(0.0, 1e6),
}


def _set_through_scenario(scenario, parameter, value):
    if parameter == "floor_space_credit_m2":
        return dataclasses.replace(scenario, floor_space_credit_m2=value)
    return dataclasses.replace(scenario, overrides={**scenario.overrides, parameter: value})


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    parameter=st.sampled_from(sorted(_SETTABLE_VALUES)),
    workplaces=st.integers(1, 40),
    credit_m2=st.floats(0.0, 500.0),
    credit_intensity=st.floats(0.0, 5000.0),
    cw_modes=st.dictionaries(
        st.sampled_from(list(TransportMode)), st.floats(0.0, 300.0), max_size=len(TransportMode)
    ),
)
def test_sweep_points_equal_scenario_evaluation(
    ref_inventory, ref_factors, ref_profiles,
    data, parameter, workplaces, credit_m2, credit_intensity, cw_modes,
):
    scenario = Scenario(
        overrides={"workplace_count": workplaces},
        floor_space_credit_m2=credit_m2,
        credit_intensity_mj_per_m2_year=credit_intensity,
        modal_override={DayType.COWORKING: cw_modes} if cw_modes else None,
    )
    values = data.draw(st.lists(_SETTABLE_VALUES[parameter], min_size=1, max_size=8))
    result = sweep(ref_inventory, ref_factors, ref_profiles, scenario, parameter, values)
    for value, delta in result.points:
        expected = evaluate_scenario(
            ref_inventory, ref_factors, ref_profiles,
            _set_through_scenario(scenario, parameter, value),
        )
        assert delta == expected


#: Non-negative credits with no subnormal product, so that halving is exact.
_CREDIT = st.just(0.0) | st.floats(1e-3, 500.0)


@settings(max_examples=60, deadline=None)
@given(
    parameter=st.sampled_from(["coworker_count", "workdays_per_year"]),
    value=st.floats(1.0, 1e6),
    other=st.floats(1.0, 1e6),
    power=st.integers(0, 30),
    credit_m2=_CREDIT,
    credit_intensity=_CREDIT,
)
def test_allocation_scales_as_one_over_coworkers_and_workdays(
    ref_inventory, ref_factors, ref_profiles,
    parameter, value, other, power, credit_m2, credit_intensity,
):
    scenario = Scenario(
        floor_space_credit_m2=credit_m2, credit_intensity_mj_per_m2_year=credit_intensity
    )
    scale = 2.0**power
    points = dict(sweep(
        ref_inventory, ref_factors, ref_profiles, scenario, parameter,
        [value, value * scale, other],
    ).points)
    at, scaled, elsewhere = points[value], points[value * scale], points[other]
    # A power-of-two factor scales both allocated terms exactly.
    assert scaled.facility_mj == at.facility_mj / scale
    assert scaled.credit_mj == at.credit_mj / scale
    assert rel_err(elsewhere.facility_mj * other, at.facility_mj * value) <= 1e-12
    assert rel_err(elsewhere.credit_mj * other, at.credit_mj * value) <= 1e-12
    for delta in (scaled, elsewhere):
        assert (delta.equipment_mj, delta.travel_mj) == (at.equipment_mj, at.travel_mj)


class TestScenarioFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "scenario.json"
        payload = {
            "name": "smaller office",
            "overrides": {"coworker_count": 90},
            "floor_space_credit_m2": 12.5,
            "credit_intensity_mj_per_m2_year": 800.0,
            "modal_override": {"coworking": {"walk": 40, "car": 10}},
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        scenario = load_scenario(path)
        assert scenario.name == "smaller office"
        assert scenario.overrides == {"coworker_count": 90}
        assert scenario.floor_space_credit_m2 == 12.5
        assert scenario.modal_override[DayType.COWORKING][TransportMode.WALK] == 40.0
        # The weekly frequency is a sweep parameter, not a scenario key.
        path.write_text(json.dumps({**payload, "cw_days_per_week": 2.5}), encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown scenario keys.*cw_days_per_week"):
            load_scenario(path)

    @pytest.mark.parametrize("value", ["20", True, False, None, [1.0]])
    @pytest.mark.parametrize(
        "key, payload",
        [
            ("floor_space_credit_m2", lambda v: {"floor_space_credit_m2": v}),
            ("credit_intensity_mj_per_m2_year", lambda v: {"credit_intensity_mj_per_m2_year": v}),
            ("modal_override[coworking][walk]",
             lambda v: {"modal_override": {"coworking": {"walk": v}}}),
        ],
    )
    def test_number_given_as_text_or_bool_is_refused(self, tmp_path, key, payload, value):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload(value)), encoding="utf-8")
        with pytest.raises(InvalidOverrideError, match=re.escape(f"{key} must be a number")):
            load_scenario(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("NaN", "is not finite: nan"),
            ("Infinity", "is not finite: inf"),
            ("-Infinity", "is not finite: -inf"),
            ("-1.5", None),
        ],
    )
    @pytest.mark.parametrize(
        "key, document, negative",
        [
            ("floor_space_credit_m2", '{{"floor_space_credit_m2": {}}}', "must be >= 0, got -1.5"),
            ("credit_intensity_mj_per_m2_year",
             '{{"credit_intensity_mj_per_m2_year": {}}}', "must be >= 0, got -1.5"),
            ("modal_override[coworking][walk]",
             '{{"modal_override": {{"coworking": {{"walk": {}}}}}}}', "must be >= 0, got -1.5"),
        ],
    )
    def test_non_finite_and_negative_messages(
        self, tmp_path, key, document, negative, text, message
    ):
        path = tmp_path / "scenario.json"
        path.write_text(document.format(text), encoding="utf-8")
        with pytest.raises(InvalidOverrideError) as caught:
            load_scenario(path)
        assert str(caught.value) == f"{key} {message or negative}"

    def test_modal_override_not_an_object_is_a_config_error(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text('{"modal_override": {"coworking": [1]}}', encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid scenario"):
            load_scenario(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text('{"credit": 3}', encoding="utf-8")
        with pytest.raises(ConfigError, match="credit"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario(tmp_path / "none.json")
