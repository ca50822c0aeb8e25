"""Executable provenance: the shipped reference files must be exactly what
``reference_case`` derives, and the derived factors must reproduce the
calibration targets through the engine."""

import pytest

import reference_case
from telework_impact import (
    Activity,
    DayType,
    TransportMode,
    aggregate_profiles,
    apply_quality_filter,
    parse_diary_path,
    travel_energy,
)
from telework_impact.aggregation import day_counts


def test_shipped_config_matches_regeneration(ref_config_path):
    assert ref_config_path.read_text(encoding="utf-8") == reference_case.render_config_json()


def test_shipped_diaries_match_regeneration(ref_diaries_path):
    assert ref_diaries_path.read_text(encoding="utf-8") == reference_case.render_diary_csv()


def test_regeneration_cli(tmp_path, ref_config_path, ref_diaries_path):
    assert reference_case.main(["--out", str(tmp_path)]) == 0
    for shipped in (ref_config_path, ref_diaries_path):
        assert (tmp_path / shipped.name).read_bytes() == shipped.read_bytes()


def test_back_solved_factors_are_plausible():
    factors = reference_case.reference_factor_table()
    pt_energy = factors.mode_energy[TransportMode.PUBLIC_TRANSPORT]
    assert 0.0 < pt_energy < 5.0
    assert factors.facility_intensity["cooling"] > 0.0
    assert factors.device_daily_energy["tv"] > 0.0


def test_travel_target_from_mean_profiles():
    factors = reference_case.reference_factor_table()
    office = travel_energy(reference_case.MEAN_MODE_MINUTES[DayType.EMPLOYER_OFFICE], factors)
    coworking = travel_energy(reference_case.MEAN_MODE_MINUTES[DayType.COWORKING], factors)
    home = travel_energy(reference_case.MEAN_MODE_MINUTES[DayType.HOME], factors)
    assert coworking - office == pytest.approx(reference_case.TRAVEL_TARGET_MJ, abs=1e-9)
    # Travel energy shrinks against the home baseline too, but by less.
    assert coworking - home < 0
    assert abs(coworking - home) < abs(coworking - office)


@pytest.fixture(scope="module")
def kept(ref_diaries_path, ref_config):
    days, rejected = parse_diary_path(ref_diaries_path)
    assert not rejected
    kept, dropped = apply_quality_filter(days, ref_config.quality_rules)
    assert not dropped
    return kept


class TestShippedDiaries:
    def test_250_kept_days(self, kept):
        counts = day_counts(kept)
        assert sum(counts.values()) == 250
        assert counts[DayType.EMPLOYER_OFFICE] == 120
        assert counts[DayType.COWORKING] == 80
        assert counts[DayType.HOME] == 50

    def test_no_participant_date_duplicates(self, kept):
        seen = {(d.participant_id, d.date) for d in kept}
        assert len(seen) == len(kept)

    def test_means_match_configured_profiles(self, kept):
        profiles = aggregate_profiles(kept)
        for day_type, mode_means in reference_case.MEAN_MODE_MINUTES.items():
            for mode in TransportMode:
                assert profiles[day_type].mean_mode_minutes[mode] == pytest.approx(
                    mode_means[mode], abs=1e-9
                )
        for day_type, activity_means in reference_case.MEAN_ACTIVITY_MINUTES.items():
            for activity in Activity:
                assert profiles[day_type].mean_activity_minutes[activity] == pytest.approx(
                    activity_means[activity], abs=1e-9
                )

    def test_share_anchors_exact(self, kept):
        profiles = aggregate_profiles(kept)
        office = profiles[DayType.EMPLOYER_OFFICE]
        assert office.mode_share[TransportMode.CAR] == pytest.approx(0.19, abs=1e-9)
        walk_bike = (
            office.mode_share[TransportMode.WALK] + office.mode_share[TransportMode.BIKE]
        )
        assert walk_bike == pytest.approx(0.27, abs=1e-9)
        home = profiles[DayType.HOME]
        assert home.mode_share[TransportMode.CAR] == pytest.approx(0.80, abs=1e-9)
