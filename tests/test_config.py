import json

import pytest

from telework_impact import ConfigError, config_fingerprint, load_config
from telework_impact.calibration import build_config_payload


@pytest.fixture()
def payload():
    return build_config_payload()


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_load_reference_config(ref_config):
    assert ref_config.inventory.floor_area_m2 == 170.0
    assert ref_config.inventory.workplace_count == 14
    assert ref_config.inventory.coworker_count == 60
    assert ref_config.inventory.device_counts["screen"] == 18
    assert ref_config.factors.mode_speed
    assert ref_config.quality_rules.min_work_minutes == 240.0
    assert len(ref_config.fingerprint) == 64


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="nope.json"):
        load_config(tmp_path / "nope.json")


def test_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_missing_section(tmp_path, payload):
    del payload["factor_table"]
    with pytest.raises(ConfigError, match="factor_table"):
        load_config(write_config(tmp_path, payload))


def test_missing_inventory_key(tmp_path, payload):
    del payload["site_inventory"]["workdays_per_year"]
    with pytest.raises(ConfigError, match="workdays_per_year"):
        load_config(write_config(tmp_path, payload))


def test_unknown_key_rejected(tmp_path, payload):
    payload["site_inventory"]["floor_area_ft2"] = 1.0
    with pytest.raises(ConfigError, match="floor_area_ft2"):
        load_config(write_config(tmp_path, payload))


def test_invariant_violation_reported_as_config_error(tmp_path, payload):
    payload["site_inventory"]["coworker_count"] = 0
    with pytest.raises(ConfigError, match="coworker_count"):
        load_config(write_config(tmp_path, payload))


def test_count_given_as_text_rejected(tmp_path, payload):
    payload["site_inventory"]["coworker_count"] = "60"
    with pytest.raises(ConfigError, match="coworker_count must be a whole number, got '60'"):
        load_config(write_config(tmp_path, payload))


@pytest.mark.parametrize("value", [True, "0.5"])
def test_factor_given_as_bool_or_text_rejected(tmp_path, payload, value):
    payload["factor_table"]["mode_energy"]["car"] = value
    with pytest.raises(ConfigError, match=f"mode_energy.car must be a number, got {value!r}"):
        load_config(write_config(tmp_path, payload))


def test_unknown_mode_key_rejected(tmp_path, payload):
    payload["factor_table"]["mode_speed"]["jetpack"] = 100.0
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, payload))


def test_quality_rule_override(tmp_path, payload):
    payload["quality_rules"] = {"min_work_minutes": 300}
    config = load_config(write_config(tmp_path, payload))
    assert config.quality_rules.min_work_minutes == 300
    assert config.quality_rules.min_total_minutes == 480.0


class TestFingerprint:
    def test_whitespace_and_key_order_irrelevant(self, tmp_path, payload):
        a = write_config(tmp_path, payload, "a.json")
        b = tmp_path / "b.json"
        b.write_text(json.dumps(payload, indent=4, sort_keys=True), encoding="utf-8")
        assert load_config(a).fingerprint == load_config(b).fingerprint

    def test_semantic_change_changes_fingerprint(self, payload):
        before = config_fingerprint(payload)
        payload["site_inventory"]["coworker_count"] += 1
        assert config_fingerprint(payload) != before


@pytest.mark.parametrize(
    "key", ["min_work_minutes", "min_total_minutes", "max_mode_mismatch_minutes"]
)
@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf"), True, False, "240", None, 10**400]
)
def test_quality_threshold_must_be_a_finite_number(tmp_path, payload, key, value):
    payload["quality_rules"] = {key: value}
    with pytest.raises(ConfigError, match=key):
        load_config(write_config(tmp_path, payload))


@pytest.mark.parametrize("value", [1, 0, "true", None, 1.0])
def test_exclude_multi_location_must_be_a_bool(tmp_path, payload, value):
    payload["quality_rules"] = {"exclude_multi_location": value}
    with pytest.raises(ConfigError, match="exclude_multi_location"):
        load_config(write_config(tmp_path, payload))
