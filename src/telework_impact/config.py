"""Configuration file loading and fingerprinting.

One JSON document carries both the site inventory and the factor table
(plus optional quality-rule overrides)::

    {
      "site_inventory": {
        "floor_area_m2": 170.0,
        "workplace_count": 14,
        "device_counts": {"screen": 18, "desktop_computer": 1, "printer": 1, "tv": 1},
        "coworker_count": 60,
        "workdays_per_year": 230
      },
      "factor_table": {
        "facility_intensity": {"heating": ..., "cooling": ..., "lighting": ...},
        "device_daily_energy": {"screen": ..., ...},
        "mode_speed": {"walk": ..., "bike": ..., "car": ..., "public_transport": ..., "other": ...},
        "mode_energy": {...}
      },
      "quality_rules": {"min_work_minutes": 240, ...}   // optional
    }

Units are fixed by convention (m2, MJ, km/h, MJ per person-km, minutes) and
never embedded in the file. The fingerprint hashes the canonical form of the
parsed document, so it changes iff a semantically relevant byte changes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .quality import QualityRules
from .errors import ConfigError
from .model import FactorTable, SiteInventory

_INVENTORY_KEYS = {
    "floor_area_m2",
    "workplace_count",
    "device_counts",
    "coworker_count",
    "workdays_per_year",
}
_FACTOR_KEYS = {"facility_intensity", "device_daily_energy", "mode_speed", "mode_energy"}
_RULE_KEYS = {
    "min_work_minutes",
    "min_total_minutes",
    "max_mode_mismatch_minutes",
    "exclude_multi_location",
}


@dataclass(frozen=True)
class AppConfig:
    """Validated contents of one configuration file."""

    inventory: SiteInventory
    factors: FactorTable
    quality_rules: QualityRules
    fingerprint: str
    path: str


def config_fingerprint(payload: dict) -> str:
    """SHA-256 over the canonical JSON form of the parsed document."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _require(payload: dict, key: str, path: Path) -> dict:
    if key not in payload:
        raise ConfigError(f"config {path} lacks required section '{key}'")
    section = payload[key]
    if not isinstance(section, dict):
        raise ConfigError(f"config {path}: section '{key}' must be an object")
    return section


def _check_keys(section: dict, allowed: set, required: set, name: str, path: Path) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"config {path}: unknown keys in {name}: {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"config {path}: {name} lacks keys: {sorted(missing)}")


def load_config(path: str | Path) -> AppConfig:
    """Load and validate a configuration file.

    Raises :class:`ConfigError` naming the file for any structural problem;
    value-level invariant violations surface with the same type.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")

    inventory_section = _require(payload, "site_inventory", path)
    _check_keys(inventory_section, _INVENTORY_KEYS, _INVENTORY_KEYS, "site_inventory", path)
    factor_section = _require(payload, "factor_table", path)
    _check_keys(factor_section, _FACTOR_KEYS, _FACTOR_KEYS, "factor_table", path)
    rules_section = payload.get("quality_rules", {})
    if not isinstance(rules_section, dict):
        raise ConfigError(f"config {path}: section 'quality_rules' must be an object")
    _check_keys(rules_section, _RULE_KEYS, set(), "quality_rules", path)
    extra = set(payload) - {"site_inventory", "factor_table", "quality_rules"}
    if extra:
        raise ConfigError(f"config {path}: unknown top-level keys: {sorted(extra)}")

    try:
        inventory = SiteInventory(**inventory_section)
        factors = FactorTable(**factor_section)
        rules = QualityRules(**rules_section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config {path}: {exc}") from exc

    return AppConfig(
        inventory=inventory,
        factors=factors,
        quality_rules=rules,
        fingerprint=config_fingerprint(payload),
        path=str(path),
    )
