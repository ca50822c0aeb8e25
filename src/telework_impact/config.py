"""Configuration file loading and fingerprinting.

One JSON document carries both the site inventory and the factor table
(plus optional overrides of the :class:`QualityRules`, which live here so
that loading a config does not import the quality filter)::

    {
      "site_inventory": {
        "floor_area_m2": 170.0,                  // real > 0
        "workplace_count": 14,                   // whole >= 1
        "device_counts": {"screen": 18, ...},    // whole >= 0 each
        "coworker_count": 60,                    // whole >= 1
        "workdays_per_year": 230                 // whole in [1, 366]
      },
      "factor_table": {                          // real >= 0 each
        "facility_intensity": {"heating": ..., "cooling": ..., "lighting": ...},
        "device_daily_energy": {"screen": ..., ...},
        "mode_speed": {"walk": ..., "bike": ..., "car": ..., "public_transport": ..., "other": ...},
        "mode_energy": {...}
      },
      "quality_rules": {"min_work_minutes": 240, ...}   // optional, real >= 0 each
    }

Each number must lie in the domain its field declares (see :mod:`.model`):
a real is finite, a whole number is at most ``2**53``, and a bool or text
such as ``"14"`` is refused. Units are fixed by convention (m2, MJ, km/h,
MJ per person-km, minutes) and never embedded in the file. The fingerprint
hashes the canonical form of the parsed document, so it changes iff a
semantically relevant byte changes. :func:`read_json` reads this file, and
the scenario and profiles files too.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path

from .energy import equipment_energy
from .errors import ConfigError
from .model import NON_NEGATIVE, FactorTable, SiteInventory, check_fields, declared


@dataclass(frozen=True)
class QualityRules:
    """Thresholds for excluding low-quality entries and untypical workdays.

    Defaults: at least 4 h of work, at least 8 h recorded in total, and at
    most 100 min absolute difference between the travel activity and the sum
    of the per-mode times.
    """

    min_work_minutes: float = declared(NON_NEGATIVE, default=240.0)
    min_total_minutes: float = declared(NON_NEGATIVE, default=480.0)
    max_mode_mismatch_minutes: float = declared(NON_NEGATIVE, default=100.0)
    exclude_multi_location: bool = True

    def __post_init__(self):
        check_fields(self)
        if not isinstance(self.exclude_multi_location, bool):
            value = self.exclude_multi_location
            raise ValueError(f"exclude_multi_location must be true or false, got {value!r}")


#: The keys of each section, as the fields of the type it is read into.
_INVENTORY_KEYS, _FACTOR_KEYS, _RULE_KEYS = (
    {f.name for f in fields(cls)} for cls in (SiteInventory, FactorTable, QualityRules)
)


@dataclass(frozen=True)
class AppConfig:
    """Validated contents of one configuration file."""

    inventory: SiteInventory
    factors: FactorTable
    quality_rules: QualityRules
    fingerprint: str
    path: str


def shipped_config_path() -> Path:
    """The bundled reference case's configuration file."""
    return Path(__file__).with_name("data") / "reference_config.json"


def shipped_diaries_path() -> Path:
    """The bundled reference case's 250-day diary set."""
    return Path(__file__).with_name("data") / "reference_diaries.csv"


def config_fingerprint(payload: dict) -> str:
    """SHA-256 over the canonical JSON form of the parsed document."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def read_json(path: Path, kind: str):
    """The parsed ``kind`` file (config, scenario or profiles) at ``path``; one
    that cannot be read or is not JSON raises :class:`ConfigError` naming it."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {kind} file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON is UTF-8
        raise ConfigError(f"{kind} file {path} is not valid JSON: {exc}") from exc


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
    a number outside its field's domain surfaces with the same type. A factor
    table the inventory cannot use raises the factor errors of
    :class:`FactorTable` and :func:`equipment_energy` as they are.
    """
    path = Path(path)
    payload = read_json(path, "config")
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
    equipment_energy(inventory, factors)  # every device kind has a factor

    return AppConfig(
        inventory=inventory,
        factors=factors,
        quality_rules=rules,
        fingerprint=config_fingerprint(payload),
        path=str(path),
    )
