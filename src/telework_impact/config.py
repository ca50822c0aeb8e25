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

A section holds the fields of its dataclass (:func:`.model.read_object`),
each unless it has a default, and no other key. Each number must lie in the
domain its field declares (see :mod:`.model`): a real is finite, a whole
number is at most ``2**53``, and a bool or text such as ``"14"`` is refused.
Units are fixed by convention (m2, MJ, km/h, MJ per person-km, minutes) and
never embedded in the file. The fingerprint hashes the canonical form of
the parsed document, so it changes iff a semantically relevant byte
changes. :func:`read_json` reads this file, and the scenario and profiles
files too; each must hold a JSON object.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .energy import equipment_energy
from .errors import ConfigError
from .model import NON_NEGATIVE, FactorTable, SiteInventory, check_fields, declared, read_object


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


#: The sections of a config file and the types they are read into.
_SECTIONS = {
    "site_inventory": SiteInventory, "factor_table": FactorTable, "quality_rules": QualityRules
}


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


def read_json(path: Path, kind: str) -> dict:
    """The JSON object of the ``kind`` file (config, scenario or profiles) at
    ``path``; one that cannot be read, is not JSON or holds no object raises
    :class:`ConfigError` naming it."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {kind} file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON is UTF-8
        raise ConfigError(f"{kind} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{kind} file {path} must contain a JSON object")
    return payload


def load_config(path: str | Path) -> AppConfig:
    """Load and validate a configuration file.

    Raises :class:`ConfigError` naming the file for any structural problem;
    a key outside a section's fields or a number outside its field's domain
    surfaces with the same type. A factor table the inventory cannot use
    raises the factor errors of :class:`FactorTable` and
    :func:`equipment_energy` as they are.
    """
    path = Path(path)
    payload = read_json(path, "config")
    if extra := payload.keys() - _SECTIONS:
        raise ConfigError(f"config {path}: unknown top-level keys: {sorted(extra)}")
    try:
        inventory, factors, rules = (
            read_object(cls, payload.get(name, {}), name) for name, cls in _SECTIONS.items()
        )
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
