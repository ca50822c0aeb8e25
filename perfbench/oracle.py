"""Independent oracle for the benchmark's artifacts.

Nothing here imports the package under test. Means come from the diary CSV
read with :mod:`csv` and summed with :func:`math.fsum`; energies come from
the closed forms of the per-coworker-day model. Floats are compared within
``REL_TOL`` of the magnitudes involved, never byte for byte, so that a
change of summation order (numpy pairwise sums versus a columnar pass) still
passes while a wrong value does not.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from dataclasses import dataclass
from pathlib import Path

REL_TOL = 1e-9

ACTIVITY_COLUMNS = {
    "travel_min": "travel",
    "work_min": "work",
    "chores_min": "everyday_chores",
    "leisure_min": "leisure",
}
MODE_COLUMNS = {
    "walk_min": "walk",
    "bike_min": "bike",
    "car_min": "car",
    "pt_min": "public_transport",
    "other_mode_min": "other",
}
HEADER = ["participant_id", "date", "location", *ACTIVITY_COLUMNS, *MODE_COLUMNS]
DAY_TYPES = {"office": "employer_office", "coworking": "coworking", "home": "home"}

KEPT = "KEPT"
#: Expected outcome of a row holding a non-finite number: rejected, with a
#: reason the package is free to name.
ANY_REJECTION = "ANY_REJECTION"
PARSE_ERROR = "PARSE_ERROR"

DEFAULT_RULES = {
    "min_work_minutes": 240.0,
    "min_total_minutes": 480.0,
    "max_mode_mismatch_minutes": 100.0,
}
MINUTES_PER_DAY = 1440.0


def close(actual, expected: float, scale: float | None = None) -> bool:
    """True when ``actual`` is a finite number within REL_TOL of ``expected``."""
    if not isinstance(actual, (int, float)) or isinstance(actual, bool):
        return False
    if not math.isfinite(actual):
        return False
    return abs(actual - expected) <= REL_TOL * max(abs(expected), scale or 0.0, 1e-12)


# ---------------------------------------------------------------- diary rules


def expected_outcome(fields: list[str], rules: dict = DEFAULT_RULES) -> str:
    """Primary outcome of one diary row: KEPT, a reason, or ANY_REJECTION.

    Rules are checked in the package's documented order; a row that is not
    a well-formed day is a PARSE_ERROR.
    """
    if len(fields) != len(HEADER):
        return PARSE_ERROR
    try:
        dt.date.fromisoformat(fields[1].strip())
        values = [float(v) for v in fields[3:]]
    except ValueError:
        return PARSE_ERROR
    if not all(math.isfinite(v) for v in values):
        return ANY_REJECTION
    activities, modes = values[:4], values[4:]
    if any(v < 0 for v in values):
        return PARSE_ERROR
    if math.fsum(activities) > MINUTES_PER_DAY or math.fsum(modes) > MINUTES_PER_DAY:
        return PARSE_ERROR
    if activities[1] < rules["min_work_minutes"]:
        return "WORK_TOO_SHORT"
    if math.fsum(activities) < rules["min_total_minutes"]:
        return "TOTAL_TOO_SHORT"
    if abs(activities[0] - math.fsum(modes)) > rules["max_mode_mismatch_minutes"]:
        return "MODE_MISMATCH"
    if fields[2].strip() not in DAY_TYPES:
        return "EXCLUDED_LOCATION"
    return KEPT


# ------------------------------------------------------------------ profiles


class _Sum:
    """Running math.fsum that folds its terms every few thousand values."""

    __slots__ = ("terms",)

    def __init__(self):
        self.terms: list[float] = []

    def add(self, value: float) -> None:
        self.terms.append(value)
        if len(self.terms) >= 4096:
            self.terms = [math.fsum(self.terms)]

    def total(self) -> float:
        return math.fsum(self.terms)


def profile_means(rows) -> dict:
    """Per-day-type day count and mean minutes from clean diary rows.

    ``rows`` yields CSV field lists (header excluded); every row must be a
    kept day.
    """
    sums = {
        day_type: {key: _Sum() for key in (*ACTIVITY_COLUMNS.values(), *MODE_COLUMNS.values())}
        for day_type in DAY_TYPES.values()
    }
    counts = dict.fromkeys(DAY_TYPES.values(), 0)
    keys = [*ACTIVITY_COLUMNS.values(), *MODE_COLUMNS.values()]
    for fields in rows:
        day_type = DAY_TYPES[fields[2]]
        counts[day_type] += 1
        bucket = sums[day_type]
        for key, text in zip(keys, fields[3:]):
            bucket[key].add(float(text))
    profiles = {}
    for day_type, count in counts.items():
        if not count:
            raise ValueError(f"no {day_type} days in the oracle input")
        means = {key: acc.total() / count for key, acc in sums[day_type].items()}
        profiles[day_type] = {
            "day_count": count,
            "mean_activity_minutes": {k: means[k] for k in ACTIVITY_COLUMNS.values()},
            "mean_mode_minutes": {k: means[k] for k in MODE_COLUMNS.values()},
        }
    return profiles


def profiles_payload(profiles: dict) -> dict:
    """The stored-profiles JSON document, shares recomputed from the means."""
    out = {}
    for day_type, body in profiles.items():
        modes = body["mean_mode_minutes"]
        total = math.fsum(modes.values())
        out[day_type] = {
            **body,
            "mode_share": {k: (v / total if total > 0 else 0.0) for k, v in modes.items()},
        }
    return {"profiles": out}


def read_diary(path: Path):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        yield from reader


# -------------------------------------------------------------- energy model


@dataclass(frozen=True)
class Model:
    """Closed forms of the per-coworker-day model.

    For a swept parameter ``x`` the scenario net is ``a + b/x`` (coworkers,
    workdays) or ``a + b*x`` (floor area), so each root is exact.
    """

    floor_area: float
    coworkers: float
    workdays: float
    facility_intensity: float
    equipment: float
    travel: float
    credit_m2: float = 0.0
    credit_intensity: float = 0.0

    @classmethod
    def build(cls, config: dict, cw_modes: dict, baseline_modes: dict, scenario: dict | None = None):
        site, factors = config["site_inventory"], config["factor_table"]
        scenario = scenario or {}
        equipment = math.fsum(
            n * factors["device_daily_energy"][kind] for kind, n in site["device_counts"].items()
        ) / site["workplace_count"]
        return cls(
            floor_area=float(site["floor_area_m2"]),
            coworkers=float(site["coworker_count"]),
            workdays=float(site["workdays_per_year"]),
            facility_intensity=math.fsum(factors["facility_intensity"].values()),
            equipment=equipment,
            travel=travel_mj(cw_modes, factors) - travel_mj(baseline_modes, factors),
            credit_m2=float(scenario.get("floor_space_credit_m2", 0.0)),
            credit_intensity=float(scenario.get("credit_intensity_mj_per_m2_year", 0.0)),
        )

    def components(self, parameter: str | None = None, value: float | None = None) -> dict:
        area, coworkers, workdays = self.floor_area, self.coworkers, self.workdays
        if parameter == "floor_area_m2":
            area = value
        elif parameter == "coworker_count":
            coworkers = value
        elif parameter == "workdays_per_year":
            workdays = value
        elif parameter is not None:
            raise ValueError(f"the oracle does not model parameter {parameter!r}")
        divisor = coworkers * workdays
        facility = area * self.facility_intensity / divisor
        credit = self.credit_m2 * self.credit_intensity / divisor
        net = math.fsum((facility, self.equipment, self.travel, -credit))
        return {
            "facility_mj": facility,
            "equipment_mj": self.equipment,
            "travel_mj": self.travel,
            "credit_mj": credit,
            "net_mj": net,
        }

    def root(self, parameter: str) -> float:
        """Exact zero of the net in ``parameter``, the others held fixed."""
        a = self.equipment + self.travel
        if parameter == "floor_area_m2":
            # a + (x*I - C) / (N*W) = 0
            return (self.credit_m2 * self.credit_intensity - a * self.coworkers * self.workdays) / (
                self.facility_intensity
            )
        b = self.floor_area * self.facility_intensity - self.credit_m2 * self.credit_intensity
        if parameter == "coworker_count":
            return -(b / self.workdays) / a
        if parameter == "workdays_per_year":
            return -(b / self.coworkers) / a
        raise ValueError(f"the oracle does not model parameter {parameter!r}")


def travel_mj(mode_minutes: dict, factors: dict) -> float:
    return math.fsum(
        minutes / 60.0 * factors["mode_speed"][mode] * factors["mode_energy"][mode]
        for mode, minutes in mode_minutes.items()
    )


def _components_match(actual: dict, expected: dict) -> bool:
    scale = math.fsum(abs(v) for k, v in expected.items() if k != "net_mj")
    return all(close(actual.get(k), v, scale) for k, v in expected.items())


def _load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _read_csv(path: Path) -> list[dict] | None:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            return list(csv.DictReader(handle))
    except OSError:
        return None


def _float_or_none(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


# ------------------------------------------------------------ artifact checks


def check_delta(out: Path, expected: dict) -> bool:
    """ingest_clean: row counts, profile means and both deltas match."""
    report = _load_json(out / "report.json")
    delta_json = _load_json(out / "delta.json")
    delta_csv = _read_csv(out / "delta.csv")
    if report is None or delta_json is None or delta_csv is None:
        return False
    summary = report.get("input_summary", {})
    if (summary.get("rows_parsed"), summary.get("kept"), summary.get("rejected")) != (
        expected["rows"],
        expected["rows"],
        0,
    ):
        return False
    for day_type, body in expected["profiles"].items():
        got = report.get("profiles", {}).get(day_type, {})
        if got.get("day_count") != body["day_count"]:
            return False
        for section in ("mean_activity_minutes", "mean_mode_minutes"):
            for key, mean in body[section].items():
                if not close(got.get(section, {}).get(key), mean):
                    return False
    csv_deltas = [
        {k: v if k == "baseline" else _float_or_none(v) for k, v in row.items()} for row in delta_csv
    ]
    for deltas in (delta_json.get("deltas", []), report.get("deltas", []), csv_deltas):
        by_baseline = {d.get("baseline"): d for d in deltas}
        if set(by_baseline) != set(expected["deltas"]):
            return False
        if not all(_components_match(by_baseline[b], want) for b, want in expected["deltas"].items()):
            return False
    return True


def check_rejections(out: Path, expected: list[tuple[str, str]]) -> int:
    """validate_dirty: number of rows whose outcome differs from the oracle.

    ``expected[i]`` is ``(participant_id, outcome)`` for the data row on
    file line ``i + 2``. A row missing from ``rejections.csv`` was kept.
    """
    rows = _read_csv(out / "rejections.csv")
    report = _load_json(out / "report.json")
    if rows is None or report is None:
        return len(expected)
    summary = report.get("input_summary", {})
    if summary.get("rows_parsed") != len(expected) or summary.get("rejected") != len(rows):
        return len(expected)
    actual: dict[int, tuple[str, str]] = {}
    for row in rows:
        try:
            actual[int(row["row"]) - 2] = (row["participant_id"], row["reason"])
        except (KeyError, TypeError, ValueError):
            return len(expected)
    if any(not 0 <= index < len(expected) for index in actual):
        return len(expected)
    failed = 0
    for index, (pid, outcome) in enumerate(expected):
        got = actual.get(index)
        if got is None:
            failed += outcome != KEPT
        elif got[0] != pid:
            failed += 1
        elif outcome == ANY_REJECTION:
            failed += got[1] == KEPT
        else:
            failed += got[1] != outcome
    return failed


def check_sweep(out: Path, parameter: str, values: list[float], model: Model) -> int:
    """scenario_sweep: number of sweep points that differ from ``a + b/x``."""
    sweep_json = _load_json(out / "sweep.json")
    report = _load_json(out / "report.json")
    sweep_csv = _read_csv(out / "sweep.csv")
    if sweep_json is None or report is None or sweep_csv is None:
        return len(values)
    tables = [sweep_json.get("points", []), report.get("sweep", {}).get("points", []), sweep_csv]
    if any(len(table) != len(values) for table in tables):
        return len(values)
    if sweep_json.get("parameter") != parameter:
        return len(values)
    failed = 0
    for i, value in enumerate(sorted(values)):
        want = model.components(parameter, value)
        ok = True
        for table in tables:
            point = {k: _float_or_none(v) if isinstance(v, str) else v for k, v in table[i].items()}
            if point.get("value") != value or not _components_match(point, want):
                ok = False
                break
        failed += not ok
    return failed


def check_breakeven(out: Path, parameter: str, tolerance: float, model: Model) -> bool:
    """scenario_sweep: the reported root lies within ``tolerance`` of -b/a."""
    payload = _load_json(out / "breakeven.json")
    report = _load_json(out / "report.json")
    rows = _read_csv(out / "breakeven.csv")
    if payload is None or report is None or not rows:
        return False
    want = model.root(parameter)
    slack = tolerance + REL_TOL * abs(want)
    roots = [payload.get("root"), report.get("breakeven", {}).get("root"), _float_or_none(rows[0].get("value"))]
    return payload.get("parameter") == parameter and all(
        isinstance(r, float) and abs(r - want) <= slack for r in roots
    )
