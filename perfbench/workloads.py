"""Seeded input generator for the three benchmark workloads.

Each builder writes every input the program will read into one directory
and returns a :class:`Case`: the CLI invocations of one iteration, each with
the oracle check for its artifacts. The same seed gives byte-identical
files. Generation is never timed.

The generator reads the shipped reference diaries and configuration as plain
CSV and JSON; the program only ever sees the files written here.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import oracle

#: 250 reference rows repeated this many times (250k rows).
INGEST_COPIES = 1000
VALIDATE_ROWS = 100_000
SWEEP_POINTS = 20_000
SWEEP_PARAMETER = "coworker_count"
BREAKEVEN_PARAMETERS = ("coworker_count", "floor_area_m2", "workdays_per_year")
BREAKEVEN_TOLERANCE = 1e-6
#: Known locations that the quality filter excludes.
EXCLUDED_LOCATIONS = ("multiple", "other")

#: Planted faults of validate_dirty and the share of rows each takes; the
#: rest are clean copies of reference rows. Together they reach every
#: RejectReason. The ``nan_minutes`` plant (non-finite rows, which the
#: package should reject) is not among them: the package keeps such rows
#: (ROADMAP item 4), and a benchmark workload must be one the program gets
#: right. test_perfbench.py checks those rows on their own.
PLANTS = (
    ("bad_date", 0.04),
    ("non_numeric", 0.04),
    ("short_row", 0.03),
    ("unknown_location", 0.03),
    ("excluded_location", 0.03),
    ("work_short", 0.04),
    ("total_short", 0.03),
    ("mode_mismatch", 0.04),
    ("mismatch_and_excluded", 0.01),
)


@dataclass(frozen=True)
class Invocation:
    """One CLI run: ``telework-impact <argv>`` writing into ``out``."""

    label: str
    argv: list[str]
    out: Path
    #: Items (rows, points, roots) whose result the oracle checks.
    attempted: int
    #: Returns how many of the attempted items differ from the oracle.
    check: Callable[[Path], int]
    #: Items that count towards ``items_per_s``; 0 leaves the run out of it.
    throughput_items: int = 0


@dataclass(frozen=True)
class Case:
    name: str
    config: Path
    invocations: list[Invocation]


def reference_paths(root: Path) -> tuple[Path, Path]:
    data = root / "src" / "telework_impact" / "data"
    return data / "reference_diaries.csv", data / "reference_config.json"


def _read_reference(root: Path) -> tuple[list[list[str]], dict]:
    diaries, config = reference_paths(root)
    rows = list(oracle.read_diary(diaries))
    return rows, json.loads(config.read_text(encoding="utf-8"))


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(oracle.HEADER)
        writer.writerows(rows)


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _all_or_nothing(check: Callable[[Path], bool], attempted: int, out: Path) -> int:
    return 0 if check(out) else attempted


# ------------------------------------------------------------- ingest_clean


def ingest_clean(seed: int, directory: Path, root: Path, copies: int = INGEST_COPIES) -> Case:
    """Reference diaries repeated ``copies`` times in a seeded order; every
    copy suffixes the participant id, so no (participant, date) repeats."""
    reference, config = _read_reference(root)
    rng = random.Random(seed)
    order = list(range(copies * len(reference)))
    rng.shuffle(order)
    diaries = directory / "diaries.csv"

    def rows():
        for index in order:
            copy, r = divmod(index, len(reference))
            fields = reference[r]
            yield [f"{fields[0]}-{copy:04d}", *fields[1:]]

    _write_csv(diaries, rows())
    config_path = _write_json(directory / "config.json", config)

    profiles = oracle.profile_means(oracle.read_diary(diaries))
    deltas = {}
    for baseline in ("employer_office", "home"):
        model = oracle.Model.build(
            config,
            profiles["coworking"]["mean_mode_minutes"],
            profiles[baseline]["mean_mode_minutes"],
        )
        deltas[baseline] = {k: v for k, v in model.components().items() if k != "credit_mj"}
    expected = {"rows": len(order), "profiles": profiles, "deltas": deltas}

    out = directory / "out_delta"
    argv = ["delta", "--config", str(config_path), "--diaries", str(diaries),
            "--baseline", "both", "--out", str(out)]
    check = partial(_all_or_nothing, partial(oracle.check_delta, expected=expected), len(order))
    return Case("ingest_clean", config_path, [
        Invocation("delta", argv, out, len(order), check, throughput_items=len(order)),
    ])


# ----------------------------------------------------------- validate_dirty


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def plant(kind: str, fields: list[str], rng: random.Random) -> list[str]:
    """Return a copy of a clean reference row carrying the fault ``kind``."""
    fields = list(fields)
    if kind == "bad_date":
        fields[1] = rng.choice(["2019-02-30", "2019/09/02", "02.09.2019", ""])
    elif kind == "non_numeric":
        fields[rng.randrange(3, len(fields))] = rng.choice(["abc", "n/a", "12,5", "-"])
    elif kind == "short_row":
        del fields[rng.randint(5, len(fields) - 1):]
    elif kind == "unknown_location":
        fields[2] = rng.choice(["cafe", "library", "client_site", "train"])
    elif kind == "excluded_location":
        fields[2] = rng.choice(EXCLUDED_LOCATIONS)
    elif kind == "work_short":
        fields[4] = _fmt(rng.uniform(60.0, 200.0))
    elif kind == "total_short":
        # Work passes; a shortened day keeps travel equal to its modes.
        fields[4] = _fmt(rng.uniform(250.0, 300.0))
        fields[5] = _fmt(rng.uniform(0.0, 20.0))
        fields[6] = _fmt(rng.uniform(0.0, 40.0))
        for i in (3, 7, 8, 9, 10, 11):
            fields[i] = _fmt(float(fields[i]) * 0.3)
    elif kind in ("mode_mismatch", "mismatch_and_excluded"):
        fields[3] = _fmt(float(fields[3]) + rng.uniform(150.0, 300.0))
        if kind == "mismatch_and_excluded":
            fields[2] = rng.choice(EXCLUDED_LOCATIONS)
    elif kind == "nan_minutes":
        fields[3] = "nan"
        fields[7] = "nan"
    elif kind != "clean":
        raise ValueError(f"unknown plant {kind!r}")
    return fields


def validate_dirty(seed: int, directory: Path, root: Path, n_rows: int = VALIDATE_ROWS,
                   plants=PLANTS) -> Case:
    """Seeded reference rows, about 29% with a planted fault.

    For every row the oracle records the expected primary outcome: kept, or
    the first failing rule in RejectReason order.
    """
    reference, config = _read_reference(root)
    rng = random.Random(seed)
    rules = {**oracle.DEFAULT_RULES, **config.get("quality_rules", {})}
    expected: list[tuple[str, str]] = []
    rows = []
    for i in range(n_rows):
        template = rng.choice(reference)
        draw, kind = rng.random(), "clean"
        for name, share in plants:
            if draw < share:
                kind = name
                break
            draw -= share
        fields = plant(kind, [f"V{i:06d}", *template[1:]], rng)
        rows.append(fields)
        expected.append((fields[0], oracle.expected_outcome(fields, rules)))
    diaries = directory / "diaries.csv"
    _write_csv(diaries, rows)
    config_path = _write_json(directory / "config.json", config)

    out = directory / "out_validate"
    argv = ["validate", "--config", str(config_path), "--diaries", str(diaries), "--out", str(out)]
    check = partial(oracle.check_rejections, expected=expected)
    return Case("validate_dirty", config_path, [
        Invocation("validate", argv, out, n_rows, check, throughput_items=n_rows),
    ])


# ----------------------------------------------------------- scenario_sweep


def scenario_sweep(seed: int, directory: Path, root: Path, n_points: int = SWEEP_POINTS) -> Case:
    """Stored profiles, a scenario with a floor-space credit and a modal
    override, one long coworker_count sweep and three break-even searches
    whose brackets hold the closed-form root."""
    reference, config = _read_reference(root)
    rng = random.Random(seed)
    profiles = oracle.profile_means(rng.choices(reference, k=200))
    profiles_path = _write_json(directory / "profiles.json", oracle.profiles_payload(profiles))
    cw_modes = {
        "walk": round(rng.uniform(5.0, 30.0), 2),
        "bike": round(rng.uniform(5.0, 30.0), 2),
        "car": round(rng.uniform(0.0, 10.0), 2),
        "public_transport": round(rng.uniform(10.0, 40.0), 2),
    }
    scenario = {
        "name": f"bench-{seed}",
        "floor_space_credit_m2": round(rng.uniform(5.0, 30.0), 2),
        "credit_intensity_mj_per_m2_year": round(rng.uniform(1500.0, 2500.0), 1),
        "modal_override": {"coworking": cw_modes},
    }
    scenario_path = _write_json(directory / "scenario.json", scenario)
    config_path = _write_json(directory / "config.json", config)
    model = oracle.Model.build(
        config, cw_modes, profiles["employer_office"]["mean_mode_minutes"], scenario
    )

    values: set[float] = set()
    while len(values) < n_points:
        values.add(round(rng.uniform(1.0, 5000.0), 3))
    ordered = sorted(values)
    rng.shuffle(ordered)
    common = ["--config", str(config_path), "--profiles", str(profiles_path),
              "--scenario", str(scenario_path)]
    out = directory / "out_sweep"
    invocations = [Invocation(
        "sweep",
        ["sweep", *common, "--parameter", SWEEP_PARAMETER,
         "--values", *map(repr, ordered), "--out", str(out)],
        out,
        n_points,
        partial(oracle.check_sweep, parameter=SWEEP_PARAMETER, values=ordered, model=model),
        throughput_items=n_points,
    )]
    for parameter in BREAKEVEN_PARAMETERS:
        root_value = model.root(parameter)
        if not root_value > 0:
            raise ValueError(f"seed {seed} gives no positive {parameter} root")
        lo = round(root_value * rng.uniform(0.3, 0.9), 3)
        hi = round(root_value * rng.uniform(1.2, 3.0), 3)
        out = directory / f"out_breakeven_{parameter}"
        check = partial(
            _all_or_nothing,
            partial(oracle.check_breakeven, parameter=parameter,
                    tolerance=BREAKEVEN_TOLERANCE, model=model),
            1,
        )
        invocations.append(Invocation(
            f"breakeven_{parameter}",
            ["breakeven", *common, "--parameter", parameter, "--bounds", repr(lo), repr(hi),
             "--tolerance", repr(BREAKEVEN_TOLERANCE), "--out", str(out)],
            out,
            1,
            check,
        ))
    return Case("scenario_sweep", config_path, invocations)


BUILDERS = {
    "ingest_clean": ingest_clean,
    "validate_dirty": validate_dirty,
    "scenario_sweep": scenario_sweep,
}
