import argparse
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from telework_impact import cli
from telework_impact import energy as energy_module
from telework_impact import sweep_writer
from telework_impact.aggregation import profiles_to_dict
from telework_impact.diary import DIARY_HEADER, SPLIT_MIN_BYTES, RejectReason
from telework_impact.scenario import SWEEP_PARAMETERS

HEADER = ",".join(DIARY_HEADER)

#: The environment of a child interpreter that imports this checkout's package.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}

CLEAN_ROWS = [
    "P01,2024-03-04,office,120,510,60,90,10,10,40,60,0",
    "P02,2024-03-04,office,140,520,60,90,10,10,40,80,0",
    "P03,2024-03-04,coworking,60,505,70,100,20,20,10,10,0",
    "P04,2024-03-04,coworking,80,500,70,100,30,20,20,10,0",
    "P05,2024-03-04,home,30,490,120,120,0,0,30,0,0",
]

BAD_ROWS = [
    "P01,2024-03-04,office,120,100,300,200,0,0,120,0,0",
    "P02,not-a-date,office,60,500,100,100,0,0,60,0,0",
    "P03,2024-03-04,other,60,500,100,100,0,0,60,0,0",
]


def write_diaries(tmp_path, rows, name="diaries.csv"):
    path = tmp_path / name
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = cli.main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


class TestValidate:
    def test_clean_input_exit_0(self, run, tmp_path, ref_config_path):
        diaries = write_diaries(tmp_path, CLEAN_ROWS)
        code, out, _ = run(
            "validate", "--config", ref_config_path, "--diaries", diaries,
            "--out", tmp_path / "out",
        )
        assert code == 0
        assert "kept 5" in out
        assert read_csv(tmp_path / "out" / "rejections.csv") == [list(("row", "participant_id", "date", "reason"))]

    def test_all_rejected_exit_2(self, run, tmp_path, ref_config_path):
        diaries = write_diaries(tmp_path, BAD_ROWS)
        code, _, _ = run(
            "validate", "--config", ref_config_path, "--diaries", diaries,
            "--out", tmp_path / "out",
        )
        assert code == 2
        rows = read_csv(tmp_path / "out" / "rejections.csv")
        assert len(rows) == 4
        reasons = {row[3] for row in rows[1:]}
        assert reasons == {"WORK_TOO_SHORT", "PARSE_ERROR", "EXCLUDED_LOCATION"}

    def test_rejection_rows_name_source_rows(self, run, tmp_path, ref_config_path):
        diaries = write_diaries(tmp_path, BAD_ROWS)
        run("validate", "--config", ref_config_path, "--diaries", diaries, "--out", tmp_path / "o")
        rows = read_csv(tmp_path / "o" / "rejections.csv")[1:]
        assert [row[0] for row in rows] == ["2", "3", "4"]

    def test_missing_config_exit_1(self, run, tmp_path):
        diaries = write_diaries(tmp_path, CLEAN_ROWS)
        code, _, err = run(
            "validate", "--config", tmp_path / "absent.json", "--diaries", diaries,
            "--out", tmp_path / "out",
        )
        assert code == 1
        assert "absent.json" in err

    def test_missing_diaries_exit_1(self, run, tmp_path, ref_config_path):
        code, _, err = run(
            "validate", "--config", ref_config_path, "--diaries", tmp_path / "absent.csv",
            "--out", tmp_path / "out",
        )
        assert code == 1
        assert "absent.csv" in err

    def test_bad_header_exit_1(self, run, tmp_path, ref_config_path):
        diaries = tmp_path / "bad.csv"
        diaries.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        code, _, err = run(
            "validate", "--config", ref_config_path, "--diaries", diaries,
            "--out", tmp_path / "out",
        )
        assert code == 1
        assert "header" in err

    def test_duplicate_days_are_rows_seen(self, run, tmp_path, ref_config_path):
        diaries = write_diaries(tmp_path, CLEAN_ROWS + CLEAN_ROWS[:2] + BAD_ROWS[1:2])
        code, out, _ = run(
            "validate", "--config", ref_config_path, "--diaries", diaries,
            "--out", tmp_path / "out",
        )
        assert code == 0
        summary = json.loads((tmp_path / "out" / "report.json").read_text())["input_summary"]
        assert summary["rows_parsed"] == 8 and summary["kept"] == 5
        assert summary["rejected_by_reason"] == {"DUPLICATE_DAY": 2, "PARSE_ERROR": 1}
        rows = read_csv(tmp_path / "out" / "rejections.csv")[1:]
        assert [(row[0], row[3]) for row in rows] == [
            ("7", "DUPLICATE_DAY"), ("8", "DUPLICATE_DAY"), ("9", "PARSE_ERROR")
        ]
        assert "parsed 8 rows" in out

    def test_bool_floor_area_exit_1(self, run, tmp_path, ref_config_path):
        config = json.loads(Path(ref_config_path).read_text(encoding="utf-8"))
        config["site_inventory"]["floor_area_m2"] = True
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        diaries = write_diaries(tmp_path, CLEAN_ROWS)
        code, _, err = run(
            "validate", "--config", path, "--diaries", diaries, "--out", tmp_path / "out",
        )
        assert code == 1
        assert "floor_area_m2 must be a number, got True" in err

    def test_env_var_config_fallback(self, run, tmp_path, ref_config_path, monkeypatch):
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(ref_config_path))
        diaries = write_diaries(tmp_path, CLEAN_ROWS)
        code, _, _ = run("validate", "--diaries", diaries, "--out", tmp_path / "out")
        assert code == 0

    def test_no_config_anywhere_exit_1(self, run, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
        diaries = write_diaries(tmp_path, CLEAN_ROWS)
        code, _, err = run("validate", "--diaries", diaries, "--out", tmp_path / "out")
        assert code == 1
        assert cli.CONFIG_ENV_VAR in err


class TestProfile:
    def test_reference_profiles(self, run, tmp_path, ref_config_path, ref_diaries_path):
        out = tmp_path / "out"
        code, stdout, _ = run(
            "profile", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--out", out,
        )
        assert code == 0
        rows = read_csv(out / "profiles.csv")
        travel = next(
            row for row in rows
            if row[:3] == ["employer_office", "mean_activity_minutes", "travel"]
        )
        assert float(travel[3]) == pytest.approx(133.0, abs=1e-9)
        assert (out / "profiles.json").exists()
        assert (out / "plot_data.csv").exists()
        payload = json.loads((out / "profiles.json").read_text())
        assert payload["profiles"]["coworking"]["day_count"] == 80

    def test_missing_day_type_exit_2(self, run, tmp_path, ref_config_path):
        diaries = write_diaries(tmp_path, CLEAN_ROWS[:4])  # no home days
        out = tmp_path / "out"
        code, _, err = run(
            "profile", "--config", ref_config_path, "--diaries", diaries, "--out", out
        )
        assert code == 2
        assert "home" in err
        rows = read_csv(out / "profiles.csv")
        home_count = next(row for row in rows if row[:2] == ["home", "day_count"])
        assert home_count[3] == "0"


class TestDelta:
    def test_reference_delta(self, run, tmp_path, ref_config_path, ref_diaries_path):
        out = tmp_path / "out"
        code, stdout, _ = run(
            "delta", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--baseline", "office", "--out", out,
        )
        assert code == 0
        payload = json.loads((out / "delta.json").read_text())
        (delta,) = payload["deltas"]
        assert delta["facility_mj"] == pytest.approx(23.97, abs=1e-9)
        assert delta["equipment_mj"] == pytest.approx(2.03, abs=1e-9)
        assert delta["travel_mj"] == pytest.approx(-21.95, abs=1e-9)
        assert delta["net_mj"] == pytest.approx(4.05, abs=1e-9)
        assert "+23.97" in stdout and "-21.95" in stdout

    def test_both_baselines(self, run, tmp_path, ref_config_path, ref_diaries_path):
        out = tmp_path / "out"
        code, _, _ = run(
            "delta", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--baseline", "both", "--out", out,
        )
        assert code == 0
        rows = read_csv(out / "delta.csv")
        assert [row[0] for row in rows[1:]] == ["employer_office", "home"]

    def test_non_finite_factor_exit_1(self, run, tmp_path, ref_config_path, ref_diaries_path):
        config = json.loads(Path(ref_config_path).read_text(encoding="utf-8"))
        config["factor_table"]["mode_energy"]["car"] = float("nan")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")  # writes a bare NaN
        code, _, err = run(
            "delta", "--config", path, "--diaries", ref_diaries_path, "--out", tmp_path / "out",
        )
        assert code == 1
        assert "mode_energy.car is not finite: nan" in err
        assert not (tmp_path / "out" / "delta.json").exists()

    @pytest.mark.parametrize("value, shown", [(True, "True"), ("0.5", "'0.5'")])
    def test_bool_or_text_factor_exit_1(
        self, run, tmp_path, ref_config_path, ref_diaries_path, value, shown
    ):
        config = json.loads(Path(ref_config_path).read_text(encoding="utf-8"))
        config["factor_table"]["mode_energy"]["car"] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run(
            "delta", "--config", path, "--diaries", ref_diaries_path, "--out", tmp_path / "out",
        )
        assert code == 1
        assert f"mode_energy.car must be a number, got {shown}" in err
        assert not (tmp_path / "out" / "delta.json").exists()

    def test_missing_home_profile_exit_2(self, run, tmp_path, ref_config_path):
        diaries = write_diaries(tmp_path, CLEAN_ROWS[:4])
        code, _, err = run(
            "delta", "--config", ref_config_path, "--diaries", diaries,
            "--baseline", "home", "--out", tmp_path / "out",
        )
        assert code == 2
        assert "home" in err

    def test_format_csv_only(self, run, tmp_path, ref_config_path, ref_diaries_path):
        out = tmp_path / "out"
        code, _, _ = run(
            "delta", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--out", out, "--format", "csv",
        )
        assert code == 0
        assert (out / "delta.csv").exists()
        assert not (out / "delta.json").exists()

    def test_round_affects_console_not_files(self, run, tmp_path, ref_config_path, ref_diaries_path):
        out4 = tmp_path / "out4"
        code, stdout, _ = run(
            "delta", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--out", out4, "--round", "4",
        )
        assert code == 0
        assert "+4.05" in stdout
        rows = read_csv(out4 / "delta.csv")
        assert float(rows[1][1]) == pytest.approx(23.97, abs=1e-9)
        assert rows[1][1] != "23.97"  # full precision in the file


@pytest.mark.parametrize("command", ["validate", "profile", "delta"])
def test_negative_factor_refused_by_every_command(
    run, tmp_path, ref_config_path, ref_diaries_path, command
):
    config = json.loads(Path(ref_config_path).read_text(encoding="utf-8"))
    config["factor_table"]["mode_energy"]["car"] = -1.0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, _, err = run(
        command, "--config", path, "--diaries", ref_diaries_path, "--out", tmp_path / "out"
    )
    assert code == 1
    assert err == "error: negative factor mode_energy.car = -1.0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["delta"],
        ["sweep", "--parameter", "floor_area_m2", "--values", "100", "170"],
        ["breakeven", "--parameter", "coworker_count", "--bounds", "1", "1000"],
    ],
    ids=["delta", "sweep", "breakeven"],
)
@pytest.mark.parametrize(
    "group, key, component",
    [
        ("site_inventory", "floor_area_m2", "facility_mj_per_coworker_day"),
        ("device_daily_energy", "screen", "equipment_mj_per_coworker_day"),
    ],
    ids=["facility", "equipment"],
)
def test_overflowing_direct_component_is_an_input_error(
    run, tmp_path, ref_config_path, ref_diaries_path, argv, group, key, component
):
    """A config whose own facility or equipment MJ overflows is refused with
    the component named, even by a sweep whose points replace the area."""
    config = json.loads(Path(ref_config_path).read_text(encoding="utf-8"))
    section = config[group] if group in config else config["factor_table"][group]
    section[key] = 1e308
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, _, err = run(
        *argv, "--config", path, "--diaries", ref_diaries_path, "--out", tmp_path / "out"
    )
    assert code == 1
    assert err == f"error: {component} is not finite: inf\n"
    assert "Traceback" not in err


#: The three commands that evaluate the config, each on the shipped diaries.
_EVALUATING = {
    "delta": ["delta"],
    "sweep": ["sweep", "--parameter", "floor_area_m2", "--values", "100", "170"],
    "breakeven": ["breakeven", "--parameter", "floor_area_m2", "--bounds", "1", "1000"],
}


@pytest.mark.parametrize("argv", _EVALUATING.values(), ids=_EVALUATING)
@pytest.mark.parametrize(
    "where, name",
    [
        (("coworker_count",), "coworker_count must be <= 2**53"),
        (("workplace_count",), "workplace_count must be <= 2**53"),
        (("device_counts", "screen"), "device_counts[screen] must be <= 2**53"),
        (("workdays_per_year",), "workdays_per_year must be in [1, 366]"),
    ],
    ids=["coworkers", "workplaces", "screens", "workdays"],
)
def test_count_too_large_for_a_float_is_an_input_error(
    run, tmp_path, ref_config_path, ref_diaries_path, argv, where, name
):
    """Before, a count of 10**400 ended in an OverflowError traceback from
    the allocation, and a workdays count of 10**400 was echoed digit by digit."""
    config = json.loads(Path(ref_config_path).read_text(encoding="utf-8"))
    section = config["site_inventory"]
    for key in where[:-1]:
        section = section[key]
    section[where[-1]] = 10**400
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, _, err = run(
        *argv, "--config", path, "--diaries", ref_diaries_path, "--out", tmp_path / "out"
    )
    assert code == 1
    assert err == f"error: config {path}: {name}, got 1.000000e+400\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [_EVALUATING["sweep"], _EVALUATING["breakeven"]],
                         ids=["sweep", "breakeven"])
def test_override_too_large_for_a_float_is_an_input_error(
    run, tmp_path, ref_config_path, ref_diaries_path, argv
):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"overrides": {"coworker_count": 10**400}}), encoding="utf-8")
    out = tmp_path / "out"
    code, _, err = run(
        *argv, "--config", ref_config_path, "--diaries", ref_diaries_path,
        "--scenario", scenario, "--out", out,
    )
    assert code == 1
    assert err == "error: coworker_count must be <= 2**53, got 1.000000e+400\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["profile", "delta"])
def test_nan_minutes_of_a_kept_day_are_an_input_error(
    run, tmp_path, ref_config_path, ref_diaries_path, command
):
    """The read keeps a row whose minutes are NaN (ROADMAP item 1), so the
    co-working mean is NaN. Before, that ended in an uncaught ValueError."""
    rows = read_csv(ref_diaries_path)
    row = next(row for row in rows if row[2] == "coworking")
    row[3] = row[9] = "nan"  # travel_min and car_min
    diaries = write_diaries(tmp_path, [",".join(row) for row in rows[1:]])
    code, _, _ = run("validate", "--config", ref_config_path, "--diaries", diaries,
                     "--out", tmp_path / "validated")
    assert code == 0
    out = tmp_path / "out"
    code, _, err = run(command, "--config", ref_config_path, "--diaries", diaries, "--out", out)
    assert code == 1
    assert err == "error: coworking mean for travel is not finite: nan\n"
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "profile"])
def test_format_only_on_commands_that_write_tables(
    capsys, tmp_path, ref_config_path, ref_diaries_path, command
):
    argv = [command, "--config", ref_config_path, "--diaries", ref_diaries_path]
    with pytest.raises(SystemExit) as exc:
        cli.main([*map(str, argv), "--out", str(tmp_path / "out"), "--format", "json"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --format json" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option", ["--config", "--scenario", "--profiles"])
@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read {kind} file {path}: [Errno 2] No such file or directory: '{path}'"),
        (b"nope", "{kind} file {path} is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        (b"\xff{}", "{kind} file {path} is not valid JSON: 'utf-8' codec can't decode byte 0xff"
                    " in position 0: invalid start byte"),
        (b"[]", "{kind} file {path} must contain a JSON object"),
    ],
    ids=["missing", "not-json", "not-utf-8", "not-an-object"],
)
def test_json_file_that_cannot_be_read_exits_1(
    run, tmp_path, ref_config_path, ref_diaries_path, option, content, message
):
    """The config, scenario and profiles files are read alike, and a file
    that is missing or not JSON is refused by kind and path; before, one
    that is not UTF-8 ended in a traceback."""
    kind = option[2:]
    path = tmp_path / f"{kind}.json"
    if content is not None:
        path.write_bytes(content)
    files = {"--config": ref_config_path, "--diaries": ref_diaries_path, option: path}
    code, out, err = run(
        "sweep", *[item for pair in files.items() for item in pair],
        "--parameter", "coworker_count", "--values", 60, "--out", tmp_path / "out",
    )
    assert (code, out) == (1, "")
    assert err == f"error: {message.format(kind=kind, path=path)}\n"
    assert not (tmp_path / "out").exists()


def _renamed(mapping, old, new):
    mapping[new] = mapping.pop(old)


def _carr(document):
    """Car spelt ``carr`` in the stored co-working means, without the stored
    shares, which would no longer match them."""
    body = document["profiles"]["coworking"]
    del body["mode_share"]
    _renamed(body["mean_mode_minutes"], "car", "carr")


#: A key at each level of the three JSON inputs that is not one of its
#: fields or names: the input, the change to its valid document, and the
#: refusal's text after the file's name.
_UNKNOWN_KEYS = {
    "config": ("config", lambda d: d.update(sites={}), ": unknown top-level keys: ['sites']"),
    "site_inventory": (
        "config", lambda d: d["site_inventory"].update(floor_area_ft2=1830.0),
        ": unknown keys in site_inventory: ['floor_area_ft2']",
    ),
    "factor_table": (
        "config", lambda d: d["factor_table"].update(heat={}),
        ": unknown keys in factor_table: ['heat']",
    ),
    "quality_rules": (
        "config", lambda d: d.update(quality_rules={"min_work": 240}),
        ": unknown keys in quality_rules: ['min_work']",
    ),
    "facility_intensity": (
        "config", lambda d: d["factor_table"]["facility_intensity"].update(ventilation=900),
        ": 'ventilation' is not a valid FacilityComponent",
    ),
    "mode_speed": (
        "config", lambda d: _renamed(d["factor_table"]["mode_speed"], "car", "carr"),
        ": 'carr' is not a valid TransportMode",
    ),
    "scenario": ("scenario", lambda d: d.update(credit=3), ": unknown keys in scenario: ['credit']"),
    "modal_override day type": (
        "scenario", lambda d: d.update(modal_override={"cafe": {"walk": 10}}),
        ": modal_override has unknown key 'cafe'",
    ),
    "modal_override mode": (
        "scenario", lambda d: d.update(modal_override={"coworking": {"boat": 10}}),
        ": modal_override has unknown key 'boat'",
    ),
    "profile body": (
        "profiles", lambda d: d["profiles"]["coworking"].update(mean_minutes={}),
        " is malformed: unknown keys in coworking: ['mean_minutes']",
    ),
    "profile activity": (
        "profiles",
        lambda d: _renamed(d["profiles"]["coworking"]["mean_activity_minutes"], "work", "wrk"),
        " is malformed: coworking mean_activity_minutes has unknown key 'wrk'",
    ),
    "profile mode": (
        "profiles", _carr, " is malformed: coworking mean_mode_minutes has unknown key 'carr'"
    ),
    "profile share": (
        "profiles", lambda d: _renamed(d["profiles"]["coworking"]["mode_share"], "car", "carr"),
        " is malformed: 'carr' is not a valid TransportMode",
    ),
}


@pytest.mark.parametrize("kind, change, refusal", _UNKNOWN_KEYS.values(), ids=_UNKNOWN_KEYS)
def test_every_input_key_is_one_of_its_fields(
    run, tmp_path, ref_config_path, ref_profiles, kind, change, refusal
):
    """Config sections, scenarios and stored profile bodies are read by one
    key rule, and their minute and factor maps take only the names of their
    sets. Before, a stored ``carr`` ran ``sweep`` to exit 0 at net -28.45 MJ
    and ``facility_intensity.ventilation`` was ignored."""
    documents = {
        "config": json.loads(Path(ref_config_path).read_text(encoding="utf-8")),
        "scenario": {},
        "profiles": {"profiles": profiles_to_dict(ref_profiles)},
    }
    paths = {name: tmp_path / f"{name}.json" for name in documents}
    argv = [item for name in documents for item in (f"--{name}", paths[name])]
    argv += ["--parameter", "coworker_count", "--values", 60, "--out"]
    for name, document in documents.items():
        paths[name].write_text(json.dumps(document), encoding="utf-8")
    assert run("sweep", *argv, tmp_path / "valid")[0] == 0
    change(documents[kind])
    paths[kind].write_text(json.dumps(documents[kind]), encoding="utf-8")
    code, out, err = run("sweep", *argv, tmp_path / "out")
    prefix = {"config": "config", "scenario": "invalid scenario in", "profiles": "profiles file"}
    assert (code, out) == (1, "")
    assert err == f"error: {prefix[kind]} {paths[kind]}{refusal}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", [None, 3, ""], ids=["null", "number", "empty"])
def test_scenario_name_must_be_a_non_empty_text(
    run, tmp_path, ref_config_path, ref_profiles, name
):
    """Only an absent name is the file's stem. Before, ``"name": null`` ran
    ``sweep`` to exit 0 and wrote the scenario ``"None"`` into report.json."""
    profiles = tmp_path / "profiles.json"
    profiles.write_text(json.dumps({"profiles": profiles_to_dict(ref_profiles)}), encoding="utf-8")
    scenario = tmp_path / "smaller.json"
    argv = ["sweep", "--config", ref_config_path, "--profiles", profiles, "--scenario", scenario,
            "--parameter", "coworker_count", "--values", 60, "--out"]
    scenario.write_text("{}", encoding="utf-8")
    assert run(*argv, tmp_path / "valid")[0] == 0
    report = json.loads((tmp_path / "valid" / "report.json").read_text(encoding="utf-8"))
    assert report["scenario"] == "smaller"
    scenario.write_text(json.dumps({"name": name}), encoding="utf-8")
    code, out, err = run(*argv, tmp_path / "out")
    assert (code, out) == (1, "")
    assert err == (
        f"error: invalid scenario in {scenario}: name must be a non-empty string, got {name!r}\n"
    )
    assert not (tmp_path / "out").exists()


class TestSweepCli:
    def test_occupancy_sweep(self, run, tmp_path, ref_config_path, ref_diaries_path):
        out = tmp_path / "out"
        code, stdout, _ = run(
            "sweep", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--parameter", "coworker_count", "--values", 30, 60, 120, "--out", out,
        )
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == list(
            ("parameter", "value", "facility_mj", "equipment_mj", "travel_mj", "credit_mj", "net_mj")
        )
        facility = [float(row[2]) for row in rows[1:]]
        assert facility == pytest.approx([47.94, 23.97, 11.985], abs=1e-9)
        assert stdout == (
            "swept coworker_count over 3 values (baseline employer_office)\n"
            "  coworker_count=30.0: net +28.02 MJ\n"
            "  coworker_count=60.0: net +4.05 MJ\n"
            "  coworker_count=120.0: net -7.93 MJ\n"
        )

    @pytest.mark.parametrize("digits", [-1, 0, 2, 4, 5])
    @pytest.mark.parametrize(
        "values", [[0.5, 7, 30, 60, 120, 5000], [1e-9, 60]], ids=["moderate", "huge-net"]
    )
    def test_console_lines_are_the_rounded_nets(
        self, run, tmp_path, ref_config_path, ref_diaries_path, values, digits
    ):
        """Each point's console line holds its net of ``sweep.json`` rounded to
        ``--round`` decimals, also where a net is past 1e10 (at 1e-9 coworkers)."""
        out = tmp_path / "out"
        code, stdout, _ = run(
            "sweep", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--parameter", "coworker_count", "--values", *values, "--round", digits,
            "--out", out,
        )
        assert code == 0
        points = json.loads((out / "sweep.json").read_text(encoding="utf-8"))["points"]
        nets = [point["net_mj"] for point in points]
        assert stdout == (
            f"swept coworker_count over {len(values)} values (baseline employer_office)\n"
            + _echoed("coworker_count", sorted(map(float, values)), nets, digits)
        )

    @pytest.mark.parametrize(
        "fmt, written, absent",
        [("csv", "sweep.csv", "sweep.json"), ("json", "sweep.json", "sweep.csv")],
    )
    def test_format_writes_one_table(
        self, run, tmp_path, ref_config_path, ref_diaries_path, fmt, written, absent
    ):
        for name in (fmt, "both"):
            code, _, _ = run(
                "sweep", "--config", ref_config_path, "--diaries", ref_diaries_path,
                "--parameter", "cw_days_per_week", "--values", 1, 2.5,
                "--out", tmp_path / name, "--format", name,
            )
            assert code == 0
        out, both = tmp_path / fmt, tmp_path / "both"
        assert not (out / absent).exists()
        assert (out / written).read_bytes() == (both / written).read_bytes()
        assert (out / "report.json").read_bytes() == (both / "report.json").read_bytes()
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["sweep"] == json.loads((both / "sweep.json").read_text(encoding="utf-8"))

    def test_profiles_file_input(self, run, tmp_path, ref_config_path, ref_diaries_path):
        profile_out = tmp_path / "p"
        run(
            "profile", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--out", profile_out,
        )
        sweep_out = tmp_path / "s"
        code, _, _ = run(
            "sweep", "--config", ref_config_path,
            "--profiles", profile_out / "profiles.json",
            "--parameter", "coworker_count", "--values", 30, 60, 120,
            "--out", sweep_out,
        )
        assert code == 0
        diaries_out = tmp_path / "d"
        run(
            "sweep", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--parameter", "coworker_count", "--values", 30, 60, 120,
            "--out", diaries_out,
        )
        assert (sweep_out / "sweep.csv").read_bytes() == (diaries_out / "sweep.csv").read_bytes()

    def test_scenario_credit_column(self, run, tmp_path, ref_config_path, ref_diaries_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps(
                {
                    "name": "space credit",
                    "floor_space_credit_m2": 20.0,
                    "credit_intensity_mj_per_m2_year": 1945.8,
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code, _, _ = run(
            "sweep", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--scenario", scenario, "--parameter", "coworker_count", "--values", 60,
            "--out", out,
        )
        assert code == 0
        row = read_csv(out / "sweep.csv")[1]
        assert float(row[5]) == pytest.approx(2.82, abs=1e-6)
        assert float(row[6]) == pytest.approx(4.05 - 2.82, abs=1e-6)

    def test_unsupported_parameter_exit_1(self, run, tmp_path, ref_config_path, ref_diaries_path):
        code, _, err = run(
            "sweep", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--parameter", "workplace_count", "--values", 10, "--out", tmp_path / "out",
        )
        assert code == 1
        assert "unsupported" in err

    def test_cw_days_per_week_reports_weekly_net(
        self, run, tmp_path, ref_config_path, ref_diaries_path
    ):
        out = tmp_path / "out"
        code, _, _ = run(
            "sweep", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--parameter", "cw_days_per_week", "--values", 1, 2.5, "--out", out,
        )
        assert code == 0
        points = json.loads((out / "sweep.json").read_text())["points"]
        assert [p["cw_days_per_week"] for p in points] == [1.0, 2.5]
        assert [p["weekly_net_mj"] for p in points] == [
            p["cw_days_per_week"] * p["net_mj"] for p in points
        ]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("parameter", SWEEP_PARAMETERS)
    def test_non_finite_value_exit_1(
        self, run, tmp_path, ref_config_path, ref_diaries_path, parameter, value
    ):
        out = tmp_path / "out"
        code, _, err = run(
            "sweep", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--parameter", parameter, f"--values={value}", "--out", out,
        )
        assert code == 1
        assert f"{parameter} is not finite: " in err
        assert not (out / "sweep.json").exists()

    @pytest.mark.parametrize(
        "parameter, value", [("coworker_count", "5e-324"), ("floor_area_m2", "1e308")]
    )
    def test_overflowing_point_exit_1(
        self, run, tmp_path, ref_config_path, ref_diaries_path, parameter, value
    ):
        out = tmp_path / "out"
        code, _, err = run(
            "sweep", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--parameter", parameter, "--values", value, "--out", out,
        )
        assert code == 1
        assert f"sweep point {parameter}=" in err and "facility_mj is not finite: inf" in err
        assert not (out / "sweep.csv").exists()
        assert not (out / "sweep.json").exists()

    @pytest.mark.parametrize(
        "text", ["[]", '{"profiles": []}', '{"coworking": {"mean_activity_minutes": []}}']
    )
    def test_profiles_not_an_object_exit_1(self, run, tmp_path, ref_config_path, text):
        stored = tmp_path / "profiles.json"
        stored.write_text(text, encoding="utf-8")
        code, _, err = run(
            "sweep", "--config", ref_config_path, "--profiles", stored,
            "--parameter", "coworker_count", "--values", 60, "--out", tmp_path / "out",
        )
        assert code == 1
        assert err.startswith(f"error: profiles file {stored}")

    def test_nan_scenario_credit_exit_1(self, run, tmp_path, ref_config_path, ref_diaries_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            '{"floor_space_credit_m2": NaN, "credit_intensity_mj_per_m2_year": 100.0}',
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code, _, err = run(
            "sweep", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--scenario", scenario, "--parameter", "coworker_count", "--values", 60,
            "--out", out,
        )
        assert code == 1
        assert "floor_space_credit_m2 is not finite" in err
        assert not (out / "sweep.json").exists()

    @pytest.mark.parametrize("value", ['"20"', "true"])
    @pytest.mark.parametrize(
        "key, document",
        [
            ("floor_space_credit_m2",
             '{{"floor_space_credit_m2": {}, "credit_intensity_mj_per_m2_year": 100.0}}'),
            ("credit_intensity_mj_per_m2_year",
             '{{"floor_space_credit_m2": 5.0, "credit_intensity_mj_per_m2_year": {}}}'),
            ("modal_override[coworking][walk]",
             '{{"modal_override": {{"coworking": {{"walk": {}}}}}}}'),
        ],
    )
    def test_scenario_number_as_text_or_bool_exit_1(
        self, run, tmp_path, ref_config_path, ref_diaries_path, key, document, value
    ):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(document.format(value), encoding="utf-8")
        out = tmp_path / "out"
        code, _, err = run(
            "sweep", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--scenario", scenario, "--parameter", "coworker_count", "--values", 60,
            "--out", out,
        )
        assert code == 1
        assert f"error: {key} must be a number, got " in err
        assert not (out / "sweep.json").exists()

    def test_nan_stored_profile_exit_1(self, run, tmp_path, ref_config_path, ref_diaries_path):
        profile_out = tmp_path / "p"
        run(
            "profile", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--out", profile_out,
        )
        payload = json.loads((profile_out / "profiles.json").read_text(encoding="utf-8"))
        profiles = payload.get("profiles", payload)
        profiles["coworking"]["mean_mode_minutes"]["walk"] = float("nan")
        stored = tmp_path / "profiles.json"
        stored.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        code, _, err = run(
            "sweep", "--config", ref_config_path, "--profiles", stored,
            "--parameter", "coworker_count", "--values", 60, "--out", out,
        )
        assert code == 1
        assert f"{stored} is malformed: coworking mean for walk is not finite: nan\n" in err
        assert not (out / "sweep.json").exists()

    def test_negative_stored_day_count_exit_1(
        self, run, tmp_path, ref_config_path, ref_diaries_path
    ):
        profile_out = tmp_path / "p"
        run(
            "profile", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--out", profile_out,
        )
        payload = json.loads((profile_out / "profiles.json").read_text(encoding="utf-8"))
        payload["profiles"]["coworking"]["day_count"] = -3
        stored = tmp_path / "profiles.json"
        stored.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        code, _, err = run(
            "sweep", "--config", ref_config_path, "--profiles", stored,
            "--parameter", "coworker_count", "--values", 60, "--out", out,
        )
        assert code == 1
        assert err.endswith(f"{stored} is malformed: coworking day_count must be >= 0, got -3\n")
        assert not (out / "sweep.json").exists()

    def test_swapped_stored_mode_shares_exit_1(
        self, run, tmp_path, ref_config_path, ref_diaries_path
    ):
        profile_out = tmp_path / "p"
        run(
            "profile", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--out", profile_out,
        )
        payload = json.loads((profile_out / "profiles.json").read_text(encoding="utf-8"))
        shares = payload["profiles"]["employer_office"]["mode_share"]
        shares["walk"], shares["car"] = shares["car"], shares["walk"]
        stored = tmp_path / "profiles.json"
        stored.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        code, _, err = run(
            "sweep", "--config", ref_config_path, "--profiles", stored,
            "--parameter", "coworker_count", "--values", 60, "--out", out,
        )
        assert code == 1
        assert f"{stored} is malformed: employer_office mode_share for walk is " in err
        assert not (out / "sweep.json").exists()

    def test_missing_profile_exit_2(self, run, tmp_path, ref_config_path):
        diaries = write_diaries(tmp_path, [CLEAN_ROWS[0], CLEAN_ROWS[4]])  # no coworking
        code, _, err = run(
            "sweep", "--config", ref_config_path, "--diaries", diaries,
            "--parameter", "coworker_count", "--values", 10, "--out", tmp_path / "out",
        )
        assert code == 2
        assert "insufficient data" in err and "coworking" in err


class TestBreakevenCli:
    def test_occupancy_root(self, run, tmp_path, ref_config_path, ref_diaries_path):
        out = tmp_path / "out"
        code, stdout, _ = run(
            "breakeven", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--parameter", "coworker_count", "--bounds", 30, 120, "--out", out,
        )
        assert code == 0
        payload = json.loads((out / "breakeven.json").read_text())
        assert payload["root"] == pytest.approx(72.19879518072289, abs=1e-3)
        assert "break-even coworker_count" in stdout
        rows = read_csv(out / "breakeven.csv")
        assert len(rows) == 2

    @pytest.mark.parametrize("parameter", ["coworker_count", "floor_area_m2", "workdays_per_year"])
    def test_travel_energy_runs_twice_per_breakeven(
        self, run, tmp_path, monkeypatch, ref_config_path, ref_diaries_path, parameter
    ):
        """The root and its components come from one set of scenario terms:
        one co-working and one baseline travel energy."""
        calls = []
        real = energy_module.travel_energy
        monkeypatch.setattr(
            energy_module, "travel_energy", lambda *args: calls.append(args) or real(*args)
        )
        code, _, _ = run(
            "breakeven", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--parameter", parameter, "--bounds", 10, 1000, "--out", tmp_path / "out",
        )
        assert code == 0 and len(calls) == 2

    def test_same_sign_bounds_exit_3(self, run, tmp_path, ref_config_path, ref_diaries_path):
        code, _, err = run(
            "breakeven", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--parameter", "coworker_count", "--bounds", 100, 120,
            "--out", tmp_path / "out",
        )
        assert code == 3
        assert "net(100" in err and "net(120" in err

    def test_swapped_stored_mode_shares_exit_1(
        self, run, tmp_path, ref_config_path, ref_diaries_path
    ):
        profile_out = tmp_path / "p"
        run(
            "profile", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--out", profile_out,
        )
        payload = json.loads((profile_out / "profiles.json").read_text(encoding="utf-8"))
        shares = payload["profiles"]["employer_office"]["mode_share"]
        shares["walk"], shares["car"] = shares["car"], shares["walk"]
        stored = tmp_path / "profiles.json"
        stored.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        code, _, err = run(
            "sweep", "--config", ref_config_path, "--profiles", stored,
            "--parameter", "coworker_count", "--values", 60, "--out", out,
        )
        assert code == 1
        assert f"{stored} is malformed: employer_office mode_share for walk is " in err
        assert not (out / "sweep.json").exists()

    def test_missing_profile_exit_2(self, run, tmp_path, ref_config_path):
        diaries = write_diaries(tmp_path, CLEAN_ROWS[2:])  # no office days
        code, _, err = run(
            "breakeven", "--config", ref_config_path, "--diaries", diaries,
            "--parameter", "coworker_count", "--bounds", 10, 100, "--out", tmp_path / "out",
        )
        assert code == 2
        assert "insufficient data" in err and "employer_office" in err

    @pytest.mark.parametrize(
        "document, refusal",
        [("[]", " must contain a JSON object"),
         ('{"profiles": []}', " is malformed: 'list' object is not a mapping")],
    )
    def test_profiles_not_an_object_exit_1(self, run, tmp_path, ref_config_path, document, refusal):
        stored = tmp_path / "profiles.json"
        stored.write_text(document, encoding="utf-8")
        code, _, err = run(
            "breakeven", "--config", ref_config_path, "--profiles", stored,
            "--parameter", "coworker_count", "--bounds", 30, 120, "--out", tmp_path / "out",
        )
        assert code == 1
        assert err == f"error: profiles file {stored}{refusal}\n"

    def test_cw_days_per_week_exit_1(self, run, tmp_path, ref_config_path, ref_diaries_path):
        code, _, err = run(
            "breakeven", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--parameter", "cw_days_per_week", "--bounds", 1, 5, "--out", tmp_path / "out",
        )
        assert code == 1
        assert "does not depend" in err


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--bounds", "120", "30"], "lo < hi"),
            (["--bounds", "30", "nan"], "finite"),
            (["--bounds", "30", "120", "--tolerance", "0"], "tolerance"),
        ],
    )
    def test_bad_bracket_or_tolerance_exit_1(
        self, tmp_path, ref_config_path, ref_diaries_path, argv, message
    ):
        result = subprocess.run(
            [
                sys.executable, "-m", "telework_impact", "breakeven",
                "--config", str(ref_config_path), "--diaries", str(ref_diaries_path),
                "--parameter", "coworker_count", *argv, "--out", str(tmp_path / "out"),
            ],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: ") and message in result.stderr


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, run, tmp_path, ref_config_path, ref_diaries_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            code, _, _ = run(
                "delta", "--config", ref_config_path, "--diaries", ref_diaries_path,
                "--baseline", "both", "--out", out,
            )
            assert code == 0
        names_a = sorted(p.name for p in outs[0].iterdir())
        names_b = sorted(p.name for p in outs[1].iterdir())
        assert names_a == names_b
        for name in names_a:
            if name == "run_info.json":
                continue
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        cli.main(["delta", "--no-such-flag"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "values", [["x"], ["60", "1e3", "x", "y"], ["60", ""]], ids=["x", "x-among", "empty"]
)
def test_sweep_values_that_are_not_numbers_are_a_usage_error(values, tmp_path):
    """A text ``float`` refuses among ``--values`` exits 1 with argparse's
    words for ``type=float``, naming the first such text."""
    result = subprocess.run(
        [sys.executable, "-m", "telework_impact", "sweep", "--config", "config.json",
         "--parameter", "coworker_count", "--values", *values, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    bad = next(value for value in values if value in ("x", ""))
    assert result.returncode == 1
    assert result.stderr.splitlines()[-1] == (
        f"telework-impact sweep: error: argument --values: invalid float value: {bad!r}"
    )
    assert result.stderr.startswith("usage: telework-impact sweep ")
    assert not (tmp_path / "out").exists()


def _parsed(parser, argv):
    """``parser.parse_args(argv)`` as the namespace with each value as its
    hex text, or the exit code and stderr of the refusal."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            namespace = vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, stderr.getvalue()
    namespace["values"] = [value.hex() for value in namespace["values"]]
    return namespace, stderr.getvalue()


#: The parser as it was before ``--values`` runs were handed to argparse
#: whole: ``--values`` stored with ``type=float``.
with mock.patch.object(cli, "_Values", partial(argparse._StoreAction, type=float)):
    _PER_VALUE_PARSER = cli.build_parser()

_VALUE_TEXTS = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["", "x", " 7 ", "1_0", "1e3", "-1e3", "-5", "-.5", "nan", "-inf", "\0",
                     "1\x002", "60\x00", "-\x001", "-", "--", "-x", "--out"]),
    st.text(max_size=3),
)
_ARGV_PIECES = st.one_of(
    st.lists(_VALUE_TEXTS, max_size=6).map(lambda run: ["--values", *run]),
    st.lists(_VALUE_TEXTS, max_size=3).map(lambda run: ["--val", *run]),
    _VALUE_TEXTS.map(lambda text: [f"--values={text}"]),
    st.sampled_from([["--"], ["--parameter", "coworker_count"], ["--round", "3"],
                     ["--out", "o"], ["--values"], ["--nosuch"], ["x"]]),
)


@settings(max_examples=400, deadline=None)
@given(pieces=st.lists(_ARGV_PIECES, max_size=5))
@example(pieces=[["--parameter", "coworker_count"], ["--values", "60", "1e3", "x", "y"]])
@example(pieces=[["--parameter", "coworker_count"], ["--values", "60", ""]])
@example(pieces=[["--parameter", "p"], ["--values", "1", "-2", "3"], ["--values", "4", "5"]])
@example(pieces=[["--parameter", "p"], ["--values", "1"], ["--"], ["--values", "2", "3"]])
@example(pieces=[["--parameter", "p"], ["--values", "1", "2\x003", "4"]])
@example(pieces=[["--parameter", "p"], ["--val", "1\x002"]])
def test_values_runs_parse_as_one_value_at_a_time(pieces):
    """A ``sweep`` argv whose ``--values`` runs are handed to argparse whole
    parses as argparse parses it a value at a time: the same values to the
    bit, or the same exit code and stderr."""
    argv = ["sweep", *(arg for piece in pieces for arg in piece)]
    expected = _parsed(_PER_VALUE_PARSER, argv)
    assert _parsed(cli.build_parser(), cli._values_as_runs(argv)) == expected


def _echoed(parameter, values, nets, digits):
    """The console lines of sweep points: each value's repr, as the files
    hold it, and its net rounded, a negative zero read as zero."""
    return "".join(
        f"  {parameter}={value!r}: net {round(net, digits) + 0.0:+} MJ\n"
        for value, net in zip(values, nets)
    )


_NETS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e10, 1e10),
    st.integers(-10**14, 10**14).map(lambda k: k / 10**4),
    st.builds(lambda k, n: (k + 0.5) / 10**n, st.integers(-10**9, 10**9), st.integers(0, 5)),
    st.builds(lambda k, n: k / 10**n, st.integers(-999, 999), st.integers(0, 9)),
)


@settings(max_examples=500, deadline=None)
@given(
    digits=st.integers(-3, 8),
    points=st.lists(st.tuples(st.floats(), _NETS), min_size=1, max_size=8),
)
@example(digits=0, points=[(60.0, -0.4), (1.0, 0.5), (2.0, 2.5)])
@example(digits=4, points=[(60.0, 0.00005), (1.0, -1e-7), (2.0, 9999999999.99995)])
@example(digits=2, points=[(60.0, 4.05), (1.0, 1e10)])
@example(digits=5, points=[(60.0, 0.00001)])
@example(digits=2, points=[(1005.701, -0.0001), (1005.704, 4.05)])
@example(digits=2, points=[(72.2, -0.0001), (1e-9, 1e10)])
def test_echo_is_each_rounded_net(digits, points):
    """A block's console text is each point's value, as its repr, and its
    net rounded to ``--round`` decimals, with or without the one-format
    path; no net reads as negative zero."""
    values, nets = map(list, zip(*points))
    text = sweep_writer.console_echo("coworker_count", digits)(list(map(repr, values)), nets)
    assert text == _echoed("coworker_count", values, nets, digits)
    assert "-0.0 MJ" not in text


@pytest.mark.parametrize(
    "argv",
    [
        ["delta", "--baseline", "both", "--round", "-2"],
        ["breakeven", "--parameter", "coworker_count", "--bounds", 1, 1000],
        ["sweep", "--parameter", "coworker_count", "--values", 72.2],
        ["sweep", "--parameter", "coworker_count", "--values", 1e-9, 72.2],
    ],
    ids=["delta", "breakeven", "sweep", "sweep-past-1e10"],
)
def test_no_console_figure_reads_negative_zero(
    run, tmp_path, ref_config_path, ref_diaries_path, argv
):
    """Figures that round to zero from below print ``+0.0``: the travel of
    ``delta`` at ``--round -2``, the net at the break-even root, and the net
    of a sweep point just past it, with and without a net past 1e10 in its
    block."""
    code, stdout, _ = run(
        *argv, "--config", ref_config_path, "--diaries", ref_diaries_path, "--out", tmp_path,
    )
    assert code == 0
    assert "+0.0 MJ" in stdout or "travel +0.0," in stdout
    assert re.search(r"-0\.0(?![0-9])", stdout) is None


def test_module_entrypoint_subprocess(ref_config_path, ref_diaries_path, tmp_path):
    result = subprocess.run(
        [
            sys.executable, "-m", "telework_impact", "delta",
            "--config", str(ref_config_path), "--diaries", str(ref_diaries_path),
            "--out", str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == 0, result.stderr
    assert "net +4.05 MJ" in result.stdout


class TestProcessExit:
    """``python -m telework_impact`` ends through ``cli.run``: ``os._exit``
    once stdout and stderr are flushed, without the interpreter's teardown.
    It leaves what ``cli.main`` leaves in process. That holds because every
    artifact is closed inside ``main`` and the two-process diary read reaps
    its child before it returns, also when it fails: ``reaped()`` in
    TestTwoProcessRead and test_diary_that_is_not_utf8_is_refused_by_name
    pin the second."""

    SWEEP_VALUES = [str(value) for value in range(1, 20001)]

    @staticmethod
    def _env(unbuffered):
        """CHILD_ENV with console lines written unbuffered or not."""
        env = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}
        return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env

    @staticmethod
    def _module(*argv):
        """The command line of ``python -m telework_impact`` with ``argv``."""
        return [sys.executable, "-m", "telework_impact", *map(str, argv)]

    @staticmethod
    def _artifacts(out):
        """The files in ``out`` by name, run_info.json by its keys alone:
        it holds only the clock time of the run."""
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        files["run_info.json"] = sorted(json.loads(files["run_info.json"]))
        return files

    def test_every_command_leaves_what_main_leaves(
        self, run, tmp_path, monkeypatch, ref_config_path, ref_diaries_path
    ):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(
            {"floor_space_credit_m2": 20.0, "credit_intensity_mj_per_m2_year": 1945.8}
        ), encoding="utf-8")
        stored = ["--profiles", tmp_path / "main" / "profile" / "profiles.json",
                  "--scenario", scenario, "--parameter", "coworker_count"]
        commands = {
            "profile": ["--diaries", ref_diaries_path],
            "validate": ["--diaries", ref_diaries_path],
            "delta": ["--diaries", ref_diaries_path, "--baseline", "both"],
            "sweep": [*stored, "--values", 30, 60, 120],
            "breakeven": [*stored, "--bounds", 1, 1000],
        }
        for side in ("main", "module"):
            (tmp_path / side).mkdir()
        # Relative --out directories, so that the console lines that name
        # them are the same on both sides.
        monkeypatch.chdir(tmp_path / "main")
        for command, options in commands.items():
            argv = [command, "--config", ref_config_path, *options, "--out", command]
            code, out, err = run(*argv)
            result = subprocess.run(
                self._module(*argv), capture_output=True, cwd=tmp_path / "module",
                env=self._env(False), timeout=120,
            )
            assert (result.returncode, result.stdout, result.stderr) == (
                code, out.encode(), err.encode()
            ), command
            assert self._artifacts(tmp_path / "module" / command) == self._artifacts(
                tmp_path / "main" / command
            ), command

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["delta"], cli.EXIT_OK),
            (["delta", "--round", "x"], cli.EXIT_INPUT_ERROR),
            (["validate", "--diaries", "missing.csv"], cli.EXIT_INPUT_ERROR),
            (["validate", "--diaries", "bad.csv"], cli.EXIT_INSUFFICIENT_DATA),
            (["breakeven", "--parameter", "coworker_count", "--bounds", 100, 120],
             cli.EXIT_NO_ROOT),
        ],
        ids=["ok", "usage", "input_error", "insufficient_data", "no_root"],
    )
    def test_exit_codes_are_those_of_main(
        self, tmp_path, monkeypatch, ref_config_path, ref_diaries_path, argv, code
    ):
        write_diaries(tmp_path, BAD_ROWS, name="bad.csv")
        monkeypatch.chdir(tmp_path)
        argv = [*argv, "--config", ref_config_path, "--out", "out"]
        if "--diaries" not in argv:
            argv += ["--diaries", ref_diaries_path]
        try:
            in_process = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            in_process = exc.code
        result = subprocess.run(
            self._module(*argv), capture_output=True, cwd=tmp_path, env=self._env(False),
            timeout=120,
        )
        assert result.returncode == in_process == code, result.stderr

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_a_long_echo_reaches_the_pipe_whole(
        self, run, tmp_path, ref_config_path, ref_diaries_path, unbuffered
    ):
        argv = ["sweep", "--config", ref_config_path, "--diaries", ref_diaries_path,
                "--parameter", "coworker_count", "--values", *self.SWEEP_VALUES, "--out"]
        code, out, _ = run(*argv, tmp_path / "main")
        result = subprocess.run(
            self._module(*argv, tmp_path / "module"), capture_output=True,
            env=self._env(unbuffered), timeout=120,
        )
        assert (code, result.returncode, result.stderr) == (0, 0, b"")
        assert out.count("\n") == len(self.SWEEP_VALUES) + 1
        assert result.stdout == out.encode()

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_a_reader_that_closes_early_gives_a_broken_pipe_error(
        self, tmp_path, ref_config_path, ref_diaries_path, unbuffered
    ):
        """As ``| head -1``: the reader takes one line and closes the pipe."""
        argv = ["sweep", "--config", ref_config_path, "--diaries", ref_diaries_path,
                "--parameter", "coworker_count", "--values", *self.SWEEP_VALUES,
                "--out", tmp_path / "out"]
        with open(tmp_path / "stderr", "wb") as err:
            proc = subprocess.Popen(
                self._module(*argv), stdout=subprocess.PIPE, stderr=err, env=self._env(unbuffered)
            )
            try:
                first = proc.stdout.readline()
                proc.stdout.close()
            finally:
                proc.wait(timeout=120)
        assert first == b"swept coworker_count over 20000 values (baseline employer_office)\n"
        assert proc.returncode == cli.EXIT_INPUT_ERROR
        assert (tmp_path / "stderr").read_bytes() == b"error: [Errno 32] Broken pipe\n"

    def test_a_final_flush_that_fails_ends_the_usual_way(
        self, tmp_path, ref_config_path, ref_diaries_path
    ):
        """Buffered, ``validate``'s few lines are first written by the flush
        after ``main``; with the reader gone it fails, and the interpreter
        ends the process as it would without ``cli.run``: status 120, its
        own note and no traceback."""
        reader, writer = os.pipe()
        os.close(reader)
        try:
            result = subprocess.run(
                self._module("validate", "--config", ref_config_path, "--diaries",
                             ref_diaries_path, "--out", tmp_path / "out"),
                stdout=writer, stderr=subprocess.PIPE, env=self._env(False), timeout=120,
            )
        finally:
            os.close(writer)
        assert result.returncode == 120
        assert b"BrokenPipeError" in result.stderr and b"Traceback" not in result.stderr
        assert (tmp_path / "out" / "rejections.csv").exists()

    def test_entry_points_name_run(self):
        from telework_impact import __main__ as module_entry

        assert module_entry.run is cli.run
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts == {"telework-impact": "telework_impact.cli:run"}


class TestLeanImports:
    """Only commands that read diaries load numpy, the diary reader and the
    quality filter; only ``sweep`` and ``breakeven`` load the scenario
    module, and only ``sweep`` the sweep writer. Each check runs in a fresh
    interpreter, since this test session has imported all of them already."""

    #: What a run that reads no diary must not load.
    DIARY_READER = (
        "numpy", "telework_impact.diary", "telework_impact.quality", "telework_impact.split_read",
    )
    #: What a run that neither sweeps nor solves a break-even must not load.
    SCENARIO = ("telework_impact.scenario", "telework_impact.sweep_writer")

    @staticmethod
    def _loaded(tmp_path, modules, *statements):
        """Those of ``modules`` in ``sys.modules`` after ``statements`` ran."""
        code = "\n".join(
            [*statements, "import sys", f"print(*[m for m in {list(modules)!r} if m in sys.modules])"]
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=CHILD_ENV,
        )
        assert result.returncode == 0, result.stderr
        return set(result.stdout.splitlines()[-1].split())

    @staticmethod
    def _main(argv):
        return f"assert cli.main({[str(a) for a in argv]!r}) == 0"

    @pytest.mark.parametrize("module", ["telework_impact", "telework_impact.cli"])
    def test_import_and_load_config_load_no_diary_reader(self, tmp_path, module):
        """Nor the scenario module and the sweep writer, nor the fork helper,
        which only a run that may fork loads."""
        assert not self._loaded(
            tmp_path,
            [*self.DIARY_READER, *self.SCENARIO, "telework_impact.forked", "logging"],
            f"import {module}",
            "from telework_impact.config import load_config, shipped_config_path",
            "load_config(shipped_config_path())",
        )

    def test_sweep_and_breakeven_on_profiles_load_no_diary_reader(
        self, run, tmp_path, ref_config_path, ref_diaries_path
    ):
        assert run(
            "profile", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--out", tmp_path / "p",
        )[0] == 0
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(
            {"floor_space_credit_m2": 20.0, "credit_intensity_mj_per_m2_year": 1945.8}
        ), encoding="utf-8")
        common = [
            "--config", ref_config_path, "--profiles", tmp_path / "p" / "profiles.json",
            "--scenario", scenario,
        ]
        # Past sweep_writer.SPLIT_MIN_POINTS: rendered in two processes where that is safe.
        values = range(1, 5001)
        assert not self._loaded(
            tmp_path,
            self.DIARY_READER,
            "from telework_impact import cli",
            self._main(
                ["sweep", *common, "--parameter", "coworker_count", "--values", *values,
                 "--out", tmp_path / "s"]
            ),
            self._main(
                ["breakeven", *common, "--parameter", "coworker_count", "--bounds", 30, 120,
                 "--out", tmp_path / "b"]
            ),
        )

    def test_diary_commands_load_no_scenario_module(
        self, tmp_path, ref_config_path, ref_diaries_path
    ):
        common = ["--config", ref_config_path, "--diaries", ref_diaries_path]
        assert not self._loaded(
            tmp_path,
            self.SCENARIO,
            "from telework_impact import cli",
            *(self._main([command, *common, "--out", tmp_path / command])
              for command in ("validate", "profile", "delta")),
        )

    @pytest.mark.parametrize(
        "command, loaded",
        [
            (["breakeven", "--bounds", 30, 120], {"telework_impact.scenario"}),
            (["sweep", "--values", 30, 60], {*SCENARIO}),
        ],
        ids=["breakeven", "sweep"],
    )
    def test_only_sweep_loads_the_sweep_writer(
        self, tmp_path, ref_config_path, ref_diaries_path, command, loaded
    ):
        argv = [*command, "--config", ref_config_path, "--diaries", ref_diaries_path,
                "--parameter", "coworker_count", "--out", tmp_path / "out"]
        assert self._loaded(
            tmp_path, self.SCENARIO, "from telework_impact import cli", self._main(argv)
        ) == loaded

    def test_delta_on_diaries_loads_numpy(self, tmp_path, ref_config_path, ref_diaries_path):
        assert "numpy" in self._loaded(
            tmp_path,
            ["numpy"],
            "from telework_impact import cli",
            self._main(
                ["delta", "--config", ref_config_path, "--diaries", ref_diaries_path,
                 "--out", tmp_path / "d"]
            ),
        )

    def test_validate_on_diaries_loads_diary_reader(
        self, tmp_path, ref_config_path, ref_diaries_path
    ):
        # The shipped file is below diary.SPLIT_MIN_BYTES: one range, no split_read.
        assert self._loaded(
            tmp_path,
            self.DIARY_READER,
            "from telework_impact import cli",
            self._main(
                ["validate", "--config", ref_config_path, "--diaries", ref_diaries_path,
                 "--out", tmp_path / "v"]
            ),
        ) == {"numpy", "telework_impact.diary", "telework_impact.quality"}


@pytest.mark.parametrize(
    "name, command",
    [
        ("parse_diary_path", "validate"),
        ("apply_quality_filter", "validate"),
        ("load_scenario", "sweep"),
        ("sweep", "sweep"),
        ("break_even", "breakeven"),
    ],
)
def test_commands_call_the_cli_forwarders(
    run, monkeypatch, tmp_path, ref_config_path, ref_diaries_path, name, command
):
    """``perfbench/tracing.py`` times a stage by wrapping the attribute of
    ``cli`` that bears its name: a command that called the stage's module
    directly would leave it untimed, and its metrics silently zero."""
    calls = []
    target = getattr(cli, name)

    def recording(*args, **kwargs):
        calls.append(name)
        return target(*args, **kwargs)

    monkeypatch.setattr(cli, name, recording)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"floor_space_credit_m2": 20.0}), encoding="utf-8")
    options = {
        "validate": [],
        "sweep": ["--scenario", scenario, "--parameter", "coworker_count", "--values", 30, 60],
        "breakeven": ["--parameter", "coworker_count", "--bounds", 30, 120],
    }
    code, _, _ = run(
        command, "--config", ref_config_path, "--diaries", ref_diaries_path,
        *options[command], "--out", tmp_path / "out",
    )
    assert (code, calls) == (0, [name])


class TestLazyRootNames:
    """The package root resolves the names of the diary reader, the quality
    filter and the scenario module on first access."""

    def test_diary_reader_names_are_the_module_functions(self):
        import telework_impact
        from telework_impact import apply_quality_filter, parse_diary_file, parse_diary_path
        from telework_impact import diary, quality, scenario

        assert parse_diary_file is diary.parse_diary_file
        assert parse_diary_path is diary.parse_diary_path
        assert apply_quality_filter is quality.apply_quality_filter
        for name in ("Scenario", "break_even", "evaluate_scenario", "sweep", "weekly_net_mj"):
            assert getattr(telework_impact, name) is getattr(scenario, name)

    def test_every_exported_name_resolves_and_is_listed(self):
        import telework_impact

        for name in telework_impact.__all__:
            assert getattr(telework_impact, name) is not None
        assert set(telework_impact.__all__) <= set(dir(telework_impact))

    def test_unknown_name_raises(self):
        import telework_impact

        with pytest.raises(AttributeError, match="no_such_name"):
            telework_impact.no_such_name
        with pytest.raises(ImportError):
            from telework_impact import no_such_name  # noqa: F401

    def test_moved_names_are_one_object(self):
        from telework_impact import config, diary, model, quality

        assert quality.QualityRules is config.QualityRules
        assert diary.DAY_TYPES is model.DAY_TYPES


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


#: Run first in each fresh interpreter of TestTwoProcessRead: counts the
#: forks. It imports no more than cli, which leaves numpy to cli.main.
_FORK_COUNTER = """
import os
from telework_impact import cli
forks = []
_fork = os.fork
def _counted_fork():
    forks.append(os.getpid())
    return _fork()
os.fork = _counted_fork
def reaped():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
"""

#: Run next by the checks that call the diary reader themselves: gives the
#: outcome of a parse as comparable text, and reads every file in two
#: processes where that is safe.
_DIARY_HELPERS = """
from telework_impact import diary
def shown(table, rejected):
    columns = [table.participant_ids, table.dates, table.source_rows, table.day_types]
    return repr(([c.tolist() for c in columns], table.minutes.tobytes(),
                 table.distinct_ids, table.distinct_dates, list(rejected)))
def outcome(path):
    return shown(*diary.parse_diary_path(path))
diary.SPLIT_MIN_BYTES = 1
"""


@pytest.mark.skipif(not hasattr(os, "fork") or _cpus() < 2, reason="reads in two processes")
class TestTwoProcessRead:
    """A diary file of at least ``SPLIT_MIN_BYTES`` is read in two processes
    where that is safe, with the result of a read in one. Each check runs in
    a fresh interpreter: this test session has started numpy's BLAS threads,
    so it never forks."""

    @staticmethod
    def _fresh(tmp_path, *statements, env=None, helpers=True):
        """The last line printed by a fresh interpreter that runs
        ``_FORK_COUNTER``, ``_DIARY_HELPERS`` if ``helpers``, then ``statements``."""
        prelude = [_FORK_COUNTER, _DIARY_HELPERS] if helpers else [_FORK_COUNTER]
        result = subprocess.run(
            [sys.executable, "-c", "\n".join([*prelude, *statements])],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={**CHILD_ENV, "OPENBLAS_NUM_THREADS": "1"} if env is None else env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.splitlines()[-1]

    @staticmethod
    def _diaries(tmp_path, ref_diaries_path, span=None, large=False):
        """The reference diaries with a bad date, a short row, an unknown
        location and a quoted id in each half, a duplicate of the first day
        in the second half, and ``span`` in the middle. A ``large`` file
        repeats the reference rows under distinct ids until it holds at
        least ``SPLIT_MIN_BYTES``."""
        header, *rows = Path(ref_diaries_path).read_text(encoding="utf-8").splitlines()
        if large:
            copies = SPLIT_MIN_BYTES // len("\n".join(rows)) + 1
            rows = [f"C{k}{row}" for k in range(copies) for row in rows]

        def bad(n):
            return [
                f"P9{n},2019-02-30,office,60,480,30,30,10,10,40,0,0",
                f"P9{n},2019-09-03",
                f"P9{n},2019-09-02,cafe,60,480,30,30,10,10,40,0,0",
                f'"P8{n}",2019-09-02,office,60,480,30,30,10,10,40,0,0',
            ]

        middle = len(rows) // 2
        rows = [
            header, *rows[:3], *bad(1), *rows[3:middle], *filter(None, [span]),
            *rows[middle:-3], rows[0], *bad(9), *rows[-3:],
        ]
        path = tmp_path / "diaries.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert not large or path.stat().st_size >= SPLIT_MIN_BYTES
        return path

    @pytest.mark.parametrize("command", ["validate", "delta"])
    def test_command_forks_once_and_writes_the_same_artifacts(
        self, run, tmp_path, ref_config_path, ref_diaries_path, command
    ):
        diaries = self._diaries(tmp_path, ref_diaries_path, large=True)
        argv = [command, "--config", ref_config_path, "--diaries", diaries, "--out"]
        assert run(*argv, tmp_path / "one")[0] == 0
        # cli.main itself keeps the BLAS to one thread, so that it may fork:
        # nothing before it imports numpy, and the environment leaves the
        # thread count to numpy.
        env = {k: v for k, v in CHILD_ENV.items() if k != "OPENBLAS_NUM_THREADS"}
        main = TestLeanImports._main([*argv, tmp_path / "two"])
        assert self._fresh(
            tmp_path, main, "print(len(forks), reaped())", env=env, helpers=False
        ) == "1 True"
        names = sorted(p.name for p in (tmp_path / "one").iterdir() if p.name != "run_info.json")
        assert names == sorted(p.name for p in (tmp_path / "two").iterdir() if p.name != "run_info.json")
        for name in names:
            assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    def test_library_caller_with_one_blas_thread_reads_in_two_processes(
        self, tmp_path, ref_diaries_path
    ):
        """The README's route: with ``OPENBLAS_NUM_THREADS=1`` set before
        the import, the root's ``parse_diary_path`` forks once for a large
        file and gives the one-process read."""
        path = self._diaries(tmp_path, ref_diaries_path, large=True)
        assert self._fresh(
            tmp_path,
            "import telework_impact",
            f"path = {str(path)!r}",
            "parsed = telework_impact.parse_diary_path(path)",
            "counted = len(forks), reaped()",
            _DIARY_HELPERS,
            "with open(path, 'rb') as stream:",
            "    assert shown(*parsed) == shown(*diary.parse_diary_file(stream))",
            "print(*counted)",
            helpers=False,
        ) == "1 True"

    def test_parse_errors_share_each_text_across_the_fork(self, tmp_path, ref_diaries_path):
        """PARSE_ERRORs that repeat two bad minute texts and one short-row
        shape in both halves of a file hold one object per distinct detail
        and date text after a two-process read: the child's pickle keeps its
        own sharing, and the merge takes its texts as the parent's."""
        header, *rows = Path(ref_diaries_path).read_text(encoding="utf-8").splitlines()
        lines = [header]
        for i, row in enumerate(rows * 2):
            fields = [f"R{i:04d}", *row.split(",")[1:]]
            if i % 3 == 1:
                fields[3 + i % 9] = ("abc", "n/a")[i // 3 % 2]
            elif i % 3 == 2:
                del fields[7:]
            lines.append(",".join(fields))
        path = tmp_path / "faults.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert self._fresh(
            tmp_path,
            f"table, rejected = diary.parse_diary_path({str(path)!r})",
            "columns = rejected.details, rejected.dates",
            "shared = all(len(set(c)) == len(set(map(id, c))) for c in columns)",
            "print(len(forks), reaped(), len(rejected), len(set(rejected.details)), shared)",
        ) == "1 True 333 3 True"

    def test_validate_builds_no_rejected_day(self, tmp_path, ref_config_path, ref_diaries_path):
        """Rejections reach rejections.csv and report.json as columns from
        both processes: ``validate`` builds no RejectedDay. The benchmark's
        tracer, which builds them after its spans, still counts each reason."""
        rule_rows = [
            "P71,2019-09-02,office,60,100,300,300,10,10,40,0,0",  # work too short
            "P72,2019-09-02,office,60,300,50,50,10,10,40,0,0",  # total too short
            "P73,2019-09-02,office,200,500,30,30,10,10,40,0,0",  # mode mismatch
        ]
        diaries = self._diaries(tmp_path, ref_diaries_path, "\n".join(rule_rows))
        argv = ["validate", "--config", str(ref_config_path), "--diaries", str(diaries), "--out"]
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        counted = json.loads(self._fresh(
            tmp_path,
            "import json, sys",
            f"sys.path.insert(0, {str(perfbench)!r})",
            "import tracing",
            "from telework_impact import report",
            "built, init = [], diary.RejectedDay.__init__",
            "def counted_init(self, *args, **kwargs):",
            "    built.append(args)",
            "    init(self, *args, **kwargs)",
            "diary.RejectedDay.__init__ = counted_init",
            f"assert cli.main({argv + [str(tmp_path / 'plain')]!r}) == 0",
            "untraced = len(built)",
            "tracer = tracing.Tracer('validate')",
            "tracing.install(tracer, cli, report)",
            f"assert cli.main({argv + [str(tmp_path / 'traced')]!r}) == 0",
            "print(json.dumps([untraced, len(forks), reaped(), tracer.counts]))",
        ))
        untraced, forks, reaped, counts = counted
        assert (untraced, forks, reaped) == (0, 2, True)
        report = json.loads((tmp_path / "plain" / "report.json").read_text(encoding="utf-8"))
        by_reason = report["input_summary"]["rejected_by_reason"]
        assert set(by_reason) == {reason.value for reason in RejectReason}
        tallied = {k: n for k, n in counts.items() if k.startswith("diary.rejected.")}
        assert tallied == {f"diary.rejected.{reason}": n for reason, n in by_reason.items()}
        for name in ("rejections.csv", "report.json"):
            plain, traced = (tmp_path / out / name for out in ("plain", "traced"))
            assert plain.read_bytes() == traced.read_bytes()

    def test_ids_holding_a_newline_reach_the_parent_from_the_child(
        self, tmp_path, ref_diaries_path
    ):
        """The child sends its ids as one text joined by newlines, or as a
        list where an id holds one."""
        path = self._diaries(tmp_path, ref_diaries_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('"P\n77",2019-09-02,home,60,480,30,30,10,10,40,0,0\n')
        assert self._fresh(
            tmp_path,
            f"path = {str(path)!r}",
            "two = outcome(path)",
            r"assert 'P\n77' in diary.parse_diary_path(path)[0].distinct_ids",
            "diary.SPLIT_MIN_BYTES = os.path.getsize(path) + 1",
            "assert outcome(path) == two",
            "print(len(forks), reaped())",
        ) == "2 True"

    def test_threads_streams_and_small_files_are_read_in_one_process(
        self, tmp_path, ref_diaries_path
    ):
        path = self._diaries(tmp_path, ref_diaries_path)
        assert self._fresh(
            tmp_path,
            "import threading",
            f"path = {str(path)!r}",
            "stop = threading.Event()",
            "thread = threading.Thread(target=stop.wait)",
            "thread.start()",
            "threaded = outcome(path)",
            "stop.set()",
            "thread.join()",
            "with open(path, 'rb') as stream:",
            "    diary.parse_diary_file(stream)",
            "diary.SPLIT_MIN_BYTES = os.path.getsize(path) + 1",
            "small = outcome(path)",
            "assert not forks, forks",
            "diary.SPLIT_MIN_BYTES = 1",
            "assert outcome(path) == small == threaded",
            "print(len(forks), reaped())",
        ) == "1 True"

    def test_a_file_replaced_during_the_read_is_read_as_it_was_opened(
        self, tmp_path, ref_diaries_path
    ):
        path = self._diaries(tmp_path, ref_diaries_path)
        other = tmp_path / "other.csv"
        other.write_text(path.read_text(encoding="utf-8").replace(",home,", ",office,"), encoding="utf-8")
        assert self._fresh(
            tmp_path,
            f"path, other = {str(path)!r}, {str(other)!r}",
            "diary.SPLIT_MIN_BYTES = os.path.getsize(path) + 1",
            "one = outcome(path)",
            "def replacing_fork():",
            "    os.replace(other, path)",
            "    return _counted_fork()",
            "os.fork = replacing_fork",
            "diary.SPLIT_MIN_BYTES = 1",
            "assert outcome(path) == one",
            "assert reaped()",
            "os.fork = _counted_fork",
            "diary.SPLIT_MIN_BYTES = os.path.getsize(path) + 1",
            "assert outcome(path) != one",
            "print(len(forks))",
        ) == "1"

    @pytest.mark.parametrize(
        "span",
        [
            pytest.param(None, id="failed_child"),
            pytest.param('"P\n' + "\n" * 3000 + '7",2019-09-02,home,60,480,30,30,10,10,40,0,0',
                         id="cut_in_record"),
        ],
    )
    def test_a_failed_child_or_a_cut_in_a_record_gives_the_one_process_read(
        self, tmp_path, ref_diaries_path, span
    ):
        path = self._diaries(tmp_path, ref_diaries_path, span)
        middle = path.stat().st_size // 2
        # The cut falls inside the quoted record when there is one.
        assert bool(span) == ("\n\n" in path.read_text(encoding="utf-8")[middle - 2:middle + 2])
        assert self._fresh(
            tmp_path,
            f"path = {str(path)!r}",
            "import time",
            "read_range, parent = diary._read_range, os.getpid()",
            "def failing_in_child(*args):",
            "    if os.getpid() != parent:",
            "        raise MemoryError('in the child')",
            "    return read_range(*args)",
            "def sleeping_in_child(*args):",
            "    if os.getpid() != parent:",
            "        time.sleep(60)",
            "    return read_range(*args)",
            # A child whose part is not taken is stopped, not waited for.
            f"diary._read_range = {'sleeping_in_child' if span else 'failing_in_child'}",
            "start = time.monotonic()",
            "two = outcome(path)",
            "assert time.monotonic() - start < 30",
            "assert reaped()",
            "diary.SPLIT_MIN_BYTES = os.path.getsize(path) + 1",
            "assert outcome(path) == two",
            "print(len(forks))",
        ) == "1"

    def test_an_error_in_the_parent_stops_the_child(self, tmp_path, ref_diaries_path):
        path = self._diaries(tmp_path, ref_diaries_path)
        assert self._fresh(
            tmp_path,
            "import time",
            f"path = {str(path)!r}",
            "parent = os.getpid()",
            "def interrupted(*args):",
            "    if os.getpid() != parent:",
            "        time.sleep(60)",
            "    raise KeyboardInterrupt",
            "diary._read_range = interrupted",
            "start = time.monotonic()",
            "try:",
            "    outcome(path)",
            "except KeyboardInterrupt:",
            "    pass",
            "assert time.monotonic() - start < 30",
            "print(len(forks), reaped())",
        ) == "1 True"


@pytest.mark.skipif(not hasattr(os, "fork") or _cpus() < 2, reason="renders in two processes")
class TestTwoProcessSweep:
    """A sweep of at least ``sweep_writer.SPLIT_MIN_POINTS`` points in two blocks
    or more is rendered in two processes where that is safe, with the files
    and console text of the render in one. The one-process render runs in
    this test session, which never forks for it; the other checks run in a
    fresh interpreter, after ``_FORK_COUNTER``."""

    #: Past SPLIT_MIN_POINTS; the sweep document of cw_days_per_week holds
    #: the weekly net too.
    VALUES = {
        "coworker_count": [str(k) for k in range(1, 5001)],
        "cw_days_per_week": [str(k / 1000) for k in range(1, 5001)],
    }

    @pytest.fixture()
    def stored(self, run, tmp_path, ref_config_path, ref_diaries_path):
        """The options of a run on stored profiles, which loads no numpy."""
        argv = ["profile", "--config", ref_config_path, "--diaries", ref_diaries_path]
        assert run(*argv, "--out", tmp_path / "p")[0] == 0
        return ["--config", str(ref_config_path), "--profiles", str(tmp_path / "p" / "profiles.json")]

    @staticmethod
    def _fresh(tmp_path, *statements):
        """The stdout and stderr of a fresh interpreter that runs
        ``_FORK_COUNTER``, then ``statements``."""
        result = subprocess.run(
            [sys.executable, "-c", "\n".join([_FORK_COUNTER, "from telework_impact import sweep_writer",
                                              *statements])],
            capture_output=True, text=True, cwd=tmp_path, env=CHILD_ENV, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout, result.stderr

    @staticmethod
    def _serial(run, monkeypatch, argv, out):
        """The console text of ``argv`` rendered in this process alone."""
        monkeypatch.setattr(sweep_writer, "SPLIT_MIN_POINTS", float("inf"))
        code, console, _ = run(*argv, out)
        assert code == 0
        return console

    @pytest.mark.parametrize("parameter", sorted(VALUES))
    @pytest.mark.parametrize("fmt", ["csv", "json", "both"])
    def test_large_sweep_forks_once_and_writes_what_one_process_writes(
        self, run, tmp_path, monkeypatch, stored, fmt, parameter
    ):
        argv = ["sweep", *stored, "--parameter", parameter, "--values", *self.VALUES[parameter],
                "--format", fmt, "--out"]
        serial = self._serial(run, monkeypatch, argv, tmp_path / "one")
        stdout, stderr = self._fresh(
            tmp_path,
            f"code = cli.main({[*argv, str(tmp_path / 'two')]!r})",
            "print(code, len(forks), reaped())",
        )
        *console, counted = stdout.splitlines(keepends=True)
        assert (counted, stderr) == ("0 1 True\n", "")
        # A child that flushed the buffer it inherited would repeat the first line.
        assert "".join(console) == serial
        one, two = (TestProcessExit._artifacts(tmp_path / side) for side in ("one", "two"))
        assert one == two

    @pytest.mark.parametrize(
        "failure",
        [
            pytest.param("os.fork = failing_fork", id="fork_fails"),
            pytest.param("sweep_writer._render_from_back = raising", id="before_claiming"),
            pytest.param("sweep_writer._render_block = leaving_on_third", id="after_rendering"),
            pytest.param("sweep_writer._LENGTHS = Leaving('3q')", id="between_blocks_sent"),
            pytest.param("sweep_writer.open = half_sending_open", id="within_a_block_sent"),
        ],
    )
    def test_a_child_that_dies_early_gives_the_same_bytes(
        self, run, tmp_path, monkeypatch, stored, failure
    ):
        """A child that fails, or leaves with blocks claimed or half sent,
        leaves the parent to render the blocks it did not send whole."""
        argv = ["sweep", *stored, "--parameter", "coworker_count",
                "--values", *self.VALUES["coworker_count"], "--out"]
        serial = self._serial(run, monkeypatch, argv, tmp_path / "one")
        stdout, stderr = self._fresh(
            tmp_path,
            "import struct",
            "parent, calls = os.getpid(), []",
            "def failing_fork():",
            "    forks.append(parent)",
            "    raise OSError(11, 'Resource temporarily unavailable')",
            "def raising(*args):",
            "    raise MemoryError('in the child')",
            "render_block = sweep_writer._render_block",
            "def leaving_on_third(*args):",
            "    if os.getpid() != parent:",
            "        calls.append(args)",
            "        if len(calls) == 3:",
            "            os._exit(1)",
            "    return render_block(*args)",
            "class Leaving(struct.Struct):",
            "    def pack(self, *lengths):",
            "        calls.append(lengths)",
            "        if len(calls) == 3:",
            "            os._exit(1)",
            "        return super().pack(*lengths)",
            "class HalfSending:",
            "    def __init__(self, pipe):",
            "        self.pipe = pipe",
            "    def __enter__(self):",
            "        return self",
            "    def __exit__(self, *exc):",
            "        self.pipe.close()",
            "    def write(self, data):",
            "        return self.pipe.write(data)",
            "    def writelines(self, texts):",
            "        calls.append(texts)",
            "        if len(calls) == 3:",
            "            self.pipe.write(texts[0])",
            "            self.pipe.flush()",
            "            os._exit(1)",
            "        self.pipe.writelines(texts)",
            "def half_sending_open(file, mode='r', *args, **kwargs):",
            "    handle = open(file, mode, *args, **kwargs)",
            "    return HalfSending(handle) if os.getpid() != parent and mode == 'wb' else handle",
            failure,
            f"code = cli.main({[*argv, str(tmp_path / 'two')]!r})",
            "print(code, len(forks), reaped())",
        )
        *console, counted = stdout.splitlines(keepends=True)
        assert (counted, stderr) == ("0 1 True\n", "")
        assert "".join(console) == serial
        one, two = (TestProcessExit._artifacts(tmp_path / side) for side in ("one", "two"))
        assert one == two

    def test_a_console_that_fails_stops_the_child(self, tmp_path, stored):
        """As a reader that closes stdout early: the error of ``cli.main``,
        and the child is killed and reaped."""
        argv = ["sweep", *stored, "--parameter", "coworker_count",
                "--values", *self.VALUES["coworker_count"], "--out", str(tmp_path / "out")]
        stdout, stderr = self._fresh(
            tmp_path,
            "import contextlib, io",
            "class Gone(io.StringIO):",
            "    def write(self, text):",
            "        if 'net' in text:",
            "            raise BrokenPipeError(32, 'Broken pipe')",
            "        return super().write(text)",
            "with contextlib.redirect_stdout(Gone()):",
            f"    code = cli.main({argv!r})",
            "print(code, len(forks), reaped())",
        )
        assert (stdout, stderr) == ("1 1 True\n", "error: [Errno 32] Broken pipe\n")

    def test_one_cpu_one_block_and_breakeven_do_not_fork(self, tmp_path, stored):
        def sweep(values, out):
            return ["sweep", *stored, "--parameter", "coworker_count", "--values",
                    *map(str, values), "--out", str(tmp_path / out)]

        breakeven = ["breakeven", *stored, "--parameter", "coworker_count",
                     "--bounds", "1", "1000", "--out", str(tmp_path / "b")]
        block = sweep_writer._SWEEP_BLOCK
        stdout, _ = self._fresh(
            tmp_path,
            "cpus = os.sched_getaffinity(0)",
            "os.sched_setaffinity(0, {min(cpus)})",
            f"assert cli.main({sweep(self.VALUES['coworker_count'], 'one_cpu')!r}) == 0",
            "os.sched_setaffinity(0, cpus)",
            "sweep_writer.SPLIT_MIN_POINTS = 1",
            f"assert cli.main({sweep(range(1, block + 1), 'one_block')!r}) == 0",
            f"assert cli.main({breakeven!r}) == 0",
            "unforked = len(forks)",
            f"assert cli.main({sweep(range(1, block + 2), 'two_blocks')!r}) == 0",
            "print(unforked, len(forks), reaped())",
        )
        assert stdout.splitlines()[-1] == "0 1 True"


def _diaries_to_refuse(tmp_path, ref_diaries_path, large):
    """The shipped diaries, or a file past ``SPLIT_MIN_BYTES`` made from
    them, as bytes, and the path to write them to."""
    if large:
        path = TestTwoProcessRead._diaries(tmp_path, ref_diaries_path, large=True)
    else:
        path = tmp_path / "diaries.csv"
        path.write_bytes(Path(ref_diaries_path).read_bytes())
    return bytearray(path.read_bytes()), path


def _assert_refused_by_name(tmp_path, ref_config_path, path, large, message):
    """``validate`` on ``path`` exits 1 with ``error: message`` alone, writes
    nothing, and forks once if ``large`` and that is safe, reaping the child.
    The fork counter sees whether a child was left unreaped."""
    argv = ["validate", "--config", str(ref_config_path), "--diaries", str(path), "--out", "out"]
    statements = [f"code = cli.main({argv!r})", "print(len(forks), reaped())", "sys.exit(code)"]
    result = subprocess.run(
        [sys.executable, "-c", "\n".join([_FORK_COUNTER, "import sys", *statements])],
        capture_output=True, text=True, cwd=tmp_path, env=CHILD_ENV, timeout=120,
    )
    assert result.returncode == 1
    assert result.stderr.splitlines() == [f"error: {message}"]
    forks = int(large and hasattr(os, "fork") and _cpus() >= 2)
    assert result.stdout.split() == [str(forks), "True"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("large", [False, True], ids=["shipped", "past-split-size"])
def test_diary_that_is_not_utf8_is_refused_by_name(
    tmp_path, ref_config_path, ref_diaries_path, large
):
    """One 0xFF byte in the second half of the file: before, ``validate``
    ended in a traceback, and a file read in two processes lost its child
    first."""
    data, path = _diaries_to_refuse(tmp_path, ref_diaries_path, large)
    data[data.index(b"\n", len(data) * 3 // 4) + 1] = 0xFF  # the first byte of a line
    path.write_bytes(data)
    message = f"diary file {path} is not UTF-8: invalid start byte b'\\xff'"
    _assert_refused_by_name(tmp_path, ref_config_path, path, large, message)


@pytest.mark.parametrize("quoted", [False, True], ids=["unquoted", "quoted"])
@pytest.mark.parametrize("large", [False, True], ids=["shipped", "past-split-size"])
def test_diary_with_a_field_over_the_csv_limit_is_refused_by_name(
    tmp_path, ref_config_path, ref_diaries_path, large, quoted
):
    """A line in the second half of the file whose id, quoted, or minute
    field, not a number, is longer than csv's field size limit: before,
    ``validate`` ended in a traceback."""
    data, path = _diaries_to_refuse(tmp_path, ref_diaries_path, large)
    limit = csv.field_size_limit()
    field = "x" * (limit + 1)
    if quoted:
        line = f'"{field}",2019-09-02,office,60,480,30,30,10,10,40,0,0\n'
    else:
        line = f"P1,2019-09-02,office,60,{field},30,30,10,10,40,0,0\n"
    at = data.index(b"\n", len(data) * 3 // 4) + 1
    data[at:at] = line.encode("ascii")
    path.write_bytes(data)
    message = f"diary file {path} is not readable CSV: field larger than field limit ({limit})"
    _assert_refused_by_name(tmp_path, ref_config_path, path, large, message)
