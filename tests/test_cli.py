import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from telework_impact import cli
from telework_impact import energy as energy_module
from telework_impact.diary import DIARY_HEADER
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
            "  coworker_count=30: net +28.02 MJ\n"
            "  coworker_count=60: net +4.05 MJ\n"
            "  coworker_count=120: net -7.93 MJ\n"
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
        assert "must be finite" in err
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
        assert "mean for walk is not finite" in err
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
        assert err.endswith(f"{stored} is malformed: day_count must be >= 0, got -3\n")
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

    def test_profiles_not_an_object_exit_1(self, run, tmp_path, ref_config_path):
        stored = tmp_path / "profiles.json"
        stored.write_text("[]", encoding="utf-8")
        code, _, err = run(
            "breakeven", "--config", ref_config_path, "--profiles", stored,
            "--parameter", "coworker_count", "--bounds", 30, 120, "--out", tmp_path / "out",
        )
        assert code == 1
        assert err == f"error: profiles file {stored} must contain a JSON object of profiles\n"

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


class TestLeanImports:
    """Only commands that read diaries load numpy. Each check runs in a fresh
    interpreter, since this test session has imported numpy already."""

    @staticmethod
    def _numpy_loaded(tmp_path, *statements):
        code = "\n".join([*statements, "import sys", "print('numpy' in sys.modules)"])
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=CHILD_ENV,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.splitlines()[-1] == "True"

    @staticmethod
    def _main(argv):
        return f"assert cli.main({[str(a) for a in argv]!r}) == 0"

    @pytest.mark.parametrize("module", ["telework_impact", "telework_impact.cli"])
    def test_import_loads_no_numpy(self, tmp_path, module):
        assert not self._numpy_loaded(tmp_path, f"import {module}")

    def test_sweep_and_breakeven_on_profiles_load_no_numpy(
        self, run, tmp_path, ref_config_path, ref_diaries_path
    ):
        assert run(
            "profile", "--config", ref_config_path, "--diaries", ref_diaries_path,
            "--out", tmp_path / "p",
        )[0] == 0
        common = ["--config", ref_config_path, "--profiles", tmp_path / "p" / "profiles.json"]
        assert not self._numpy_loaded(
            tmp_path,
            "from telework_impact import cli",
            self._main(
                ["sweep", *common, "--parameter", "coworker_count", "--values", 30, 60,
                 "--out", tmp_path / "s"]
            ),
            self._main(
                ["breakeven", *common, "--parameter", "coworker_count", "--bounds", 30, 120,
                 "--out", tmp_path / "b"]
            ),
        )

    def test_delta_on_diaries_loads_numpy(self, tmp_path, ref_config_path, ref_diaries_path):
        assert self._numpy_loaded(
            tmp_path,
            "from telework_impact import cli",
            self._main(
                ["delta", "--config", ref_config_path, "--diaries", ref_diaries_path,
                 "--out", tmp_path / "d"]
            ),
        )
