"""Golden artifacts: ``delta --baseline both``, ``profile``, ``validate``,
``sweep`` and ``breakeven`` through ``cli.main`` must write byte-identical
files.

Two inputs are run. ``reference`` is the shipped diary file as it is.
``dirty`` is the same file with faulty rows spliced in, one per reject
cause, so that the parse and quality-filter paths and the row numbering
of ``rejections.csv`` are pinned too. The diary digests were recorded from
the object-per-row implementation that preceded the columnar diary tables.

``sweep`` and ``breakeven`` run on the ``profiles.json`` of the reference
``profile`` run with a scenario that overrides inventory fields, claims a
floor-space credit and replaces the co-working modal profile; its name
holds quotes, a newline and non-ASCII text, which ``report.json`` carries.
The ``coworker_count`` and ``cw_days_per_week`` sweep digests were
recorded from the per-point evaluation that preceded the shared scenario
terms, and those of the other three parameters from the one ``EnergyDelta``
per point that preceded the sweep columns; the break-even digests from the
exact root of the net's closed form, which replaced a bisection whose
midpoints lay within the tolerance of it.

Paths are passed relative to the working directory so that the reports,
which name their inputs, do not depend on where the test runs.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from telework_impact import cli
from telework_impact.config import shipped_config_path, shipped_diaries_path

#: Faulty rows and the cause each one plants; inserted after every
#: ``SPLICE_EVERY`` reference rows.
DIRTY_ROWS = [
    "D01,2019-02-30,office,120,500,60,120,10,10,40,60,0",  # bad date
    "D02,2019-09-02,coworking,abc,500,60,120,10,10,40,60,0",  # non-numeric
    "D03,2019-09-02,home,120,500",  # short row
    "D04,2019-09-02,office,120,500,60,120,10,10,-40,60,0",  # negative minutes
    "D05,2019-09-02,home,120,1000,200,300,10,10,40,60,0",  # activity total over 1440
    "D06,2019-09-02,office,120,500,60,120,10,10,40,inf,0",  # mode total over 1440
    "D07,2019-09-02,cafe,120,500,60,120,10,10,40,60,0",  # unknown location
    "D08,2019-09-02,multiple,120,500,60,120,10,10,40,60,0",  # excluded location
    "D09,2019-09-02,office,120,200,100,200,10,10,40,60,0",  # work too short
    "D10,2019-09-02,coworking,30,300,40,100,10,10,5,5,0",  # total too short
    "D11,2019-09-02,home,300,500,60,120,10,10,40,60,0",  # mode mismatch
    "D12,2019-09-02,other,300,100,0,0,10,10,40,60,0",  # every quality rule at once
    "",  # blank line: skipped, but it still counts as a line
    '"D13\nX",2019-09-02,office,120,200,100,200,10,10,40,60,0',  # quoted newline, work short
    " D14 , 2019-09-03 , coworking , 60 , 505 , 70 , 100 , 20 , 20 , 10 , 10 , 0 ",  # padded, kept
    "D15,2019-09-03,bus depot,abc,500,60,120,10,10,40,60,0",  # unknown location, non-numeric
]
SPLICE_EVERY = 15

SCENARIO = {
    "name": 'golden "credit"\nZürich',
    "overrides": {"workplace_count": 12, "coworker_count": 75},
    "floor_space_credit_m2": 12.5,
    "credit_intensity_mj_per_m2_year": 1800.0,
    "modal_override": {
        "coworking": {"walk": 20.0, "bike": 15.0, "car": 6.5, "public_transport": 25.0}
    },
}

#: Scenario runs on the reference profiles; unsorted and repeated values
#: pin the ordering of the sweep points.
SCENARIO_COMMANDS = {
    "sweep_coworker_count": [
        "sweep", "--parameter", "coworker_count", "--values",
        "60", "0.001", "32.94785884208977", "1000", "7", "60", "72.5", "123456.789",
    ],
    "sweep_cw_days_per_week": [
        "sweep", "--parameter", "cw_days_per_week", "--values", "5", "0.25", "2.5", "1",
    ],
    "sweep_floor_area_m2": [
        "sweep", "--parameter", "floor_area_m2", "--values",
        "170", "10", "369.21705475045627", "2000", "170", "0.5", "1e6", "10",
    ],
    "sweep_workdays_per_year": [
        "sweep", "--parameter", "workdays_per_year", "--values",
        "230", "1", "366", "101.8874593097201", "230", "0.25", "250",
    ],
    "sweep_floor_space_credit_m2": [
        "sweep", "--parameter", "floor_space_credit_m2", "--values",
        "12.5", "0", "100", "0", "1e-300", "7.75", "5000", "100",
    ],
    "breakeven_coworker_count": [
        "breakeven", "--parameter", "coworker_count", "--bounds", "10", "500",
    ],
    "breakeven_floor_area_m2": [
        "breakeven", "--parameter", "floor_area_m2", "--bounds", "10", "2000",
        "--tolerance", "1e-9",
    ],
    "breakeven_workdays_per_year": [
        "breakeven", "--parameter", "workdays_per_year", "--bounds", "10", "400",
    ],
}

COMMANDS = {
    "delta": ["delta", "--baseline", "both"],
    "profile": ["profile"],
    "validate": ["validate"],
}

GOLDEN = {
    "reference/delta/delta.csv": "28a79494f21fa781e68e28ed61d04227e63375cb89fb6e7344be89c63ac9a317",
    "reference/delta/delta.json": "4dbc86f9100b304c6060807bc624f3ed2a50dee9a985c98eab2d928c73621744",
    "reference/delta/report.json": "5515c73788150079ad844c15c6f90bdbb0f836ca7105176f4ab0285c26603779",
    "reference/profile/plot_data.csv": "4b3736dcb9330da55600b48f9c01c0e391f3a8d1c4e8d7a1831cf2f9c7bfef6d",
    "reference/profile/profiles.csv": "22691514b68573cba14f5989d0ab8244bb369240e09ae1b369c1454e4d9cec74",
    "reference/profile/profiles.json": "b55fbb755da85aba6834d4b80a14d64448baa2712e9773291fb0b25f5e04340e",
    "reference/profile/report.json": "7e30d02bbe0935988b2e434221550f2c3534e1aa6268431e59118b7278ca8ac9",
    "reference/validate/rejections.csv": "526f124d25d0d548c7ea7190d44fa565d350492f8fdbf9047be649cbba3ad48e",
    "reference/validate/report.json": "a3c15575388883a47ea11961afc7369a4c8fe3727d6dc1477f0316fbbbdca390",
    "dirty/delta/delta.csv": "9c8c6bb917a31206d6bef6b8eee02e0c06854f57450cf691821a5f889b890b65",
    "dirty/delta/delta.json": "3de93867a50e6bf67894c5bbdcd60820c5e0925e19cd26acb9c15b5f70575d56",
    "dirty/delta/report.json": "0722e3978ab2cc8efcaadfdf39f24e81db5328fcf3f412a7a52afbefc80c9ef3",
    "dirty/profile/plot_data.csv": "84b4e20224056a0ae5042de648c504d4dcb6d917387a7d6cd5e7fc63f7286ba8",
    "dirty/profile/profiles.csv": "4e662257329b1d633c4abc534e3a7d92b63ce0e607afd5f4cabdb1a97b588665",
    "dirty/profile/profiles.json": "7bd5b624e3127cf8aff39494ecd345318f8e640f1d38edcc8b35b605f334a7a8",
    "dirty/profile/report.json": "6e3bd634bfa78565c61f83202710b74728a2daf372c9abb645f43a3d3b756ca0",
    "dirty/validate/rejections.csv": "9dc6cdbfe3e449feaca3d52bbb32709e2f4293a9106db134d6fd1b303f1bfbb0",
    "dirty/validate/report.json": "78dabb0943ebaf45c7123565eed0fb87d1c8e9d1ae1ebd0c41708f5928b4e74a",
    "reference/sweep_coworker_count/report.json": "d8652ddbac1f0d89f8b84e1a35f23ede8382c94e3581c7642fa8754fe5977540",
    "reference/sweep_coworker_count/sweep.csv": "97657dfe970085b6842262ad12581ed844825378bdf4807e4bf46ed1c6833508",
    "reference/sweep_coworker_count/sweep.json": "a1d8be81766bae01fd21509451a5a9d85972a1f1bd111f2ed9fbcf2e43ae7f75",
    "reference/sweep_cw_days_per_week/report.json": "661c00aeb622786ac206900fae6fd6fe1050b92b6b2aa3aa513d53dc3bf52c29",
    "reference/sweep_cw_days_per_week/sweep.csv": "bc80fe6d5e69648e4a47d9c621284a5d4ca21e9e62ab56b5ff6da779f3b48bb1",
    "reference/sweep_cw_days_per_week/sweep.json": "14beb3b3aa1fb6e79928c33131c486f46e5e7bbc40820ca28b86c10319abeba4",
    "reference/sweep_floor_area_m2/report.json": "31b50438079c31cdc7ff1609d4ab89c300f547f47a70757d71debc1019cb9567",
    "reference/sweep_floor_area_m2/sweep.csv": "88b3f611114c04b71f1cdf8a48c85dbeeda0b8a440cfb17e5d68ccb88727d79e",
    "reference/sweep_floor_area_m2/sweep.json": "21a3a497e6a9f3fe24ba8da8a79f3b62905bd6e0554b2def8a52c7ba3cc0ec70",
    "reference/sweep_workdays_per_year/report.json": "770a08e20d46eb260a0103641ae02ed8b3826bafbec36378f0f3e9242d60817d",
    "reference/sweep_workdays_per_year/sweep.csv": "3922f948cc144afb32688b2e210343571793017def3eaba50d9f37e74ba49abf",
    "reference/sweep_workdays_per_year/sweep.json": "887ebdbfb4f92d2a4b958ba9928a1f969088f8970fbb6112e51ab444d0ec42de",
    "reference/sweep_floor_space_credit_m2/report.json": "63ca5c54f52a4936eca0297f75d48fd6d057364bb5d63d7fe713dc8ff1dd9397",
    "reference/sweep_floor_space_credit_m2/sweep.csv": "0709d46b4b0c7e13f68d559a74a24eb2dee65ad53f62b4c18ba083fd922971d8",
    "reference/sweep_floor_space_credit_m2/sweep.json": "3e0e6f430d81d966c3fbdc720019bf915c90d44c0dbcb4f81faa686c22799065",
    "reference/breakeven_coworker_count/breakeven.csv": "4bf83b5f6d6bac9a1dee91bec722402c419ff955b6ebe3edfe3bed03002ebcc0",
    "reference/breakeven_coworker_count/breakeven.json": "71b11d9d4052c2c25c3240b56dfa9ef2450242f5b70033f60d25e08cf97d19d2",
    "reference/breakeven_coworker_count/report.json": "48063f457111349d0672d2863a08ebaf5c723eeb63f3932572fde0d417fe1d5e",
    "reference/breakeven_floor_area_m2/breakeven.csv": "07722b52d647aa9a6b6f9d358748b4577da1e15ec42be6e4c0cb5223b10961b3",
    "reference/breakeven_floor_area_m2/breakeven.json": "64d78799b9d8bb671d55d3be9bd7c70394bcbc95987babe9e11312e2b660b6ca",
    "reference/breakeven_floor_area_m2/report.json": "7bbcd31831a24bdd3ac6fe465efd3322f03a7b54e3074be4b506cf796bf1a324",
    "reference/breakeven_workdays_per_year/breakeven.csv": "f42b43555bdb4749b7578ba0789ff96c81255afc74d6651d33bf3a05ecbfec8d",
    "reference/breakeven_workdays_per_year/breakeven.json": "63e967ac5368550fbcbba31a3050efb2c3cf387b8dfa76bee1f64817f8cd10af",
    "reference/breakeven_workdays_per_year/report.json": "96afe59062f91d5ff9ae8e2e04d25016cdc987d20d4852e0f1081c83a009b143",
}


def _inputs(directory: Path) -> dict[str, str]:
    reference = shipped_diaries_path()
    shutil.copy(shipped_config_path(), directory / "config.json")
    shutil.copy(reference, directory / "reference.csv")
    lines = Path(reference).read_text(encoding="utf-8").splitlines()
    header, body = lines[0], lines[1:]
    dirty = [header]
    for i, line in enumerate(body):
        if i % SPLICE_EVERY == 0 and i // SPLICE_EVERY < len(DIRTY_ROWS):
            dirty.append(DIRTY_ROWS[i // SPLICE_EVERY])
        dirty.append(line)
    (directory / "dirty.csv").write_text("\n".join(dirty) + "\n", encoding="utf-8")
    (directory / "scenario.json").write_text(json.dumps(SCENARIO), encoding="utf-8")
    return {"reference": "reference.csv", "dirty": "dirty.csv"}


def _run(argv: list[str], out: Path, digests: dict[str, str], capsys) -> None:
    assert cli.main([*argv, "--config", "config.json", "--out", str(out)]) == 0
    capsys.readouterr()
    for path in sorted(out.iterdir()):
        if path.name != "run_info.json":
            digests[path.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()


def _digests(directory: Path, capsys) -> dict[str, str]:
    digests = {}
    for name, diaries in _inputs(directory).items():
        for command, argv in COMMANDS.items():
            _run([*argv, "--diaries", diaries], Path(name, command), digests, capsys)
    stored = ["--profiles", "reference/profile/profiles.json", "--scenario", "scenario.json"]
    for name, argv in SCENARIO_COMMANDS.items():
        _run([*argv, *stored], Path("reference", name), digests, capsys)
    return digests


def test_artifacts_match_golden_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _digests(tmp_path, capsys) == GOLDEN
