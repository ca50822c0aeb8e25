"""Command-line pipeline: validate | profile | delta | sweep | breakeven.

Exit codes are a stable contract: 0 success, 1 input or configuration
error, 2 insufficient data, 3 no root in the given bracket. Machine
artifacts are deterministic; the console summary is rounded to ``--round``
decimals and wall-clock metadata lives only in the run_info sidecar.

Importing this module loads neither the diary reader and quality filter,
nor :mod:`.scenario`, nor :mod:`.sweep_writer`: each command imports the
code it runs when it first runs it.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from . import __version__
from .aggregation import (
    aggregate_profiles,
    day_counts,
    profiles_from_dict,
)
from .config import AppConfig, load_config, read_json
from .energy import compare_day_types, direct_components
from .errors import (
    ConfigError,
    MissingProfileError,
    NoRootError,
    TeleworkImpactError,
)
from .model import COMPARABLE_DAY_TYPES, Activity, DayType
from . import report as rpt

if TYPE_CHECKING:
    from .scenario import Scenario

CONFIG_ENV_VAR = "TELEWORK_IMPACT_CONFIG"

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INSUFFICIENT_DATA = 2
EXIT_NO_ROOT = 3

_BASELINE_CHOICES = {
    "office": (DayType.EMPLOYER_OFFICE,),
    "home": (DayType.HOME,),
    "both": (DayType.EMPLOYER_OFFICE, DayType.HOME),
}


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; our contract reserves 2
    for insufficient data, so remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


class _Run(str):
    """The values that follow a literal ``--values`` of a ``sweep`` argv,
    joined by NUL, which no command-line argument can hold: one argument for
    argparse to walk where the values are many (see :func:`_values_as_runs`)."""

    __slots__ = ()


def _values_as_runs(argv: list[str]) -> list[str]:
    """``argv`` with each run of arguments after a literal ``--values``, up to
    the first that starts with ``-``, as one :class:`_Run`, where ``argv`` is
    a ``sweep`` argv none of whose arguments holds a NUL; nothing after a
    ``--`` is joined. argparse then decides the rest as it would have: option
    order, repeated options, ``--values=``, abbreviations and usage errors."""
    if argv[:1] != ["sweep"] or "\0" in "".join(argv):
        return argv
    cut = argv.index("--") if "--" in argv else len(argv)
    head, at = argv[:cut], 0
    while "--values" in head[at:]:
        at = head.index("--values", at) + 1
        # A NUL before each argument, and a last one, "-", that ends the search.
        text = "\0".join(["", *head[at:], "-"])
        end = text.find("\0-")
        stop = at + text.count("\0", 0, end)
        if stop > at:
            head[at:stop] = [_Run(text[1:end])]
    return head + argv[cut:]


class _Values(argparse.Action):
    """Stores the floats of all of ``--values``' arguments as one list, a
    :class:`_Run` giving each of its values. The first value that is not a
    number is refused in the words argparse uses for ``type=float``."""

    def __call__(self, parser, namespace, values, option_string=None):
        floats = []
        for text in values:
            texts = text.split("\0") if type(text) is _Run else [text]
            try:
                floats += map(float, texts)
            except ValueError:
                for bad in texts:
                    try:
                        float(bad)
                    except ValueError:
                        break
                from gettext import gettext  # as argparse translates its own words

                message = gettext("invalid %(type)s value: %(value)r")
                raise argparse.ArgumentError(self, message % {"type": "float", "value": bad})
        setattr(namespace, self.dest, floats)


def _add_common(parser: argparse.ArgumentParser, tables: bool = True) -> None:
    """The common options; ``--format`` where result ``tables`` are written."""
    parser.add_argument(
        "--config",
        help=f"configuration JSON (falls back to ${CONFIG_ENV_VAR})",
    )
    parser.add_argument("--diaries", help="diary CSV file")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    if tables:
        parser.add_argument(
            "--format",
            choices=("csv", "json", "both"),
            default="both",
            help="artifact formats for result tables (default: both)",
        )
    parser.add_argument(
        "--round",
        type=int,
        default=2,
        metavar="N",
        help="decimals for the console summary (files keep full precision)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="telework-impact",
        description="Energy accounting for co-working versus office and home days.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse diaries and report rejected days")
    _add_common(p, tables=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("profile", help="aggregate activity and modal profiles per day type")
    _add_common(p, tables=False)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("delta", help="energy delta of a co-working day versus baselines")
    _add_common(p)
    p.add_argument(
        "--baseline",
        choices=("office", "home", "both"),
        default="office",
        help="baseline day type(s) (default: office)",
    )
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("sweep", help="evaluate one parameter over a list of values")
    _add_common(p)
    p.add_argument("--profiles", help="profiles JSON from a previous 'profile' run")
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--baseline", choices=("office", "home"), default="office")
    p.add_argument("--parameter", required=True, help="parameter to sweep")
    p.add_argument(
        "--values", nargs="+", action=_Values, required=True, help="parameter values"
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("breakeven", help="find the parameter value where net energy is zero")
    _add_common(p)
    p.add_argument("--profiles", help="profiles JSON from a previous 'profile' run")
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--baseline", choices=("office", "home"), default="office")
    p.add_argument("--parameter", required=True)
    p.add_argument(
        "--bounds", type=float, nargs=2, required=True, metavar=("LO", "HI")
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=1e-6,
        help="largest distance accepted from the true root (default: 1e-6); the root is "
        "solved exactly, up to float rounding, so this only has to be finite and > 0, and "
        "it is echoed in breakeven.json",
    )
    p.set_defaults(func=cmd_breakeven)

    return parser


def _config_path(args) -> str:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        raise ConfigError(
            f"no configuration file given; pass --config or set ${CONFIG_ENV_VAR}"
        )
    return path


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _call(module: str, name: str, /, *args, **kwargs):
    """``name`` of ``module`` called on ``args``, the module imported at the call,
    so that only the commands that run it load it. ``perfbench/tracing.py`` wraps
    the forwarders below by name as attributes of this module; they go once
    ROADMAP item 2 has the run report its own stages and unpins the tracer."""
    return getattr(import_module(module, __package__), name)(*args, **kwargs)


parse_diary_path = partial(_call, ".diary", "parse_diary_path")
apply_quality_filter = partial(_call, ".quality", "apply_quality_filter")
load_scenario = partial(_call, ".scenario", "load_scenario")
sweep = partial(_call, ".scenario", "sweep")
break_even = partial(_call, ".scenario", "break_even")


def _run_pipeline(args, config: AppConfig):
    """The diary file's data rows (parsed days plus the rows the read
    rejected), its kept days, and the rejections of the read and of the
    filter as two tables, each in row order; they are not joined:
    :func:`.report.rejection_columns` writes them in one order of their
    rows. Where the filter rejects a day, the kept days are a selection of
    the parsed table (see :class:`.diary.DiaryTable`): they gather only the
    columns the command reads, and hold the parsed table until they have
    gathered all five."""
    if not getattr(args, "diaries", None):
        raise ConfigError("no diary file given; pass --diaries")
    try:
        days, parse_rejected = parse_diary_path(args.diaries)
    except OSError as exc:
        raise ConfigError(f"cannot read diary file {args.diaries}: {exc}") from exc
    kept, quality_rejected = apply_quality_filter(days, config.quality_rules)
    return len(days) + len(parse_rejected), kept, (parse_rejected, quality_rejected)


def _load_profiles(args, config: AppConfig):
    """Profiles either recomputed from diaries or loaded from a profiles JSON."""
    if getattr(args, "profiles", None):
        path = Path(args.profiles)
        payload = read_json(path, "profiles")
        if payload.keys() == {"profiles"}:  # the shape 'profile' writes
            payload = payload["profiles"]
        try:
            return profiles_from_dict(payload), {"profiles": str(path)}
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"profiles file {path} is malformed: {exc}") from exc
    _, kept, _ = _run_pipeline(args, config)
    return aggregate_profiles(kept), {"diaries": str(args.diaries)}


def _round(value: float, args) -> float:
    """``value`` rounded to ``--round`` decimals, with no negative zero."""
    return round(value, args.round) + 0.0


def cmd_validate(args) -> int:
    config = load_config(_config_path(args))
    rows_seen, kept, rejected = _run_pipeline(args, config)
    # Only the count and the day types of the kept days are written: the
    # parsed table, which the kept days hold, is freed before the writes.
    kept_count, counts = len(kept), day_counts(kept)
    del kept
    out = _out_dir(args)

    rpt.write_csv(out / "rejections.csv", rpt.REJECTION_HEADER, rpt.rejection_columns(*rejected))
    report = rpt.base_report("validate", config, __version__, {"diaries": str(args.diaries)})
    report["input_summary"] = rpt.input_summary(args.diaries, rows_seen, kept_count, *rejected)
    report["day_counts"] = {t.value: n for t, n in counts.items()}
    rpt.write_json(out / "report.json", report)
    rpt.write_run_info(out)

    summary = report["input_summary"]
    print(f"parsed {summary['rows_parsed']} rows from {args.diaries}")
    print(f"kept {kept_count}, rejected {summary['rejected']} (see {out / 'rejections.csv'})")
    for reason, count in sorted(summary["rejected_by_reason"].items()):
        print(f"  {reason}: {count}")
    return EXIT_OK if kept_count else EXIT_INSUFFICIENT_DATA


def cmd_profile(args) -> int:
    config = load_config(_config_path(args))
    rows_seen, kept, rejected = _run_pipeline(args, config)
    profiles = aggregate_profiles(kept)
    out = _out_dir(args)

    rpt.write_csv(out / "profiles.csv", rpt.PROFILE_HEADER, rpt.profile_rows(profiles))
    rpt.write_json(out / "profiles.json", {"profiles": rpt.profiles_section(profiles)})
    rpt.write_csv(out / "plot_data.csv", rpt.PLOT_HEADER, rpt.plot_rows(profiles))
    report = rpt.base_report("profile", config, __version__, {"diaries": str(args.diaries)})
    report["input_summary"] = rpt.input_summary(args.diaries, rows_seen, len(kept), *rejected)
    report["profiles"] = rpt.profiles_section(profiles)
    rpt.write_json(out / "report.json", report)
    rpt.write_run_info(out)

    missing = [t for t in COMPARABLE_DAY_TYPES if profiles[t].day_count == 0]
    for day_type in COMPARABLE_DAY_TYPES:
        profile = profiles[day_type]
        travel = profile.mean_activity_minutes[Activity.TRAVEL]
        print(
            f"{day_type.value}: {profile.day_count} days, "
            f"mean travel {_round(travel, args)} min"
        )
    if missing:
        print(
            "insufficient data: no days for "
            + ", ".join(t.value for t in missing),
            file=sys.stderr,
        )
        return EXIT_INSUFFICIENT_DATA
    return EXIT_OK


def _emit_deltas(args, out: Path, deltas) -> None:
    if args.format in ("csv", "both"):
        rpt.write_csv(out / "delta.csv", rpt.DELTA_HEADER, rpt.delta_rows(deltas))
    if args.format in ("json", "both"):
        rpt.write_json(out / "delta.json", {"deltas": [rpt.delta_to_dict(d) for d in deltas]})


def cmd_delta(args) -> int:
    config = load_config(_config_path(args))
    rows_seen, kept, rejected = _run_pipeline(args, config)
    profiles = aggregate_profiles(kept)
    direct = direct_components(config.inventory, config.factors)

    deltas = [
        compare_day_types(profiles[DayType.COWORKING], profiles[baseline], direct, config.factors)
        for baseline in _BASELINE_CHOICES[args.baseline]
    ]

    out = _out_dir(args)
    _emit_deltas(args, out, deltas)
    report = rpt.base_report("delta", config, __version__, {"diaries": str(args.diaries)})
    report["input_summary"] = rpt.input_summary(args.diaries, rows_seen, len(kept), *rejected)
    report["profiles"] = rpt.profiles_section(profiles)
    report["deltas"] = [rpt.delta_to_dict(d) for d in deltas]
    rpt.write_json(out / "report.json", report)
    rpt.write_run_info(out)

    for delta in deltas:
        print(
            f"coworking vs {delta.baseline.value}: "
            f"facility {_round(delta.facility_mj, args):+}, "
            f"equipment {_round(delta.equipment_mj, args):+}, "
            f"travel {_round(delta.travel_mj, args):+}, "
            f"net {_round(delta.net_mj, args):+} MJ"
        )
    return EXIT_OK


def _scenario_from_args(args) -> Scenario:
    if getattr(args, "scenario", None):
        return load_scenario(args.scenario)
    from .scenario import Scenario

    return Scenario()


def cmd_sweep(args) -> int:
    config = load_config(_config_path(args))
    profiles, profile_source = _load_profiles(args, config)
    scenario = _scenario_from_args(args)
    baseline = _BASELINE_CHOICES[args.baseline][0]

    result = sweep(
        config.inventory,
        config.factors,
        profiles,
        scenario,
        args.parameter,
        args.values,
        baseline=baseline,
    )

    out = _out_dir(args)
    report = rpt.base_report("sweep", config, __version__, profile_source)
    report["scenario"] = scenario.name
    print(f"swept {args.parameter} over {len(result.values)} values (baseline {baseline.value})")

    from .sweep_writer import console_echo, write_sweep

    echo = console_echo(args.parameter, args.round)
    write_sweep(out, result, report, args.format, echo, sys.stdout)
    rpt.write_run_info(out)
    return EXIT_OK


def cmd_breakeven(args) -> int:
    config = load_config(_config_path(args))
    profiles, profile_source = _load_profiles(args, config)
    scenario = _scenario_from_args(args)
    baseline = _BASELINE_CHOICES[args.baseline][0]
    lo, hi = args.bounds

    root = break_even(
        config.inventory,
        config.factors,
        profiles,
        scenario,
        args.parameter,
        (lo, hi),
        tolerance=args.tolerance,
        baseline=baseline,
    )
    delta = root.at_root.points[0][1]  # the components at the root

    out = _out_dir(args)
    if args.format in ("csv", "both"):
        rpt.write_csv(out / "breakeven.csv", rpt.SWEEP_HEADER, rpt.sweep_rows(root.at_root))
    payload = {
        "parameter": args.parameter,
        "root": root,
        "bounds": [lo, hi],
        "tolerance": args.tolerance,
        "baseline": baseline.value,
        "delta_at_root": rpt.scenario_delta_to_dict(delta),
    }
    if args.format in ("json", "both"):
        rpt.write_json(out / "breakeven.json", payload)
    report = rpt.base_report("breakeven", config, __version__, profile_source)
    report["scenario"] = scenario.name
    report["breakeven"] = payload
    rpt.write_json(out / "report.json", report)
    rpt.write_run_info(out)

    print(
        f"break-even {args.parameter} = {root} "
        f"(net {_round(delta.net_mj, args):+} MJ at root, baseline {baseline.value})"
    )
    return EXIT_OK


def main(argv=None) -> int:
    # The CLI does no BLAS work. Without BLAS threads the process stays
    # single-threaded, so that a large diary file can be read in two
    # processes (see diary.parse_diary_path); numpy is not imported yet.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(_values_as_runs(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except NoRootError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_ROOT
    except MissingProfileError as exc:
        print(f"error: insufficient data: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT_DATA
    except TeleworkImpactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def run() -> NoReturn:
    """The process entry point: :func:`main`, then ``os._exit`` with its code
    once stdout, stderr and logging are flushed, which skips the interpreter's
    teardown; every artifact is closed by then. A SystemExit or an exception
    out of main, and a flush that fails (a closed pipe), end as usual."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        raise SystemExit(code)
    if "logging" in sys.modules:
        sys.modules["logging"].shutdown()
    os._exit(code)


if __name__ == "__main__":
    run()
