"""Spans around the package's public functions, for the traced run.

``traced_child.py`` imports the package, installs the wrappers of this
module on the functions that ``telework_impact.cli`` and
``telework_impact.report`` call, runs ``cli.main(argv)`` in the same process
and writes the spans and counters as JSON when the run ends. Spans stay in
memory until then. A wrapped function that no longer exists is listed under
``missing``; the metrics built on it are then left out, never reported as
zero. ``summarize`` turns the span files of one iteration into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

#: Functions of ``telework_impact.report`` that build the rows and dicts of
#: an artifact; the CLI calls them before it hands the result to a writer.
REPORT_BUILDERS = (
    "rejection_rows",
    "profile_rows",
    "plot_rows",
    "delta_rows",
    "delta_to_dict",
    "scenario_delta_to_dict",
    "sweep_rows",
    "sweep_to_dict",
    "base_report",
    "input_summary",
    "profiles_section",
)
REPORT_FUNCTIONS = ("write_csv", "write_json", *REPORT_BUILDERS)

#: Wrapped name (as cli and report reference it) -> time metric. Each
#: metric is the summed self time of its spans over one iteration.
TIMED = {
    "load_config": "config.load_s",
    "parse_diary_path": "diary.parse_s",
    "apply_quality_filter": "diary.filter_s",
    "aggregate_profiles": "aggregation.aggregate_s",
    "profiles_from_dict": "aggregation.profiles_load_s",
    "direct_components": "energy.direct_s",
    "compare_day_types": "energy.compare_s",
    "load_scenario": "scenario.load_s",
    "sweep": "scenario.sweep_s",
    "break_even": "scenario.break_even_s",
    "write_csv": "report.write_s",
    "write_json": "report.write_s",
    **dict.fromkeys(REPORT_BUILDERS, "report.build_s"),
}
CLI_FUNCTIONS = [name for name in TIMED if name not in REPORT_FUNCTIONS]
REASONS = ("WORK_TOO_SHORT", "TOTAL_TOO_SHORT", "MODE_MISMATCH", "EXCLUDED_LOCATION", "PARSE_ERROR")

#: Counter -> the wrapped functions whose calls feed it.
COUNTED = {
    "diary.rows_read": ("parse_diary_path",),
    "diary.parse_rejected": ("parse_diary_path",),
    "diary.filter_in": ("apply_quality_filter",),
    "diary.kept": ("apply_quality_filter",),
    **{f"diary.rejected.{r}": ("parse_diary_path", "apply_quality_filter") for r in REASONS},
    "aggregation.days_in": ("aggregate_profiles",),
    "energy.calls": ("direct_components", "compare_day_types"),
    "scenario.sweep_points": ("sweep",),
    "scenario.break_even_calls": ("break_even",),
    "report.files_written": ("write_csv", "write_json"),
    "report.bytes_written": ("write_csv", "write_json"),
}
#: Ratio metric -> (numerator, denominator, scale); 0 when nothing was done.
DERIVED = {
    "diary.parse_us_per_row": ("diary.parse_s", "diary.rows_read", 1e6),
    "diary.keep_ratio": ("diary.kept", "diary.filter_in", 1.0),
    "scenario.sweep_us_per_point": ("scenario.sweep_s", "scenario.sweep_points", 1e6),
}

#: Every per-layer metric, in the order BENCHMARK.json lists them, with unit.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "config.load_s": "s",
    "diary.parse_s": "s",
    "diary.parse_us_per_row": "us",
    "diary.rows_read": "count",
    "diary.parse_rejected": "count",
    "diary.filter_s": "s",
    "diary.kept": "count",
    "diary.keep_ratio": "ratio",
    **{f"diary.rejected.{reason}": "count" for reason in REASONS},
    "aggregation.aggregate_s": "s",
    "aggregation.days_in": "count",
    "aggregation.profiles_load_s": "s",
    "energy.direct_s": "s",
    "energy.compare_s": "s",
    "energy.calls": "count",
    "scenario.load_s": "s",
    "scenario.sweep_s": "s",
    "scenario.sweep_points": "count",
    "scenario.sweep_us_per_point": "us",
    "scenario.break_even_s": "s",
    "scenario.break_even_calls": "count",
    "report.build_s": "s",
    "report.write_s": "s",
    "report.files_written": "count",
    "report.bytes_written": "B",
    "cli.stderr_lines": "count",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
    "host.slowdown": "ratio",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    """Records nested spans and counters for one traced invocation."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, time.perf_counter(), math.nan, parent, self.run_id)
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float, parent: int | None = None) -> int:
        """Add a span timed before the tracer existed; returns its id."""
        self.spans.append(Span(len(self.spans), name, start, end, parent, self.run_id))
        return len(self.spans) - 1

    def payload(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [asdict(span) for span in self.spans],
            "counts": self.counts,
            "missing": self.missing,
        }

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, module, name: str, on_result=None) -> None:
        """Replace ``module.name`` by a traced wrapper; ``on_result(args,
        result)`` updates counters after the span has ended."""
        target = getattr(module, name, None)
        if not callable(target):
            self.missing.append(f"{module.__name__}.{name}")
            return

        @functools.wraps(target)
        def traced(*args, **kwargs):
            with self.span(name):
                result = target(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(module, name, traced)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(span["id"], ())):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        out[span["id"]] = (end - start) - covered
    return out


def _sources(metric: str) -> set[str]:
    """Wrapped functions a metric is built on."""
    if metric in DERIVED:
        numerator, denominator, _ = DERIVED[metric]
        return _sources(numerator) | _sources(denominator)
    return set(COUNTED.get(metric, ())) | {name for name, m in TIMED.items() if m == metric}


def summarize(payloads: list[dict], stderr_lines: int) -> tuple[dict, list[str]]:
    """Per-layer metrics of one iteration from its invocations' span files.

    Returns the metrics (except ``trace.overhead_s`` and ``host.slowdown``,
    which need the untraced runs and the reference task) and the wrapped
    functions that were missing; metrics built on a missing function are
    left out.
    """
    missing = sorted({name for payload in payloads for name in payload["missing"]})
    gone = {name.rsplit(".", 1)[1] for name in missing}
    metrics = dict.fromkeys(
        ["cli.import_s", "cli.import_numpy_s", "cli.overhead_s", *TIMED.values(), *COUNTED], 0.0
    )
    for payload in payloads:
        own = self_times(payload["spans"])
        for span in payload["spans"]:
            name = span["name"]
            if name == "import":
                metrics["cli.import_s"] += span["end"] - span["start"]
            elif name == "import_numpy":
                metrics["cli.import_numpy_s"] += span["end"] - span["start"]
            elif name == "main":
                metrics["cli.overhead_s"] += own[span["id"]]
            else:
                metrics[TIMED[name]] += own[span["id"]]
        for name, value in payload["counts"].items():
            metrics[name] += value
    for name, (numerator, denominator, scale) in DERIVED.items():
        den = metrics[denominator]
        metrics[name] = scale * metrics[numerator] / den if den else 0.0
    metrics = {name: v for name, v in metrics.items() if not _sources(name) & gone}
    metrics.pop("diary.filter_in", None)
    metrics["cli.stderr_lines"] = float(stderr_lines)
    return metrics, missing


def install(tracer: Tracer, cli, report) -> None:
    """Wrap the functions of ``cli`` and ``report`` that the metrics need."""
    def tally(items):
        for item in items:
            tracer.count(f"diary.rejected.{item.reason.value}")

    def on_parse(args, result):
        days, rejected = result
        tracer.count("diary.rows_read", len(days) + len(rejected))
        tracer.count("diary.parse_rejected", len(rejected))
        tally(rejected)

    def on_filter(args, result):
        kept, rejected = result
        tracer.count("diary.filter_in", len(args[0]))
        tracer.count("diary.kept", len(kept))
        tally(rejected)

    def on_write(args, result):
        tracer.count("report.files_written")
        tracer.count("report.bytes_written", Path(args[0]).stat().st_size)

    hooks = {
        "parse_diary_path": on_parse,
        "apply_quality_filter": on_filter,
        "aggregate_profiles": lambda args, result: tracer.count("aggregation.days_in", len(args[0])),
        "direct_components": lambda args, result: tracer.count("energy.calls"),
        "compare_day_types": lambda args, result: tracer.count("energy.calls"),
        "sweep": lambda args, result: tracer.count("scenario.sweep_points", len(result.points)),
        "break_even": lambda args, result: tracer.count("scenario.break_even_calls"),
        "write_csv": on_write,
        "write_json": on_write,
    }
    for name in CLI_FUNCTIONS:
        tracer.wrap(cli, name, hooks.get(name))
    for name in REPORT_FUNCTIONS:
        tracer.wrap(report, name, hooks.get(name))
