"""Benchmark of the telework-impact CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ingest_clean --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client runs one CLI child at a time (a closed loop). Every child's
artifacts are checked against the oracle in ``oracle.py``. With
``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` each iteration runs the workload once untraced and once under
``traced_child.py``, and the last line reports the per-layer metrics. The last
line is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"

#: Fresh children timed from spawn through import and load_config, taken
#: before every iteration so that a burst of load on the shared machine
#: cannot skew them all.
SETUP_SAMPLES_PER_ITERATION = 3
#: The time ``reference.py`` takes, spawn to exit, on the machine described
#: in README.md while other tenants are quiet. Times are reported at this
#: speed: a run whose reference task takes twice as long has its measured
#: times halved (see README.md).
REFERENCE_NOMINAL_S = 0.35
#: What ``reference.py`` prints when it has done all of its work.
REFERENCE_CHECKSUM = "415767902"
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SETUP_CODE = (
    "import sys, time\n"
    "import telework_impact.cli\n"
    "from telework_impact.config import load_config\n"
    "load_config(sys.argv[1])\n"
    "print(repr(time.perf_counter()))\n"
)


@dataclass
class Iteration:
    """One pass over a workload's invocations."""

    wall: float = 0.0
    throughput_wall: float = 0.0
    throughput_items: int = 0
    peak_rss_kb: int = 0
    attempted: int = 0
    failed: int = 0
    stderr_lines: int = 0
    spans: list = field(default_factory=list)


class Runner:
    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.stdout = work / "stdout.txt"
        self.stderr = work / "stderr.txt"
        self.runs = 0

    def spawn(self, argv: list[str]) -> tuple[int, float, int]:
        """Run one child to its end: (exit code, spawn-to-exit s, max RSS KB).

        A child still running after CHILD_TIMEOUT_S is killed and counts as
        failed.
        """
        with open(self.stdout, "wb") as out, open(self.stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss

    def setup_sample(self, config: Path) -> float:
        start = time.perf_counter()
        code, _, _ = self.spawn([sys.executable, "-c", SETUP_CODE, str(config)])
        if code != 0:
            raise RuntimeError(f"set-up child failed: {self.stderr.read_text(errors='replace')}")
        return float(self.stdout.read_text()) - start

    def reference_sample(self) -> float:
        code, wall, _ = self.spawn([sys.executable, str(BENCH_DIR / "reference.py")])
        if code != 0 or self.stdout.read_text().strip() != REFERENCE_CHECKSUM:
            raise RuntimeError(f"reference task failed: {self.stderr.read_text(errors='replace')}")
        return wall

    def iteration(self, case: workloads.Case, traced: bool) -> Iteration:
        result = Iteration()
        for inv in case.invocations:
            shutil.rmtree(inv.out, ignore_errors=True)
            if traced:
                spans = self.work / "spans.json"
                spans.unlink(missing_ok=True)
                argv = [sys.executable, str(BENCH_DIR / "traced_child.py"), "--spans", str(spans),
                        "--run-id", f"{case.name}-{inv.label}-{self.runs}", "--", *inv.argv]
            else:
                argv = [sys.executable, "-m", "telework_impact", *inv.argv]
            self.runs += 1
            code, wall, rss = self.spawn(argv)
            result.wall += wall
            result.peak_rss_kb = max(result.peak_rss_kb, rss)
            if inv.throughput_items:
                result.throughput_wall += wall
                result.throughput_items += inv.throughput_items
            with open(self.stderr, "rb") as err:
                result.stderr_lines += sum(1 for _ in err)
            result.attempted += inv.attempted
            if code != 0:
                result.failed += inv.attempted
                continue
            result.failed += inv.check(inv.out)
            if traced:
                result.spans.append(json.loads(spans.read_text(encoding="utf-8")))
        return result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and human-readable lines."""
    work = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        case = workloads.BUILDERS[name](seed, work / "inputs", ROOT)
        runner = Runner(work)
        runner.setup_sample(case.config)  # compiles bytecode, warms the file cache
        setups: list[float] = []
        references: list[float] = []
        plain: list[Iteration] = []
        traced: list[Iteration] = []
        deadline = time.perf_counter() + seconds
        while len(plain) < MIN_ITERATIONS or time.perf_counter() < deadline:
            references.append(runner.reference_sample())
            setups += [runner.setup_sample(case.config) for _ in range(SETUP_SAMPLES_PER_ITERATION)]
            references.append(runner.reference_sample())
            plain.append(runner.iteration(case, traced=False))
            references.append(runner.reference_sample())
            if trace:
                traced.append(runner.iteration(case, traced=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    # The reference task brackets the set-up samples and the invocations of
    # every iteration. Its mean time over REFERENCE_NOMINAL_S tells how much
    # slower the machine ran during the run. The measured times are means
    # too, so that both average over the same fast and slow spells.
    slowdown = statistics.fmean(references) / REFERENCE_NOMINAL_S
    measured = {
        "setup_s": statistics.fmean(setups),
        "wall_s": statistics.fmean(it.wall for it in plain),
        "items_per_s": sum(it.throughput_items for it in plain)
        / sum(it.throughput_wall for it in plain),
    }
    end_to_end = {
        "setup_s": measured["setup_s"] / slowdown,
        "wall_s": measured["wall_s"] / slowdown,
        "items_per_s": measured["items_per_s"] * slowdown,
        "peak_rss_mb": statistics.median(it.peak_rss_kb / 1024 for it in plain),
    }
    iterations = plain + traced
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    lines = [
        f"workload {name}, seed {seed}: {len(plain)} iterations"
        + (f" + {len(traced)} traced" if trace else "")
        + f", {len(setups)} set-up samples; reference task {slowdown:.3f}x its nominal time",
        *(f"  {metric:<14} {value:.6g} {END_TO_END[metric]}"
          + (f" (as measured: {measured[metric]:.6g})" if metric in measured else "")
          for metric, value in end_to_end.items()),
        f"  {'error_rate':<14} {failed / attempted:.6g} ({failed} of {attempted} rows, points "
        f"or roots differ from the oracle)",
    ]
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    if trace:
        summaries = [tracing.summarize(it.spans, it.stderr_lines) for it in traced]
        missing = sorted({fn for _, gone in summaries for fn in gone})
        per_layer = {}
        for metric, unit in tracing.PER_LAYER.items():
            values = [s[metric] for s, _ in summaries if metric in s]
            if values:
                per_layer[metric] = {"value": statistics.median(values), "unit": unit}
        overhead = statistics.fmean(it.wall for it in traced) - measured["wall_s"]
        per_layer["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        per_layer["host.slowdown"] = {"value": slowdown, "unit": "ratio"}
        lines += [f"  {m:<28} {v['value']:.6g} {v['unit']}" for m, v in per_layer.items()]
        lines += [f"  missing (wrapped function gone, metric left out): {m}" for m in missing]
        metrics = per_layer
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    # A terminated run still kills its child and removes its work directory.
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="append each result as a JSON line here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "telework_impact" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        print("\n".join(lines))
        if args.save:
            args.save.parent.mkdir(parents=True, exist_ok=True)
            record = {"workload": name, "seed": args.seed, "trace": args.trace, **result}
            with open(args.save, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
    if len(names) == 1:
        final = results[names[0]]
    else:
        for name, result in results.items():
            print(f"{name}: {json.dumps(result)}")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
