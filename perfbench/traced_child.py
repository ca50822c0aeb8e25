"""The traced child: one CLI invocation in process, with spans around the
package's public functions (see ``tracing.py``)::

    python3 perfbench/traced_child.py --spans spans.json --run-id 7-0 -- delta --config ...

Only ``sys``, ``time`` and ``builtins`` are loaded before the package. The
``import`` span therefore holds every module the package loads, the
standard-library ones that the tracer needs too. The package's first
``import numpy`` gets a child span of its own.
"""

import builtins
import sys
import time


def _import_package():
    """Import the CLI and report modules.

    Returns them, the (start, end) of the whole import and the (start, end)
    of numpy's first import, or None if the package made none.
    """
    real_import = builtins.__import__
    numpy = []

    def timed_import(name, globals=None, locals=None, fromlist=(), level=0):
        if level == 0 and name.partition(".")[0] == "numpy" and "numpy" not in sys.modules:
            start = time.perf_counter()
            try:
                return real_import(name, globals, locals, fromlist, level)
            finally:
                numpy.append((start, time.perf_counter()))
        return real_import(name, globals, locals, fromlist, level)

    builtins.__import__ = timed_import
    start = time.perf_counter()
    try:
        import telework_impact.cli as cli
        import telework_impact.report as report
    finally:
        builtins.__import__ = real_import
    return cli, report, (start, time.perf_counter()), (numpy[0] if numpy else None)


def main(argv: list) -> int:
    if len(argv) < 5 or argv[0] != "--spans" or argv[2] != "--run-id" or argv[4] != "--":
        print("usage: traced_child.py --spans PATH --run-id ID -- CLI_ARGS...", file=sys.stderr)
        return 1
    spans_path, run_id, cli_argv = argv[1], argv[3], argv[5:]
    cli, report, whole, numpy = _import_package()

    import json

    import tracing

    tracer = tracing.Tracer(run_id)
    parent = tracer.record("import", *whole)
    if numpy is not None:
        tracer.record("import_numpy", *numpy, parent=parent)
    tracing.install(tracer, cli, report)
    try:
        with tracer.span("main"):
            code = cli.main(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.payload(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
