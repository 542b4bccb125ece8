"""One repetition of a benchmark workload, in a fresh interpreter.

Runs the workload's suites through ``hhl.cli.run_suite`` the way the
``hhl`` command does, catching each suite's exception as a failed
operation, emits the report with ``hhl.report.emit``, and writes one
JSON result file.  ``run.py`` starts this script; it is not meant to be
run by hand except for debugging:

    PYTHONPATH=src python3 perfbench/workload.py --workload h1 --seed 0 \\
        --spawned-at 0 --out perfbench/_work/rep --result perfbench/_work/rep.json

With ``--setup-only`` it stops where the first suite would start, so
``run.py`` can sample set-up time cheaply.  With ``--trace`` it installs
the outside tracer first and writes ``trace.json`` next to the report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

# Suites and config overrides per workload.  ``seed`` always comes from
# the command line; ``run_suites`` runs suites in sorted order, so do we.
WORKLOADS = {
    "commute": {"suites": ("commute",), "config": {}},
    "h1": {"suites": ("h1",), "config": {}},
    "sweeps": {
        "suites": ("adjoint", "bmo", "boundary", "lp", "moment", "norm"),
        "config": {"kernel": {"kind": "gencesaro", "alpha": 2},
                   "p_list": (2.0, 4.0)},
    },
}

ALL_SUITES = ("adjoint", "bmo", "boundary", "commute", "h1", "lp", "moment",
              "norm")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before spawning")
    ap.add_argument("--out", required=True, help="report directory")
    ap.add_argument("--result", required=True, help="result JSON path")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    spec = WORKLOADS[args.workload]

    import hhl.cli as cli
    import hhl.report as report_mod

    tracer = None
    if args.trace:
        from tracer import Tracer  # this script's directory is on sys.path
        tracer = Tracer().install()

    config = cli.RunConfig(seed=args.seed, **spec["config"])
    first_call = time.monotonic()
    result = {"setup_s": first_call - args.spawned_at,
              "hhl_file": cli.__file__}
    if args.setup_only:
        _write(args.result, result)
        return 0

    reports, raised, suite_s = [], [], {}
    t_first = time.perf_counter()
    for name in spec["suites"]:
        run = cli.run_suite if tracer is None else \
            tracer.traced(f"cli.suite.{name}", cli.run_suite)
        t0 = time.perf_counter()
        try:
            reports.append(run(name, config))
        except Exception as exc:  # a raising suite is a failed operation
            traceback.print_exc()
            raised.append(f"{name}: {type(exc).__name__}: {exc}")
        suite_s[name] = time.perf_counter() - t0
    wall_s = time.perf_counter() - t_first

    report_mod.emit(reports, args.out, fmt="both")
    report_json = Path(args.out) / "report.json"
    rows = [r for rep in reports for r in rep.rows]
    import numpy
    import scipy
    result.update({
        "wall_s": wall_s,
        "suite_s": suite_s,
        "rows": len(rows),
        "failed_rows": [f"{r.suite}/{r.check}" for r in rows if not r.passed],
        "raised": raised,
        "worst_resid_ratio": max((r.residual / r.tol for r in rows),
                                 default=0.0),
        "report_sha256": hashlib.sha256(report_json.read_bytes()).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    })
    if tracer is not None:
        tracer.uninstall()
        trace_path = Path(args.out) / "trace.json"
        tracer.dump(trace_path, ALL_SUITES)
        result["trace"] = str(trace_path)
    _write(args.result, result)
    return 0


def _write(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
