"""Benchmark entry point for the ``hhl`` verification suites.

    python3 perfbench/run.py --workload h1 --seed 0 --seconds 20 --trace 0

Runs repetitions of one workload, each in a fresh interpreter started from
``workload.py``, until ``--seconds`` have passed (at least one), checks that
every report row passed and that every repetition wrote the same report
bytes, and prints the metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run (with its overhead against untraced repetitions) with ``--trace 1``.
``--workload all`` runs every workload both ways and prints everything.

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metric_units
from workload import ALL_SUITES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

# one whole invocation must end within 180 s
DEADLINE_S = 170.0
# extra interpreters per untraced run that only time set-up
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "worst_resid_ratio": "ratio"}
PER_LAYER_UNITS = {**layer_metric_units(ALL_SUITES),
                   "trace.wall_s": "s", "trace.overhead_ratio": "ratio"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("HHL_BUDGET", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Runner:
    """Starts workload repetitions one at a time under one deadline."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.env = _child_env()
        self.started = time.monotonic()
        self.count = 0
        self.longest = 0.0

    def left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def room_for(self, repetitions: int) -> bool:
        return self.left() > 1.25 * repetitions * self.longest

    def spawn(self, trace=False, setup_only=False) -> dict:
        self.count += 1
        out = self.work_dir / f"rep{self.count}"
        out.mkdir(parents=True)
        result_path = out / "result.json"
        cmd = [sys.executable, str(HERE / "workload.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--out", str(out), "--result", str(result_path)]
        cmd += ["--trace"] if trace else []
        cmd += ["--setup-only"] if setup_only else []
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(t0)],
                                  env=self.env, cwd=ROOT, timeout=self.left(),
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True)
        except subprocess.TimeoutExpired as exc:  # run() killed and reaped it
            raise HarnessError(f"repetition {self.count} passed the "
                               f"{DEADLINE_S:.0f} s deadline") from exc
        self.longest = max(self.longest, time.monotonic() - t0)
        if proc.returncode != 0 or not result_path.exists():
            raise HarnessError(f"repetition {self.count} exited with code "
                               f"{proc.returncode}:\n{proc.stderr.strip()}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if Path(result["hhl_file"]).resolve().parent.parent != SRC.resolve():
            raise HarnessError(f"hhl was imported from {result['hhl_file']}, "
                               f"not from {SRC}")
        if trace:
            result["layers"] = json.loads(
                Path(result["trace"]).read_text(encoding="utf-8"))["metrics"]
        return result


def _spread(values):
    """(median, first quartile, third quartile) of the samples."""
    values = sorted(values)
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def _check(reps):
    """Correctness over repetitions: (attempted, failed, problems)."""
    attempted = sum(r["rows"] + len(r["raised"]) for r in reps)
    failed = sum(len(r["failed_rows"]) + len(r["raised"]) for r in reps)
    problems = []
    for r in reps:
        problems += [f"row failed: {name}" for name in r["failed_rows"]]
        problems += [f"suite raised: {msg}" for msg in r["raised"]]
    hashes = {r["report_sha256"] for r in reps}
    if len(hashes) > 1:
        problems.append(f"nondeterministic: {len(hashes)} different report "
                        f"hashes over {len(reps)} repetitions")
    return attempted, failed, sorted(set(problems))


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work_dir: Path) -> dict:
    """Run one workload and return its result record."""
    runner = Runner(workload, seed, work_dir)
    setups, plain, traced = [], [], []
    if not trace:
        setups = [runner.spawn(setup_only=True)["setup_s"]
                  for _ in range(SETUP_PROBES)]
    while not plain or (time.monotonic() - runner.started < seconds
                        and runner.room_for(2 if trace else 1)):
        plain.append(runner.spawn())
        if trace:
            traced.append(runner.spawn(trace=True))
    attempted, failed, problems = _check(plain + traced)

    wall = _spread([r["wall_s"] for r in plain])
    setup = _spread(setups + [r["setup_s"] for r in plain])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "repetitions": len(plain),
        "report_sha256": sorted({r["report_sha256"] for r in plain + traced}),
        "versions": plain[0]["versions"],
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "problems": problems,
        "samples": {"wall_s": [r["wall_s"] for r in plain],
                    "setup_s": setups + [r["setup_s"] for r in plain],
                    "suite_s": [r["suite_s"] for r in plain]},
        "quartiles": {"wall_s": wall, "setup_s": setup},
    }
    if not trace:
        record["metrics"] = {
            "wall_s": wall[0],
            "setup_s": setup[0],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "worst_resid_ratio": max(r["worst_resid_ratio"] for r in plain),
        }
        return record
    layers = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    layers["trace.wall_s"] = traced_wall
    layers["trace.overhead_ratio"] = traced_wall / wall[0]
    record["samples"]["trace.wall_s"] = [r["wall_s"] for r in traced]
    record["metrics"] = layers
    return record


def environment() -> dict:
    """Where the numbers were taken: machine, versions, commit, threads."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": _git_commit(),
        "thread_vars": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "child_thread_vars": "1",
        "load": "closed loop, one client: one workload process at a time",
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _units(record: dict) -> dict:
    return PER_LAYER_UNITS if record["trace"] else END_TO_END_UNITS


def _print_record(record: dict):
    units = _units(record)
    print(f"workload {record['workload']}: seed {record['seed']}, "
          f"{record['repetitions']} untraced repetition(s), "
          f"trace {record['trace']}, versions {record['versions']}")
    for name, value in record["metrics"].items():
        line = f"  {name:<42} {value:>14.6g} {units[name]}"
        if name in record["quartiles"]:
            _, q1, q3 = record["quartiles"][name]
            n = len(record["samples"][name])
            line += f"   (median; q1 {q1:.6g}, q3 {q3:.6g}, n={n})"
        print(line)
    print(f"  {'fail_frac':<42} {record['fail_frac']:>14.6g} ratio"
          f"   ({record['failed']} of {record['attempted']} rows failed)")
    hashes = record["report_sha256"]
    print(f"  report sha256 {hashes[0][:16]}... "
          f"{'identical' if len(hashes) == 1 else 'DIFFERS'} across "
          f"{record['repetitions'] * (1 + record['trace'])} repetition(s)")
    if record["trace"]:
        wall = record["quartiles"]["wall_s"][0]
        print(f"  tracing overhead: {record['metrics']['trace.wall_s']:.6g} s "
              f"traced against {wall:.6g} s untraced (median wall_s)")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def _run_one(workload, seed, seconds, trace, env_record) -> dict:
    work_dir = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        record = measure(workload, seed, seconds, trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record["environment"] = env_record
    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{workload}-s{seed}-t{int(trace)}-{stamp}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=1), encoding="utf-8")
    _print_record(record)
    return record


def _summary(record: dict) -> dict:
    units = _units(record)
    return {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": units[name]}
                    for name in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hhl" / "__init__.py").is_file():
        print(f"error: no hhl sources under {SRC}", file=sys.stderr)
        return 2
    env_record = environment()
    print(f"environment: {json.dumps(env_record)}")
    try:
        if args.workload != "all":
            record = _run_one(args.workload, args.seed, args.seconds,
                              bool(args.trace), env_record)
            print(json.dumps(_summary(record)))
            return 0
        summary = {}
        for name in sorted(WORKLOADS):
            for trace in (False, True):
                record = _run_one(name, args.seed, args.seconds, trace,
                                  env_record)
                summary[f"{name}/trace{int(trace)}"] = _summary(record)
        print(json.dumps(summary))
        return 0
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
