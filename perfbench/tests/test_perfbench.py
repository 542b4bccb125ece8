"""Checks of the benchmark harness itself.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hhl
import hhl.cli as cli
import hhl.quadrature as quadrature
from hhl.report import emit

import run
from tracer import Tracer
from workload import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == sorted(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.fixture
def tracer():
    t = Tracer().install()
    try:
        yield t
    finally:
        t.uninstall()


def test_install_rebinds_copied_bindings_and_uninstall_restores():
    # ``hhl.hilbert`` the attribute is the function; the module is here
    hilbert = sys.modules["hhl.hilbert"]
    realline = sys.modules["hhl.realline"]
    original = quadrature.integrate
    tracer = Tracer().install()
    try:
        wrapped = quadrature.integrate
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert hilbert.integrate is wrapped
        assert realline.integrate is wrapped
        assert hhl.integrate is wrapped
        assert cli.eval_at is realline.eval_at is hhl.eval_at
        assert cli.eval_at.__wrapped__ is not None
    finally:
        tracer.uninstall()
    for module in (quadrature, hilbert, realline, hhl):
        assert module.integrate is original


def test_integrand_and_engine_time_add_up_to_quadrature_time(tracer):
    def slow_bump(x):
        time.sleep(0.001)
        return np.exp(-x * x)

    t0 = time.perf_counter()
    res = quadrature.integrate(slow_bump, -1.0, 1.0, tol=1e-13)
    total = time.perf_counter() - t0
    m = tracer.metrics(())
    assert m["quadrature.integrate.calls"] == 1
    assert m["quadrature.abscissas"] == res.evaluations
    assert m["quadrature.point_evals"] == res.evaluations
    split = m["quadrature.integrand_s"] + m["quadrature.engine_s"]
    assert m["quadrature.integrand_s"] > 0.001 * res.evaluations / 31
    assert split == pytest.approx(total, rel=0.05)


def test_nested_calls_count_abscissas_once(tracer):
    res = quadrature.integrate_halfline(lambda t: np.exp(-t), tol=1e-10)
    m = tracer.metrics(())
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert m["quadrature.integrate_halfline.calls"] == 1
    assert m["quadrature.integrate.calls"] > 1
    assert m["quadrature.abscissas"] == res.evaluations
    assert m["quadrature.divergent"] == 0


def test_budget_error_is_counted_once_through_nested_calls(tracer):
    with pytest.raises(quadrature.BudgetError):
        quadrature.integrate_halfline(lambda t: np.sin(40.0 * t) / (1.0 + t),
                                      tol=1e-14, budget=200)
    assert tracer.metrics(())["quadrature.budget_errors"] == 1


def test_traced_report_is_byte_identical_to_untraced(tmp_path):
    spec = WORKLOADS["sweeps"]
    config = cli.RunConfig(seed=0, **spec["config"])
    cheap = ("adjoint", "bmo", "lp", "moment")

    def report_bytes(out):
        emit([cli.run_suite(name, config) for name in cheap], out, fmt="json")
        return (out / "report.json").read_bytes()

    plain = report_bytes(tmp_path / "plain")
    t = Tracer().install()
    try:
        traced = report_bytes(tmp_path / "traced")
    finally:
        t.uninstall()
    assert traced == plain
    assert t.metrics(())["kernels.eval_kernel.calls"] > 0


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=175)


def test_h1_passes_on_a_second_seed():
    proc = _bench(ROOT, "--workload", "h1", "--seed", "1", "--seconds", "0",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert "seed 1" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_results",
                                                  "__pycache__"))
    proc = _bench(tmp_path, "--workload", "h1", "--seed", "0", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
