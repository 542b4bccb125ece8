import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hhl import cli
from hhl.cli import RunConfig, main, run_suite, run_suites
from hhl.report import CheckRow, VerificationReport, emit


def test_config_defaults_and_validation():
    c = RunConfig()
    assert c.make_kernel().kind == "cesaro"
    with pytest.raises(ValueError):
        RunConfig(N=100)
    with pytest.raises(ValueError):
        RunConfig(p_list=(0.5,))
    with pytest.raises(ValueError):
        RunConfig(L=-1.0)


def test_config_from_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"kernel": {"kind": "gencesaro", "alpha": 2},
                                "p_list": [2], "suites": ["moment"],
                                "seed": 7}))
    c = RunConfig.from_json(path)
    assert c.make_kernel().kind == "gencesaro"
    assert c.suites == ("moment",)
    assert c.seed == 7


def test_config_rejects_unknown_fields(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"kernle": {"kind": "cesaro"}}))
    with pytest.raises(ValueError):
        RunConfig.from_json(path)


def test_checkrow_passes_at_and_below_tol():
    def row(residual):
        return CheckRow(suite="s", check="c", anchor="a", computed=1.0,
                        predicted=1.0, residual=residual, tol=1.0)

    assert row(0.5).passed and row(1.0).passed
    assert not row(math.nextafter(1.0, 2.0)).passed
    assert not row(2.0).passed and not row(math.nan).passed


def test_rows_exactly_at_their_gate_pass(monkeypatch):
    # the harness owns the gates: a commute residual of exactly 1e-5 and a
    # final boundary error of exactly 1e-3 of |f*|_p both pass
    monkeypatch.setattr(cli, "commutation_check",
                        lambda kernels, fs, p: [[1e-5] * len(fs) for _ in kernels])
    monkeypatch.setattr(cli, "boundary_identity_check",
                        lambda k, f, p, ys, L: ([2.0 ** -i for i in range(len(ys) - 1)]
                                                + [1e-3], 1.0))
    for name in ("commute", "boundary"):
        rep = run_suite(name, RunConfig())
        gated = [r for r in rep.rows if r.tol in (1e-5, 1e-3)]
        assert len(gated) == {"commute": 6, "boundary": 2}[name]
        assert all(r.residual == r.tol for r in gated)
        assert rep.passed
    # commute rows come kernel-major, named after kernel and function
    assert [r.check for r in run_suite("commute", RunConfig()).rows] == [
        f"{k} on {f}" for k in ("cesaro", "hardy") for f in ("gauss", "xgauss", "P1diff")]


def test_nan_measurement_fails_its_rows(monkeypatch):
    # a NaN quotient that is not first, or a NaN line quotient, fails every
    # row that reads it; the rows that do not read it still pass
    nan = math.nan
    monkeypatch.setattr(cli, "norm_lower_bound_sweep",
                        lambda k, p, epsilons, L: (1.9, nan, 1.95, 1.97))
    monkeypatch.setattr(cli, "lp_lower_bound_sweep",
                        lambda k, p, epsilons: ((nan,), (1.9,)))
    config = RunConfig(p_list=(2.0,))
    norm = {r.check: r.passed for r in run_suite("norm", config).rows}
    assert norm.pop("p=2 quotients under moment") is False
    assert norm.pop("p=2 best quotient") is False
    assert all(norm.values())
    lp = {r.check: r.passed for r in run_suite("lp", config).rows}
    assert lp == {"p=2 large-scale witness": False, "p=2 large-scale under moment": False,
                  "p=2 small-scale witness": True, "p=2 small-scale under moment": True}


def test_lp_suite_runs_where_the_small_exponent_is_negative():
    # at p = 8, eps = 0.2 the small family's s = 1/p - eps is -0.075; the
    # suite returns its rows: the witnesses sit at 0.43 and 0.38 of the
    # moment and fail their gate, and both under-moment rows pass
    rep = run_suite("lp", RunConfig(p_list=(8.0,), epsilons=(0.2,)))
    rows = {r.check: r.passed for r in rep.rows}
    assert rows == {"p=8 large-scale witness": False, "p=8 large-scale under moment": True,
                    "p=8 small-scale witness": False, "p=8 small-scale under moment": True}


def test_emit_csv_and_json_roundtrip(tmp_path):
    rows = [CheckRow(suite="demo", check=f"row{i}", anchor="x", computed=1.0,
                     predicted=1.0, residual=0.0, tol=1.0)
            for i in range(3)]
    rep = VerificationReport(suite="demo", rows=rows, environment={"n": 3},
                             wall_time_s=1.23)
    paths = emit(rep, tmp_path, fmt="both", stem="demo")
    csv_path = [p for p in paths if p.suffix == ".csv"][0]
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "suite,check,anchor,computed,predicted,residual,tol,pass"
    assert len(lines) == 4
    json_path = [p for p in paths if p.suffix == ".json"][0]
    payload = json.loads(json_path.read_text())
    back = payload["reports"][0]
    assert back["suite"] == "demo"
    assert back["passed"] is True
    assert len(back["rows"]) == 3
    assert "wall_time" not in json.dumps(payload)


def test_moment_suite_passes():
    rep = run_suite("moment", RunConfig(p_list=(2.0, 4.0)))
    assert rep.passed
    assert any("inf" in str(r.computed) for r in rep.rows)


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nope", RunConfig())


def test_norm_suite_unbounded_rows():
    cfg = RunConfig(kernel={"kind": "hardy"}, p_list=(1.0,), suites=("norm",))
    rep = run_suite("norm", cfg)
    assert rep.passed
    assert any("unbounded" in r.check for r in rep.rows)


def test_determinism_bit_identical(tmp_path):
    cfg = RunConfig(suites=("moment", "bmo"), seed=42, N=1 << 10)
    a = run_suites(cfg)
    emit(a, tmp_path / "a", fmt="json")
    b = run_suites(cfg)
    emit(b, tmp_path / "b", fmt="json")
    assert (tmp_path / "a" / "report.json").read_bytes() == \
        (tmp_path / "b" / "report.json").read_bytes()


def test_main_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kernel": {"kind": "bogus"}, "suites": ["moment"]}))
    code = main(["--config", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


def test_main_unknown_suite_flag():
    assert main(["--suite", "bogus"]) == 2


def test_main_moment_run(tmp_path, capsys):
    code = main(["--suite", "moment", "--out", str(tmp_path), "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    assert "[PASS]" in captured.out
    assert (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("fields", [
    {"p_list": []},
    {"epsilons": []},
    {"epsilons": [0.1, 0.2]},
    {"epsilons": [1.5, 0.5]},
    {"epsilons": [0.2, 0.0]},
    {"kernel": {"kind": "hardy"}, "epsilons": [0.9]},
    {"kernel": {"kind": "hardy"}, "p_list": [4], "epsilons": [0.8, 0.1]},
    {"y_seq": []},
    {"y_seq": [0.1, 0.5]},
    {"y_seq": [0.5, 0.0]},
    {"deltas": [0.1, 0.25, 0.5]},
    {"sweep_L": 1.0},
    {"sweep_L": 0.5},
])
def test_main_rejects_malformed_config(tmp_path, capsys, fields):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**fields, "suites": ["moment"]}))
    code = main(["--config", str(bad), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert not (tmp_path / "report.json").exists()


def test_config_accepts_shrinking_shift_epsilons():
    # below 1 - 1/p at every finite p > 1; p = 1 sets no bound
    RunConfig(kernel={"kind": "hardy"}, p_list=(1.0, 2.0, math.inf),
              epsilons=(0.4, 0.1))


@pytest.mark.parametrize("raw", ["abc", "0", "-5", "1.5"])
def test_main_rejects_malformed_budget(monkeypatch, capsys, raw):
    monkeypatch.setenv("HHL_BUDGET", raw)
    assert main(["--suite", "moment"]) == 2
    assert "HHL_BUDGET" in capsys.readouterr().err


def test_raising_suite_becomes_error_row(tmp_path, monkeypatch, capsys):
    def boom(config):
        raise RuntimeError(f"broken at {object()!r}")

    monkeypatch.setitem(cli.SUITES, "boom", boom)
    code = main(["--suite", "boom,moment", "--out", str(tmp_path),
                 "--format", "json"])
    assert code == 1
    reports = json.loads((tmp_path / "report.json").read_text())["reports"]
    by_suite = {r["suite"]: r for r in reports}
    assert by_suite["moment"]["passed"] is True
    (row,) = by_suite["boom"]["rows"]
    assert row["pass"] is False
    assert row["computed"].startswith("RuntimeError: broken at <object object")
    assert "0x" not in row["computed"]
    assert "[FAIL] boom/suite raised" in capsys.readouterr().out


def test_h1_suite_reports_unbounded_kernel(tmp_path):
    cfg = tmp_path / "hardy.json"
    cfg.write_text(json.dumps({"kernel": {"kind": "hardy"}}))
    code = main(["--config", str(cfg), "--suite", "h1", "--out", str(tmp_path),
                 "--format", "json"])
    (rep,) = json.loads((tmp_path / "report.json").read_text())["reports"]
    checks = [r["check"] for r in rep["rows"]]
    assert "p=1 unbounded" in checks
    assert sum(c.startswith("corpus[") for c in checks) == 3
    assert rep["passed"] and code == 0


def test_h1_suite_runs_under_table_kernel():
    # residuals normalised by the truncated kernel mass may exceed that
    # mass; the h1 rows judge them, and the suite does not raise
    cfg = RunConfig(kernel={"kind": "table",
                            "points": [[0.3, 0.02], [0.6, 0.03], [0.9, 0.02]]})
    rep = run_suite("h1", cfg)
    checks = [r.check for r in rep.rows]
    assert "residuals decrease in eps" in checks and "final residual eps=0.02" in checks
    assert rep.passed


# a fuzzed config is a valid one with up to two fields replaced by junk
_VALID_FIELDS = {
    "kernel": st.sampled_from([
        {"kind": "cesaro"}, {"kind": "hardy"}, {"kind": "gencesaro", "alpha": 2},
        {"kind": "table", "points": [[0.5, 1.0], [1.0, 0.5]]}]),
    "p_list": st.lists(st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]),
                       min_size=1, max_size=2),
    "L": st.floats(1.0, 100.0),
    "N": st.sampled_from([16, 1 << 12]),
    "sweep_L": st.floats(1.0, 1e4, exclude_min=True),
    "epsilons": st.sampled_from([[0.2, 0.1], [0.3, 0.2, 0.02]]),
    "y_seq": st.sampled_from([[0.5, 0.1], [2e-3]]),
    "suites": st.sampled_from([["moment"], []]),
    "seed": st.integers(0, 10),
    "fmt": st.sampled_from(["csv", "json", "both"]),
}
_SCALAR_JUNK = st.one_of(
    st.none(), st.booleans(), st.sampled_from(["", "xml", "moment", "2"]),
    st.integers(-3, 100), st.floats(allow_nan=True, allow_infinity=True))
_JUNK = st.one_of(_SCALAR_JUNK, st.lists(_SCALAR_JUNK, max_size=3),
                  st.dictionaries(st.sampled_from(["kind", "alpha", "points"]),
                                  _SCALAR_JUNK, max_size=2))
_CONFIGS = st.builds(
    lambda base, junk: {**base, **junk},
    st.fixed_dictionaries({}, optional=_VALID_FIELDS),
    st.dictionaries(st.sampled_from(sorted(_VALID_FIELDS) + ["out_dir", "bogus"]),
                    _JUNK, max_size=2))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=_CONFIGS)
def test_fuzz_config_parses_or_reports(tmp_path_factory, raw):
    """Every config either fails at parse time with exit 2 or runs the
    moment suite to a written report; nothing escapes as an exception."""
    out = tmp_path_factory.mktemp("fuzz")
    path = out / "config.json"
    path.write_text(json.dumps(raw))
    code = main(["--config", str(path), "--suite", "moment", "--out", str(out / "r")])
    written = any((out / "r" / f"report.{ext}").exists() for ext in ("csv", "json"))
    assert (code == 2 and not written) or (code in (0, 1) and written)


_BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is imported at run time")

sys.meta_path.insert(0, BlockScipy())
from hhl.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_runtime_loads_no_scipy(tmp_path):
    """hhl runs on numpy alone: in a fresh interpreter where every scipy
    import fails, ``import hhl.cli`` and the suites that used scipy run and
    pass (moment with gencesaro reaches the beta function, h1 the window
    filters and FFT convolutions, commute the splines and PCHIP)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    gencesaro = tmp_path / "gencesaro.json"
    gencesaro.write_text(json.dumps({"kernel": {"kind": "gencesaro", "alpha": 2}}))
    # h1's gates are set for the default kernel, so it runs at the default
    for suites, config in (("moment", ["--config", str(gencesaro)]), ("h1,commute", [])):
        out_dir = tmp_path / suites
        out = subprocess.run([sys.executable, "-c", _BLOCK_SCIPY, *config, "--suite", suites,
                              "--out", str(out_dir), "--format", "json"],
                             env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr + out.stdout
        reports = json.loads((out_dir / "report.json").read_text())["reports"]
        assert {rep["suite"] for rep in reports} == set(suites.split(","))


@pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
def test_closed_moment_beta_matches_scipy(alpha, p):
    from scipy.special import beta
    want = alpha * beta(1.0 / p, alpha)
    got = cli._closed_moment("gencesaro", alpha, p)
    assert abs(got - want) <= 4 * math.ulp(want)


def test_closed_moment_beta_where_gamma_overflows():
    # Gamma(alpha) overflows from alpha = 171.7 on; the lgamma route keeps
    # the closed form finite there, to a few digits fewer
    from scipy.special import beta
    got = cli._closed_moment("gencesaro", 200.0, 2.0)
    assert got == pytest.approx(200.0 * beta(0.5, 200.0), rel=1e-12)
