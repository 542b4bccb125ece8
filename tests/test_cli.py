import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hhl import cli
from hhl.cli import RunConfig, main, run_suite, run_suites
from hhl.report import CheckRow, VerificationReport, emit, emit_sweep_csv


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


def test_checkrow_invariant():
    with pytest.raises(ValueError):
        CheckRow(suite="s", check="c", anchor="a", computed=1.0, predicted=1.0,
                 residual=2.0, tol=1.0, passed=True)


def test_emit_csv_and_json_roundtrip(tmp_path):
    rows = [CheckRow(suite="demo", check=f"row{i}", anchor="x", computed=1.0,
                     predicted=1.0, residual=0.0, tol=1.0, passed=True)
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


def test_emit_sweep_csv(tmp_path):
    path = emit_sweep_csv(tmp_path / "sweep.csv", [0.2, 0.1, 0.05],
                          {"quotient": [1.8, 1.9, 1.95]})
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 3


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


# a fuzzed config is a valid one with up to two fields replaced by junk
_VALID_FIELDS = {
    "kernel": st.sampled_from([
        {"kind": "cesaro"}, {"kind": "hardy"}, {"kind": "gencesaro", "alpha": 2},
        {"kind": "table", "points": [[0.5, 1.0], [1.0, 0.5]]}]),
    "p_list": st.lists(st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]),
                       max_size=2),
    "L": st.floats(1.0, 100.0),
    "N": st.sampled_from([16, 1 << 12]),
    "sweep_L": st.floats(1.0, 1e4),
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
