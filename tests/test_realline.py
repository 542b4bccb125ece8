import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hhl.realline as realline
from hhl.realline import (SampledLine, _convolve_rows, _pchip, _spline, eval_at,
                          lp_norm)


def indicator01(x):
    x = np.asarray(x, dtype=float)
    return ((x >= 0) & (x <= 1)).astype(complex)


def test_grid_geometry():
    f = SampledLine.from_function(np.cos, 4.0, 64)
    assert f.h == pytest.approx(0.125)
    assert f.grid()[0] == -4.0
    assert f.grid()[-1] == pytest.approx(4.0 - 0.125)


def test_rejects_bad_sample_counts():
    with pytest.raises(ValueError):
        SampledLine.from_values(np.zeros(8), 1.0)
    with pytest.raises(ValueError):
        SampledLine.from_values(np.zeros(100), 1.0)


def test_tag_must_match_samples():
    xs = np.arange(16)
    with pytest.raises(ValueError):
        SampledLine(L=1.0, values=np.zeros(16), form=lambda x: x + 1.0)


def test_derived_form_matches_validating_path():
    # a form that passes the probe: derived() skips only the probe
    fn = lambda x: np.exp(-np.asarray(x) ** 2) * (1 + 0.5j * np.asarray(x))
    L, N = 4.0, 64
    checked = SampledLine.from_function(fn, L, N, tail_power=2.0, label="g")
    derived = SampledLine.derived(fn(checked.grid()), L, fn, tail_power=2.0,
                                  label="g")
    assert (derived.L, derived.tail_power, derived.label) == (L, 2.0, "g")
    assert derived.form is fn
    assert derived.values.dtype == complex
    assert derived.values.tobytes() == checked.values.tobytes()
    probes = np.array([-7.0, -4.0, -1.3, 0.0, 0.37, 3.9, 12.0])
    assert derived.form(probes).tobytes() == checked.form(probes).tobytes()
    assert eval_at(derived, probes).tobytes() == eval_at(checked, probes).tobytes()
    # untagged data goes through the cached splines the same way
    plain = [SampledLine.from_values(f.values, L) for f in (checked, derived)]
    assert eval_at(plain[0], probes).tobytes() == eval_at(plain[1], probes).tobytes()
    assert plain[0]._spline is plain[0]._spline
    # the probe is the only check skipped
    with pytest.raises(ValueError):
        SampledLine.derived(np.zeros(8), L, fn)
    bad = SampledLine.derived(np.zeros(N), L, fn)
    assert bad.form is fn
    with pytest.raises(ValueError):
        SampledLine(L=L, values=np.zeros(N), form=fn)


def test_lp_indicator():
    f = SampledLine.from_function(indicator01, 4.0, 1 << 12)
    assert lp_norm(f, 2.0) == pytest.approx(1.0, abs=2 * f.h)


def test_lp_zero():
    f = SampledLine.from_values(np.zeros(64), 2.0)
    assert lp_norm(f, 1.0) == 0.0
    assert lp_norm(f, math.inf) == 0.0


def test_lp_poisson_tail_corrected():
    f = SampledLine.from_function(lambda x: 1.0 / (x * x + 1.0), 64.0, 1 << 12,
                                  tail_power=2.0)
    assert lp_norm(f, 1.0) == pytest.approx(math.pi, rel=1e-3)
    # the tag's tails beyond the window count
    assert lp_norm(f, 1.0) > lp_norm(SampledLine.from_values(f.values, f.L), 1.0)


def test_eval_dilated_examples():
    f = SampledLine.from_function(indicator01, 4.0, 1 << 10)
    # f(x/t) at (x, t) = (1, 2), (3, 2) and (2, 2)
    assert eval_at(f, 1.0 / 2.0) == pytest.approx(1.0)
    assert eval_at(f, 3.0 / 2.0) == pytest.approx(0.0)
    g = SampledLine.from_function(lambda x: np.exp(-np.asarray(x) ** 2), 4.0, 64)
    assert eval_at(g, 2.0 / 2.0) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_interpolation_zero_outside():
    f = SampledLine.from_values(np.ones(64), 2.0)
    assert eval_at(f, 5.0) == 0.0
    assert eval_at(f, 0.37) == pytest.approx(1.0, rel=1e-9)


def test_nested_grid_convergence():
    # window edges carry curvature, so the trapezoid error is genuinely h^2
    fn = lambda x: np.cos(np.asarray(x, dtype=float))
    exact = (2.0 + math.sin(4.0) / 2.0) ** 0.5  # L2 norm of cos on [-2, 2]
    errs = [abs(lp_norm(SampledLine.from_function(fn, 2.0, n), 2.0) - exact)
            for n in (1 << 7, 1 << 8, 1 << 9)]
    assert errs[1] < errs[0] and errs[2] < errs[1]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


@settings(max_examples=25, deadline=None)
@given(st.floats(-5, 5).filter(lambda c: abs(c) > 1e-6))
def test_lp_homogeneity_exact(c):
    f = SampledLine.from_values(np.linspace(-1, 1, 64) ** 3, 2.0)
    scaled = SampledLine.from_values(c * f.values, 2.0)
    assert lp_norm(scaled, 3.0) == pytest.approx(abs(c) * lp_norm(f, 3.0), rel=1e-13)
    assert lp_norm(scaled, math.inf) == abs(c) * lp_norm(f, math.inf)


@pytest.mark.parametrize("lam", [0.5, 2.0, 3.0])
def test_dilation_scaling(lam):
    fn = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    p = 2.0
    base = lp_norm(SampledLine.from_function(fn, 16.0, 1 << 12), p)
    dil = lp_norm(SampledLine.from_function(lambda x: fn(np.asarray(x) / lam),
                                            16.0 * lam, 1 << 12), p)
    assert dil == pytest.approx(lam ** (1.0 / p) * base, rel=1e-6)


def test_interpolation_real_and_complex_data():
    # real samples interpolate with a zero imaginary part; complex ones
    # keep both parts
    xs = np.linspace(-4.0, 4.0, 257)[:-1]
    real = SampledLine.from_values(np.exp(-xs ** 2), 4.0)
    cplx = SampledLine.from_values(np.exp(-xs ** 2) * (1.0 + 2.0j), 4.0)
    probe = np.array([-1.3, 0.05, 2.7])
    vr = eval_at(real, probe)
    vc = eval_at(cplx, probe)
    assert np.all(vr.imag == 0.0)
    assert np.allclose(vr.real, np.exp(-probe ** 2), atol=1e-6)
    assert np.allclose(vc, vr * (1.0 + 2.0j), atol=1e-12)


def _random_line(rng, n, dtype):
    vals = rng.standard_normal(n)
    if dtype is complex:
        vals = vals + 1j * rng.standard_normal(n)
    return SampledLine.from_values(vals, 4.0)


def _record_fft_lengths(monkeypatch):
    """(name, ndim, n) of every numpy.fft call made from here on."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def recording(x, n=None, *args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls.append((_name, np.ndim(x), n))
            return _fn(x, n, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, recording)
    return calls


def _convolve_all(fs, taps):
    """Every row of taps against every line of fs: one (rows, N) array per
    line, the stacks' outputs concatenated."""
    out = [[] for _ in fs]
    for _, convs in _convolve_rows(fs, range(len(taps)), lambda i: taps[i]):
        for acc, conv in zip(out, convs):
            acc.append(np.array(conv))
    return [np.concatenate(acc) for acc in out]


@pytest.mark.parametrize("n", [16, 32, 4096])
@pytest.mark.parametrize("dtype", [float, complex])
def test_convolve_rows_valid_matches_direct_convolution(monkeypatch, n, dtype):
    """Each row's "valid" convolution with a line against np.convolve on
    three windows of its N outputs (start, middle, end), with every
    transform at length 2N and the line's spectrum taken once."""
    rng = np.random.default_rng(n)
    f = _random_line(rng, n, dtype)
    taps = rng.standard_normal((6, 2 * n - 1))  # two stacks: 4 rows and 2
    calls = _record_fft_lengths(monkeypatch)
    got, = _convolve_all([f], taps)
    assert {length for _, _, length in calls} == {2 * n}
    kind = "rfft" if dtype is float else "fft"
    assert [(c, nd) for c, nd, _ in calls if c == kind] == [(kind, 2), (kind, 1), (kind, 2)]
    assert got.shape == (6, n) and np.iscomplexobj(got) == (dtype is complex)
    data = f.values if dtype is complex else f.values.real
    w = min(64, n)
    for p in range(6):
        for j in (0, (n - w) // 2, n - w):
            want = np.convolve(taps[p, j:j + w + n - 1], data, "valid")
            assert np.max(np.abs(got[p, j:j + w] - want)) <= 1e-13 * np.max(np.abs(got[p]))


@pytest.mark.parametrize("dtype", [float, complex])
def test_convolve_rows_stack_matches_one_row_stacks_bitwise(monkeypatch, dtype):
    """A stack of rows gives each row the bits of a stack of that row
    alone."""
    rng = np.random.default_rng(7)
    f = _random_line(rng, 4096, dtype)
    taps = rng.standard_normal((6, 2 * 4096 - 1))
    got, = _convolve_all([f], taps)
    monkeypatch.setattr(realline, "_FFT_ROWS", 1)
    want, = _convolve_all([f], taps)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_convolve_rows_mixed_corpus_matches_one_line_calls_bitwise(monkeypatch):
    """Real and complex lines in one corpus: each line gets the bits of its
    own one-line call, real lines a real output, and each stack is
    transformed once per kind of transform, every line's data once."""
    rng = np.random.default_rng(11)
    n = 1024
    fs = [_random_line(rng, n, dtype) for dtype in (float, complex, float)]
    taps = rng.standard_normal((6, 2 * n - 1))
    calls = _record_fft_lengths(monkeypatch)
    got = _convolve_all(fs, taps)
    assert {length for _, _, length in calls} == {2 * n}
    stacks = [(c, nd) for c, nd, _ in calls if c in ("fft", "rfft")]
    assert sorted(stacks) == sorted([("rfft", 1)] * 2 + [("fft", 1)]
                                    + [("rfft", 2), ("fft", 2)] * 2)
    assert [np.iscomplexobj(g) for g in got] == [False, True, False]
    for f, g in zip(fs, got):
        assert np.array_equal(g, _convolve_all([f], taps)[0])


# ---------------------------------------------------------------------------
# numpy replacements for scipy routines, each against the routine it replaces


@pytest.mark.parametrize("n", [16, 1 << 16])
@pytest.mark.parametrize("dtype", [float, complex])
def test_spline_matches_cubicspline(n, dtype):
    from scipy.interpolate import CubicSpline
    L = 4.0
    h = 2.0 * L / n
    xs = -L + h * np.arange(n)
    y = np.exp(-xs ** 2) * np.cos(3.0 * xs) + 0.1 * np.sin(7.0 * xs)
    if dtype is complex:
        y = y + 1j * np.exp(-0.5 * xs ** 2) * xs
    rng = np.random.default_rng(n)
    probe = np.concatenate([xs, [-L, L - 0.5 * h, L - 1e-3 * h, L],
                            rng.uniform(-L, L, 1000)])
    want = CubicSpline(xs, y)
    got = _spline(-L, h, y)
    tol = 1e-13 * np.max(np.abs(y))
    assert np.max(np.abs(got(probe) - want(probe))) <= tol
    grid2 = probe[:1000].reshape(20, 50)   # query arrays of any shape
    assert got(grid2).shape == grid2.shape
    assert np.max(np.abs(got(grid2) - want(grid2))) <= tol
    # eval_at on an untagged line goes through the same spline
    line = SampledLine.from_values(y, L)
    assert np.max(np.abs(eval_at(line, grid2) - want(grid2))) <= tol


@pytest.mark.parametrize("case", ["random", "two", "flat", "sign_change"])
def test_pchip_matches_scipy_bitwise(case):
    from scipy.interpolate import PchipInterpolator
    rng = np.random.default_rng(len(case))
    for _ in range(50):
        n = 2 if case == "two" else int(rng.integers(3, 30))
        x = np.cumsum(rng.uniform(0.05, 2.0, n)) + rng.normal()
        y = rng.standard_normal(n)
        if case == "flat":
            y[rng.integers(0, n, n // 2)] = 1.0   # zero secants
        elif case == "sign_change":
            y = np.round(y)
        q = np.concatenate([x, rng.uniform(x[0] - 1.0, x[-1] + 1.0, 200),
                            [x[0] - 1e-9, x[-1] + 1e-9, np.nan]])
        got = _pchip(x, y)(q)
        want = PchipInterpolator(x, y, extrapolate=False)(q)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.all(np.isnan(got[(q < x[0]) | (q > x[-1])]))


def test_eval_at_scalar_is_complex_on_both_paths():
    fn = lambda x: np.exp(-np.asarray(x) ** 2) + 0j
    tagged = SampledLine.from_function(fn, 4.0, 64)
    plain = SampledLine.from_values(tagged.values, 4.0)
    for f in (tagged, plain):
        v = eval_at(f, 0.3)
        assert type(v) is complex
        assert v == pytest.approx(math.exp(-0.09), abs=1e-3)
        assert eval_at(f, np.array([0.3])).shape == (1,)
