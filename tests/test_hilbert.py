import importlib
import math
import sys

import mpmath
import numpy as np
import pytest
from scipy.special import dawsn

from hhl.cli import _line_corpus, _random_decomposition
from hhl.hausdorff import lp_lower_bound_sweep
from hhl.hilbert import (EdgeDecayWarning, commutation_check, hilbert,
                         hilbert_with_tails)
from hhl.kernels import Kernel, cesaro, hardy_type, moment, zero_kernel
from hhl.quadrature import integrate_halfline
from hhl.realline import SampledLine

# the module itself: ``hhl.hilbert`` as an attribute is the function
hilbert_mod = importlib.import_module("hhl.hilbert")


def gaussian_line(L=64.0, N=1 << 12):
    return SampledLine.from_function(lambda x: np.exp(-np.asarray(x) ** 2),
                                     L, N, label="gauss")


def modgauss_line(L=64.0, N=1 << 12):
    fn = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2 / 32.0) * np.cos(3.0 * np.asarray(x))
    return SampledLine.from_function(fn, L, N, label="modgauss")


def l2(f: SampledLine) -> float:
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2) * f.h))


def test_cos_to_sin():
    L = 16 * math.pi
    f = SampledLine.from_function(np.cos, L, 1 << 12)
    with pytest.warns(EdgeDecayWarning):
        hf = hilbert(f, "fft")
    assert np.max(np.abs(hf.values.real - np.sin(f.grid()))) < 1e-8


def test_method_validation():
    g = gaussian_line()
    with pytest.raises(ValueError):
        hilbert(g, "nope")


def test_pv_matches_dawson():
    g = gaussian_line()
    hf = hilbert(g, "pv")
    exact = 2.0 / math.sqrt(math.pi) * dawsn(g.grid())
    assert np.max(np.abs(hf.values.real - exact)) < 1e-9


def test_pv_poisson_conjugate():
    P1 = SampledLine.from_function(lambda x: (1 / math.pi) / (1 + np.asarray(x) ** 2),
                                   64.0, 1 << 12, tail_power=2.0, label="P1")
    hf = hilbert(P1, "pv")
    xs = P1.grid()
    Q1 = xs / (math.pi * (1 + xs * xs))
    assert np.max(np.abs(hf.values.real - Q1)) < 1e-6


def test_cross_method_agreement():
    f = modgauss_line()
    a = hilbert(f, "fft")
    b = hilbert(f, "pv", tol=1e-10)
    diff = SampledLine.from_values(a.values - b.values, f.L)
    assert l2(diff) / l2(a) < 1e-6


def test_involution_and_isometry():
    f = modgauss_line()
    hf = hilbert(f, "fft")
    hhf = hilbert(hf, "fft")
    neg = SampledLine.from_values(hhf.values + f.values, f.L)
    assert l2(neg) / l2(f) < 1e-7
    assert abs(l2(hf) - l2(f)) / l2(f) < 1e-7


def test_antisymmetry():
    fn = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2 / 32.0) * np.cos(3.0 * np.asarray(x) + 0.7)
    f = SampledLine.from_function(fn, 64.0, 1 << 12)
    refl = SampledLine.from_function(lambda x: fn(-np.asarray(x, dtype=float)),
                                     64.0, 1 << 12)
    h_refl = hilbert(refl, "fft").values
    h_f = hilbert(f, "fft").values
    # -x_j lands on x_(N-j) for j >= 1
    lhs = h_refl[1:]
    rhs = -h_f[1:][::-1]
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def _pv_reference_v2(xs):
    """H V_2 at each x for V_2 = (x^2+4)^(-1/2), by mpmath principal-value
    quadrature at 30 digits: (1/pi) int_0^inf [V(x-s) - V(x+s)]/s ds."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        def hv(x):
            x = mp.mpf(x)
            V = lambda y: 1 / mp.sqrt(y * y + 4)
            # breakpoints at the template width and at the peak s = |x|
            pts = sorted({mp.mpf(0), mp.mpf(2), abs(x), 2 * abs(x) + 8})
            return mp.quad(lambda s: (V(x - s) - V(x + s)) / s,
                           pts + [mp.inf]) / mp.pi
        return np.array([float(hv(x)) for x in xs])


@pytest.mark.parametrize("case", ["gauss", "V2"])
def test_hilbert_with_tails_whole_line(case):
    probes = np.array([-1e8, -1e5, -1e4, -300.0, 0.5, 2.0, 300.0, 1e4,
                       1e5, 1e8])
    if case == "gauss":
        line = SampledLine.from_function(
            lambda x: np.exp(-np.asarray(x) ** 2), 256.0, 1 << 14, label="gauss")
        exact = 2.0 / math.sqrt(math.pi) * dawsn(probes)
        atol = 1e-6
    else:
        # even 1/|x| tail: its fitted V content needs an exact conjugate
        # far outside the window
        exact = _pv_reference_v2(probes)
        line = SampledLine.from_function(
            lambda x: 1.0 / np.sqrt(np.asarray(x) ** 2 + 4.0), 64.0, 1 << 12,
            tail_power=1.0, label="V2")
        atol = 1e-6 * np.abs(exact)
    hf = hilbert_with_tails(line)
    assert np.all(np.abs(hf.form(probes).real - exact) <= atol)
    assert hf.tail_power == 1.0  # carries the mass term



def _record_halfline(monkeypatch):
    """Route hilbert_with_tails' half-line scans through a recorder."""
    calls = []

    def recording(fn, **kw):
        res = integrate_halfline(fn, **kw)
        calls.append(res)
        return res
    monkeypatch.setattr(hilbert_mod, "integrate_halfline", recording)
    return calls


def test_tails_skip_zero_remainder(monkeypatch):
    # at L = 64 the Gaussian's samples past 0.6 L are exactly 0, so the
    # fitted tail coefficients are too; at this spacing the origin-layer
    # coefficients fall under their cut
    g = gaussian_line(N=1 << 14)
    assert hilbert_mod._fit_tail_model(g) == [0.0] * 3
    calls = _record_halfline(monkeypatch)
    hilbert_with_tails(g)
    # one scalar probe per side, no vector scan
    assert [np.shape(c.value) for c in calls] == [()] * 2
    xs = g.grid()
    for side, probe in zip((1.0, -1.0), calls):
        assert probe.value == 0.0 and probe.error == 0.0

        def vector(ss):
            y = side * (g.L + ss)
            return g.form(y).real[:, None] / (xs[None, :] - y[:, None])
        full = integrate_halfline(vector, tol=1e-10, support=(1e-9, math.inf))
        assert full.value.shape == xs.shape and not np.any(full.value)
        assert full.error == 0.0
        assert full.evaluations == probe.evaluations


def test_tails_scan_live_remainder(monkeypatch):
    # P1diff leaves a nonzero remainder past the window, so the node
    # scans run
    x = np.array([-1e4, -300.0, -64.0, -3.0, 0.5, 10.0, 63.5, 200.0, 1e5])
    fn = lambda x: (1 / math.pi) / (1 + np.asarray(x) ** 2) \
        - (1 / math.pi) / (1 + (np.asarray(x) - 1) ** 2)
    line = SampledLine.from_function(fn, 64.0, 1 << 12, tail_power=2.0,
                                     label="P1diff")
    calls = _record_halfline(monkeypatch)
    hf = hilbert_with_tails(line)
    # one scan per side, each at the 32 Chebyshev nodes, not at every grid
    # point; the - side adds the grid point x = -L on its edge
    assert [np.shape(c.value) for c in calls] == [(32,), (33,)]
    got = hf.form(x).real
    # inside the window: the values from before the probe existed
    inside = np.abs(x) <= 64.0
    np.testing.assert_allclose(got[inside], [
        -8.444841358274704e-05, -0.020596618298258224, 0.2546478747156495,
        -0.003420631816906064, -7.829928483384976e-05], rtol=1e-12, atol=0)
    # outside: the closed form H P1diff
    exact = (x / (1 + x * x) - (x - 1) / (1 + (x - 1) ** 2)) / math.pi
    assert np.all(np.abs(got - exact)[~inside] <= 1e-6)


def test_tails_exterior_matches_dense_sum():
    # a compactly supported atom (h1's first input at seed 0) whose fitted
    # terms are all cut, so that outside the window the form is the
    # transform of the samples' spline alone; the oracle is a dense
    # midpoint sum of (1/pi) spline(y)/(x - y) over the window
    L = 64.0
    f = _random_decomposition(np.random.default_rng(0)).synthesize(L, 1 << 12)
    line = SampledLine.from_values(f.values.real, L)
    assert hilbert_mod._fit_tail_model(line) == [0.0] * 3
    d = np.geomspace(0.5, 1e6 * L, 40)
    x = np.concatenate([-(L + d), L + d])
    m = 1 << 18
    y = -L + (2 * L / m) * (np.arange(m) + 0.5)
    r = line._spline(y).real * (2 * L / m) / math.pi
    ref = np.array([np.sum(r / (xi - y)) for xi in x])
    got = hilbert_with_tails(line).form(x)
    assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(np.abs(ref))


def test_tails_exterior_sees_a_bump_on_a_live_remainder():
    # x exp(-x^2) on the commutation check's widened window, at its
    # midpoint-offset nodes (the origin at x' = -h/2): the fitted templates
    # leave a remainder nonzero at every sample, with the bump at the
    # centre of the window; the exterior carries its dipole, against
    # H f = (2/sqrt(pi)) (x D(x) - 1/2), D Dawson's integral
    L, n = 256.0, 1 << 14
    h = 2 * L / n
    xs = -L + h * (np.arange(n) + 0.5)
    line = SampledLine.from_values(xs * np.exp(-xs * xs), L)
    d = np.geomspace(0.5, 1e6 * L, 40)
    x = np.concatenate([-(L + d), L + d])
    exact = 2.0 / math.sqrt(math.pi) * (x * dawsn(x) - 0.5)
    got = hilbert_with_tails(line, origin=-h / 2).form(x - h / 2).real
    assert np.max(np.abs(got - exact)) <= 1e-5 * np.max(np.abs(exact))


def _edge_grid(side):
    """Grid of L = 64, N = 2^12, its distances d = L - side*x to the
    window edge, and the remainder 1/y^2 with the origin at -h/2 (as the
    commutation check shifts it), which reads 1/(s + a)^2 at y = side*(L + s)."""
    L, N = 64.0, 1 << 12
    h = 2 * L / N
    xs = -L + h * np.arange(N)
    return xs, L - side * xs, lambda y: 1.0 / (y + h / 2) ** 2, L + side * h / 2


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_tail_scan_matches_mpmath(side):
    # the scan is -side * int_{s0}^inf ds / ((s + a)^2 (s + d))
    xs, d, r, a = _edge_grid(side)
    s0 = 1e-9
    scan = hilbert_mod._tail_scan(r, xs, 64.0, side)
    order = np.argsort(d)
    pick = order[np.unique(np.round(np.geomspace(1, d.size - 1, 100)).astype(int))]
    pick = np.concatenate([order[d[order] == 0.0], pick])  # the edge x = -L
    with mpmath.workdps(30):
        ref = np.array([-side * float(mpmath.quad(
            lambda s: 1 / ((s + a) ** 2 * (s + dd)),
            sorted({s0, dd + s0, 1.0, 64.0}) + [mpmath.inf])) for dd in d[pick]])
    scale = np.max(np.abs(ref))
    edge = d[pick] == 0.0
    assert np.count_nonzero(edge) == (side < 0)
    # interpolated distances h..2L to 1e-13; the edge point is the scan's
    # own quadrature, good to its tol 1e-10
    assert np.max(np.abs(scan[pick][~edge] - ref[~edge])) <= 1e-13 * scale
    assert np.all(np.abs(scan[pick][edge] - ref[edge]) <= 1e-10)
    # partial fractions cross-check the reference away from d = a
    dd = d[pick]
    far = np.abs(dd - a) > 1.0
    closed = -side * (-np.log((s0 + dd) / (s0 + a)) / (a - dd) ** 2
                      + 1 / ((dd - a) * (s0 + a)))
    assert np.max(np.abs(closed[far] - ref[far])) <= 1e-13 * scale


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_tail_scan_doubles_nodes_until_resolved(monkeypatch, side):
    xs, _, r, _ = _edge_grid(side)
    full = hilbert_mod._tail_scan(r, xs, 64.0, side)
    monkeypatch.setattr(hilbert_mod, "_TAIL_NODES", 4)
    doubled = hilbert_mod._tail_scan(r, xs, 64.0, side)
    assert np.max(np.abs(doubled - full)) <= 1e-13 * np.max(np.abs(full))
    monkeypatch.setattr(hilbert_mod, "_TAIL_NODES_MAX", 8)
    with pytest.raises(ValueError, match="Chebyshev nodes"):
        hilbert_mod._tail_scan(r, xs, 64.0, side)


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_tail_scan_is_scale_invariant(monkeypatch, side):
    # the node guard is relative, so a remainder 1e8 or 1e-8 times larger
    # doubles from 4 nodes to the same interpolant; the edge point (d = 0)
    # is the quadrature's own value, whose panel tolerance is absolute
    xs, d, r, _ = _edge_grid(side)
    base = hilbert_mod._tail_scan(r, xs, 64.0, side)
    monkeypatch.setattr(hilbert_mod, "_TAIL_NODES", 4)
    inner = d > 0.0
    for c in (1e8, 1e-8):
        scaled = hilbert_mod._tail_scan(lambda y: c * r(y), xs, 64.0, side)
        np.testing.assert_allclose(scaled[inner], c * base[inner],
                                   rtol=1e-12, atol=0)
        assert np.all(np.abs(scaled[~inner] - c * base[~inner])
                      <= 1e-10 * max(c, 1.0))


def test_tails_exterior_built_at_first_exterior_read(monkeypatch):
    # on untagged data the exterior form's quadrature (both sides at once)
    # is the only integrate_batched call
    g = gaussian_line()
    calls = _count_calls(monkeypatch, hilbert_mod, "integrate_batched")
    hf = hilbert_with_tails(SampledLine.from_values(g.values, g.L))
    hf.form(np.array([-64.0, -3.0, 0.5, 63.5]))
    assert calls == []
    outside = np.array([-1e5, -64.5, 0.5, 100.0, 1e9])
    first = hf.form(outside)
    assert len(calls) == 1
    assert np.array_equal(hf.form(outside), first)
    hf.form(np.array([200.0]))
    assert len(calls) == 1


def test_commutation_builds_exterior_of_h_f_only(monkeypatch):
    # the residual reads H(T f) on the grid only: one exterior quadrature
    # per function (H f), none for the 6 pairs
    calls = _count_calls(monkeypatch, hilbert_mod, "integrate_batched")
    residuals = commutation_check((cesaro(), hardy_type()), _line_corpus(64.0, 1 << 12), 2.0)
    assert [len(per_k) for per_k in residuals] == [3, 3]
    assert len(calls) == 3


def test_commutation_zero_kernel():
    f = gaussian_line(N=1 << 10)
    assert commutation_check((zero_kernel(),), (f,), 2.0) == [[0.0]]


def test_commutation_quick():
    f = SampledLine.from_function(lambda x: np.asarray(x) * np.exp(-np.asarray(x) ** 2),
                                  64.0, 1 << 12, label="xgauss")
    (r,), = commutation_check((hardy_type(),), (f,), 2.0)
    assert r <= 1e-5  # the commute suite's gate


def _corpus(N):
    """gauss (zero tag remainder past the window) and P1diff (live tail)."""
    p1diff = lambda x: (1 / math.pi) / (1 + np.asarray(x) ** 2) \
        - (1 / math.pi) / (1 + (np.asarray(x) - 1) ** 2)
    return (SampledLine.from_function(lambda x: np.exp(-np.asarray(x) ** 2),
                                      64.0, N, label="gauss"),
            SampledLine.from_function(p1diff, 64.0, N, tail_power=2.0,
                                      label="P1diff"))


def _count_calls(monkeypatch, module, name):
    """Route ``module.name`` through a call counter."""
    calls = []
    fn = getattr(module, name)

    def counting(*args, **kw):
        calls.append(name)
        return fn(*args, **kw)
    monkeypatch.setattr(module, name, counting)
    return calls


def test_commutation_corpus_matches_single_pairs():
    # sharing stages across kernels and functions changes no arithmetic:
    # each residual equals its own single-pair call bit for bit, kernel-major
    kernels, fs = (cesaro(), hardy_type()), _corpus(1 << 10)
    residuals = commutation_check(kernels, fs, 2.0)
    singles = [[commutation_check((k,), (f,), 2.0)[0][0] for f in fs]
               for k in kernels]
    assert residuals == singles


def test_commutation_shares_work(monkeypatch):
    hwt = _count_calls(monkeypatch, sys.modules["hhl.hilbert"], "hilbert_with_tails")
    hat = _count_calls(monkeypatch, sys.modules["hhl.hausdorff"], "_hat_weights")
    sums = _count_calls(monkeypatch, hilbert_mod, "_image_sums")
    hilbert_mod._grid_plan.cache_clear()
    kernels, fs = (cesaro(), hardy_type()), _corpus(1 << 10)
    residuals = commutation_check(kernels, fs, 2.0)
    assert [len(per_k) for per_k in residuals] == [len(fs)] * len(kernels)
    # one H f per function, one H(T f) per pair; hat weights per kernel,
    # one call for both log grids; all 6 transforms run on one grid, so
    # its plan is built once
    assert len(hwt) == len(fs) + len(kernels) * len(fs) == 6
    assert len(hat) == len(kernels)
    assert len(sums) == 1
    plan = hilbert_mod._grid_plan(4 * fs[0].L, 4 * fs[0].N, -0.5 * fs[0].h)
    assert len(sums) == 1
    for arr in plan:
        assert not arr.flags.writeable


def test_commutation_sup_norm_residual():
    # at p = inf the residual is max|T(H f) - H(T f)| / sup|f| from the two
    # legs; a p-th power of |diff| at p = inf would read 1 or inf
    k, fs = hardy_type(), _corpus(1 << 10)
    assert moment(k, math.inf).finite
    (residuals,) = commutation_check((k,), fs, math.inf)
    weighted = [hilbert_mod._log_grid_kernel(k)]
    for f, r in zip(fs, residuals):
        (t_hf,), (tf,) = hilbert_mod._commute_legs(weighted, f)
        lo = (tf.size - f.N) // 2
        h_tf = hilbert_with_tails(SampledLine.from_values(tf, 4 * f.L), origin=-0.5 * f.h)
        diff = t_hf - h_tf.values[lo:lo + f.N]
        assert r == np.max(np.abs(diff)) / np.max(np.abs(f.values))
        assert math.isfinite(r) and r < 1.0


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_spectral_hilbert_in_place_matches_out_of_place_bitwise(cplx):
    # the spectrum is multiplied and inverted in place; the out-of-place
    # product and inverse on the grid's own frequencies are its oracle
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(1 << 12) + (1j * rng.standard_normal(1 << 12) if cplx else 0.0)
    mult = -1j * np.sign(np.fft.fftfreq(vals.size, d=0.1))
    mult[0] = mult[vals.size // 2] = 0.0
    ref = np.fft.ifft(np.fft.fft(vals) * mult)
    assert hilbert_mod._spectral_hilbert(vals).tobytes() == ref.tobytes()


def _per_call_fits(monkeypatch):
    """Route hilbert_with_tails through the fits and image sums recomputed
    at every call, without the grid plan: the plan's oracle."""
    def fit_tail(g, origin=0.0):
        xs = g.grid() - origin
        sel = np.abs(xs) >= 0.6 * g.L
        basis = np.stack([T(xs[sel]) for T, _ in hilbert_mod._tail_templates(2.0)], axis=1)
        coef, *_ = np.linalg.lstsq(basis, g.values[sel].real, rcond=None)
        return [float(c) for c in coef]

    def fit_origin(g, origin=0.0):
        xs = g.grid() - origin
        idx = np.argsort(np.abs(xs))[:16]
        xi = xs[idx]
        layer = [T(xi) for T, _ in hilbert_mod._origin_templates(2.0)]
        basis = np.stack(layer + [np.ones_like(xi), xi, xi * xi, xi ** 3], axis=1)
        coef, *_ = np.linalg.lstsq(basis, g.values[idx].real, rcond=None)
        return float(coef[0]), float(coef[1])

    def image_sums_only(L, N, origin):
        xs = SampledLine.from_values(np.zeros(N), L).grid()
        return (None,) * 4 + hilbert_mod._image_sums(xs, L)
    monkeypatch.setattr(hilbert_mod, "_fit_tail_model", fit_tail)
    monkeypatch.setattr(hilbert_mod, "_fit_origin_model", fit_origin)
    monkeypatch.setattr(hilbert_mod, "_grid_plan", image_sums_only)


def _plan_cases():
    f = _random_decomposition(np.random.default_rng(0)).synthesize(64.0, 1 << 12)
    atom = SampledLine.from_values(f.values.real, 64.0)
    return [(g, -0.5 * g.h) for g in _corpus(1 << 10)] + [(atom, 0.0)]


@pytest.mark.parametrize("case", range(3), ids=["gauss", "P1diff", "h1-atom"])
def test_grid_plan_matches_per_call_fits_bitwise(monkeypatch, case):
    # the commutation corpus at the check's origin -h/2 and one h1 atom at
    # origin 0: values, and form reads inside and outside the window, equal
    # the per-call path's bit for bit, from a fresh plan and a kept one
    g, origin = _plan_cases()[case]
    inside = np.concatenate([np.linspace(-g.L, g.L, 37), [0.0, origin, 0.3 * g.h]])
    outside = np.concatenate([g.L + np.geomspace(1e-3, 1e9, 25), -g.L - np.geomspace(1e-3, 1e9, 25)])
    hilbert_mod._grid_plan.cache_clear()
    got = [hilbert_with_tails(g, origin) for _ in range(2)]
    with monkeypatch.context() as mp:
        _per_call_fits(mp)
        ref = hilbert_with_tails(g, origin)
    for hf in got:
        assert hf.values.tobytes() == ref.values.tobytes()
        assert hf.tail_power == ref.tail_power
        for x in (inside, outside):
            assert hf.form(x).tobytes() == ref.form(x).tobytes()


def test_commutation_validates_before_work(monkeypatch):
    hwt = _count_calls(monkeypatch, sys.modules["hhl.hilbert"], "hilbert_with_tails")
    hat = _count_calls(monkeypatch, sys.modules["hhl.hausdorff"], "_hat_weights")
    fs = _corpus(1 << 10)
    bent = SampledLine.from_values(fs[0].values * (1 + 1e-3j), 64.0, label="bent")
    with pytest.raises(ValueError, match="bent"):
        commutation_check((cesaro(), hardy_type()), fs + (bent,), 2.0)
    # phi = t^-0.6 on (0, 1]: the p = 2 moment integrand is t^-1.1
    steep = Kernel(kind="steep", label="steep", fn=lambda t: np.asarray(t) ** -0.6,
                   support=(0.0, 1.0), zero_exponent=-0.6)
    assert not moment(steep, 2.0).finite
    with pytest.raises(ValueError, match="steep"):
        commutation_check((cesaro(), steep), fs, 2.0)
    # an empty corpus would give the suite zero rows, which pass
    for kernels, corpus in (((cesaro(),), ()), ((), fs)):
        with pytest.raises(ValueError, match="at least one kernel and one function"):
            commutation_check(kernels, corpus, 2.0)
    assert hwt == [] and hat == []


def test_lp_sweep_floors_and_sandwich():
    large, small = lp_lower_bound_sweep(hardy_type(), 2.0, (0.05, 0.02))
    assert moment(hardy_type(), 2.0).value == pytest.approx(2.0, rel=1e-9)
    for quotients in (large, small):
        assert all(q <= 2.0 * (1 + 1e-6) for q in quotients)
        assert max(quotients) >= 0.9 * 2.0


def test_lp_sweep_validates_inputs():
    with pytest.raises(ValueError):
        lp_lower_bound_sweep(cesaro(), 1.0, (0.1,))
    with pytest.raises(ValueError):
        lp_lower_bound_sweep(cesaro(), 2.0, (1.5,))
