import math
from dataclasses import replace

import numpy as np
import pytest

from hhl.cli import RATIO_CORRIDOR, _pairwise_ratios
from hhl.hardy_bmo import (Atom, AtomicDecomposition, _window_max,
                           _window_mean, bmo_bound_check, bmo_norm,
                           h1_lowerbound_check, h1_report, make_atom,
                           poisson_maximal, smooth_maximal, square_function)
from hhl.kernels import cesaro, hardy_type, zero_kernel
from hhl.realline import SampledLine, lp_norm


def bmo_norm_brute(g: SampledLine, max_n: int = 512) -> float:
    """Oracle of ``bmo_norm``: mean oscillation over every discrete
    subinterval.  Quadratic cost, so for small grids only."""
    vals = g.values.real
    n = min(g.N, max_n)
    step = max(1, g.N // n)
    v = vals[::step]
    n = v.size
    csum = np.concatenate([[0.0], np.cumsum(v)])
    best = 0.0
    for i in range(n):
        for j in range(i + 2, n + 1):
            m = (csum[j] - csum[i]) / (j - i)
            best = max(best, float(np.mean(np.abs(v[i:j] - m))))
    return best


def haar_line(L=64.0, N=1 << 12):
    a = make_atom(0.5, 0.5, "haar")
    return SampledLine.from_function(lambda x: a(x), L, N, label="haar")


def test_atom_shapes():
    a = make_atom(0.5, 0.5, "haar")
    assert np.allclose(a(np.array([0.25, 0.75])), [-1.0, 1.0])
    assert np.allclose(make_atom(1.0, 1.0, "haar")(np.array([0.5, 1.5])),
                       [-0.5, 0.5])
    s = make_atom(0.0, 1.0, "sine")
    assert np.max(np.abs(s(np.linspace(-1, 1, 2001)))) <= 0.5 + 1e-12
    make_atom(-3.0, 2.0, "bump")


def test_atom_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        make_atom(0.0, -1.0, "haar")
    with pytest.raises(ValueError):
        make_atom(0.0, 1.0, "unknown")
    bad = Atom(center=0.0, half_length=1.0, shape="haar",
               fn=lambda x: np.where(np.abs(np.asarray(x)) <= 1.0, 2.0, 0.0))
    with pytest.raises(ValueError):
        bad.validate()


def test_decomposition_synthesis():
    dec = AtomicDecomposition(terms=((0.5, make_atom(0, 1, "haar")),
                                     (0.25j, make_atom(2, 0.5, "sine"))))
    assert dec.atomic_bound == pytest.approx(0.75)
    f = dec.synthesize(16.0, 1 << 10)
    # each atom's own integral vanishes to 1e-12 (validated midpoint rule);
    # the grid sum of the jumpy synthesis is only h-accurate
    total = abs(np.sum(f.values) * f.h)
    assert total < 4 * f.h * dec.atomic_bound


def test_synthesis_tags_only_edge_crossing_sums():
    L, N = 16.0, 1 << 10
    inside = AtomicDecomposition(terms=((0.5, make_atom(0, 1, "haar")),
                                        (0.5, make_atom(-14.0, 2.0, "sine"))))
    assert inside.synthesize(L, N).form is None
    # the sampled range ends at L - h, so an atom reaching L crosses it
    crossing = AtomicDecomposition(terms=((0.5, make_atom(0, 1, "haar")),
                                          (0.5, make_atom(14.0, 2.0, "bump"))))
    assert crossing.synthesize(L, N).form is not None


def test_h1_report_untagged_synthesis_matches_tagged():
    L, N = 32.0, 1 << 10
    dec = AtomicDecomposition(terms=((0.6, make_atom(-3.0, 2.0, "sine")),
                                     (0.4, make_atom(5.0, 1.5, "bump"))))
    untagged = dec.synthesize(L, N)
    assert untagged.form is None

    def fn(x):
        return sum(c * a(x) for c, a in dec.terms)

    tagged = SampledLine.from_function(fn, L, N, label="atomic-sum")
    assert np.array_equal(tagged.values, untagged.values)
    a = _pairwise_ratios(h1_report(untagged, L=L, N=N))
    b = _pairwise_ratios(h1_report(tagged, L=L, N=N))
    assert a.keys() == b.keys()
    for key in a:
        assert a[key] == pytest.approx(b[key], rel=1e-12)


def test_smooth_maximal_dominates_single_scale():
    from scipy.signal import fftconvolve
    f = haar_line(N=1 << 10)
    t0 = 0.5
    m = int(np.ceil(min(8 * t0, 2 * f.L) / f.h))
    ker_x = np.arange(-m, m + 1) * f.h
    ker = np.exp(-0.5 * (ker_x / t0) ** 2) / (t0 * math.sqrt(2 * math.pi)) * f.h
    conv = np.abs(fftconvolve(f.values, ker.astype(complex), mode="same"))
    # domination requires the probe scale to belong to the scanned grid
    ms = smooth_maximal(f, t_grid=np.array([0.125, t0, 2.0]))
    sel = conv > 1e-12
    assert np.all(ms.values.real[sel] >= conv[sel] * (1 - 1e-6))


def test_smooth_maximal_youngs_bound():
    f = haar_line(N=1 << 10)
    ts = np.geomspace(f.h, 4 * f.L, 16)
    ms = smooth_maximal(f, t_grid=ts)
    bound = lp_norm(f, 1.0) * np.max(1.0 / (ts * math.sqrt(2 * math.pi)))
    assert np.max(ms.values.real) <= bound * (1 + 1e-6)


def smooth_maximal_oracle(f, ts):
    """sup over the scales of |f * Phi_t|, one scipy fftconvolve per scale
    on the Gaussian's own support."""
    from scipy.signal import fftconvolve
    best = np.zeros(f.N)
    for t in ts:
        m = int(np.ceil(min(8.0 * t, 2.0 * f.L) / f.h))
        ker_x = np.arange(-m, m + 1) * f.h
        ker = np.exp(-0.5 * (ker_x / t) ** 2) / (t * math.sqrt(2 * math.pi)) * f.h
        best = np.maximum(best, np.abs(fftconvolve(f.values, ker, mode="same")))
    return best


@pytest.mark.parametrize("case, t_grid", [
    ("real", None),                  # the default 48 log-spaced scales
    ("real", [0.3, 2.0, 0.05, 40.0, 0.3]),
    ("complex", None),
    ("complex", [1.0 / 32, 0.7, 9.0]),
])
def test_smooth_maximal_matches_per_scale_oracle(case, t_grid):
    L, N = 16.0, 1 << 10
    terms = [(0.6, make_atom(-3.0, 2.0, "sine")), (0.4, make_atom(5.0, 1.5, "haar"))]
    if case == "complex":
        terms.append((0.3j, make_atom(1.0, 0.5, "bump")))
    f = AtomicDecomposition(terms=tuple(terms)).synthesize(L, N)
    ts = np.geomspace(f.h, 4.0 * f.L, 48) if t_grid is None else np.array(t_grid)
    kw = dict(scales=48) if t_grid is None else dict(t_grid=t_grid)
    got = smooth_maximal(f, **kw).values
    want = smooth_maximal_oracle(f, ts)
    assert np.all(got.imag == 0.0)
    assert np.max(np.abs(got.real - want)) <= 1e-13 * np.max(want)


def test_smooth_maximal_rejects_scales_below_grid_step():
    """A Gaussian narrower than h is undersampled and would inflate
    |f * Phi_t| past max |f| (3.99 at h/10 here); from h up it does not."""
    f = SampledLine.from_function(lambda x: np.exp(-np.asarray(x) ** 2), 16.0, 1 << 10)
    for bad in (f.h / 10, f.h / 4):
        with pytest.raises(ValueError, match=f"scale {bad!r} is below the grid step"):
            smooth_maximal(f, t_grid=[1.0, bad, f.h / 8])
    ms = smooth_maximal(f, t_grid=[f.h, 2 * f.h, 1.0])
    assert np.max(ms.values.real) <= 1.0 + 1e-8


def test_poisson_maximal_nonneg_data_dominates_extension():
    from hhl.halfplane import poisson_extend
    g = SampledLine.from_function(
        lambda x: np.exp(-np.abs(np.asarray(x, dtype=float))), 32.0, 1 << 10)
    t0 = 1.0
    u = poisson_extend(g, t0)
    mp = poisson_maximal(g, t_grid=np.geomspace(g.h, 4 * g.L, 24))
    assert np.all(mp.values.real >= np.abs(u.values) * (1 - 1e-9))


def test_square_function_zero_and_constant():
    z = SampledLine.from_values(np.zeros(1 << 8), 8.0)
    assert lp_norm(square_function(z, scales=16), 1.0) == 0.0
    c = SampledLine.from_function(
        lambda x: np.ones_like(np.asarray(x, dtype=float)), 8.0, 1 << 8)
    sq = square_function(c, scales=16)
    assert np.max(sq.values.real) < 1e-8


def test_haar_h1_quantities_in_corridor():
    rep = h1_report(haar_line(), scales=32)
    assert all(math.isfinite(v) and v > 0 for v in rep.values())
    assert rep["smooth_maximal"] < 10.0
    lo, hi = RATIO_CORRIDOR
    for name, v in _pairwise_ratios(rep).items():
        assert lo <= v <= hi, (name, v)


def test_decomposition_report_has_atomic_bound():
    dec = AtomicDecomposition(terms=((1.0, make_atom(0, 1, "sine")),))
    rep = h1_report(dec, scales=24)
    assert rep["atomic_bound"] == pytest.approx(1.0)
    assert all(math.isfinite(v) and v > 0 for v in rep.values())
    # a sampled line has no atomic bound
    assert "atomic_bound" not in h1_report(dec.synthesize(64.0, 1 << 12), scales=24)


def test_bmo_constant_and_step():
    c = SampledLine.from_values(np.full(1 << 8, 3.7), 4.0)
    assert bmo_norm(c) < 1e-14
    step = SampledLine.from_values(
        np.where(np.arange(1 << 8) >= (1 << 7), 1.0, 0.0), 4.0)
    # oracle: brute force over every discrete subinterval
    assert bmo_norm_brute(step) == pytest.approx(0.5, abs=1e-2)
    assert bmo_norm(step) == pytest.approx(bmo_norm_brute(step), abs=1e-2)


def test_bmo_brute_vs_dyadic_random():
    rng = np.random.default_rng(5)
    vals = np.cumsum(rng.standard_normal(1 << 8)) / 16.0
    g = SampledLine.from_values(vals, 4.0)
    brute = bmo_norm_brute(g)
    dyadic = bmo_norm(g)
    assert dyadic <= brute + 1e-12
    assert dyadic >= 0.5 * brute  # the shifted dyadic family is a good net


def test_bmo_invariances():
    rng = np.random.default_rng(6)
    vals = rng.standard_normal(1 << 8)
    g = SampledLine.from_values(vals, 4.0)
    shifted = SampledLine.from_values(vals + 11.0, 4.0)
    assert bmo_norm(shifted) == pytest.approx(bmo_norm(g), rel=1e-12)
    scaled = SampledLine.from_values(-2.5 * vals, 4.0)
    assert bmo_norm(scaled) == pytest.approx(2.5 * bmo_norm(g), rel=1e-12)
    # dilation with the window: identical sample content, identical norm
    dilated = SampledLine.from_values(vals, 8.0)
    assert bmo_norm(dilated) == pytest.approx(bmo_norm(g), rel=1e-6)


def test_h1_lowerbound_residual_decay():
    q = h1_lowerbound_check(cesaro(), (0.2, 0.1, 0.02))
    assert q[0] > q[1] > q[2]
    assert q[2] < 5e-2


def test_h1_lowerbound_kernel_scaling():
    base = h1_lowerbound_check(cesaro(), (0.1,))
    k = cesaro()
    scaled = h1_lowerbound_check(replace(k, fn=lambda t: 3.0 * k.fn(t)), (0.1,))
    ratio = scaled[0] / base[0]
    assert 0.99 <= ratio <= 1.01


def test_h1_lowerbound_zero_kernel():
    (residual,) = h1_lowerbound_check(zero_kernel(), (0.1,))
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_bmo_bound_check_both_kernels():
    for k in (hardy_type(), cesaro()):
        _, _, measured = bmo_bound_check(k, N=1 << 10)
        assert measured, "corpus must produce measurements"
        # the bmo suite's gate: within 5% of the bound, or both vanish
        assert all(on / bound <= 1.05 if bound > 0 else on <= 1e-12
                   for _, _, on, bound in measured)
    # the step witness achieves the sharp constant for the tail kernel
    _, _, measured = bmo_bound_check(hardy_type(), N=1 << 10)
    step = [(on, bound) for op, name, on, bound in measured
            if (op, name) == ("transform", "step")]
    assert step and step[0][0] == pytest.approx(step[0][1], rel=1e-6)


# ---------------------------------------------------------------------------
# One Poisson pass for M_P and S against the per-function loops


def _alias_free(data, w):
    """The Toeplitz product at N grid points as the circular convolution
    at length 2N, the weights' spectrum first, straight from numpy.fft."""
    n = data.size
    if np.iscomplexobj(data):
        out = np.fft.ifft(np.fft.fft(w, 2 * n) * np.fft.fft(data, 2 * n), 2 * n)
    else:
        out = np.fft.irfft(np.fft.rfft(w, 2 * n) * np.fft.rfft(data, 2 * n), 2 * n)
    return out[n - 1:2 * n - 1]


def _scipy_valid(data, w):
    """The Toeplitz product through scipy's linear-length fftconvolve."""
    from scipy.signal import fftconvolve
    return fftconvolve(data, w.astype(data.dtype), mode="valid")


def _grid_values_oracle(g, y, conv):
    """Poisson grid values at one height: the Toeplitz product through
    ``conv`` (of real operands when g is real-valued), both edge
    half-hats always removed."""
    from hhl.halfplane import _halfhat_outer, _poisson_B, _poisson_tail
    n, h, grid = g.N, g.h, g.grid()
    k = np.arange(-(n - 1), n) * h
    w = (_poisson_B(k + h, y) - 2.0 * _poisson_B(k, y) + _poisson_B(k - h, y)) / h
    out = conv(g.values if g.values.imag.any() else g.values.real, w).astype(complex)
    out -= g.values[0] * _halfhat_outer(grid, grid[0], -1.0, h, y)
    out -= g.values[-1] * _halfhat_outer(grid, grid[-1], +1.0, h, y)
    if g.form is not None:
        out = out + _poisson_tail(g, y, grid)
    return out


def poisson_maximal_oracle(f, ts, conv):
    from scipy.ndimage import maximum_filter1d
    best = np.zeros(f.N)
    for t in ts:
        u = np.abs(_grid_values_oracle(f, float(t), conv))
        radius = int(t / f.h)
        if radius > 0:
            u = maximum_filter1d(u, size=2 * radius + 1, mode="nearest")
        best = np.maximum(best, u)
    return best


def square_function_oracle(f, ts, conv):
    from scipy.ndimage import uniform_filter1d
    ts = np.sort(ts)
    levels = [np.real(_grid_values_oracle(f, float(t), conv)) for t in ts] if \
        np.all(np.abs(f.values.imag) == 0) else \
        [_grid_values_oracle(f, float(t), conv) for t in ts]
    acc = np.zeros(f.N)
    for i, t in enumerate(ts):
        u = levels[i]
        u_x = np.gradient(u, f.h)
        lo = levels[max(i - 1, 0)]
        hi = levels[min(i + 1, len(ts) - 1)]
        dt_span = ts[min(i + 1, len(ts) - 1)] - ts[max(i - 1, 0)]
        u_t = (hi - lo) / dt_span if dt_span > 0 else np.zeros_like(u)
        dens = np.abs(u_t) ** 2 + np.abs(u_x) ** 2
        t_lo = ts[i - 1] if i > 0 else ts[i] / 2.0
        t_hi = ts[i + 1] if i + 1 < len(ts) else ts[i]
        dt = 0.5 * (t_hi - t_lo) if len(ts) > 1 else ts[i]
        radius = int(t / f.h)
        cone = uniform_filter1d(dens, size=2 * radius + 1, mode="nearest") \
            * (2 * radius + 1) if radius > 0 else dens
        acc += cone * f.h * dt
    return np.sqrt(acc)


def _sum_line(L, N, *terms):
    return AtomicDecomposition(terms=terms).synthesize(L, N)


@pytest.mark.parametrize("case, t_grid", [
    ("real", [0.7]),
    ("real", [0.3, 2.0]),
    ("real", [0.05, 0.4, 3.0]),
    ("real", None),                       # the default 48 log-spaced heights
    ("real", [2.0, 0.05, 9.0, 0.4, 0.4]),  # unsorted, one height repeated
    ("complex", [0.2, 1.5, 6.0]),
    ("complex", None),
    ("crossing", [0.1, 1.0, 5.0]),
])
def test_poisson_pass_matches_per_function_loops_bitwise(case, t_grid):
    L, N = 16.0, 1 << 10
    if case == "real":
        f = _sum_line(L, N, (0.6, make_atom(-3.0, 2.0, "sine")),
                      (0.4, make_atom(5.0, 1.5, "haar")))
    elif case == "complex":
        f = _sum_line(L, N, (0.5, make_atom(0.0, 1.0, "haar")),
                      (0.25j, make_atom(2.0, 0.5, "bump")))
    else:
        # the haar atom reaches L: the sum is tagged and its last sample is
        # nonzero, so the tail integrals and one edge half-hat both run
        f = _sum_line(L, N, (0.5, make_atom(0.0, 1.0, "sine")),
                      (0.5, make_atom(14.0, 2.0, "haar")))
        assert f.form is not None and f.values[0] == 0 and f.values[-1] != 0
    ts = np.geomspace(f.h, 4.0 * f.L, 48) if t_grid is None else np.array(t_grid)
    kw = dict(scales=48) if t_grid is None else dict(t_grid=t_grid)
    m_p = poisson_maximal(f, **kw).values.real
    s = square_function(f, **kw).values.real
    assert np.array_equal(m_p, poisson_maximal_oracle(f, ts, _alias_free))
    assert np.array_equal(s, square_function_oracle(f, ts, _alias_free))
    # scipy transforms at the linear length 3N - 2: the same values up to
    # rounding, which S's differences of neighbouring levels amplify
    want = poisson_maximal_oracle(f, ts, _scipy_valid)
    assert np.max(np.abs(m_p - want)) <= 1e-14 * np.max(want)
    want = square_function_oracle(f, ts, _scipy_valid)
    assert np.max(np.abs(s - want)) <= 1e-12 * np.max(want)


def test_h1_report_computes_each_level_once(monkeypatch):
    import hhl.halfplane as halfplane
    heights = []
    window = halfplane._poisson_window

    def counting(g, y, xs, conv=None):
        heights.append(y)
        return window(g, y, xs, conv=conv)

    monkeypatch.setattr(halfplane, "_poisson_window", counting)
    dec = AtomicDecomposition(terms=((1.0, make_atom(0.0, 1.0, "sine")),))
    h1_report(dec, L=16.0, N=1 << 10, scales=48)
    # one level per height for M_P and S together, in increasing height
    assert len(heights) == 48
    assert heights == sorted(set(heights))


def _seed0_corpus():
    """The three decompositions of the h1 suite's corpus at seed 0."""
    from hhl.cli import _random_decomposition
    rng = np.random.default_rng(0)
    return [_random_decomposition(rng) for _ in range(3)]


def test_h1_report_fft_call_count(monkeypatch):
    """Stacked real transforms: at most 52 numpy.fft calls for one input
    (25 for the Poisson levels, 24 for the smooth maximal function, which
    shares the data spectrum, 2 for the Hilbert transform), and only the
    Hilbert transform's are complex; one complex transform per level and
    scale made 243.  A corpus of three transforms each stack of kernel
    rows once (24 row transforms; 72 when each input made its own) and
    each input's data once, every convolution transform at length 2N."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn",
                 "irfftn", "fft2", "ifft2", "rfft2", "irfft2", "hfft", "ihfft"):
        def counting(a, *args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls.append((_name, np.ndim(a), args[0] if args else kwargs.get("n")))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counting)
    dec = AtomicDecomposition(terms=((1.0, make_atom(0.0, 1.0, "sine")),))
    N = 1 << 10
    h1_report(dec, L=16.0, N=N, scales=48)
    assert 0 < len(calls) <= 52
    assert sorted(c for c, _, _ in calls if "rfft" not in c) == ["fft", "ifft"]
    calls.clear()
    h1_report(_seed0_corpus(), L=16.0, N=N, scales=48)
    real = [(c, nd) for c, nd, n in calls if "rfft" in c]
    assert real.count(("rfft", 2)) == 24 and real.count(("rfft", 1)) == 3
    assert real.count(("irfft", 2)) == 72 and len(real) == 99
    assert {n for c, _, n in calls if "rfft" in c} == {2 * N}
    assert sorted(c for c, _, _ in calls if "rfft" not in c) == ["fft"] * 3 + ["ifft"] * 3


@pytest.mark.parametrize("mixed", [False, True], ids=["real", "mixed"])
def test_corpus_call_matches_one_input_calls_bitwise(mixed):
    """Each input's M_P, S, smooth maximal function and H1 quantities from one
    corpus call are the bits of its own one-input call; with a complex
    input among real ones too, whose transforms are complex throughout."""
    from hhl.hardy_bmo import _poisson_pass, _scales
    decs = _seed0_corpus()
    if mixed:
        decs[1] = AtomicDecomposition(decs[1].terms + ((0.3j, make_atom(1.0, 0.5, "bump")),))
    L, N = 64.0, 1 << 12
    lines = [d.synthesize(L, N) for d in decs]
    assert [bool(g.values.imag.any()) for g in lines] == [False, mixed, False]
    ts = _scales(lines[0], None, 48)
    passes = _poisson_pass(lines, ts)
    smooth = smooth_maximal(lines, scales=48)
    reports = h1_report(decs, L=L, N=N)
    for g, dec, (m_p, s), sm, rep in zip(lines, decs, passes, smooth, reports):
        assert np.array_equal(m_p.values, poisson_maximal(g, scales=48).values)
        assert np.array_equal(s.values, square_function(g, scales=48).values)
        assert np.array_equal(sm.values, smooth_maximal(g, scales=48).values)
        assert rep == h1_report(dec, L=L, N=N)


@pytest.mark.parametrize("fn", [h1_report, smooth_maximal])
def test_empty_corpus_raises(fn):
    with pytest.raises(ValueError, match="at least one input"):
        fn([])


def test_corpus_on_two_grids_raises():
    f = haar_line(L=8.0, N=1 << 8)
    for g in (haar_line(L=16.0, N=1 << 8), haar_line(L=8.0, N=1 << 9)):
        with pytest.raises(ValueError, match="share one grid"):
            smooth_maximal([f, g], scales=8)


@pytest.mark.parametrize("fn", [smooth_maximal, poisson_maximal, square_function])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_scale_grid_rejects_bad_scales(fn, bad):
    f = haar_line(L=8.0, N=1 << 8)
    with pytest.raises(ValueError, match=f"scale {bad!r} "):
        fn(f, t_grid=[0.5, bad, -2.0])


@pytest.mark.parametrize("fn", [smooth_maximal, poisson_maximal, square_function])
def test_scale_grid_empty_returns_zeros(fn):
    f = haar_line(L=8.0, N=1 << 8)
    out = fn(f, t_grid=[])
    assert out.N == f.N and not np.any(out.values)


@pytest.mark.parametrize("radius", [0, 1, 700, 2048, 3000, 4096])
def test_window_filters_match_scipy_bitwise(radius):
    """The sliding max and mean against the scipy.ndimage filters they
    replace, at widths 1, 3, inside the data and wider than it (2r+1 > N)."""
    from scipy.ndimage import maximum_filter1d, uniform_filter1d
    rng = np.random.default_rng(radius)
    a = rng.standard_normal(4096) ** 2 * np.exp(rng.uniform(-20.0, 5.0, 4096))
    size = 2 * radius + 1
    assert np.array_equal(_window_max(a, radius),
                          maximum_filter1d(a, size=size, mode="nearest"))
    assert _window_mean(a, radius).tobytes() == \
        uniform_filter1d(a, size=size, mode="nearest").tobytes()
