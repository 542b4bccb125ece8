import math

import numpy as np
import pytest

from hhl.hardy_bmo import (RATIO_CORRIDOR, Atom, AtomicDecomposition,
                           bmo_bound_check, bmo_norm, bmo_norm_brute,
                           h1_lowerbound_check, h1_report, make_atom,
                           poisson_maximal, smooth_maximal, square_function)
from hhl.kernels import cesaro, hardy_type, scale_kernel, zero_kernel
from hhl.realline import SampledLine, lp_norm


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
    a = h1_report(untagged, L=L, N=N).ratios()
    b = h1_report(tagged, L=L, N=N).ratios()
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
    assert rep.finite
    assert rep.smooth_maximal < 10.0
    lo, hi = RATIO_CORRIDOR
    for name, v in rep.ratios().items():
        assert lo <= v <= hi, (name, v)


def test_decomposition_report_has_atomic_bound():
    dec = AtomicDecomposition(terms=((1.0, make_atom(0, 1, "sine")),))
    rep = h1_report(dec, scales=24)
    assert rep.atomic_bound == pytest.approx(1.0)
    assert rep.finite


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
    sw = h1_lowerbound_check(cesaro(), (0.2, 0.1, 0.02))
    q = sw.quotients
    assert q[0] > q[1] > q[2]
    assert q[2] < 5e-2


def test_h1_lowerbound_kernel_scaling():
    base = h1_lowerbound_check(cesaro(), (0.1,))
    scaled = h1_lowerbound_check(scale_kernel(cesaro(), 3.0), (0.1,))
    ratio = scaled.quotients[0] / base.quotients[0]
    assert 0.99 <= ratio <= 1.01


def test_h1_lowerbound_zero_kernel():
    sw = h1_lowerbound_check(zero_kernel(), (0.1,))
    assert sw.quotients[0] == pytest.approx(0.0, abs=1e-12)


def test_bmo_bound_check_both_kernels():
    for k in (hardy_type(), cesaro()):
        rep = bmo_bound_check(k, N=1 << 10)
        assert rep.rows, "corpus must produce rows"
        assert rep.passed
    # the step witness achieves the sharp constant for the tail kernel
    rep = bmo_bound_check(hardy_type(), N=1 << 10)
    step_rows = [r for r in rep.rows if r.check == "transform on step"]
    assert step_rows and step_rows[0].computed == pytest.approx(
        step_rows[0].predicted, rel=1e-6)
