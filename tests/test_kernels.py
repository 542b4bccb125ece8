import math
from dataclasses import replace

import numpy as np
import pytest

from hhl.kernels import (adjoint_kernel, cesaro, cumulative_moment,
                         eval_kernel, gen_cesaro, hardy_type,
                         kernel_from_config, moment, moment_exponent,
                         table_kernel, truncate_below, zero_kernel)
from hhl.quadrature import integrate, integrate_halfline


def test_eval_examples():
    assert eval_kernel(cesaro(), 0.5) == 1.0
    assert eval_kernel(cesaro(), 2.0) == 0.0
    assert eval_kernel(hardy_type(), 2.0) == 0.5


def test_eval_rejects_nonpositive():
    with pytest.raises(ValueError):
        eval_kernel(cesaro(), 0.0)
    with pytest.raises(ValueError):
        eval_kernel(cesaro(), np.array([0.5, -1.0]))


@pytest.mark.parametrize("k,p,expect", [
    (cesaro(), 2.0, 2.0),
    (cesaro(), 1.0, 1.0),
    (hardy_type(), 2.0, 2.0),
    (hardy_type(), 4.0, 4.0 / 3.0),
])
def test_moment_closed_forms(k, p, expect):
    m = moment(k, p)
    assert m.finite
    assert m.value == pytest.approx(expect, rel=1e-9)


def test_gen_cesaro_beta_identity():
    # oracle: independent substituted quadrature of 2(1-t)/sqrt(t)
    oracle = integrate_halfline(
        lambda t: np.where(t < 1, 2.0 * (1 - t) / np.sqrt(t), 0.0), tol=1e-12)
    m = moment(gen_cesaro(2.0), 2.0)
    assert oracle.value == pytest.approx(8.0 / 3.0, rel=1e-9)
    assert m.value == pytest.approx(float(oracle.value), rel=1e-9)


def test_divergence_exactness():
    assert math.isinf(moment(cesaro(), math.inf).value)
    assert math.isinf(moment(hardy_type(), 1.0).value)
    assert moment(cesaro(), 1.0).finite
    assert moment(hardy_type(), 2.0).finite
    assert math.isinf(moment(gen_cesaro(2.0), math.inf).value)


def test_divergent_moment_has_no_error_estimate():
    m = moment(cesaro(), math.inf)
    assert m.error is None


@pytest.mark.parametrize("delta", [0.1, 0.25, 0.5])
@pytest.mark.parametrize("k", [cesaro(), gen_cesaro(2.0), gen_cesaro(0.5)])
def test_truncation_additivity(k, delta):
    p = 2.0
    whole = moment(k, p).value
    upper = moment(truncate_below(k, delta), p).value
    lower = integrate_halfline(
        lambda t: eval_kernel(k, t) * t ** (-0.5), tol=1e-11,
        support=(k.support[0], delta)).value
    assert whole == pytest.approx(upper + float(lower), abs=1e-8)


def test_truncate_eval():
    kd = truncate_below(cesaro(), 0.5)
    assert eval_kernel(kd, 0.25) == 0.0
    assert eval_kernel(kd, 0.75) == 1.0
    assert moment(truncate_below(cesaro(), 0.25), 1.0).value == pytest.approx(0.75, rel=1e-9)


def test_adjoint_examples():
    adj = adjoint_kernel(cesaro())
    # chi_(0,1) maps to t^-1 on (1, inf)
    assert eval_kernel(adj, 2.0) == pytest.approx(0.5, rel=1e-12)
    assert eval_kernel(adj, 0.5) == 0.0
    assert moment(adj, 2.0).value == pytest.approx(2.0, rel=1e-9)


def test_adjoint_involution():
    for k in (cesaro(), hardy_type(), gen_cesaro(1.5)):
        kk = adjoint_kernel(adjoint_kernel(k))
        ts = np.geomspace(1e-3, 1e3, 100)
        a = eval_kernel(k, ts)
        b = eval_kernel(kk, ts)
        scale = np.maximum(np.abs(a), 1e-300)
        assert np.max(np.abs(a - b) / scale) < 1e-12


def test_adjoint_moment_swap():
    # the companion moment of a equals the p-moment of its reciprocal
    a = cesaro()
    lhs = moment_exponent(a, 1.0 - 0.5).value  # integral t^(-1/2) a(t) dt
    rhs = moment(adjoint_kernel(a), 2.0).value
    assert lhs == pytest.approx(2.0, rel=1e-9)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_moment_monotone_in_kernel():
    small = gen_cesaro(2.0)           # 2(1-t) <= 2 on (0,1)
    k = cesaro()
    large = replace(k, fn=lambda t: 2.0 * k.fn(t))
    for p in (1.0, 2.0, 4.0):
        assert moment(small, p).value <= moment(large, p).value + 1e-8


def test_table_kernel_interpolates_samples():
    pts = [(0.1, 1.0), (0.5, 0.5), (1.0, 0.25), (2.0, 0.1)]
    k = table_kernel(pts)
    for t, v in pts:
        assert eval_kernel(k, t) == pytest.approx(v, rel=1e-12)
    assert eval_kernel(k, 0.01) == 0.0
    assert eval_kernel(k, 5.0) == 0.0
    ts = np.geomspace(0.1, 2.0, 200)
    assert np.all(eval_kernel(k, ts) >= 0.0)
    assert moment(k, 2.0).finite


def test_zero_and_scale():
    assert moment(zero_kernel(), 2.0).value == 0.0
    k = cesaro()
    scaled = replace(k, fn=lambda t: 3.0 * k.fn(t))
    assert moment(scaled, 2.0).value == pytest.approx(6.0, rel=1e-9)


def test_config_parsing():
    assert kernel_from_config({"kind": "cesaro"}).kind == "cesaro"
    assert kernel_from_config({"kind": "gencesaro", "alpha": 2}).kind == "gencesaro"
    k = kernel_from_config({"kind": "table", "points": [[0.5, 1.0], [2.0, 0.5]]})
    assert k.kind == "table"
    with pytest.raises(ValueError):
        kernel_from_config({"kind": "nope"})
    with pytest.raises(ValueError):
        kernel_from_config({"kind": "gencesaro"})
    with pytest.raises(ValueError):
        kernel_from_config({})


_TABLE = [(0.05, 0.2), (0.1, 1.0), (0.5, 0.5), (1.0, 0.25), (2.0, 0.1),
          (8.0, 0.0)]
KERNELS = {
    "cesaro": cesaro(),
    "hardy": hardy_type(),
    "gencesaro_0.5": gen_cesaro(0.5),
    "gencesaro_2": gen_cesaro(2.0),
    "table": table_kernel(_TABLE),
    "truncated": truncate_below(gen_cesaro(2.0), 0.25),
    "adjoint": adjoint_kernel(gen_cesaro(0.5)),
    "zero": zero_kernel(),
    # a raw profile with negative stretches, which evaluation clamps to 0
    "signed": replace(cesaro(), fn=lambda t: np.cos(40.0 * np.asarray(t))),
}


def _eval_masked(k, t):
    """eval_kernel's masked path for every input: evaluate the profile on
    the abscissas inside the support, scatter them into zeros."""
    arr = np.asarray(t, dtype=float)
    lo, hi = k.support
    inside = (arr >= lo) & (arr <= hi)
    out = np.zeros_like(arr)
    if np.any(inside):
        out[inside] = np.clip(np.asarray(k.fn(arr[inside]), dtype=float),
                              0.0, None)
    return float(out) if np.ndim(t) == 0 else out


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_eval_kernel_matches_masked_reference(name):
    k = KERNELS[name]
    lo, hi = k.support
    inside = np.geomspace(max(lo, 1e-6), min(hi, 1e6), 64)
    cases = {
        "inside": inside,
        "inside_2d": inside.reshape(8, 8),
        "partly": np.geomspace(1e-3, 1e3, 97),
        "partly_2d": np.geomspace(1e-3, 1e3, 96).reshape(12, 8),
        "empty": np.array([]),
    }
    for label, t in cases.items():
        got = eval_kernel(k, t)
        ref = _eval_masked(k, t)
        assert got.shape == ref.shape and got.dtype == ref.dtype, label
        assert got.tobytes() == ref.tobytes(), label
    for t in (inside[len(inside) // 2], 1e-3, 1e3):
        got = eval_kernel(k, t)
        assert type(got) is float and got == _eval_masked(k, t)
    with pytest.raises(ValueError):
        eval_kernel(k, np.append(inside, 0.0))
    with pytest.raises(ValueError):
        eval_kernel(k, -inside)


def test_cumulative_moment():
    k = cesaro()
    xs = np.array([0.25, 0.5, 2.0])
    got = cumulative_moment(k, 0.5, xs)
    expect = np.array([2 * math.sqrt(0.25), 2 * math.sqrt(0.5), 2.0])
    assert np.allclose(got, expect, rtol=1e-9)
    up = cumulative_moment(k, 0.5, xs, upper=True)
    assert np.allclose(up, 2.0 - np.minimum(expect, 2.0), atol=1e-9)


def _cumulative_moment_by_segment(k, s, xs, upper=False, tol=1e-11):
    """One ``integrate`` (or half-line) call per segment: the oracle of
    cumulative_moment's batched first panels."""
    xs = np.asarray(xs, dtype=float)
    order = np.argsort(xs)
    sx = xs[order]
    lo, hi = k.support

    def seg(a, b):
        a2, b2 = max(a, lo), min(b, hi)
        if not a2 < b2:
            return 0.0
        g = lambda ts: k(ts) * np.power(ts, s - 1.0)
        if a2 <= 0 or (b2 / a2 > 1e3) or math.isinf(b2):
            res = integrate_halfline(g, tol=tol, support=(a2, b2))
            if res.diverges:
                raise ValueError("cumulative moment diverges")
            return float(res.value)
        return float(integrate(g, a2, b2, tol=tol).value)

    pieces = np.empty(sx.size)
    pieces[0] = seg(0.0, sx[0])
    for i in range(1, sx.size):
        pieces[i] = seg(sx[i - 1], sx[i])
    cums = np.cumsum(pieces)
    if upper:
        top = seg(sx[-1], math.inf)
        cums = (cums[-1] - cums) + top
    out = np.empty_like(cums)
    out[order] = cums
    return out


@pytest.mark.parametrize("name,s", [
    ("cesaro", 0.5), ("gencesaro_2", 0.25), ("gencesaro_0.5", 0.75),
    ("hardy", -0.5), ("table", 0.5), ("truncated", 1.0),
])
@pytest.mark.parametrize("upper", [False, True])
def test_cumulative_moment_matches_per_segment_loop(name, s, upper):
    k = KERNELS[name]
    # unsorted, with duplicates, abscissas on both sides of the support
    # and segment ratios above and below the half-line switch (1e3)
    xs = np.array([0.7, 0.02, 3.0, 0.7, 1e-5, 0.3, 40.0, 0.02, 1.0, 2e4])
    for tol in (1e-11, 1e-6):
        got = cumulative_moment(k, s, xs, upper=upper, tol=tol)
        ref = _cumulative_moment_by_segment(k, s, xs, upper=upper, tol=tol)
        assert got.tobytes() == ref.tobytes()


def test_cumulative_moment_empty_and_invalid():
    for upper in (False, True):
        out = cumulative_moment(cesaro(), 0.5, np.array([]), upper=upper)
        assert out.shape == (0,)
    with pytest.raises(ValueError):
        cumulative_moment(cesaro(), 0.5, np.array([0.5]), tol=0.0)
