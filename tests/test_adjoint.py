import math

import numpy as np
import pytest

from hhl.adjoint import _sa_values, duality_residual, sa_moment
from hhl.halfplane import CayleyPower
from hhl.hardy_bmo import bmo_corpus
from hhl.hausdorff import transform_values
from hhl.kernels import (adjoint_kernel, cesaro, gen_cesaro, hardy_type, moment,
                         zero_kernel)
from hhl.quadrature import _BATCH_ELEMENTS
from hhl.realline import SampledLine, eval_at


def test_sa_linear_ramp():
    # averaging f(x) = x over weights on (0,1) halves it
    f = SampledLine.from_function(
        lambda x: np.where((np.asarray(x) >= 0) & (np.asarray(x) <= 1),
                           np.asarray(x, dtype=float), 0.0), 4.0, 1 << 10)
    xs = f.grid()
    sizes = []

    def f_of(x):
        sizes.append(x.size)
        return eval_at(f, x)

    out = _sa_values(cesaro(), f_of, xs, 1e-9)
    sel = (xs > 0.05) & (xs < 0.95)
    assert np.max(np.abs(out[sel] - xs[sel] / 2.0)) < 1e-8
    # a 1,024-point integrand is too wide to batch within the element
    # budget: one panel (21 abscissas) per call
    assert max(sizes) <= max(_BATCH_ELEMENTS, 21 * xs.size)


def test_sa_zero_weight():
    f = SampledLine.from_function(lambda x: np.exp(-np.asarray(x) ** 2), 8.0, 1 << 8)
    out = _sa_values(zero_kernel(), lambda x: eval_at(f, x), f.grid(), 1e-9)
    assert np.max(np.abs(out)) == 0.0


def test_sa_real_on_grid_with_bounded_weight():
    f = SampledLine.from_function(lambda x: np.exp(-np.asarray(x) ** 2), 8.0, 1 << 8)
    out = _sa_values(cesaro(), lambda x: eval_at(f, x), f.grid(), 1e-9)
    assert np.all(np.isfinite(out))


def test_sa_equals_reciprocal_transform():
    # probes avoid x = 0: tail-weighted companions diverge pointwise there
    # for data with nonzero central value
    f = SampledLine.from_function(lambda x: np.exp(-np.asarray(x) ** 2 / 4.0),
                                  32.0, 1 << 12, label="gauss")
    probe = np.linspace(-10, 10, 31) + 0.013
    for a in (cesaro(), hardy_type()):
        direct = _sa_values(a, lambda x: eval_at(f, x), probe, 1e-10)
        via = transform_values(adjoint_kernel(a), lambda x: eval_at(f, x),
                               probe, tol=1e-10)
        assert np.max(np.abs(direct - via)) < 1e-8


def test_sa_complex_log_value():
    got = _sa_values(cesaro(), CayleyPower(1.0, 1.0).eval_batch, 1j, 1e-10)
    assert got == pytest.approx(-1j * math.log(2.0), abs=1e-10)


def test_sa_complex_equals_reciprocal_at_random_points():
    rng = np.random.default_rng(11)
    zs = rng.uniform(-3, 3, 20) + 1j * rng.uniform(0.3, 3.0, 20)
    F = CayleyPower(1.0, 1.0)
    a = cesaro()
    adj = adjoint_kernel(a)
    lhs = _sa_values(a, F.eval_batch, zs, 1e-10)
    rhs = transform_values(adj, F.eval_batch, zs, tol=1e-10)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


@pytest.mark.parametrize("kernel", [cesaro, lambda: gen_cesaro(2.0)],
                         ids=["cesaro", "gencesaro2"])
def test_sa_real_input_stays_real_bit_for_bit(kernel):
    # real data gives a float result, the real part of the complex
    # cast's result bit for bit
    k = kernel()
    xs = -32.0 + 64.0 / 1024 * (np.arange(1024) + 0.5)
    for name, fn in bmo_corpus(32.0, 1024):
        real = _sa_values(k, fn, xs, 1e-9)
        cast = _sa_values(k, lambda x: np.asarray(fn(x), dtype=complex), xs, 1e-9)
        assert real.dtype == float and cast.dtype == complex, name
        assert real.tobytes() == cast.real.tobytes(), name


@pytest.mark.parametrize("kernel", [cesaro, lambda: gen_cesaro(2.0)],
                         ids=["cesaro", "gencesaro2"])
def test_sa_values_order_and_grouping(kernel):
    # 1,500 points run as three schedules of at most 512 sorted points;
    # a permuted input gives the permuted output bit for bit
    k = kernel()
    xs = -64.0 + 128.0 / 1500 * (np.arange(1500) + 0.5)
    (_, fn), = [c for c in bmo_corpus(64.0, 1500) if c[0] == "clipped-log"]
    widths = []

    def f_of(x):
        widths.append(x.shape[1])
        return fn(x)

    out = _sa_values(k, f_of, xs, 1e-9)
    assert max(widths) == 512
    perm = np.random.default_rng(5).permutation(xs.size)
    assert _sa_values(k, fn, xs[perm], 1e-9).tobytes() == out[perm].tobytes()


def test_sa_moment_matches_reciprocal_moment():
    for a in (cesaro(), hardy_type()):
        for p in (2.0, 4.0):
            lhs = sa_moment(a, p)
            rhs = moment(adjoint_kernel(a), p)
            assert lhs.finite == rhs.finite
            if lhs.finite:
                assert lhs.value == pytest.approx(rhs.value, rel=1e-8)
    assert sa_moment(cesaro(), 2.0).value == pytest.approx(2.0, rel=1e-9)


def test_duality_residual_gaussians():
    f = SampledLine.from_function(lambda x: np.exp(-np.asarray(x) ** 2),
                                  32.0, 1 << 12, label="f")
    g = SampledLine.from_function(lambda x: np.exp(-0.5 * (np.asarray(x) - 1.0) ** 2),
                                  32.0, 1 << 12, label="g")
    assert duality_residual(cesaro(), f, g, 2.0) < 1e-7


def test_duality_zero_function():
    f = SampledLine.from_function(lambda x: np.exp(-np.asarray(x) ** 2),
                                  16.0, 1 << 10)
    z = SampledLine.from_values(np.zeros(1 << 10), 16.0)
    assert duality_residual(cesaro(), f, z, 2.0) == 0.0


def test_duality_requires_common_grid():
    f = SampledLine.from_function(lambda x: np.exp(-np.asarray(x) ** 2), 16.0, 1 << 10)
    g = SampledLine.from_function(lambda x: np.exp(-np.asarray(x) ** 2), 8.0, 1 << 10)
    with pytest.raises(ValueError):
        duality_residual(cesaro(), f, g, 2.0)


def test_duality_residual_pairs_once_for_all_exponents(monkeypatch):
    import hhl.hausdorff as hausdorff
    f = SampledLine.from_function(lambda x: np.exp(-np.asarray(x) ** 2),
                                  16.0, 1 << 10)
    g = SampledLine.from_function(lambda x: np.exp(-0.5 * (np.asarray(x) - 1.0) ** 2),
                                  16.0, 1 << 10)
    singles = [duality_residual(cesaro(), f, g, p) for p in (2.0, 4.0, 1.5)]
    calls = []
    real = hausdorff.transform_values
    monkeypatch.setattr(hausdorff, "transform_values",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    duality_residual(cesaro(), f, g, 2.0)
    per_pairing = len(calls)
    calls.clear()
    assert duality_residual(cesaro(), f, g, (2.0, 4.0, 1.5)) == singles
    assert len(calls) == per_pairing
    with pytest.raises(ValueError):
        duality_residual(cesaro(), f, g, (2.0, math.inf))
