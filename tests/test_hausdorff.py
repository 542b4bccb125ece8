import math

import numpy as np
import pytest

from hhl.halfplane import CayleyPower, InverseSquare
from scipy.special import erf, exp1

from hhl.hausdorff import (_LOG_DELTA, _LOG_M, KernelImage, SweepResult,
                           WindowTooSmallError, _hat_weights,
                           _log_grid_transform, apply_complex, apply_real,
                           boundary_identity_check, norm_lower_bound_sweep,
                           norm_upper_bound, transform_values)
from hhl.kernels import (Kernel, cesaro, eval_kernel, gen_cesaro, hardy_type,
                         moment, moment_exponent, truncate_below, zero_kernel)
from hhl.quadrature import DivergenceError, integrate_halfline
from hhl.realline import SampledLine, lp_norm


def test_apply_real_log_profile():
    # averaging the unit indicator gives -log x on (0, 1); oracle is the
    # antiderivative of the defining integral checked at interior nodes
    f = SampledLine.from_function(
        lambda x: ((np.asarray(x) >= 0) & (np.asarray(x) <= 1)).astype(complex),
        4.0, 1 << 10)
    xs = np.array([0.1, 0.25, 0.5, 0.75, 1.5, 3.0])
    vals = transform_values(cesaro(), f.form, xs, tol=1e-10)
    expect = np.where(xs <= 1, -np.log(np.clip(xs, 1e-12, None)), 0.0)
    assert np.max(np.abs(vals - expect)) < 1e-6


def test_apply_real_constant_tail_weight():
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    vals = transform_values(hardy_type(), one, np.array([0.0, 1.0, -3.0]), tol=1e-10)
    assert np.allclose(vals, 1.0, atol=1e-9)  # integral of t^-2 over (1,inf)


def test_eigenfunction_identity():
    # |x|^(-1/2) is an eigenfunction with eigenvalue = the half moment
    fn = lambda x: np.abs(np.asarray(x, dtype=float)) ** -0.5
    for k in (cesaro(), hardy_type()):
        lam = moment_exponent(k, 0.5).value
        for x0 in (0.5, 1.0, 4.0):
            got = transform_values(k, fn, np.array([x0]), tol=1e-10)[0]
            assert got == pytest.approx(lam * x0 ** -0.5, rel=1e-8)


def test_apply_real_positivity_and_grid():
    f = SampledLine.from_function(
        lambda x: np.exp(-np.asarray(x, dtype=float) ** 2), 16.0, 1 << 10)
    out = apply_real(hardy_type(), f, tol=1e-9)
    assert out.N == f.N and out.L == f.L
    assert np.min(out.values.real) >= -1e-12
    assert np.max(np.abs(out.values.imag)) < 1e-12


def test_apply_real_divergence_names_node():
    def clipped_gauss(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-np.clip(x, -30, 30) ** 2)

    f = SampledLine.from_function(clipped_gauss, 4.0, 1 << 10)
    with pytest.raises(DivergenceError) as exc:
        apply_real(cesaro(), f, tol=1e-9)  # log point at the x=0 node
    assert "0" in str(exc.value)


def test_minkowski_bound():
    p = 2.0
    f = SampledLine.from_function(
        lambda x: np.exp(-np.asarray(x, dtype=float) ** 2), 32.0, 1 << 12,
        label="gauss")
    for k in (hardy_type(), truncate_below(cesaro(), 0.01)):
        out = apply_real(k, f, tol=1e-9)
        bound = moment(k, p).value * lp_norm(f, p)
        assert lp_norm(out, p) <= bound * (1.0 + 1e-4)


def test_dilation_covariance():
    lam = 2.0
    k = hardy_type()
    base = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    dil = lambda x: base(lam * np.asarray(x, dtype=float))
    xs = np.array([0.3, 1.0, 2.5])
    lhs = transform_values(k, dil, xs, tol=1e-10)
    rhs = transform_values(k, base, lam * xs, tol=1e-10)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_truncation_continuity():
    # removing kernel mass below delta moves the output by at most the
    # removed moment times the norm
    p, delta = 2.0, 0.25
    k = cesaro()
    kd = truncate_below(k, delta)
    f = SampledLine.from_function(
        lambda x: np.exp(-np.asarray(x, dtype=float) ** 2), 32.0, 1 << 12,
        label="gauss")
    h = f.h
    xs = -f.L + h * (np.arange(f.N) + 0.5)
    whole = transform_values(k, f.form, xs, tol=1e-9)
    trunc = transform_values(kd, f.form, xs, tol=1e-9)
    diff_norm = float(np.sum(np.abs(whole - trunc) ** p) * h) ** (1.0 / p)
    removed = integrate_halfline(
        lambda t: eval_kernel(k, t) * t ** (1.0 / p - 1.0), tol=1e-11,
        support=(0.0, delta)).value
    assert diff_norm <= float(removed) * lp_norm(f, p) * (1.0 + 1e-4)


def test_apply_complex_log_value():
    # averaging (z+i)^-1 at z=i: antiderivative gives -i log 2
    got = apply_complex(cesaro(), CayleyPower(1.0, 1.0), 1j)
    assert got == pytest.approx(-1j * math.log(2.0), abs=1e-10)


def test_apply_complex_zero_and_linearity():
    k = hardy_type()
    f, g = InverseSquare(), CayleyPower(1.0, 1.0)
    rng = np.random.default_rng(3)
    zs = rng.uniform(-3, 3, 20) + 1j * rng.uniform(0.2, 4.0, 20)
    a, b = 1.7 - 0.3j, -0.8j
    for z in zs[:5]:
        lhs = a * apply_complex(k, f, z) + b * apply_complex(k, g, z)
        combo = lambda zz: a * f.eval_batch(zz) + b * g.eval_batch(zz)
        rhs = transform_values(k, combo, np.array([z]), tol=1e-10)[0]
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_apply_complex_rejects_lower_half():
    with pytest.raises(ValueError):
        apply_complex(cesaro(), InverseSquare(), 1 - 1j)


def test_norm_upper_bound():
    assert norm_upper_bound(cesaro(), 2.0) == pytest.approx(2.0, rel=1e-9)
    assert math.isinf(norm_upper_bound(cesaro(), math.inf))
    assert norm_upper_bound(hardy_type(), 4.0) == pytest.approx(4.0 / 3.0, rel=1e-9)


def test_kernel_image_boundary_continuity():
    img = KernelImage(kernel=hardy_type(), base=CayleyPower(1.0, 1.0))
    assert img.boundary_ok
    v = img.eval_batch(np.array([0.5 + 0.0j]))[0]
    assert np.isfinite(v)


def test_sweep_result_invariants():
    with pytest.raises(ValueError):
        SweepResult(p=2.0, epsilons=(0.1, 0.2), quotients=(1.0, 1.0),
                    moment=2.0, best=1.0)
    with pytest.raises(ValueError):
        SweepResult(p=2.0, epsilons=(0.2, 0.1), quotients=(2.5, 1.0),
                    moment=2.0, best=2.5)


def test_sweep_quick():
    sw = norm_lower_bound_sweep(cesaro(), 2.0, (0.2, 0.1), L=1e4)
    assert sw.moment == pytest.approx(2.0, rel=1e-9)
    assert sw.best <= 2.0 * (1 + 1e-6)
    assert sw.best >= 1.88
    assert sw.family == "unit-shift"


def test_sweep_rejects_unbounded():
    with pytest.raises(ValueError):
        norm_lower_bound_sweep(hardy_type(), 1.0, (0.1,))


def test_sweep_window_guard():
    with pytest.raises(WindowTooSmallError):
        norm_lower_bound_sweep(cesaro(), 2.0, (0.0005,), L=1e4)


def test_boundary_identity_rejects_divergent_moment():
    with pytest.raises(ValueError):
        boundary_identity_check(hardy_type(), InverseSquare(), 1.0, (0.5, 0.1))


def test_boundary_identity_quick():
    rep = boundary_identity_check(hardy_type(), CayleyPower(1.0, 1.0), 2.0,
                                  (0.5, 0.1, 0.02, 2e-3, 2e-4), L=64.0)
    assert rep.passed
    errs = rep.environment["errors"]
    assert all(a > b for a, b in zip(errs, errs[1:]))


# ---------------------------------------------------------------------------
# Log-grid (Mellin) convolution, checked against closed forms and against
# the adaptive transform_values


def _gauss(x):
    return np.exp(-np.asarray(x) ** 2)


LOG_GRID_CLOSED = {
    # T_phi of e^(-x^2) for the two classical kernels
    "cesaro": (cesaro, lambda x: exp1(x * x) / 2),
    "hardy": (hardy_type, lambda x: math.sqrt(math.pi) * erf(x) / (2 * x)),
}


@pytest.mark.parametrize("name", sorted(LOG_GRID_CLOSED))
def test_log_grid_closed_forms(name):
    kernel, ref = LOG_GRID_CLOSED[name]
    xs = np.array([-3.0, -0.4, 0.01, 0.3, 1.0, 2.5, 6.0, 100.0])
    got = _log_grid_transform(kernel(), _gauss, xs)
    exact = ref(xs)
    assert np.max(np.abs(got - exact)) <= 1e-7 * np.max(np.abs(exact))


LOG_GRID_CORPUS = {
    "gauss": _gauss,
    "xgauss": lambda x: np.asarray(x) * _gauss(x),
    "P1diff": lambda x: (1 / math.pi) / (1 + np.asarray(x) ** 2)
    - (1 / math.pi) / (1 + (np.asarray(x) - 1) ** 2),
}


@pytest.mark.parametrize("fname", sorted(LOG_GRID_CORPUS))
@pytest.mark.parametrize("kernel", [cesaro, hardy_type, lambda: gen_cesaro(2.0)],
                         ids=["cesaro", "hardy", "gencesaro2"])
def test_log_grid_matches_adaptive(kernel, fname):
    fn = LOG_GRID_CORPUS[fname]
    pos = np.geomspace(3e-3, 200.0, 20)
    xs = np.concatenate([-pos[::-1], pos])
    k = kernel()
    got = _log_grid_transform(k, fn, xs)
    ref = transform_values(k, fn, xs, tol=1e-10)
    assert np.max(np.abs(got - ref)) <= 5e-7 * np.max(np.abs(ref))


def test_log_grid_hat_weights_closed_forms():
    d, m = _LOG_DELTA, _LOG_M
    idx = np.arange(1, m - 1)  # away from the grid ends
    ces = _hat_weights(cesaro())
    assert np.max(np.abs(ces[m - idx] - d)) <= 1e-12
    assert abs(ces[m] - d / 2) <= 1e-12
    assert np.all(ces[m + 1:] == 0.0)
    har = _hat_weights(hardy_type())
    exact = np.exp(-idx * d) * 2.0 * (math.cosh(d) - 1.0) / d
    assert np.max(np.abs(har[m + idx] - exact)) <= 1e-12
    assert np.all(har[:m] == 0.0)


def test_log_grid_guards():
    xs = np.array([-1.0, 0.5, 2.0])
    with pytest.raises(ValueError, match="decayed"):
        _log_grid_transform(cesaro(), lambda x: 1.0 / (1.0 + np.abs(x)) ** 0.25, xs)
    slow = Kernel(kind="slow", label="slow", fn=lambda t: np.asarray(t) ** -0.5,
                  support=(1.0, math.inf), inf_exponent=-0.5)
    with pytest.raises(ValueError, match="kernel mass"):
        _log_grid_transform(slow, _gauss, xs)
    # the output floor follows the kernel's reach: 0 for cesaro, about
    # 27.6 for hardy, whose floor is then |x| = e^(27.6 - 40) = 4.2e-6
    for k, bad in ((cesaro(), 0.0), (cesaro(), 1e18), (hardy_type(), 1e-6)):
        with pytest.raises(ValueError, match="off the log grid"):
            _log_grid_transform(k, _gauss, np.array([1.0, bad]))
    tiny = np.array([-1e-10, 1e-10])
    assert np.allclose(_log_grid_transform(cesaro(), _gauss, tiny),
                       exp1(1e-20) / 2, rtol=1e-7, atol=0)


def test_log_grid_zero_kernel_exact():
    xs = np.array([-5.0, -0.01, 0.01, 5.0])
    assert np.all(_log_grid_transform(zero_kernel(), _gauss, xs) == 0.0)
