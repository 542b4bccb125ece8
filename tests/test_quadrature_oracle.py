"""Oracle tier for the quadrature engine: references computed by mpmath at
30 digits, sharing no code with the engine.  Each integral checks that the
reported ``error`` bounds the true error; transforms at points check the
value against their tol."""

import math

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")

from hhl.hausdorff import transform_values
from hhl.kernels import cesaro, hardy_type, moment
from hhl.quadrature import integrate, integrate_halfline, integrate_pv


def _pv_exp(x0, a, b):
    # PV of e^x/(x - x0) over [a, b] = e^x0 (Ei(b - x0) - Ei(a - x0))
    return mp.exp(x0) * (mp.ei(b - x0) - mp.ei(a - x0))


CASES = {
    "rsqrt endpoint": (
        lambda: integrate(lambda x: 1.0 / np.sqrt(x), 0, 1, tol=1e-10),
        lambda: mp.quad(lambda x: 1 / mp.sqrt(x), [0, 1])),
    "log endpoint": (
        lambda: integrate(np.log, 0, 1, tol=1e-10),
        lambda: mp.quad(mp.log, [0, 1])),
    "sqrt endpoint": (
        lambda: integrate(np.sqrt, 0, 1, tol=1e-12),
        lambda: mp.quad(mp.sqrt, [0, 1])),
    "oscillatory cosine": (
        lambda: integrate(lambda x: np.cos(40.0 * x), 0, 3, tol=1e-12),
        lambda: mp.sin(120) / 40),
    "runge": (
        lambda: integrate(lambda x: 1.0 / (1.0 + 25.0 * x * x), -1, 1, tol=1e-12),
        lambda: mp.quad(lambda x: 1 / (1 + 25 * x * x), [-1, 0, 1])),
    "gamma(1/2)": (
        lambda: integrate_halfline(lambda t: np.exp(-t) / np.sqrt(t), tol=1e-10),
        lambda: mp.gamma(mp.mpf(1) / 2)),
    "lorentzian half-line": (
        lambda: integrate_halfline(lambda t: 1.0 / (1.0 + t * t), tol=1e-10),
        lambda: mp.quad(lambda t: 1 / (1 + t * t), [0, 1, mp.inf])),
    "cesaro moment p=3": (
        lambda: moment(cesaro(), 3.0),
        # t = e^-v: integral of t^(1/3 - 1) over (0, 1)
        lambda: mp.quad(lambda v: mp.exp(-v / 3), [0, mp.inf])),
    "hardy moment p=3": (
        lambda: moment(hardy_type(), 3.0),
        # t = e^v: integral of t^(1/3 - 1) / t over (1, inf)
        lambda: mp.quad(lambda v: mp.exp(-2 * v / 3), [0, mp.inf])),
    "pv pole on power of two": (
        lambda: integrate_pv(lambda x: np.exp(x) / (x - 1.0), 1.0, -1, 3, tol=1e-11),
        lambda: _pv_exp(1, -1, 3)),
    "pv off-centre": (
        lambda: integrate_pv(lambda x: np.exp(x) / (x - 0.3), 0.3, -1, 2, tol=1e-10),
        lambda: _pv_exp(mp.mpf(0.3), -1, 2)),
    "pv negative pole": (
        lambda: integrate_pv(lambda x: np.exp(x) / (x + 0.5), -0.5, -2, 1, tol=1e-10),
        lambda: _pv_exp(mp.mpf(-0.5), -2, 1)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_error_bounds_true_error(name):
    run, ref = CASES[name]
    res = run()
    with mp.workdps(30):
        true_err = abs(float(res.value) - float(ref()))
    assert math.isfinite(res.error)
    assert true_err <= res.error, f"true error {true_err:.3e} > reported {res.error:.3e}"


# T_phi f(x) = int phi(t) f(x/t) dt/t for f = e^(-x^2), in closed form
TRANSFORMS = {
    "cesaro": (cesaro, lambda x: mp.e1(x * x) / 2),
    "hardy": (hardy_type, lambda x: mp.sqrt(mp.pi) * mp.erf(x) / (2 * x)),
}


@pytest.mark.parametrize("name", sorted(TRANSFORMS))
def test_transform_values_on_gauss(name):
    kernel, ref = TRANSFORMS[name]
    xs = np.array([-3.0, -0.4, 0.01, 0.3, 1.0, 2.5, 6.0])
    tol = 1e-10
    got = transform_values(kernel(), lambda z: np.exp(-z * z), xs, tol=tol)
    with mp.workdps(30):
        exact = np.array([float(ref(mp.mpf(x))) for x in xs])
    assert np.max(np.abs(got - exact)) <= tol
