"""The averaging transform on lines and on the half-plane, with the
sharp-norm verification machinery.

The transform is (T_phi f)(x) = integral of f(x/t) phi(t)/t dt over
(0, inf) for a nonnegative weight phi.  Applied to boundary samples it
acts on SampledLine; applied to holomorphic functions it keeps the
argument in the upper half-plane (Im(z/t) = y/t > 0).  Its operator norm
on the p-scale is exactly the kernel moment integral of t^(1/p-1) phi(t);
the machinery here witnesses that constant from below with a Rayleigh
sweep over the extremizer family (z + i*sigma)^(-1/p-eps), and on the
line with the power families |x|^(-1/p+-eps), and verifies the
boundary-value identity (T f)* = T(f*).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.signal import fftconvolve

from .halfplane import CayleyPower, HoloFunction, InverseSquare, hardy_norm, slice_norm
from .kernels import Kernel, cumulative_moment, eval_kernel, moment
from .quadrature import (DivergenceError, doubling_panels, geometric_panels,
                         integrate_batched, integrate_halfline)
from .realline import _TAIL_UMAX, SampledLine, _tail_integral, eval_at
from .report import CheckRow, VerificationReport

__all__ = [
    "transform_values",
    "apply_real",
    "apply_complex",
    "KernelImage",
    "norm_upper_bound",
    "SweepResult",
    "WindowTooSmallError",
    "norm_lower_bound_sweep",
    "lp_lower_bound_sweep",
    "boundary_identity_check",
]

_CHUNK = 1 << 16


class WindowTooSmallError(ValueError):
    """The tail closure cannot resolve the power tail for this epsilon."""


def transform_values(k: Kernel, f_of, zs, tol: float = 1e-10,
                     budget: int | None = None) -> np.ndarray:
    """(T_phi f)(z) for an array of points, real or complex.

    One adaptive schedule in t serves the whole batch; ``f_of`` must be
    vectorized over arbitrary-shape arrays.  Output points are chunked so
    node-by-batch intermediates stay bounded in memory.
    """
    zs = np.asarray(zs)
    scalar = zs.ndim == 0
    zs = np.atleast_1d(zs)
    out = np.empty(zs.shape, dtype=complex)
    for start in range(0, zs.size, _CHUNK):
        chunk = zs[start:start + _CHUNK]

        def integrand(ts):
            w = eval_kernel(k, ts) / ts
            with np.errstate(over="ignore"):
                args = chunk[None, :] / ts[:, None]
            vals = np.asarray(f_of(args), dtype=complex)
            return vals * w[:, None]

        res = integrate_halfline(integrand, tol=tol, budget=budget,
                                 support=k.support)
        if res.diverges:
            probe = np.abs(np.asarray(f_of(chunk)))
            worst = chunk[int(np.argmax(probe))]
            raise DivergenceError(
                f"transform integral diverges near output point {worst}")
        out[start:start + _CHUNK] = res.value
    return complex(out[0]) if scalar else out


# Log-grid (Mellin) convolution.  With x = +-e^s and t = e^u the transform
# is T f(+-e^s) = integral of F(s - u) phi(e^u) du, F(w) = f(+-e^w): one
# convolution per sign.  F is sampled at _LOG_M nodes on w in
# [-_LOG_HALF, _LOG_HALF) (w = 0 a node) and read as piecewise linear.
_LOG_M = 1 << 16
_LOG_HALF = 40.0
_LOG_DELTA = 2.0 * _LOG_HALF / _LOG_M
# the kernel's reach, the u past which its mass is negligible, may not
# exceed _LOG_REACH; an output point needs s >= reach - _LOG_HALF, so that
# F(s - u) stays on the grid wherever the kernel has mass
_LOG_REACH = 34.0
_LOG_NEGLIGIBLE = 1e-12
_GAUSS8 = np.polynomial.legendre.leggauss(8)


def _hat_weights(k: Kernel) -> np.ndarray:
    """W_m = integral of phi(e^u) times the hat centred at u = m*delta,
    for m = -M..M (u in [-2*_LOG_HALF, 2*_LOG_HALF]).

    Product integration: an 8-point Gauss rule per cell, with cells that
    hold the log of a support end split there, so any kernel kind works.
    """
    d, m = _LOG_DELTA, _LOG_M
    lo, hi = k.support
    a = max(-2.0 * _LOG_HALF, math.log(lo)) if lo > 0 else -2.0 * _LOG_HALF
    b = min(2.0 * _LOG_HALF, math.log(hi))
    if a >= b:
        return np.zeros(2 * m + 1)
    nodes = d * np.arange(math.ceil(a / d), math.floor(b / d) + 1)
    edges = np.unique(np.concatenate(([a, b], nodes)))
    left, width = edges[:-1], np.diff(edges)
    cell = np.floor(left / d)
    gx, gw = _GAUSS8
    u = left[:, None] + 0.5 * width[:, None] * (gx + 1.0)
    mass = 0.5 * width[:, None] * gw * eval_kernel(k, np.exp(u))
    frac = u / d - cell[:, None]  # place inside the cell, 0..1
    idx = cell.astype(int) + m
    return (np.bincount(idx, np.sum(mass * (1.0 - frac), axis=1), minlength=2 * m + 1)
            + np.bincount(idx + 1, np.sum(mass * frac, axis=1), minlength=2 * m + 1))


def _log_grid_transform(k: Kernel, f_of, xs) -> np.ndarray:
    """(T_phi f)(x) at real points x by one FFT convolution per sign.

    Product integration of phi against the piecewise-linear model of
    F(w) = f(+-e^w), read off at log|x| by a cubic spline; values agree
    with ``transform_values`` to about 2e-7 of their maximum.  Raises
    ValueError instead of truncating: when F has not decayed at the
    large-|x| end, when the kernel has mass past u = _LOG_REACH, and when
    an output point lies off the grid: |x| >= e^_LOG_HALF, or |x| below
    e^(reach - _LOG_HALF), with a reach of 0 for kernels supported in
    (0, 1] and about 27.6 for hardy (|x| >= 4.2e-6).
    """
    xs = np.asarray(xs, dtype=float)
    d, m = _LOG_DELTA, _LOG_M
    weights = _hat_weights(k)
    beyond = np.cumsum(weights[::-1])[::-1]  # weight mass from index i on
    live = np.flatnonzero(beyond > _LOG_NEGLIGIBLE * beyond[0])
    reach = (live[-1] - m) * d if live.size else 0.0
    if reach > _LOG_REACH:
        far = beyond[m + int(_LOG_REACH / d) + 1] / beyond[0]
        raise ValueError(f"kernel mass past t = e^{_LOG_REACH:g} is "
                         f"{far:.2e} of the total; the log grid would "
                         f"truncate it")
    with np.errstate(divide="ignore"):
        s = np.log(np.abs(xs))
    if not np.all((s >= reach - _LOG_HALF) & (s <= _LOG_HALF - d)):
        raise ValueError("output point off the log grid: |x| must lie in "
                         f"[{math.exp(reach - _LOG_HALF):.3g}, "
                         f"{math.exp(_LOG_HALF - d):.3g}] for {k.label}")
    ws = -_LOG_HALF + d * np.arange(m)
    out = np.zeros(xs.shape, dtype=complex)
    for sign, side in ((1.0, xs > 0), (-1.0, xs < 0)):
        if not np.any(side):
            continue
        F = np.asarray(f_of(sign * np.exp(ws)), dtype=complex)
        peak = float(np.max(np.abs(F)))
        if abs(F[-1]) > _LOG_NEGLIGIBLE * peak:
            raise ValueError(
                f"input has not decayed at x = {sign * math.exp(ws[-1]):.3g} "
                f"(|f| = {abs(F[-1]):.2e} of peak {peak:.2e}); the log "
                f"grid would truncate it")
        if not F.imag.any():
            F = F.real
        conv = fftconvolve(F, weights)[m:2 * m]
        out[side] = CubicSpline(ws, conv)(s[side])
    return out


def apply_real(k: Kernel, f: SampledLine, tol: float = 1e-9) -> SampledLine:
    """Transform of sampled boundary data, node by node on f's grid.

    The integrand reads f through its tag when present (windowed data is
    zero-extended).  The result keeps the input's tail decay marker: a
    power tail maps to a power tail with the same exponent.
    """
    vals = transform_values(k, lambda a: eval_at(f, a), f.grid(), tol=tol)
    return SampledLine.from_values(vals, f.L, tail_power=f.tail_power,
                                   label=f"T[{k.label}]({f.label})")


def apply_complex(k: Kernel, f: HoloFunction, z, tol: float = 1e-10):
    """Transform of a holomorphic function at interior point(s) z."""
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0):
        raise ValueError("apply_complex requires Im z > 0")
    return transform_values(k, f.eval_batch, z, tol=tol)


@dataclass(frozen=True)
class KernelImage(HoloFunction):
    """The transform of a holomorphic function, itself a HoloFunction.

    Evaluation runs the t-quadrature; dilation keeps Im(z/t) positive, so
    the image is defined wherever the base is, including the boundary
    when the base extends continuously.
    """

    kernel: Kernel = None
    base: HoloFunction = None
    tol: float = 1e-10

    @property
    def boundary_ok(self) -> bool:  # type: ignore[override]
        return self.base.boundary_ok

    @property
    def tail_power(self):  # type: ignore[override]
        return self.base.tail_power

    @property
    def feature_scale(self) -> float:  # type: ignore[override]
        lo = self.kernel.support[0]
        if lo <= 0:
            return 1e-9  # dilation drags base features toward x = 0
        return self.base.feature_scale * min(lo, 1.0)

    @property
    def even_slice_modulus(self) -> bool:  # type: ignore[override]
        return self.base.even_slice_modulus

    def eval_batch(self, z):
        z = np.asarray(z, dtype=complex)
        flat = transform_values(self.kernel, self.base.eval_batch, z.ravel(),
                                tol=self.tol)
        return np.asarray(flat).reshape(z.shape)


def norm_upper_bound(k: Kernel, p: float):
    """The sharp constant: the p-moment of the kernel; +inf = unbounded."""
    return moment(k, p).value


# ---------------------------------------------------------------------------
# Rayleigh sweep


@dataclass(frozen=True)
class SweepResult:
    """Rayleigh quotients against the sharp constant.

    Every quotient must sit under the moment (the proven upper bound);
    ``best`` is the largest quotient, the witnessed lower bound.
    """

    p: float
    epsilons: tuple
    quotients: tuple
    moment: float
    best: float
    family: str = ""

    def __post_init__(self):
        eps = self.epsilons
        if any(eps[i] <= eps[i + 1] for i in range(len(eps) - 1)):
            raise ValueError("epsilons must be strictly decreasing")
        if math.isfinite(self.moment):
            for q in self.quotients:
                if q > self.moment * (1.0 + 1e-6):
                    raise ValueError(
                        f"quotient {q} exceeds the sharp bound {self.moment}")
        if self.quotients and self.best != max(self.quotients):
            raise ValueError("best must equal the maximal quotient")


def _extremizer(k: Kernel, p: float, eps: float):
    """The sweep test function for one epsilon.

    Kernels supported in (0, 1] use the unit-shift family; kernels with
    mass at large t need the shift to shrink with epsilon (valid for
    eps < 1 - 1/p).  At p = 1 with unbounded-support mass the fixed
    inverse square stands in (non-sharp witness).
    """
    compact = k.support[1] <= 1.0
    if compact:
        return CayleyPower(1.0 / p + eps, 1.0), "unit-shift"
    if p > 1:
        if not (0 < eps < 1.0 - 1.0 / p):
            raise ValueError(
                f"eps={eps} outside (0, {1 - 1/p:g}) for the shrinking-shift family")
        return CayleyPower(1.0 / p + eps, eps), "shrinking-shift"
    return InverseSquare(), "fixed-witness"


def norm_lower_bound_sweep(k: Kernel, p: float, epsilons,
                           L: float = 1e4) -> SweepResult:
    """Rayleigh quotients of the transform over the extremizer family.

    For each epsilon the quotient is |T f_eps| / |f_eps| in the Hardy
    norm on the window [-L, L] plus closed tails, slices evaluated down to
    the boundary (the extremizers extend continuously).  Quotients
    approach the moment from below as epsilon shrinks.
    """
    if math.isinf(p) or p < 1:
        raise ValueError("sweep requires p in [1, inf)")
    eps_list = tuple(float(e) for e in epsilons)
    m = moment(k, p)
    if not m.finite:
        raise ValueError("sweep requires a finite moment (bounded operator)")
    quotients = []
    family = ""
    for eps in eps_list:
        _check_window(p, eps)
        f_eps, family = _extremizer(k, p, eps)
        sigma = getattr(f_eps, "sigma", 1.0)
        ys = (0.25 * sigma, 0.05 * sigma, 0.0)
        image = KernelImage(kernel=k, base=f_eps, tol=1e-10)
        num = hardy_norm(image, p, y_grid=ys, L=L, tol=1e-10)
        den = hardy_norm(f_eps, p, y_grid=ys, L=L, tol=1e-10)
        quotients.append(num.estimate / den.estimate)
    return SweepResult(p=p, epsilons=eps_list, quotients=tuple(quotients),
                       moment=m.value, best=max(quotients), family=family)


def _check_window(p: float, eps: float):
    """Reject epsilons whose tail closure cannot resolve the power tail.

    The tail integral runs x out to L*e^U with U capped by the double
    range; the pure-power mass left beyond is e^(-p*eps*U) relative,
    whatever L is.  If that exceeds 1% the sweep would silently lose
    norm, so it refuses to start.
    """
    leftover = math.exp(-p * eps * _TAIL_UMAX)
    if leftover > 0.01:
        raise WindowTooSmallError(
            f"the |x|^(-1-p*eps) tail at eps={eps:g} leaves {leftover:.2%} "
            f"of its mass beyond the tail closure; increase eps")


# ---------------------------------------------------------------------------
# Power test functions on the line


def _power_quotient(k: Kernel, p: float, eps: float, side: str,
                    L: float = 1e4, tol: float = 1e-10) -> float:
    """Rayleigh quotient of the transform on one power test function.

    side "large": |x|^(-1/p-eps) outside the unit interval, which the
    kernel sees through its mass at t < |x|.  side "small": the
    complementary |x|^(-1/p+eps) inside, seeing mass at t > |x|.  Both
    transforms collapse to cumulative kernel moments, and all heavy
    power tails are closed with measured remainders.
    """
    if side == "large":
        s = 1.0 / p + eps

        def num_p(xv):
            w = cumulative_moment(k, s, xv, upper=False, tol=tol)
            return np.power(xv, -p * s) * np.power(w, p)

        def den_p(xv):
            return np.where(xv > 1.0, np.power(np.abs(xv), -(1.0 + p * eps)), 0.0)

        # the transform plateaus below the kernel's support floor (it sees
        # only mass at t < x), so the integrand is bounded toward 0 and a
        # 1e-6 floor loses O(1e-8) relative mass
        a0 = max(k.support[0], 1e-6)
        num_mass = float(integrate_batched(num_p, doubling_panels(a0, L), tol=tol).value)
        num_mass += _tail_integral(num_p, 1.0, L, 1.0 + p * eps, +1, tol)
        den_mass = float(integrate_batched(den_p, doubling_panels(1.0, L), tol=tol).value)
        den_mass += _tail_integral(den_p, 1.0, L, 1.0 + p * eps, +1, tol)
        return (num_mass / den_mass) ** (1.0 / p)

    # side == "small": mass piles up at every scale below 1, so work in
    # v = 1/x where it becomes an ordinary power tail
    s = 1.0 / p - eps

    def num_p_v(vv):
        w = cumulative_moment(k, s, 1.0 / vv, upper=True, tol=tol)
        return np.power(vv, p * s - 2.0) * np.power(w, p)

    def den_p_v(vv):
        return np.power(vv, -(1.0 + p * eps))

    num_mass = float(integrate_batched(num_p_v, doubling_panels(1.0, L), tol=tol).value)
    num_mass += _tail_integral(num_p_v, 1.0, L, 1.0 + p * eps, +1, tol)

    if k.support[1] > 1.0:
        # kernel mass beyond t = 1 makes the transform live on x > 1 too
        def num_p_direct(xv):
            w = cumulative_moment(k, s, xv, upper=True, tol=tol)
            return np.power(xv, -p * s) * np.power(w, p)

        num_mass += float(integrate_batched(num_p_direct, doubling_panels(1.0, L),
                                            tol=tol).value)
        ei = k.inf_exponent if k.inf_exponent is not None else -1.0
        num_mass += _tail_integral(num_p_direct, 1.0, L, -p * ei, +1, tol)
    den_mass = float(integrate_batched(den_p_v, doubling_panels(1.0, L), tol=tol).value)
    den_mass += _tail_integral(den_p_v, 1.0, L, 1.0 + p * eps, +1, tol)
    return (num_mass / den_mass) ** (1.0 / p)


def lp_lower_bound_sweep(k: Kernel, p: float, epsilons, L: float = 1e4,
                         tol: float = 1e-10):
    """Both power-family sweeps witnessing the sharp line constant.

    Returns (large_scale, small_scale) SweepResults: the first family
    witnesses the kernel mass at t > 1, the second the mass at t < 1;
    together they exhaust the moment.  Every quotient sits under the
    moment.
    """
    if not (1.0 < p < math.inf):
        raise ValueError("line sweep requires p in (1, inf)")
    eps_list = tuple(float(e) for e in epsilons)
    if any(not 0 < e < 1 for e in eps_list):
        raise ValueError("epsilons must lie in (0, 1)")
    m = moment(k, p)
    if not m.finite:
        raise ValueError("sweep requires a finite moment")
    large = tuple(_power_quotient(k, p, e, "large", L=L, tol=tol) for e in eps_list)
    small = tuple(_power_quotient(k, p, e, "small", L=L, tol=tol) for e in eps_list)
    return (
        SweepResult(p=p, epsilons=eps_list, quotients=large, moment=m.value,
                    best=max(large), family="large-scale-power"),
        SweepResult(p=p, epsilons=eps_list, quotients=small, moment=m.value,
                    best=max(small), family="small-scale-power"),
    )


# ---------------------------------------------------------------------------
# Boundary-value identity


def boundary_identity_check(k: Kernel, f: HoloFunction, p: float, y_seq,
                            L: float = 64.0,
                            tol: float = 1e-10) -> VerificationReport:
    """Checks (T f)(. + iy) -> T(f*) in L^p as y -> 0.

    Computes e(y) = |T f(. + iy) - T(f*)|_p for each y in the decreasing
    sequence; passes when e(y) decreases strictly and the final value is
    below 1e-3 relative to |f*|_p.  The errors decay about linearly in y,
    so the sequence must reach y ~ 1e-4 for the built-in pairs to certify
    the limit at that threshold.  Note the identity is a limit statement
    only: at fixed y the slice of the image does not equal the transform
    of the slice (dilation moves heights), so no slice-wise equality is
    asserted.
    """
    m = moment(k, p)
    if not m.finite:
        raise ValueError(
            f"boundary identity requires a finite moment; p={p:g} moment diverges")
    ys = tuple(float(y) for y in y_seq)
    if any(ys[i] <= ys[i + 1] for i in range(len(ys) - 1)) or ys[-1] <= 0:
        raise ValueError("y_seq must be strictly decreasing and positive")
    if not f.boundary_ok:
        raise ValueError("boundary identity needs a boundary-continuous form")
    denom = slice_norm(f, 0.0, p, L, tol=tol)

    def boundary_of(xs):
        return transform_values(k, lambda a: f.eval_batch(a.astype(complex)),
                                xs, tol=tol)

    errs = []
    for y in ys:
        # graded panels resolve the y-scale feature the slice develops
        # near x = 0; the difference decays a power faster than f itself,
        # so the window integral carries the whole norm
        panels = geometric_panels(min(y, f.feature_scale) / 4.0, L)

        def diff_p(xs, yy=y):
            d = transform_values(k, f.eval_batch, xs + 1j * yy, tol=tol) \
                - boundary_of(xs)
            return np.abs(d) ** p

        total = float(integrate_batched(lambda xs: diff_p(xs), panels, tol=tol).value)
        total += float(integrate_batched(lambda xs: diff_p(-xs), panels, tol=tol).value)
        errs.append(total ** (1.0 / p))
    rows = []
    for (y, e), nxt in zip(zip(ys, errs), list(errs[1:]) + [None]):
        decreasing = nxt is None or e > nxt
        rows.append(CheckRow(
            suite="boundary", check=f"e(y={y:g}) decreasing",
            anchor="boundary-limit", computed=e,
            predicted="decreasing in y", residual=0.0 if decreasing else 1.0,
            tol=0.5, passed=decreasing))
    final_rel = errs[-1] / denom
    rows.append(CheckRow(
        suite="boundary", check="final relative error",
        anchor="boundary-limit", computed=final_rel, predicted=0.0,
        residual=final_rel, tol=1e-3, passed=bool(final_rel < 1e-3)))
    return VerificationReport(
        suite="boundary", rows=rows,
        environment={"kernel": k.label, "p": p, "L": L,
                     "heights": list(ys), "errors": [float(e) for e in errs]})
