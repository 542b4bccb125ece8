"""Complex-valued functions sampled on uniform grids of [-L, L].

SampledLine is the discrete substrate for boundary functions, transform
outputs, and Hilbert transforms.  A sample set may carry a closed-form
tag: a vectorized callable that regenerates the values exactly and keeps
windowed norms honest through analytic tail handling (power-law tails are
integrated out to the representable range instead of being cut at L).
``lp_norm_function`` takes the norm of a callable the same way, and of a
family of callables at once: values with a trailing axis give one norm
per component, under one quadrature schedule and one tail integral.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field

import numpy as np
import numpy.fft  # loaded lazily by numpy; load it with the module

from .quadrature import integrate, integrate_batched, geometric_panels

__all__ = ["SampledLine", "lp_norm", "lp_norm_function"]

# exponent cap for the x = L*e^u tail substitution (see lp tail handling)
_TAIL_UMAX = 600.0


@dataclass(frozen=True)
class SampledLine:
    """N complex samples at x_j = -L + j*(2L/N), j = 0..N-1.

    N must be a power of two >= 16 so the FFT paths apply directly.
    ``form``, when present, is the generating function (vectorized,
    accepts any real array); ``tail_power`` records |f(x)| ~ C|x|^-s decay
    used for analytic tail corrections.  Functions without a form are zero
    outside the window.
    """

    L: float
    values: np.ndarray
    form: object = field(default=None, repr=False, compare=False)
    tail_power: float | None = None
    label: str = ""
    _derived: InitVar[bool] = False

    def __post_init__(self, _derived):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        n = vals.size
        if self.L <= 0:
            raise ValueError("half-width L must be positive")
        if n < 16 or n & (n - 1):
            raise ValueError("sample count must be a power of two >= 16")
        if self.form is not None and not _derived:
            probe = self.form(self.grid())
            if not np.allclose(probe, vals, rtol=1e-12, atol=1e-300):
                raise ValueError("closed-form tag does not reproduce the samples")

    @property
    def N(self) -> int:
        return self.values.size

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    def grid(self) -> np.ndarray:
        return -self.L + self.h * np.arange(self.N)

    @classmethod
    def from_function(cls, fn, L: float, N: int, tail_power: float | None = None,
                      label: str = "") -> "SampledLine":
        xs = -L + (2.0 * L / N) * np.arange(N)
        return cls(L=L, values=np.asarray(fn(xs), dtype=complex), form=fn,
                   tail_power=tail_power, label=label)

    @classmethod
    def from_values(cls, values, L: float, tail_power: float | None = None,
                    label: str = "") -> "SampledLine":
        return cls(L=L, values=np.asarray(values, dtype=complex),
                   tail_power=tail_power, label=label)

    @classmethod
    def derived(cls, values, L: float, form, tail_power: float | None = None,
                label: str = "") -> "SampledLine":
        """Samples with a closed form the caller derived along with them,
        attached unprobed: re-evaluating the form on every node could only
        cost time, or fail FFT grid values at the probe's rtol 1e-12."""
        return cls(L=L, values=values, form=form, tail_power=tail_power,
                   label=label, _derived=True)

    @functools.cached_property
    def _spline(self):
        # values are immutable, so the spline is fitted once; real data
        # gets a real spline
        vals = self.values if self.values.imag.any() else self.values.real
        return _spline(-self.L, self.h, vals)

    @functools.cached_property
    def _spectrum(self):
        # the samples' transform at length 2N, kept for every convolution
        # against them (``_convolve_rows``); real data gets the real one
        if self.values.imag.any():
            return np.fft.fft(self.values, 2 * self.N)
        return np.fft.rfft(self.values.real, 2 * self.N)


def eval_at(f: SampledLine, x):
    """Point evaluation honoring the tag; grid interpolation otherwise."""
    args = np.asarray(x, dtype=float)
    if f.form is not None:
        out = np.asarray(f.form(args), dtype=complex)
    else:
        out = np.zeros(args.shape, dtype=complex)
        inside = (args >= -f.L) & (args <= f.L)
        if np.any(inside):
            out[inside] = f._spline(args[inside])
    return out if args.ndim else complex(out)


# Green's function of the (1, 4, 1) slope system: z^|k| / (4 + 2z) with
# z = sqrt(3) - 2, cut at |k| = 30 where |z|^30 < 1e-17; the end modes
# z^k are cut there too
_Z = math.sqrt(3.0) - 2.0
_ZK = _Z ** np.arange(31.0)
_GREEN = _Z ** np.abs(np.arange(-30.0, 31.0)) / (4.0 + 2.0 * _Z)


def _spline(x0: float, h: float, y: np.ndarray):
    """Not-a-knot cubic spline through y (real or complex, n >= 4) at the
    nodes x0 + h*i, as a callable on real arrays of any shape that, like
    scipy's CubicSpline, extrapolates the end cells.

    The slopes s solve s[i-1] + 4 s[i] + s[i+1] = 3 (y[i+1] - y[i-1]) / h:
    a particular solution by convolution with the Green's function, plus
    the end modes z^i and z^(n-1-i), weighted so that the third derivative
    is continuous at the second and the last-but-one node.
    """
    n = y.size
    d = np.diff(y) / h
    s = np.convolve(3.0 * (d[:-1] + d[1:]), _GREEN)[29:29 + n]
    zk = _ZK[:n]
    a, b = 1.0 - _Z * _Z, _Z ** (n - 1) - _Z ** (n - 3)
    left = 2.0 * (d[0] - d[1]) - (s[0] - s[2])
    right = 2.0 * (d[-1] - d[-2]) - (s[-1] - s[-3])
    det = a * a - b * b
    s[:zk.size] += (a * left - b * right) / det * zk
    s[n - zk.size:] += (a * right - b * left) / det * zk[::-1]
    c2 = (3.0 * d - 2.0 * s[:-1] - s[1:]) / h
    c3 = (s[:-1] + s[1:] - 2.0 * d) / (h * h)

    def ev(x):
        x = np.asarray(x, dtype=float)
        i = np.minimum(np.maximum(np.floor((x - x0) / h), 0.0), n - 2.0).astype(np.intp)
        t = x - (x0 + h * i)
        return y[i] + t * (s[i] + t * (c2[i] + t * c3[i]))
    return ev


def _pchip(x: np.ndarray, y: np.ndarray):
    """Monotone piecewise-cubic interpolant of real y at increasing x
    (Fritsch & Carlson, SIAM J. Numer. Anal. 17 (1980) 238), NaN outside
    [x[0], x[-1]]: scipy's PchipInterpolator(extrapolate=False) bit for bit.

    Interior slopes are the weighted harmonic mean of the neighbouring
    secants (0 at a sign change or a flat secant), end slopes the
    shape-preserving three-point estimate, and n = 2 is a line.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    dk = np.zeros(y.size)
    if y.size == 2:
        dk[:] = m[0]
    else:
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        ok = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        dk[1:-1][ok] = 1.0 / whmean[ok]
        for end, h0, h1, m0, m1 in ((0, h[0], h[1], m[0], m[1]),
                                    (-1, h[-1], h[-2], m[-1], m[-2])):
            e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            if np.sign(e) != np.sign(m0):
                e = 0.0
            elif np.sign(m0) != np.sign(m1) and abs(e) > 3.0 * abs(m0):
                e = 3.0 * m0
            dk[end] = e
    # Hermite coefficients, evaluated in ascending powers as scipy's PPoly
    t = (dk[:-1] + dk[1:] - 2 * m) / h
    c0, c1 = t / h, (m - dk[:-1]) / h - t

    def ev(q):
        q = np.asarray(q, dtype=float)
        i = np.searchsorted(x[1:-1], q, side="right")  # the cell, end cells clamped
        s = q - x[i]
        s2 = s * s
        out = y[i] + dk[i] * s + c1[i] * s2 + c0[i] * (s2 * s)
        return np.where((q >= x[0]) & (q <= x[-1]), out, np.nan)
    return ev


# rows per stack in _convolve_rows: more rows save little time and cost
# memory
_FFT_ROWS = 4


def _convolve_rows(fs, params, row):
    """Centred kernel rows against a corpus of lines on one grid: yields,
    per stack of ``_FFT_ROWS`` parameters, (the stack, an iterator of one
    (rows, N) array per f), to be read before the next stack.

    ``row(p)`` gives 2N - 1 real taps at offsets -(N - 1)h .. (N - 1)h,
    whose "valid" convolution with f's samples (their real part when f is
    real) is the kernel's sum at f's N grid points.  The circular length
    2N leaves that overlap unaliased.  Each stack is built once for the
    corpus and transformed once per kind of transform (real or complex),
    and each f's product with it takes f's kept spectrum
    (``SampledLine._spectrum``), the stack's first: the product is not
    commutative bit for bit under fused multiply-add.
    """
    n, L = fs[0].N, fs[0].L
    if any(f.N != n or f.L != L for f in fs):
        raise ValueError("the lines of a corpus must share one grid")

    def convs(stack):
        by_kind = {}  # the stack's spectrum per kind of transform
        for f in fs:
            real = not f.values.imag.any()
            fft, ifft = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
            if real not in by_kind:
                by_kind[real] = fft(stack, 2 * n)
            out = ifft(by_kind[real] * f._spectrum, 2 * n)
            yield out[..., n - 1:2 * n - 1]
            del out  # else it stays alive while the next f's is made

    for first in range(0, len(params), _FFT_ROWS):
        chunk = params[first:first + _FFT_ROWS]
        yield chunk, convs(np.stack([row(p) for p in chunk]))


def _window_trapezoid(f: SampledLine, p: float) -> float:
    a = np.abs(f.values)
    w = np.full(f.N, f.h)
    w[0] *= 0.5
    w[-1] *= 0.5
    vals = a ** p
    s = float(np.sum(vals * w))
    # the grid ends at L-h; close the [L-h, L] cell against the tag's
    # sample at L when available, else against the zero extension
    if f.form is not None:
        edge = abs(complex(np.asarray(f.form(np.array([f.L])))[0]))
        s += 0.5 * f.h * (vals[-1] + edge ** p)
    else:
        s += 0.5 * f.h * vals[-1]
    return s


def _tail_integral(fn, p: float, L: float, tail_power, side: int,
                   tol: float):
    """integral of |fn|^p over (L, inf) on one side (sign via ``side``).

    Substitutes x = L e^u, integrates the representable range, and closes
    with the exact power-law remainder measured at the far endpoint.
    Requires p*tail_power > 1 (membership in L^p).

    Component-wise for an ``fn`` whose values carry trailing axes, with
    ``tail_power`` an array of that shape (one power per component): one
    substituted integral runs out to the largest U any component needs,
    and each component is closed with its own remainder there.  A float
    comes back for a scalar ``tail_power``, else an array, inf where a
    component is not in L^p.
    """
    if tail_power is None:
        return 0.0
    ps1 = p * np.asarray(tail_power, dtype=float) - 1.0
    live = ps1 > 0
    if not live.any():
        return math.inf if ps1.ndim == 0 else np.full(ps1.shape, math.inf)
    U = min(_TAIL_UMAX, max(6.0, 30.0 / float(ps1[live].min())))

    def integrand(us):
        xs = side * L * np.exp(us)
        vals = np.abs(np.asarray(fn(xs))) ** p
        if ps1.ndim:
            vals[:, ~live] = 0.0  # components not in L^p come out inf
        return vals * (L * np.exp(us)).reshape(-1, *(1,) * ps1.ndim)

    res = integrate(integrand, 0.0, U, tol=tol)
    xU = L * math.exp(U)
    far = np.abs(np.asarray(fn(np.array([side * xU]))))[0]
    if ps1.ndim == 0:
        return float(res.value) + float(far) ** p * xU / float(ps1)
    # the remainders in Python floats, as the scalar closure takes them
    rem = np.array([float(a) ** p * xU / float(s) for a, s in zip(far, ps1)])
    return np.where(live, res.value + rem, math.inf)


def lp_norm(f: SampledLine, p: float) -> float:
    """Trapezoidal L^p norm of the samples; sup of |values| when p = inf.

    Tagged power-decaying functions get their tails integrated
    analytically beyond the window, so the result tracks the norm on the
    whole line rather than the window.
    """
    if math.isinf(p):
        return float(np.max(np.abs(f.values))) if f.N else 0.0
    if not p >= 1:
        raise ValueError("p must lie in [1, inf]")
    total = _window_trapezoid(f, p)
    if f.form is not None and f.tail_power is not None:
        total += _tail_integral(f.form, p, f.L, f.tail_power, +1, 1e-12)
        total += _tail_integral(f.form, p, f.L, f.tail_power, -1, 1e-12)
    return total ** (1.0 / p)


def lp_norm_function(fn, p: float, L: float, scale: float = 1.0,
                     tail_power=None, tol: float = 1e-10,
                     even_modulus: bool = False):
    """L^p norm of a callable over the line by graded-panel quadrature.

    The window (0, L] is covered by panels doubling from ``scale`` (the
    smallest feature width), the tails by the substituted integral plus a
    measured power remainder.  With ``even_modulus`` only x > 0 is
    integrated and doubled.  A callable whose values carry a trailing
    axis (a family) gets one norm per component, under one schedule with
    a max-norm error, and ``tail_power`` then holds one power per
    component (see ``_tail_integral``); the result is an array.
    """
    def one_side(side: int):
        panels = geometric_panels(scale, L)
        win = integrate_batched(
            lambda xs: np.abs(np.asarray(fn(side * xs))) ** p, panels, tol=tol)
        return win.value + _tail_integral(fn, p, L, tail_power, side, tol)

    if even_modulus:
        total = 2.0 * one_side(+1)
    else:
        total = one_side(+1) + one_side(-1)
    # each root in Python floats, as one member alone takes it
    roots = [float(t) ** (1.0 / p) for t in np.ravel(total)]
    return roots[0] if np.ndim(total) == 0 else np.array(roots)
