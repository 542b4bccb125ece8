"""Complex-valued functions sampled on uniform grids of [-L, L].

SampledLine is the discrete substrate for boundary functions, transform
outputs, and Hilbert transforms.  A sample set may carry a closed-form
tag: a vectorized callable that regenerates the values exactly and keeps
windowed norms honest through analytic tail handling (power-law tails are
integrated out to the representable range instead of being cut at L).
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field

import numpy as np
from scipy import fft as sp_fft
from scipy.interpolate import CubicSpline

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
    def _splines(self):
        # values are immutable, so the splines are fitted once; real data
        # has None for the imaginary part
        imag = self.values.imag
        return (CubicSpline(self.grid(), self.values.real),
                CubicSpline(self.grid(), imag) if imag.any() else None)


def eval_at(f: SampledLine, x):
    """Point evaluation honoring the tag; grid interpolation otherwise."""
    args = np.asarray(x, dtype=float)
    if f.form is not None:
        return np.asarray(f.form(args), dtype=complex)
    out = np.zeros(args.shape, dtype=complex)
    inside = (args >= -f.L) & (args <= f.L)
    if np.any(inside):
        re, im = f._splines
        xs = args[inside]
        out[inside] = re(xs) if im is None else re(xs) + 1j * im(xs)
    return out if args.ndim else complex(out)


def _fftconvolve(a: np.ndarray, b: np.ndarray, mode: str = "full",
                 spectra: dict | None = None) -> np.ndarray:
    """Linear convolution of two 1-D arrays by FFT, in the arithmetic of
    scipy's ``fftconvolve`` bit for bit.

    ``mode`` is "full" (length len(a) + len(b) - 1), "same" (centred to
    len(a)) or "valid" (centred to the overlap, |len(a) - len(b)| + 1).
    Real inputs take the real transforms.  "valid" puts the longer operand
    first as scipy does: the spectrum product is not commutative bit for
    bit under fused multiply-add.  ``spectra``, a dict a caller keeps over
    calls sharing the operand transformed second (b; in "valid" mode the
    shorter one), holds that operand's spectrum so it is computed once.
    """
    if mode == "valid" and a.size < b.size:
        a, b = b, a
    n = a.size + b.size - 1
    real = not (np.iscomplexobj(a) or np.iscomplexobj(b))
    nf = sp_fft.next_fast_len(n, real)
    fft, ifft = (sp_fft.rfft, sp_fft.irfft) if real else (sp_fft.fft, sp_fft.ifft)
    spectra = {} if spectra is None else spectra
    if (nf, real) not in spectra:
        spectra[nf, real] = fft(b, nf)
    out = ifft(fft(a, nf) * spectra[nf, real], nf)[:n]
    if mode == "full":
        return out
    keep = a.size if mode == "same" else a.size - b.size + 1
    start = (n - keep) // 2
    return out[start:start + keep]


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


def _tail_integral(fn, p: float, L: float, tail_power: float | None,
                   side: int, tol: float) -> float:
    """integral of |fn|^p over (L, inf) on one side (sign via ``side``).

    Substitutes x = L e^u, integrates the representable range, and closes
    with the exact power-law remainder measured at the far endpoint.
    Requires p*tail_power > 1 (membership in L^p).
    """
    if tail_power is None:
        return 0.0
    ps1 = p * tail_power - 1.0
    if ps1 <= 0:
        return math.inf
    U = min(_TAIL_UMAX, max(6.0, 30.0 / ps1))

    def integrand(us):
        xs = side * L * np.exp(us)
        return np.abs(np.asarray(fn(xs))) ** p * (L * np.exp(us))

    res = integrate(integrand, 0.0, U, tol=tol)
    xU = L * math.exp(U)
    rem = float(np.abs(np.asarray(fn(np.array([side * xU]))))[0]) ** p * xU / ps1
    return float(res.value) + rem


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
                     tail_power: float | None = None, tol: float = 1e-10,
                     even_modulus: bool = False) -> float:
    """L^p norm of a callable over the line by graded-panel quadrature.

    The window (0, L] is covered by panels doubling from ``scale`` (the
    smallest feature width), the tails by the substituted integral plus a
    measured power remainder.  With ``even_modulus`` only x > 0 is
    integrated and doubled.
    """
    def one_side(side: int) -> float:
        panels = geometric_panels(scale, L)
        win = integrate_batched(
            lambda xs: np.abs(np.asarray(fn(side * xs))) ** p, panels, tol=tol)
        return float(win.value) + _tail_integral(fn, p, L, tail_power, side, tol)

    if even_modulus:
        total = 2.0 * one_side(+1)
    else:
        total = one_side(+1) + one_side(-1)
    return total ** (1.0 / p)

