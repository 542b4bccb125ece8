"""Holomorphic functions on the upper half-plane.

The built-in family is what the verification suites need: shifted Cayley
powers (z + i*sigma)^-beta on the principal branch, families of them
evaluated together on a trailing member axis, and the fixed inverse
square (z+i)^-2.  All Cayley values come from one polar kernel,
``_cayley_powers``.  On top of the family sits the Hardy-norm estimator
(supremum of horizontal slice norms); ``slice_norm`` gives a family one
norm per member.  The Poisson extension of sampled boundary data to a
height y > 0 is computed from the exact convolution of its
piecewise-linear model, plus the tagged tails by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import integrate_halfline, geometric_panels
from .realline import SampledLine, _convolve_rows, lp_norm_function

__all__ = [
    "HoloFunction",
    "CayleyPower",
    "CayleyFamily",
    "InverseSquare",
    "hardy_norm",
    "slice_norm",
    "poisson_extend",
]


class HoloFunction:
    """Base for closed-form holomorphic functions on Im z > 0.

    ``boundary_ok`` marks members that extend continuously to the real
    axis and may be evaluated at Im z = 0; ``tail_power`` gives the decay
    |f(x+iy)| ~ C|x|^-s along slices when known; ``feature_scale`` is the
    smallest lateral width the modulus varies on (used to grade panels);
    ``even_slice_modulus`` marks the reflection symmetry
    f(-conj z) = c conj f(z) with one constant |c| = 1 (e^(-i pi beta) for
    a Cayley power, 1 for the inverse square), so |f(-x+iy)| = |f(x+iy)|
    and a slice norm may integrate x > 0 only.  A modulus that is merely
    even would not do: the averaging transform keeps the symmetry (a real
    kernel averages c conj f(z/t) to c conj T f(z)), so the image's flag
    and the boundary identity's difference rely on it.
    """

    boundary_ok: bool = False
    tail_power: float | None = None
    feature_scale: float = 1.0
    even_slice_modulus: bool = False

    def eval_batch(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval(self, z: complex) -> complex:
        z = complex(z)
        if z.imag <= 0 and not (self.boundary_ok and z.imag == 0.0):
            raise ValueError(f"evaluation point {z} is not in the upper half-plane")
        return complex(self.eval_batch(np.array([z]))[0])


@dataclass(frozen=True)
class CayleyPower(HoloFunction):
    """z -> (z + i*sigma)^-beta with arg taken in (0, pi).

    sigma = 0 is allowed only for beta < 1 and then only at interior
    points; sigma > 0 members extend continuously to the axis.
    """

    beta: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.sigma == 0.0 and self.beta >= 1.0:
            raise ValueError("sigma = 0 requires beta < 1")

    @property
    def boundary_ok(self) -> bool:  # type: ignore[override]
        return self.sigma > 0

    @property
    def tail_power(self) -> float:  # type: ignore[override]
        return self.beta

    @property
    def feature_scale(self) -> float:  # type: ignore[override]
        return self.sigma if self.sigma > 0 else 1e-6

    even_slice_modulus = True

    def eval_batch(self, z):
        return _cayley_powers(z, ((self.beta, self.sigma),))[..., 0]


def _cayley_powers(z, members) -> np.ndarray:
    """(z + i*sigma)^-beta for each (beta, sigma) in ``members``, on a
    trailing member axis: shape z.shape + (len(members),).

    Real polar form on the principal branch: the modulus |zeta|^-beta, and
    the phase e^(i phi), phi = -beta arg zeta, from the one tangent
    h = tan(phi/2) as ((1 - h^2) + 2ih) / (1 + h^2).  Where |h| > 1 the
    same formula runs in 1/h, which flips the sign of the real part, so h^2
    cannot overflow at the tangent's pole (phi = -pi); both flips run in
    place, on the entries that need them.  |zeta| and arg zeta are
    computed once per distinct sigma.  A member with |phi/2| <= 0.78 <
    pi/4 everywhere cannot flip and skips the test.  Each member's
    transcendentals run on contiguous arrays of z's shape, in buffers
    reused across members, so a member's values do not depend on the
    others in the family.  Non-finite values (|zeta| beyond double range,
    where it underflowed) become zero; with every arg zeta and every
    |zeta|^-beta finite, so is every value, and no scan is needed.
    """
    zs = np.asarray(z, dtype=complex)
    out = np.empty(zs.shape + (len(members),), dtype=complex)
    hb, h2b, reb, rb = (np.empty(zs.shape) for _ in range(4))
    finite = True
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for sigma in dict.fromkeys(s for _, s in members):
            zeta = zs + 1j * sigma
            mod = np.abs(zeta)
            theta = np.arctan2(zeta.imag, zeta.real)
            tmax = np.abs(theta).max(initial=0.0)  # NaN if any theta is
            finite = finite and bool(np.isfinite(tmax))
            for j, (beta, s) in enumerate(members):
                if s != sigma:
                    continue
                h = np.tan(np.multiply(theta, -0.5 * beta, out=hb), out=hb)
                flip = None
                if not 0.5 * beta * tmax <= 0.78:
                    flip = np.abs(h, out=h2b) > 1.0
                    np.divide(1.0, h, out=h, where=flip)
                re = np.subtract(1.0, np.multiply(h, h, out=h2b), out=reb)
                den = np.add(h2b, 1.0, out=h2b)
                if flip is not None:
                    np.negative(re, out=re, where=flip)
                re /= den
                h += h
                h /= den
                r = np.power(mod, -beta, out=rb)
                finite = finite and bool(np.isfinite(r.max(initial=0.0)))
                np.multiply(r, re, out=out[..., j].real)
                np.multiply(r, h, out=out[..., j].imag)
    if finite:
        return out
    return np.nan_to_num(out, nan=0.0, posinf=0.0, neginf=0.0)


@dataclass(frozen=True)
class CayleyFamily(HoloFunction):
    """The CayleyPower ``members`` evaluated together: values carry a
    trailing member axis, and so do the slice norms of ``slice_norm``.

    ``tail_power`` is the array of member exponents, ``feature_scale``
    the finest member's.  Member j's values are
    ``members[j].eval_batch``'s bit for bit.
    """

    members: tuple = ()

    def __post_init__(self):
        if not self.members or not all(isinstance(m, CayleyPower) for m in self.members):
            raise ValueError("a Cayley family needs one or more CayleyPower members")

    @property
    def boundary_ok(self) -> bool:  # type: ignore[override]
        return all(m.boundary_ok for m in self.members)

    @property
    def tail_power(self) -> np.ndarray:  # type: ignore[override]
        return np.array([m.beta for m in self.members])

    @property
    def feature_scale(self) -> float:  # type: ignore[override]
        return min(m.feature_scale for m in self.members)

    even_slice_modulus = True

    def eval_batch(self, z):
        return _cayley_powers(z, tuple((m.beta, m.sigma) for m in self.members))


@dataclass(frozen=True)
class InverseSquare(HoloFunction):
    """z -> (z + i)^-2, the fixed p = 1 test function."""

    boundary_ok = True
    tail_power = 2.0
    feature_scale = 1.0
    even_slice_modulus = True

    def eval_batch(self, z):
        zeta = np.asarray(z, dtype=complex) + 1j
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = 1.0 / (zeta * zeta)
        if np.isfinite(out).all():
            return out
        return np.nan_to_num(out, nan=0.0, posinf=0.0, neginf=0.0)


# ---------------------------------------------------------------------------
# Hardy norms over horizontal slices


def slice_norm(f: HoloFunction, y: float, p: float, L: float,
               tol: float = 1e-10):
    """L^p norm of x -> f(x + iy) with graded panels and analytic tails: a
    float, or one norm per member for a family (``CayleyFamily`` or its
    image), all under one quadrature schedule."""
    if y < 0 or (y == 0 and not f.boundary_ok):
        raise ValueError("slice height must be positive (or 0 for boundary-continuous forms)")

    def fn(xs):
        return f.eval_batch(np.asarray(xs) + 1j * y)

    if math.isinf(p):
        panels = np.asarray(geometric_panels(f.feature_scale + y, L))
        mids = 0.5 * (panels[1:] + panels[:-1])
        probe = np.concatenate([panels[1:], mids])
        vals = np.abs(fn(np.concatenate([probe, -probe, np.array([0.0])])))
        peak = np.max(vals, axis=0)
        return float(peak) if np.ndim(peak) == 0 else peak

    return lp_norm_function(fn, p, L, max(f.feature_scale, 1e-12), f.tail_power,
                            tol, f.even_slice_modulus)


def hardy_norm(f: HoloFunction, p: float, y_grid=(1.0, 0.5, 0.1, 0.05, 0.01),
               L: float = 1e4, tol: float = 1e-10) -> tuple:
    """The slice norms over a decreasing y-grid, one ``slice_norm`` per
    height in its order.  They rise as y decreases, which justifies
    reading their maximum as the Hardy norm, and a diverged slice reads
    inf; boundary-continuous forms may end the grid at y = 0, where the
    supremum is attained exactly.
    """
    ys = tuple(float(y) for y in y_grid)
    if not ys or any(ys[i] <= ys[i + 1] for i in range(len(ys) - 1)):
        raise ValueError("y_grid must be non-empty and strictly decreasing")
    return tuple(slice_norm(f, y, p, L, tol=tol) for y in ys)


# ---------------------------------------------------------------------------
# Poisson extension of sampled data

def _poisson_B(u: np.ndarray, y: float) -> np.ndarray:
    """Second antiderivative of the Poisson kernel: B'' = P_y."""
    return (u * np.arctan2(u, y) - 0.5 * y * np.log(u * u + y * y)) / math.pi


def _poisson_A(u: np.ndarray, y: float) -> np.ndarray:
    """Antiderivative of the Poisson kernel: A' = P_y."""
    return np.arctan2(u, y) / math.pi


def _halfhat_outer(x: np.ndarray, c: float, side: float, h: float,
                   y: float) -> np.ndarray:
    """Poisson integral of the outward half of the hat centered at c.

    The full-hat convolution pretends each boundary sample ramps to zero
    outside the window; this closed form lets callers remove that ramp so
    tagged tails can take over without double counting.
    """
    x = np.asarray(x, dtype=float)
    if side < 0:
        x = 2.0 * c - x
    u1 = x - c
    u0 = x - c - h
    a1, a0 = _poisson_A(u1, y), _poisson_A(u0, y)
    i_p = a1 - a0
    i_vp = (u1 * a1 - _poisson_B(u1, y)) - (u0 * a0 - _poisson_B(u0, y))
    return i_p * (1.0 - u1 / h) + i_vp / h


def _poisson_window(g: SampledLine, y: float, xs: np.ndarray,
                    conv: np.ndarray | None = None) -> np.ndarray:
    """Poisson integral of the piecewise-linear model of g on [-L, L-h].

    ``conv`` may carry the precomputed full-hat convolution on g's own
    grid; the outward half-hats of the two boundary samples are removed in
    closed form so the model ends exactly at the sampled span (a zero
    sample has no half-hat to remove).
    """
    xs = np.asarray(xs, dtype=float)
    h = g.h
    grid = g.grid()
    if conv is None:
        chunk = max(1, (1 << 22) // g.N)
        out = np.empty(xs.shape, dtype=complex)
        for start in range(0, xs.size, chunk):
            d = xs[start:start + chunk, None] - grid[None, :]
            w = (_poisson_B(d + h, y) - 2.0 * _poisson_B(d, y)
                 + _poisson_B(d - h, y)) / h
            out[start:start + chunk] = w.astype(complex) @ g.values
    else:
        out = conv.astype(complex)  # a copy; real-valued g convolves as real
    for v, c, side in ((g.values[0], grid[0], -1.0), (g.values[-1], grid[-1], +1.0)):
        if v != 0:
            out -= v * _halfhat_outer(xs, c, side, h, y)
    return out


def _poisson_tail(g: SampledLine, y: float, xs: np.ndarray) -> np.ndarray:
    """Contribution of the tagged tails to (g * P_y)(xs).

    The windowed model spans the sampled range [-L, L-h]; the tag
    integrals pick up exactly where it ends.
    """
    edges = {+1.0: g.L - g.h, -1.0: g.L}

    def one_side(side):
        def integrand(ss):
            s = side * (edges[side] + ss)
            py = (y / math.pi) / ((xs[None, :] - s[:, None]) ** 2 + y * y)
            return np.asarray(g.form(s)), py
        res = integrate_halfline(integrand, tol=1e-12, support=(1e-12, math.inf))
        if res.diverges:
            raise ValueError("tagged tail is not integrable against the Poisson kernel")
        return res.value

    return one_side(+1.0) + one_side(-1.0)


def _poisson_values(g: SampledLine, y: float, xs: np.ndarray,
                    conv: np.ndarray | None = None) -> np.ndarray:
    """(g * P_y)(xs) for arbitrary abscissas: windowed hat model in closed
    form (``conv`` as in _poisson_window) plus tagged tails by quadrature."""
    xs = np.asarray(xs, dtype=float)
    out = _poisson_window(g, y, xs, conv)
    if g.form is not None:
        out += _poisson_tail(g, y, xs)
    return out


def _poisson_grid_values(gs, ys):
    """As _poisson_values on the grid a corpus of lines gs shares, via the
    Toeplitz structure: per height in ys, in order, the list of every g's
    values.  The hat-integrated weights of a few heights at a time are
    real rows built and transformed once for the corpus and convolved at
    length 2N with each g's samples (``realline._convolve_rows``)."""
    n, h = gs[0].N, gs[0].h
    k = np.arange(-n, n + 1) * h
    grid = gs[0].grid()

    def row(y):
        b = _poisson_B(k, y)
        return (b[2:] - 2.0 * b[1:-1] + b[:-2]) / h  # its second difference

    for chunk, convs in _convolve_rows(gs, ys, row):
        convs = list(convs)
        for i, y in enumerate(chunk):
            yield [_poisson_values(g, y, grid, conv[i]) for g, conv in zip(gs, convs)]
        del convs  # else the transforms' buffers add to the next stack's


def poisson_extend(g: SampledLine, y: float) -> SampledLine:
    """Convolution with the Poisson kernel at height y > 0.

    The result carries a derived closed form (pointwise re-convolution)
    so iterated extensions keep their tails; its decay is the kernel's
    x^-2 unless the data decays slower.
    """
    if y <= 0:
        raise ValueError("height y must be positive")
    (vals,), = _poisson_grid_values([g], (y,))
    tp = None
    if g.form is not None:
        gtp = g.tail_power
        tp = min(2.0, gtp) if gtp is not None and gtp > 1 else gtp
    form = (lambda xs: _poisson_values(g, y, np.asarray(xs, dtype=float)))
    return SampledLine.derived(vals, g.L, form, tail_power=tp,
                               label=f"P_{y:g}*{g.label}" if g.label else "")
