"""Nonnegative weight kernels on (0, inf) and their moment functionals.

A kernel is the weight under the averaging transforms: built-in closed
forms (indicator of (0,1), the t^-1 tail weight, the generalized
(1-t)^(alpha-1) family), tabulated profiles on a log grid, and the derived
kernels produced by truncation, dilation, scaling, and the reciprocal
(adjoint) transform t -> a(1/t)/t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.interpolate import PchipInterpolator

from .quadrature import QuadResult, integrate, integrate_halfline

__all__ = [
    "Kernel",
    "MomentValue",
    "cesaro",
    "hardy_type",
    "gen_cesaro",
    "table_kernel",
    "zero_kernel",
    "scale_kernel",
    "eval_kernel",
    "moment",
    "moment_exponent",
    "cumulative_moment",
    "truncate_below",
    "dilate_truncate",
    "adjoint_kernel",
    "kernel_from_config",
    "DEFAULT_MOMENT_TOL",
]

# default moment tolerance leaves headroom under the 1e-8 gates
DEFAULT_MOMENT_TOL = 1e-9


@dataclass(frozen=True)
class Kernel:
    """Nonnegative weight on (0, inf).

    ``fn`` is the raw profile (vectorized, defined on the support);
    evaluation outside ``support`` is zero and negative interpolation
    wiggle is clamped.  ``zero_exponent`` / ``inf_exponent`` record the
    local power behavior phi(t) ~ c*t^e at the relevant open end when it
    is known; the moment routine uses them to decide convergence exactly
    for closed forms.
    """

    kind: str
    label: str
    fn: object = field(repr=False, compare=False)
    support: tuple = (0.0, math.inf)
    zero_exponent: float | None = None
    inf_exponent: float | None = None

    def __call__(self, t):
        return eval_kernel(self, t)


@dataclass(frozen=True)
class MomentValue:
    """Extended-real value of a kernel moment integral.

    ``error`` is the quadrature error estimate and is None exactly when
    the value is +inf (divergent integral).
    """

    value: float
    error: float | None

    def __post_init__(self):
        if math.isinf(self.value) and self.error is not None:
            raise ValueError("divergent moment must not carry an error estimate")
        if not math.isinf(self.value) and self.error is None:
            raise ValueError("finite moment requires an error estimate")

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


def cesaro() -> Kernel:
    """Indicator of (0, 1): the classical averaging weight."""
    return Kernel(kind="cesaro", label="cesaro",
                  fn=lambda t: np.ones_like(np.asarray(t, dtype=float)),
                  support=(0.0, 1.0), zero_exponent=0.0)


def hardy_type() -> Kernel:
    """t^-1 on (1, inf): the adjoint-side tail weight."""
    return Kernel(kind="hardy", label="hardy",
                  fn=lambda t: 1.0 / np.asarray(t, dtype=float),
                  support=(1.0, math.inf), inf_exponent=-1.0)


def gen_cesaro(alpha: float) -> Kernel:
    """alpha*(1-t)^(alpha-1) on (0, 1); alpha > 0."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")

    def fn(t):
        t = np.asarray(t, dtype=float)
        # open at t = 1: alpha < 1 is singular there (integrable), and
        # rounded abscissas must not evaluate the power at exactly zero
        with np.errstate(divide="ignore"):
            vals = alpha * np.power(np.clip(1.0 - t, 0.0, None), alpha - 1.0)
        return np.where(t < 1.0, vals, 0.0)

    return Kernel(kind="gencesaro", label=f"gencesaro(alpha={alpha:g})",
                  fn=fn, support=(0.0, 1.0), zero_exponent=0.0)


def zero_kernel() -> Kernel:
    return Kernel(kind="zero", label="zero",
                  fn=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                  support=(1.0, 2.0), zero_exponent=None, inf_exponent=None)


def table_kernel(points) -> Kernel:
    """Kernel interpolated from (t, phi) samples on a logarithmic grid.

    Monotone piecewise-cubic in log t, clamped at zero; support is the
    sampled range, so the moment of a table is always finite.
    """
    pts = sorted((float(t), float(v)) for t, v in points)
    if len(pts) < 2:
        raise ValueError("table kernel needs at least two samples")
    ts = np.array([p[0] for p in pts])
    vs = np.array([p[1] for p in pts])
    if ts[0] <= 0:
        raise ValueError("table abscissas must be positive")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("table abscissas must be strictly increasing")
    if np.any(vs < 0):
        raise ValueError("table values must be nonnegative")
    interp = PchipInterpolator(np.log(ts), vs, extrapolate=False)

    def fn(t):
        t = np.asarray(t, dtype=float)
        out = interp(np.log(np.clip(t, 1e-300, None)))
        return np.clip(np.nan_to_num(out, nan=0.0), 0.0, None)

    return Kernel(kind="table", label=f"table[{len(pts)} pts]",
                  fn=fn, support=(float(ts[0]), float(ts[-1])))


def scale_kernel(k: Kernel, c: float) -> Kernel:
    """c * phi for c >= 0."""
    if c < 0:
        raise ValueError("scale factor must be nonnegative")
    base = k.fn
    return replace(k, label=f"{c:g}*{k.label}", fn=lambda t: c * np.asarray(base(t)))


def eval_kernel(k: Kernel, t):
    """phi(t) for t > 0 (scalar or array); zero outside the support.

    Raises ValueError on any nonpositive abscissa.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("kernel argument must be positive")
    lo, hi = k.support
    inside = (arr >= lo) & (arr <= hi)
    out = np.zeros_like(arr)
    if np.any(inside):
        vals = np.clip(np.asarray(k.fn(arr[inside]), dtype=float), 0.0, None)
        out[inside] = vals
    if np.ndim(t) == 0:
        return float(out)
    return out


def _convergence_by_exponent(k: Kernel, s: float):
    """Exact convergence decision at the open ends, where metadata allows.

    Returns True (converges), False (diverges), or None (undecided: fall
    back to the numeric block scan).  The criterion is the power test on
    t^(s-1) * phi(t): at 0 it needs s + e > 0, at infinity s + e < 0.
    """
    lo, hi = k.support
    decided = True
    if lo == 0.0:
        if k.zero_exponent is None:
            decided = None
        elif s + k.zero_exponent <= 0:
            return False
    if math.isinf(hi):
        if k.inf_exponent is None:
            decided = None
        elif s + k.inf_exponent >= 0:
            return False
    return decided


def moment_exponent(k: Kernel, s: float, tol: float = DEFAULT_MOMENT_TOL) -> MomentValue:
    """integral of t^(s-1) * phi(t) dt over (0, inf), extended-real."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if k.kind == "zero":
        return MomentValue(0.0, 0.0)
    verdict = _convergence_by_exponent(k, s)
    if verdict is False:
        return MomentValue(math.inf, None)

    def integrand(ts):
        return eval_kernel(k, ts) * np.power(ts, s - 1.0)

    res: QuadResult = integrate_halfline(integrand, tol=tol, support=k.support)
    if res.diverges:
        return MomentValue(math.inf, None)
    return MomentValue(float(res.value), float(res.error))


def moment(k: Kernel, p: float, tol: float = DEFAULT_MOMENT_TOL) -> MomentValue:
    """The p-scale moment: integral of t^(1/p-1)*phi(t) dt, 1/p := 0 at p=inf.

    This is the exact operator norm of the averaging transform on the
    p-scale when finite; +inf signals an unbounded operator.
    """
    if not (p >= 1):
        raise ValueError("p must lie in [1, inf]")
    s = 0.0 if math.isinf(p) else 1.0 / p
    return moment_exponent(k, s, tol=tol)


def cumulative_moment(k: Kernel, s: float, xs: np.ndarray,
                      upper: bool = False, tol: float = 1e-11) -> np.ndarray:
    """integral of t^(s-1) phi(t) over (0, x] (or [x, inf) when upper).

    ``xs`` may be unsorted; segments between consecutive sorted abscissas
    are integrated once and accumulated, so a batch costs one sweep.
    """
    xs = np.asarray(xs, dtype=float)
    order = np.argsort(xs)
    sx = xs[order]
    lo, hi = k.support

    def seg(a, b):
        a2, b2 = max(a, lo), min(b, hi)
        if not a2 < b2:
            return 0.0
        if a2 <= 0 or (b2 / a2 > 1e3) or math.isinf(b2):
            res = integrate_halfline(
                lambda ts: k(ts) * np.power(ts, s - 1.0), tol=tol,
                support=(a2, b2))
            if res.diverges:
                raise ValueError("cumulative moment diverges")
            return float(res.value)
        return float(integrate(lambda ts: k(ts) * np.power(ts, s - 1.0),
                               a2, b2, tol=tol).value)

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


def truncate_below(k: Kernel, delta: float) -> Kernel:
    """phi restricted to [delta, inf); delta in (0, 1)."""
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    lo, hi = k.support
    new_lo = max(lo, delta)
    if new_lo >= hi:
        return zero_kernel()
    return replace(k, kind="derived", label=f"{k.label}|[{delta:g},inf)",
                   support=(new_lo, hi), zero_exponent=None)


def dilate_truncate(k: Kernel, m: float) -> Kernel:
    """t -> phi(m t) restricted to (0, 1]; m > 0.

    The dilated-then-cut kernel used to exhaust mass at large t: its
    support is (supp phi)/m intersected with (0, 1].
    """
    if m <= 0:
        raise ValueError("m must be positive")
    lo, hi = k.support
    new_lo = lo / m
    new_hi = min(1.0, hi / m)
    if new_lo >= new_hi:
        return zero_kernel()
    base = k.fn

    def fn(t):
        return np.asarray(base(m * np.asarray(t, dtype=float)))

    return Kernel(kind="derived", label=f"{k.label}(m*t)|(0,1]", fn=fn,
                  support=(new_lo, new_hi),
                  zero_exponent=k.zero_exponent if new_lo == 0.0 else None)


def adjoint_kernel(a: Kernel) -> Kernel:
    """The reciprocal transform t -> a(1/t)/t.

    An involution: applying it twice reproduces the input pointwise.  It
    carries the companion operator S_a onto the averaging transform with
    this kernel.
    """
    lo, hi = a.support
    new_lo = 0.0 if math.isinf(hi) else 1.0 / hi
    new_hi = math.inf if lo == 0.0 else 1.0 / lo
    base = a.fn

    def fn(t):
        t = np.asarray(t, dtype=float)
        return np.asarray(base(1.0 / t)) / t

    # power behavior swaps ends: a ~ t^e at 0 gives t^(-1-e) at infinity
    z = None if a.inf_exponent is None else -1.0 - a.inf_exponent
    i = None if a.zero_exponent is None else -1.0 - a.zero_exponent
    return Kernel(kind="derived", label=f"adjoint({a.label})", fn=fn,
                  support=(new_lo, new_hi),
                  zero_exponent=z if new_lo == 0.0 else None,
                  inf_exponent=i if math.isinf(new_hi) else None)


def kernel_from_config(spec: dict) -> Kernel:
    """Build a kernel from its config-file description.

    Schema: {"kind": "cesaro"|"hardy"|"gencesaro"|"table",
             "alpha": number?, "points": [[t, phi], ...]?}
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("kernel spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "cesaro":
        return cesaro()
    if kind == "hardy":
        return hardy_type()
    if kind == "gencesaro":
        if "alpha" not in spec:
            raise ValueError("gencesaro kernel spec requires 'alpha'")
        return gen_cesaro(float(spec["alpha"]))
    if kind == "table":
        if "points" not in spec:
            raise ValueError("table kernel spec requires 'points'")
        return table_kernel(spec["points"])
    raise ValueError(f"unknown kernel kind {kind!r}")
