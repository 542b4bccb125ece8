"""Nonnegative weight kernels on (0, inf) and their moment functionals.

A kernel is the weight under the averaging transforms: built-in closed
forms (indicator of (0,1), the t^-1 tail weight, the generalized
(1-t)^(alpha-1) family), tabulated profiles on a log grid, and the derived
kernels produced by truncation and by the reciprocal (adjoint) transform
t -> a(1/t)/t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .quadrature import (QuadResult, _bisect, _panel_batch, eval_budget,
                         integrate, integrate_halfline)
from .realline import _pchip

__all__ = [
    "Kernel",
    "MomentValue",
    "cesaro",
    "hardy_type",
    "gen_cesaro",
    "table_kernel",
    "zero_kernel",
    "eval_kernel",
    "moment",
    "moment_exponent",
    "cumulative_moment",
    "truncate_below",
    "adjoint_kernel",
    "kernel_from_config",
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
            vals = alpha * np.power(np.maximum(1.0 - t, 0.0), alpha - 1.0)
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
    interp = _pchip(np.log(ts), vs)

    def fn(t):
        t = np.asarray(t, dtype=float)
        out = interp(np.log(np.maximum(t, 1e-300)))
        return np.maximum(np.nan_to_num(out, nan=0.0), 0.0)

    return Kernel(kind="table", label=f"table[{len(pts)} pts]",
                  fn=fn, support=(float(ts[0]), float(ts[-1])))


def eval_kernel(k: Kernel, t):
    """phi(t) for t > 0 (scalar or array); zero outside the support.

    Raises ValueError on any nonpositive abscissa.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("kernel argument must be positive")
    lo, hi = k.support
    inside = (arr >= lo) & (arr <= hi)
    if arr.ndim and inside.all():
        return np.maximum(np.asarray(k.fn(arr), dtype=float), 0.0)
    out = np.zeros_like(arr)
    if np.any(inside):
        out[inside] = np.maximum(np.asarray(k.fn(arr[inside]), dtype=float), 0.0)
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
    are integrated once and accumulated, so a batch costs one sweep: from
    the left, or with ``upper`` from the right, the top segment [max x,
    inf) first, so (0, min x), which cancels out of every upper value, is
    never integrated.  A segment reaching 0 or inf takes the half-line
    scan; a bounded one with b/a > 1e3 is integrated in log t, as
    g(e^u) e^u over [log a, log b] by ``integrate``.  The first panels of
    the other bounded segments come from one integrand call; a segment
    whose first panel meets ``tol`` takes it, and the others are refined
    further, each as ``integrate`` would.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    xs = np.asarray(xs, dtype=float)
    if not xs.size:
        return np.empty(0)
    order = np.argsort(xs)
    sx = xs[order]
    lo, hi = k.support

    def g(ts):
        return k(ts) * np.power(ts, s - 1.0)

    def g_log(us):
        ts = np.exp(us)
        return g(ts) * ts

    # segment i ends at sx[i]; with ``upper`` one more runs on to infinity
    # and the first, which cancels, is skipped
    ends = [0.0, *sx] + ([math.inf] if upper else [])
    pieces = np.zeros(len(ends) - 1)
    bounded = []  # (index, a, b) of segments for the panel engine
    for i in range(int(upper), len(ends) - 1):
        a, b = max(ends[i], lo), min(ends[i + 1], hi)
        if not a < b:
            continue
        if a <= 0 or math.isinf(b):
            res = integrate_halfline(g, tol=tol, support=(a, b))
            if res.diverges:
                raise ValueError("cumulative moment diverges")
            pieces[i] = float(res.value)
        elif b / a > 1e3:
            pieces[i] = float(integrate(g_log, math.log(a), math.log(b), tol=tol).value)
        else:
            bounded.append((i, a, b))
    if bounded:
        firsts = _panel_batch(g, [(a, b) for _, a, b in bounded])
        budget = eval_budget()
        for (i, a, b), first in zip(bounded, firsts):
            pieces[i] = float(first[0] if first[1] <= tol else
                              _bisect(g, [(a, b, *first)], tol, budget).value)
    cums = np.cumsum(pieces[:0:-1])[::-1] if upper else np.cumsum(pieces)
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
