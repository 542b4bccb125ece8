"""Shared numerical integration engine.

Provides adaptive quadrature on bounded intervals, improper integration on
the half-line (0, inf) under the substitution t = e^u with divergence
detection, and symmetric principal-value integration for simple-pole
singularities.

All routines accept integrands that are vectorized over the quadrature
nodes: ``g`` is called with a 1-d array of abscissas and must return an
array whose leading axis matches.  The return value may carry extra
trailing axes, in which case the whole integral is computed component-wise
(error estimates use the max-norm across components).  This is how the
operator transforms evaluate a single adaptive schedule against a full
grid of output points.
"""

from __future__ import annotations

import heapq
import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadResult",
    "BudgetError",
    "DivergenceError",
    "eval_budget",
    "integrate",
    "integrate_halfline",
    "integrate_pv",
    "integrate_batched",
    "geometric_panels",
    "doubling_panels",
]

DEFAULT_BUDGET = 1_000_000

# Exponent cap for the t = e^u substitution; keeps e^u inside double range.
_U_CAP = 690.0

# Embedded Gauss-Legendre pair: the 21-point value with the 10-point rule
# as error reference.  Nodes are generated at import so no hand-typed
# constants enter the scheme.
_X_LO, _W_LO = np.polynomial.legendre.leggauss(10)
_X_HI, _W_HI = np.polynomial.legendre.leggauss(21)
_NODES = np.concatenate([_X_LO, _X_HI])
_EVALS_PER_PANEL = _NODES.size


def eval_budget(default: int = DEFAULT_BUDGET) -> int:
    """Per-call evaluation budget; the HHL_BUDGET env var overrides it."""
    raw = os.environ.get("HHL_BUDGET", "").strip()
    if not raw:
        return default
    return int(raw)


@dataclass(frozen=True)
class QuadResult:
    """Value of an integral with an absolute error estimate.

    ``value`` is a float, complex, or ndarray (component-wise integrals).
    ``error`` is the max-norm error estimate, ``evaluations`` counts
    integrand abscissas, and ``diverges`` marks a detected divergent
    improper integral (value is then +-inf).
    """

    value: object
    error: float
    evaluations: int
    diverges: bool = False


class BudgetError(RuntimeError):
    """Evaluation budget exhausted before the tolerance was met.

    Carries the partial result in ``partial``.
    """

    def __init__(self, message: str, partial: QuadResult):
        super().__init__(message)
        self.partial = partial


class DivergenceError(ValueError):
    """A principal value (or transform node) failed to converge."""


def _abs_max(v) -> float:
    a = np.abs(v)
    return float(a) if np.ndim(a) == 0 else float(a.max()) if a.size else 0.0


def _panel(g, a: float, b: float):
    """Evaluate the embedded rule pair on [a, b].

    Returns (value, error, evaluations) where value is the high-order
    estimate.  One call to ``g`` with all abscissas of both rules.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    xs = mid + half * _NODES
    vals = np.asarray(g(xs))
    lo = np.tensordot(_W_LO, vals[:10], axes=(0, 0)) * half
    hi = np.tensordot(_W_HI, vals[10:], axes=(0, 0)) * half
    return hi, _abs_max(hi - lo), _EVALS_PER_PANEL


def _collect(segments):
    """Sum segment values in canonical (left endpoint) order."""
    segments = sorted(segments, key=lambda s: (s[0], s[1]))
    vals = [s[2] for s in segments]
    if len(vals) == 1:
        return vals[0]
    return np.sum(np.stack([np.asarray(v) for v in vals]), axis=0)


def integrate(g, a: float, b: float, tol: float = 1e-9,
              budget: int | None = None) -> QuadResult:
    """Adaptive quadrature of ``g`` over the bounded interval [a, b].

    Bisects the interval with the worst local error estimate until the
    summed estimate drops below ``tol`` (absolute).  Endpoint
    singularities that are integrable are handled by the open node set.

    Raises BudgetError (carrying the partial result) if the evaluation
    budget runs out first.
    """
    if not (a < b):
        raise ValueError(f"empty interval [{a}, {b}]")
    if tol <= 0:
        raise ValueError("tol must be positive")
    budget = eval_budget() if budget is None else budget

    val, err, n = _panel(g, a, b)
    evals = n
    # heap entries: (-error, seq, a, b, value); seq makes ordering total.
    seq = 0
    heap = [(-err, seq, a, b, val)]
    done = []  # intervals too narrow to split further
    total_err = err
    best_err = err
    stale = 0

    while total_err > tol and heap:
        if evals + 2 * _EVALS_PER_PANEL > budget:
            segs = [(e[2], e[3], e[4]) for e in heap] + done
            partial = QuadResult(_collect(segs), total_err, evals)
            raise BudgetError(
                f"quadrature budget {budget} exhausted on [{a}, {b}] "
                f"(error estimate {total_err:.3e} > tol {tol:.3e})",
                partial)
        neg_e, _, ia, ib, ival = heapq.heappop(heap)
        width = ib - ia
        if width <= 8 * np.finfo(float).eps * max(abs(ia), abs(ib), 1.0):
            # cannot be refined at double precision; freeze it
            done.append((ia, ib, ival))
            total_err += neg_e  # removes its error from the ledger
            continue
        mid = 0.5 * (ia + ib)
        v1, e1, n1 = _panel(g, ia, mid)
        v2, e2, n2 = _panel(g, mid, ib)
        evals += n1 + n2
        total_err += neg_e + e1 + e2
        seq += 1
        heapq.heappush(heap, (-e1, seq, ia, mid, v1))
        seq += 1
        heapq.heappush(heap, (-e2, seq, mid, ib, v2))
        # noise-floor guard: interpolated data carries an estimator floor
        # refinement cannot beat; stop once splits no longer pay
        if total_err < best_err * (1.0 - 1e-3):
            best_err = total_err
            stale = 0
        else:
            stale += 1
            if stale >= 24:
                break

    segs = [(e[2], e[3], e[4]) for e in heap] + done
    return QuadResult(_collect(segs), max(total_err, 0.0), evals)


def _block_scan(h, u0: float, u_end: float, direction: int, tol: float,
                budget_left, accumulate):
    """Scan dyadic u-blocks from u0 toward u_end (direction +-1).

    ``accumulate(value, error, evals)`` folds each block into the caller's
    running state and returns the current running max-norm.  Returns
    (diverged, truncated_error).  Stopping: two consecutive blocks whose
    contribution is negligible against the running value.  Divergence: the
    running total grows by >= 1+1e-3 and block contributions fail to decay,
    eight blocks in a row.
    """
    width = 1.0
    cur = u0
    quiet = 0
    grow = 0
    prev_total = None
    prev_block = None
    while True:
        nxt = cur + direction * width
        if direction > 0:
            nxt = min(nxt, u_end, _U_CAP)
        else:
            nxt = max(nxt, u_end, -_U_CAP)
        if (nxt - cur) * direction <= 0:
            return False, 0.0
        lo, hi = (cur, nxt) if direction > 0 else (nxt, cur)
        res = integrate(h, lo, hi, tol=tol / 16.0, budget=budget_left())
        running = accumulate(res.value, res.error, res.evaluations)
        blk = _abs_max(res.value)

        if prev_total is not None and prev_total > 0:
            grew = running >= prev_total * (1.0 + 1e-3)
            undamped = prev_block is not None and blk >= prev_block * (1.0 - 1e-3)
            grow = grow + 1 if (grew and undamped) else 0
            if grow >= 8:
                return True, 0.0
        prev_total = running
        prev_block = blk

        if blk <= tol * max(1.0, running) / 16.0:
            quiet += 1
            if quiet >= 2:
                return False, 0.0
        else:
            quiet = 0

        cur = nxt
        width *= 2.0
        if (direction > 0 and cur >= min(u_end, _U_CAP)) or \
           (direction < 0 and cur <= max(u_end, -_U_CAP)):
            # hit the representable cap with contributions still live
            truncated = 0.0 if abs(cur) < _U_CAP else blk
            return False, truncated


def integrate_halfline(g, tol: float = 1e-9, budget: int | None = None,
                       support: tuple[float, float] = (0.0, math.inf)) -> QuadResult:
    """Improper integral of ``g`` over (lo, hi) inside (0, inf).

    Works in u = log t: the central block around the support anchor is
    integrated first, then dyadic blocks expand toward both ends, each
    truncated once contributions fall below tol relative to the running
    estimate.  A running total that keeps growing block over block is
    reported as divergent (QuadResult.diverges, value +inf) rather than
    raising; callers decide whether divergence is an error.
    """
    lo, hi = support
    if lo < 0 or hi <= lo:
        raise ValueError(f"support must satisfy 0 <= lo < hi, got {support}")
    budget = eval_budget() if budget is None else budget

    def h(us):
        ts = np.exp(us)
        vals = np.asarray(g(ts))
        w = ts if vals.ndim <= 1 else ts.reshape(ts.shape + (1,) * (vals.ndim - 1))
        return vals * w

    u_lo = -math.inf if lo == 0.0 else math.log(lo)
    u_hi = math.inf if math.isinf(hi) else math.log(hi)

    state = {"vals": [], "err": 0.0, "evals": 0}

    def accumulate(v, e, n):
        state["vals"].append(v)
        state["err"] += e
        state["evals"] += n
        return _abs_max(np.sum(np.stack([np.asarray(x) for x in state["vals"]]), axis=0))

    def budget_left():
        left = budget - state["evals"]
        if left <= 2 * _EVALS_PER_PANEL:
            partial = QuadResult(_total(), state["err"], state["evals"])
            raise BudgetError(
                f"half-line budget {budget} exhausted", partial)
        return left

    def _total():
        if not state["vals"]:
            return 0.0
        return np.sum(np.stack([np.asarray(x) for x in state["vals"]]), axis=0)

    # anchor block: a unit-scale block inside [u_lo, u_hi], near u = 0
    # when the window allows it, else hugging the nearest finite end
    a0 = min(max(-1.0, u_lo), max(u_hi - 1.0, u_lo))
    b0 = min(a0 + 2.0, u_hi)
    a0 = min(max(a0, -_U_CAP), _U_CAP - 1.0)
    b0 = min(max(b0, a0 + 1e-12), _U_CAP)
    res0 = integrate(h, a0, b0, tol=tol / 4.0, budget=budget)
    accumulate(res0.value, res0.error, res0.evaluations)

    div_up, trunc_up = (False, 0.0)
    if b0 < u_hi:
        div_up, trunc_up = _block_scan(h, b0, u_hi, +1, tol, budget_left, accumulate)
    div_dn, trunc_dn = (False, 0.0)
    if a0 > u_lo:
        div_dn, trunc_dn = _block_scan(h, a0, u_lo, -1, tol, budget_left, accumulate)

    if div_up or div_dn:
        return QuadResult(math.inf, math.inf, state["evals"], diverges=True)
    return QuadResult(_total(), state["err"] + trunc_up + trunc_dn, state["evals"])


def integrate_pv(g, x0: float, a: float, b: float, tol: float = 1e-9,
                 budget: int | None = None) -> QuadResult:
    """Principal value of ``g`` over [a, b] with a simple pole at x0.

    The symmetric part pairs nodes x0 +- s so the pole cancels
    analytically; the leftover one-sided remainder is ordinary quadrature.
    Dyadic shells shrinking toward the pole are accumulated until their
    contribution is negligible; shells that refuse to decay signal a
    non-cancelling singularity and raise DivergenceError.
    """
    if not (a < x0 < b):
        raise ValueError(f"x0={x0} must lie strictly inside [{a}, {b}]")
    budget = eval_budget() if budget is None else budget
    s0 = min(x0 - a, b - x0)

    def sym(ss):
        # offsets exactly representable at x0, so x0 + s and x0 - s pair
        # up without rounding drift (which reads as a non-decaying shell)
        ss = (x0 + ss) - x0
        return np.asarray(g(x0 + ss)) + np.asarray(g(x0 - ss))

    vals = []
    err = 0.0
    evals = 0
    quiet = 0
    nondecay = 0
    prev_blk = None
    hi = s0
    for _ in range(200):
        lo = hi * 0.5
        res = integrate(sym, lo, hi, tol=tol / 16.0, budget=budget - evals)
        vals.append(res.value)
        err += res.error
        evals += res.evaluations
        blk = _abs_max(res.value)
        running = _abs_max(np.sum(np.stack([np.asarray(v) for v in vals]), axis=0))
        if prev_blk is not None:
            nondecay = nondecay + 1 if blk >= prev_blk * (1.0 - 1e-3) and blk > tol else 0
            if nondecay >= 8:
                raise DivergenceError(
                    f"principal value at x0={x0} does not cancel: shell "
                    f"contributions near the pole are not decaying")
        prev_blk = blk
        if blk <= tol * max(1.0, running) / 16.0:
            quiet += 1
            if quiet >= 2:
                break
        else:
            quiet = 0
        hi = lo
    total = np.sum(np.stack([np.asarray(v) for v in vals]), axis=0)

    # asymmetric remainder
    if x0 - a < b - x0:
        rem_lo, rem_hi = x0 + s0, b
    elif b - x0 < x0 - a:
        rem_lo, rem_hi = a, x0 - s0
    else:
        rem_lo = rem_hi = None
    if rem_lo is not None and rem_hi > rem_lo:
        rres = integrate(g, rem_lo, rem_hi, tol=tol, budget=budget - evals)
        total = total + rres.value
        err += rres.error
        evals += rres.evaluations
    return QuadResult(total, err, evals)


def doubling_panels(start: float, outer: float):
    """Breakpoints start, 2 start, 4 start, ... closed at ``outer``."""
    pts = []
    s = start
    while s < outer:
        pts.append(s)
        s *= 2.0
    pts.append(outer)
    return pts


def geometric_panels(scale: float, outer: float, inner: float = 1e-12):
    """Breakpoints 0, s, 2s, 4s, ... toward ``outer`` for graded panels.

    ``scale`` is the smallest feature width the integrand carries; panels
    double from max(inner, scale/64) so power-law profiles see a bounded
    number of nodes per octave.
    """
    if outer <= 0:
        raise ValueError("outer must be positive")
    return [0.0] + doubling_panels(max(inner, min(scale, outer) / 64.0), outer)


def _panel_batch(g_batch, pending):
    """Embedded-rule (value, error) of every panel in ``pending`` from one
    call of ``g_batch``; also returns the abscissa count."""
    mids = np.array([0.5 * (a + b) for a, b in pending])
    halfs = np.array([0.5 * (b - a) for a, b in pending])
    xs = (mids[:, None] + halfs[:, None] * _NODES[None, :]).ravel()
    vals = np.asarray(g_batch(xs))
    vals = vals.reshape(len(pending), _EVALS_PER_PANEL, *vals.shape[1:])
    out = []
    for v, half in zip(vals, halfs):
        lo = np.tensordot(_W_LO, v[:10], axes=(0, 0)) * half
        hi = np.tensordot(_W_HI, v[10:], axes=(0, 0)) * half
        out.append((hi, _abs_max(hi - lo)))
    return out, xs.size


def integrate_batched(g_batch, panels, tol: float = 1e-9,
                      budget: int | None = None, max_rounds: int = 24) -> QuadResult:
    """Panel quadrature with batched evaluation.

    ``panels`` is a list of breakpoints; every refinement round gathers the
    abscissas of all panels that still exceed their error share into one
    array and calls ``g_batch`` once.  Intended for integrands whose every
    evaluation is itself expensive (inner quadratures) but vectorizes
    across points.
    """
    budget = eval_budget() if budget is None else budget
    intervals = [(panels[i], panels[i + 1]) for i in range(len(panels) - 1)
                 if panels[i + 1] > panels[i]]
    if not intervals:
        raise ValueError("need at least one non-empty panel")

    evals = 0
    settled = []  # (a, b, value, error)
    pending = intervals
    for _ in range(max_rounds):
        if not pending:
            break
        if evals + len(pending) * _EVALS_PER_PANEL > budget:
            segs = [(a, b, v) for a, b, v, _ in settled]
            err = sum(e for *_, e in settled) + math.inf
            raise BudgetError("batched quadrature budget exhausted",
                              QuadResult(_collect(segs) if segs else 0.0,
                                         err, evals))
        estimates, n = _panel_batch(g_batch, pending)
        evals += n
        new_pending = []
        for (a, b), (hi, e) in zip(pending, estimates):
            tiny = 8 * np.finfo(float).eps * max(abs(a), abs(b), 1.0)
            if e <= tol / max(len(intervals), 8) or (b - a) <= tiny:
                settled.append((a, b, hi, e))
            else:
                m = 0.5 * (a + b)
                new_pending.extend([(a, m), (m, b)])
        pending = new_pending
    else:
        # rounds exhausted: keep best estimates for what is left
        if pending:
            estimates, n = _panel_batch(g_batch, pending)
            evals += n
            settled.extend((a, b, hi, e)
                           for (a, b), (hi, e) in zip(pending, estimates))

    segs = [(a, b, v) for a, b, v, _ in settled]
    err = float(sum(e for *_, e in settled))
    return QuadResult(_collect(segs), err, evals)
